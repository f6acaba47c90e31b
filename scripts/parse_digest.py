#!/usr/bin/env python3
"""Print one digest of the parser's outcomes, to compare two checkouts.

The documents are tests/fixtures/*.xml, tests/fixtures/bad/*.xml and
--mutants whole-document mutants of the former, drawn from --seed. Each is
parsed in strict and in lenient mode. An outcome is the instance's
canonical form and the paths the parser removed, or the error's class,
rule, path and message. The fixtures, the mutator and the outcome come
from tests/mutants.py, the helper module that tests/test_errors.py fuzzes
the reader with. The last line gives the counts and the SHA-256 of all
outcomes in order: two checkouts whose parsers agree on every document
print the same line. --show prints one line per outcome too, so that two
runs can be compared with diff.

--round-trip also reparses, in the same mode, the canonical form of each
document that parses, and digests that outcome after the document's. The
canonical form writes every constraint flat, so the reparses read many
texts that share an expression shape; the last line then also counts the
reparses and those whose canonical form is the first one's.

    python3 scripts/parse_digest.py --mutants 2000 --seed 0
    python3 scripts/parse_digest.py --mutants 2000 --seed 0 --round-trip
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package

from mutants import DOCUMENTS, mutant, outcome  # noqa: E402  (test helpers, outside the package)


def spelled(result: tuple) -> str:
    """One outcome of mutants.outcome as text."""
    if isinstance(result[0], type):
        error, rule, path, message = result
        return f"{error.__name__} rule={rule} path={path} {message}"
    _, removed, rendered = result
    return f"removed={list(removed)}\n{rendered}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mutants", type=int, default=2000, help="mutants to parse")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutants")
    parser.add_argument("--show", action="store_true", help="print every outcome")
    parser.add_argument("--round-trip", action="store_true",
                        help="also reparse the canonical form of each parsed document")
    args = parser.parse_args()

    texts = [path.read_text(encoding="utf-8") for path in DOCUMENTS]
    documents = texts + [path.read_text(encoding="utf-8")
                         for path in sorted((ROOT / "tests/fixtures/bad").glob("*.xml"))]
    rng = random.Random(args.seed)
    documents += [mutant(rng, rng.choice(texts)) for _ in range(args.mutants)]

    digest = hashlib.sha256()
    parsed = failed = reparsed = same = 0
    for k, text in enumerate(documents):
        for strict in (True, False):
            mode = "strict" if strict else "lenient"
            result = outcome(text, strict)
            lines = [f"{k} {mode} {spelled(result)}"]
            if isinstance(result[0], type):
                failed += 1
            else:
                parsed += 1
                if args.round_trip:
                    again = outcome(result[2], strict)
                    reparsed += 1
                    same += not isinstance(again[0], type) and again[2] == result[2]
                    lines.append(f"{k} {mode} reparsed {spelled(again)}")
            for line in lines:
                digest.update(line.encode("utf-8") + b"\0")
                if args.show:
                    print(line.replace("\n", "\\n"))
    counts = f" reparsed={reparsed} same={same}" if args.round_trip else ""
    print(f"documents={len(documents)} outcomes={parsed + failed} parsed={parsed} "
          f"failed={failed}{counts} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
