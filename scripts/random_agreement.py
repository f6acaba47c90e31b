#!/usr/bin/env python3
"""Stress the search against the naive Cartesian filter on random instances.

Each instance is also counted with partial checks off: pruning must keep
the count and may only save nodes. Also cross-checks regular/mdd
membership against brute-force path enumeration. Any disagreement prints
the offending seed and exits nonzero.
"""

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package

import oracles  # noqa: E402  (test oracle helpers, deliberately outside the package)
from xcsp3core import kinds as K  # noqa: E402
from xcsp3core.checker import check_constraint  # noqa: E402
from xcsp3core.parser import parse_string  # noqa: E402
from xcsp3core.solver import SearchConfig, count_solutions  # noqa: E402


def run_instances(n: int, base_seed: int, verbose: bool) -> int:
    failures = 0
    total_solutions = 0
    pruned_nodes = plain_nodes = 0
    started = time.monotonic()
    for k in range(n):
        seed = base_seed + k
        rng = random.Random(seed)
        xml = oracles.random_instance_xml(rng)
        inst = parse_string(xml)
        pruned = count_solutions(inst)
        plain = count_solutions(inst, SearchConfig(partial_checks=False))
        want = oracles.naive_count(inst)
        total_solutions += want
        pruned_nodes += pruned.nodes
        plain_nodes += plain.nodes
        if not pruned.count == plain.count == want or pruned.nodes > plain.nodes:
            failures += 1
            print(f"DISAGREE seed={seed}: search={pruned.count} ({pruned.nodes} nodes) "
                  f"unpruned={plain.count} ({plain.nodes} nodes) naive={want}")
            if verbose:
                print(xml)
        elif verbose:
            print(f"seed={seed}: {pruned.count} solutions")
    elapsed = time.monotonic() - started
    ratio = pruned_nodes / plain_nodes if plain_nodes else 1.0
    print(f"instances: {n} checked, {failures} disagreements, "
          f"{total_solutions} solutions total, {elapsed:.1f}s")
    print(f"nodes: {pruned_nodes} pruned / {plain_nodes} unpruned = {ratio:.3f}")
    return failures


def run_machines(n: int, base_seed: int) -> int:
    failures = 0
    started = time.monotonic()
    for k in range(n):
        seed = base_seed + k
        rng = random.Random(seed)
        if k % 2 == 0:
            transitions, start, finals, alphabet, length = oracles.random_automaton(rng)
            names = tuple(f"w{i}" for i in range(length))
            kind = K.Regular(scope=names, transitions=tuple(transitions),
                             start=start, finals=tuple(finals))
            def accepts(word):
                return oracles.automaton_accepts(transitions, start, finals, word)
        else:
            transitions, length, alphabet = oracles.random_mdd(rng)
            names = tuple(f"w{i}" for i in range(length))
            kind = K.Mdd(scope=names, transitions=tuple(transitions))
            wanted = oracles.mdd_accepted(transitions)
            def accepts(word):
                return word in wanted
        for word in itertools.product(alphabet, repeat=length):
            if check_constraint(kind, dict(zip(names, word))) != accepts(word):
                failures += 1
                print(f"DISAGREE seed={seed} word={word}")
                break
    elapsed = time.monotonic() - started
    print(f"machines: {n} checked, {failures} disagreements, {elapsed:.1f}s")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500,
                        help="random instances to compare (default 500)")
    parser.add_argument("--machines", type=int, default=500,
                        help="random automata/diagrams to compare (default 500)")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    failures = run_instances(args.instances, args.seed, args.verbose)
    failures += run_machines(args.machines, args.seed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
