#!/usr/bin/env python3
"""Summarize every instance in a fixture directory, optionally solving each.

Prints one row per instance: framework, variable and constraint counts, the
most constraints that one variable completes in declaration order (the
widest depth of a search in that order), the time parse_file took (reading
the file included), the constraint kinds present, and (with --solve) the solution count or optimum, the search
time, the nodes visited and the nodes per second. With --solve a last row
totals the fixtures, their nodes and search seconds, and the nodes per
second over all of them, and a row after it counts the loop shapes that
the searches compiled (solver._LOOPS).
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's

from xcsp3core import solver  # noqa: E402
from xcsp3core.model import Instance  # noqa: E402
from xcsp3core.parser import parse_file  # noqa: E402
from xcsp3core.solver import SearchConfig, Status, count_solutions, solve  # noqa: E402


def widest_depth(instance: Instance) -> int:
    """The most constraints whose latest-declared variable is one variable."""
    position = {var.id: i for i, var in enumerate(instance.variables())}
    completed = Counter(max(kind.var_ids, key=position.__getitem__)
                        for kind in (posted.kind for posted in instance.constraints)
                        if kind.var_ids)
    return max(completed.values(), default=0)


def describe(path: Path, do_solve: bool, node_limit: int) -> Tuple[str, int, float]:
    """The instance's row, with the nodes and seconds its search took (0
    without --solve)."""
    started = time.perf_counter()
    instance = parse_file(str(path))
    parse_ms = 1000 * (time.perf_counter() - started)
    kinds = sorted({type(p.kind).__name__ for p in instance.constraints})
    n_vars = sum(1 for _ in instance.variables())
    row = (f"{path.name:28} {instance.framework.value:3} "
           f"{n_vars:3} vars {len(instance.constraints):3} ctrs "
           f"{widest_depth(instance):3} widest {parse_ms:7.2f} ms parse  {','.join(kinds)}")
    if not do_solve:
        return row, 0, 0.0
    started = time.monotonic()
    if instance.objective is not None:
        result = solve(instance, SearchConfig(node_limit=node_limit))
        if result.status is Status.OPTIMUM:
            verdict = f"optimum={result.best_cost}"
        elif result.status is Status.LIMIT:
            verdict = "limit"
        else:
            verdict = "unsat"
    else:
        result = count_solutions(instance, SearchConfig(node_limit=node_limit))
        verdict = (f"solutions={result.count}"
                   if result.status is not Status.LIMIT else "limit")
    took = time.monotonic() - started
    rate = f"{result.nodes / took:,.0f}" if took > 0 else "-"
    return (f"{row}  [{verdict} in {took:.2f}s, nodes={result.nodes:,}, "
            f"{rate} nodes/s]", result.nodes, took)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_dir = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
    parser.add_argument("directory", nargs="?", default=str(default_dir),
                        help="directory of instance XML files")
    parser.add_argument("--solve", action="store_true",
                        help="also count solutions / find the optimum")
    parser.add_argument("--node-limit", type=int, default=2_000_000,
                        help="search budget per instance when solving")
    args = parser.parse_args()
    paths = sorted(Path(args.directory).glob("*.xml"))
    if not paths:
        print(f"no instances under {args.directory}", file=sys.stderr)
        return 1
    nodes, seconds = 0, 0.0
    for path in paths:
        row, searched, took = describe(path, args.solve, args.node_limit)
        print(row)
        nodes, seconds = nodes + searched, seconds + took
    if args.solve:
        rate = f"{nodes / seconds:,.0f}" if seconds > 0 else "-"
        print(f"total: {len(paths)} fixtures, nodes={nodes:,}, {seconds:.2f}s, "
              f"{rate} nodes/s")
        print(f"loop shapes={len(solver._LOOPS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
