#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians over seeds in one JSON file.

For each seed, then each workload, runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` in a process of its own and reads the JSON
object on the last line of its output. The file written has the layout of
the ``end_to_end`` section of perfbench/baseline.json: per workload the
seeds, the operations attempted in each run, the failed operations of all
runs, and each metric's median over the seeds and its interquartile range
as a share of that median (``iqr_share``, 0 for one seed). ROADMAP.md names
such files ``BENCH_<pr>.json``, one per change that claims a gain.

    python3 scripts/bench_record.py --out BENCH_<pr>.json --seeds 1 2 3 --seconds 20
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("search", "parse", "check", "cli")


def run_result(stdout: str) -> dict:
    """The JSON object on the last line of one run.py output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    return json.loads(lines[-1])


def _iqr_share(values: Sequence[float]) -> float:
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(middle)


def summarize(runs: Sequence[Tuple[int, dict]]) -> dict:
    """One workload's entry from its runs, (seed, run.py result) in seed order."""
    metrics: Dict[str, List[float]] = {}
    for _, result in runs:
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return {
        "seeds": [seed for seed, _ in runs],
        "attempted": [result["attempted"] for _, result in runs],
        "failed": sum(result["failed"] for _, result in runs),
        "median": {name: round(statistics.median(values), 6)
                   for name, values in metrics.items()},
        "iqr_share": {name: round(_iqr_share(values), 4) for name, values in metrics.items()},
    }


def record(runs: Mapping[str, Sequence[Tuple[int, dict]]], seconds: float, commit: str,
           host: str) -> dict:
    return {
        "what": "medians over seeds of perfbench/run.py --trace 0",
        "commit": commit,
        "host": host,
        "run_seconds": seconds,
        "end_to_end": {workload: summarize(done) for workload, done in runs.items()},
    }


def _commit() -> str:
    """The checkout's commit, with -dirty when the tree measured has changes."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _host() -> str:
    return (f"{os.cpu_count()}-CPU {platform.machine()}, {platform.python_implementation()} "
            f"{platform.python_version()}; times at reference speed (perfbench/reference.py)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)

    runs: Dict[str, List[Tuple[int, dict]]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"error: {workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
            result = run_result(out.stdout)
            print(f"{workload} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
            runs[workload].append((seed, result))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record(runs, args.seconds, _commit(), _host()), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
