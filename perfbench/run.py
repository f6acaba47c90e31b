"""xcsp3core benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload search|parse|check|cli \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src`` of the checkout that holds this file.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` each item is run twice in a row,
once plain and once with spans recorded around every layer boundary, and
the object holds the per-layer metrics, computed from the traced runs, and
the tracing overhead. Every time is scaled to a reference host speed (see
reference.py). Spans are written to
``.bench_out/trace-<workload>-<seed>.json``. perfbench/README.md describes
every metric and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

import layers
from reference import Scaler
from spans import Tracer, untraced_call

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90     # latency_tail_ms; needs at least 100 operations
TAIL_SAMPLES = 100


def note(message: str) -> None:
    print(message, file=sys.stderr)


def _percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _import_package() -> float:
    """Import the package from the checkout; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "xcsp3core", "__init__.py")):
        sys.exit(f"error: no package at {SRC}/xcsp3core; run from the root of a checkout")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import xcsp3core  # noqa: F401
    import xcsp3core.cli  # noqa: F401
    took = perf_counter() - t0
    where = os.path.dirname(os.path.abspath(xcsp3core.__file__))
    if where != os.path.join(SRC, "xcsp3core"):
        sys.exit(f"error: imported xcsp3core from {where}, not from {SRC}")
    return took


def measure(workload, seconds: float, tracer, scaler, seed: int):
    """Cycle through the items until time is up; traced runs finish a cycle.

    Returns the scaled latencies of plain and of traced operations, and the
    numbers of operations attempted and failed. The scale of each traced
    operation is stored on it.
    """
    items = workload.items
    plain, traced = [], []      # (seconds, index of the kernel sample before)
    attempted = failed = 0
    deadline = perf_counter() + seconds
    i = 0
    k = scaler.mark()
    while perf_counter() < deadline or (tracer is not None and i < len(items)):
        item = items[i % len(items)]
        for with_trace in ((False, True) if tracer is not None else (False,)):
            attempted += 1
            answer, error = None, None
            if with_trace:
                tracer.install()
                tracer.begin()
                try:
                    answer = workload.run(item, tracer.call)
                except Exception as e:  # counted as a failed operation
                    error = e
                finally:
                    op = tracer.end(i, item.name)
                    tracer.uninstall()
                traced.append((op, k))
            else:
                t0 = perf_counter()
                try:
                    answer = workload.run(item, untraced_call)
                except Exception as e:  # counted as a failed operation
                    error = e
                plain.append((perf_counter() - t0, k))
            problem = (f"{type(error).__name__}: {error}" if error is not None
                       else workload.verify(item, answer))
            if problem is not None:
                failed += 1
                note(f"FAILED workload={workload.name} seed={seed} "
                     f"item={item.name}: {problem}")
            k = scaler.mark()
        i += 1
    for op, k in traced:
        op.scale = scaler.factor(k)
    return ([t * scaler.factor(k) for t, k in plain],
            [op.wall * op.scale for op, _ in traced], attempted, failed)


def end_to_end(setup_s, plain, attempted, failed) -> dict:
    if len(plain) < TAIL_SAMPLES:
        note(f"warning: {len(plain)} operations; p{TAIL_PERCENTILE} has fewer "
             f"than ten samples beyond it")
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (1e3 * statistics.median(plain), "ms"),
        "latency_tail_ms": (1e3 * _percentile(plain, TAIL_PERCENTILE), "ms"),
        "throughput_ops_s": (len(plain) / sum(plain), "1/s"),
        "correct_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scaler = Scaler(args.workload)
    import_k = scaler.mark()
    import_s = _import_package()
    from workloads import WORKLOADS   # imports the package
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        k = scaler.mark()
        t0 = perf_counter()
        workload = cls(args.seed, ROOT)
        workload.setup()
        setups.append((perf_counter() - t0, k))
    scaler.mark()
    setup_s = (import_s * scaler.factor(import_k)
               + statistics.median(t * scaler.factor(k) for t, k in setups))

    tracer = Tracer() if args.trace else None
    if tracer is not None and tracer.missing:
        note("warning: boundaries not found, not traced: " + ", ".join(tracer.missing))
    gc.collect()
    plain, traced, attempted, failed = measure(workload, args.seconds, tracer,
                                               scaler, args.seed)

    if tracer is None:
        metrics = end_to_end(setup_s, plain, attempted, failed)
    else:
        faults = layers.self_check(tracer.ops)
        for fault in faults[:20]:
            note(f"TRACE {fault}")
        failed += len({op_id for op_id, _ in faults})
        metrics = layers.per_layer(workload, tracer.ops, plain, traced, scaler)
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "ops": [op.to_json() for op in tracer.ops]}, fh)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            note(f"warning: {name} is {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
