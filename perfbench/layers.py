"""Per-layer metrics from the traced operations.

Every ``*_ms`` and ``*_calls`` metric is per operation, averaged over the
traced operations of whole cycles through the workload's items, so that a
count repeats exactly for a given seed. A layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

import math
import statistics
import xml.etree.ElementTree as ET
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from reference import Scaler
from spans import TracedOp, layer_totals

# (metric, span name, field, unit). Fields: "calls" and "trues" are counts,
# "total" and "self" seconds; all are divided by the number of operations.
PER_OP = (
    ("parser.parse_ms", "parser.parse", "total", "ms"),
    ("parser.self_ms", "parser.parse", "self", "ms"),
    ("expr.eval_calls", "expr.eval", "calls", "count"),
    ("expr.eval_ms", "expr.eval", "total", "ms"),
    ("expr.free_vars_calls", "expr.free_vars", "calls", "count"),
    ("expr.free_vars_ms", "expr.free_vars", "total", "ms"),
    ("expr.parse_calls", "expr.parse", "calls", "count"),
    ("expr.parse_ms", "expr.parse", "total", "ms"),
    ("checker.check_constraint_calls", "checker.check_constraint", "calls", "count"),
    ("checker.check_constraint_ms", "checker.check_constraint", "total", "ms"),
    ("checker.partial_calls", "checker.partial", "calls", "count"),
    ("checker.partial_ms", "checker.partial", "total", "ms"),
    ("checker.scope_of_calls", "checker.scope_of", "calls", "count"),
    ("checker.scope_of_ms", "checker.scope_of", "total", "ms"),
    ("checker.check_solution_ms", "checker.check_solution", "total", "ms"),
    ("checker.eval_objective_calls", "checker.eval_objective", "calls", "count"),
    ("checker.eval_objective_ms", "checker.eval_objective", "total", "ms"),
    ("solver.solve_ms", "solver.solve", "total", "ms"),
    ("solver.self_ms", "solver.solve", "self", "ms"),
    ("canonical.render_ms", "canonical.render", "total", "ms"),
    ("canonical.equivalent_ms", "canonical.equivalent", "total", "ms"),
    ("cli.main_ms", "cli.main", "total", "ms"),
    ("cli.self_ms", "cli.main", "self", "ms"),
)
SERIES_EXPONENTS = (("groups", "parser.groups_exp"), ("group", "parser.group_exp"),
                    ("slide", "parser.slide_exp"), ("table", "parser.table_exp"),
                    ("tokens", "parser.tokens_exp"))


def self_check(ops: Sequence[TracedOp]) -> List[Tuple[int, str]]:
    return [(op.op_id, f"op {op.op_id} ({op.item}): {fault}")
            for op in ops for fault in op.self_check()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def growth_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _first_parse(op: TracedOp) -> float:
    for span in op.spans:
        if span[0] == "parser.parse":
            return (span[2] - span[1]) * op.scale
    raise ValueError(f"op {op.op_id} has no parse span")


def parse_metrics(workload, ops: Sequence[TracedOp],
                  scaler: Scaler) -> Dict[str, Tuple[float, str]]:
    """Growth exponents and the stdlib XML floor, for the parse workload."""
    docs = {doc.name: doc for doc in workload.items}
    times: Dict[str, List[float]] = defaultdict(list)
    for op in ops:
        times[op.item].append(_first_parse(op))
    out = {}
    for series, metric in SERIES_EXPONENTS:
        points = [(doc.size, statistics.median(times[doc.name]))
                  for doc in workload.items if doc.series == series]
        out[metric] = (growth_exponent(points), "exponent")
    # ET.fromstring on the text each parse read: the floor parse_ms cannot beat
    floor = []
    for op in ops:
        doc = docs[op.item]
        for text in (doc.xml, workload.rendered[doc.name]):
            k = scaler.mark()
            t0 = perf_counter()
            ET.fromstring(text)
            floor.append((perf_counter() - t0, k))
    scaler.mark()
    out["parser.xml_ms"] = (1e3 * sum(t * scaler.factor(k) for t, k in floor) / len(ops), "ms")
    return out


def per_layer(workload, ops: Sequence[TracedOp], plain: Sequence[float],
              traced: Sequence[float], scaler: Scaler) -> Dict[str, Tuple[float, str]]:
    n_items = len(workload.items)
    ops = ops[:len(ops) // n_items * n_items]     # whole cycles only
    n = len(ops)
    totals = layer_totals(ops)

    def get(span: str, field: str) -> float:
        return totals.get(span, {}).get(field, 0)

    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, span, field, unit in PER_OP:
        scale = 1e3 if unit == "ms" else 1
        metrics[metric] = (scale * get(span, field) / n, unit)

    metrics["parser.constraints_per_s"] = (
        _ratio(get("parser.parse", "constraints"), get("parser.parse", "total")), "1/s")
    metrics["checker.partial_prune_ratio"] = (
        _ratio(get("checker.partial", "trues"), get("checker.partial", "calls")), "ratio")
    nodes = get("solver.solve", "nodes")
    metrics["solver.nodes"] = (nodes / n, "count")
    metrics["solver.nodes_per_s"] = (_ratio(nodes, get("solver.solve", "total")), "1/s")
    metrics["solver.nodes_per_solution"] = (
        _ratio(nodes, get("solver.solve", "solutions")), "count")

    if workload.name == "parse":
        metrics.update(parse_metrics(workload, ops, scaler))
    else:
        metrics["parser.xml_ms"] = (0.0, "ms")
        for _, metric in SERIES_EXPONENTS:
            metrics[metric] = (0.0, "exponent")

    p50_plain = statistics.median(plain)
    p50_traced = statistics.median(traced)
    metrics["trace.overhead_ms"] = (1e3 * (p50_traced - p50_plain), "ms")
    metrics["trace.overhead_share"] = (p50_traced / p50_plain - 1, "ratio")
    metrics["bench.host_factor"] = (scaler.host_factor(), "ratio")
    return metrics
