"""Spans recorded from outside the package, around calls into each layer.

A traced operation is a tree of spans. The benchmark opens spans around its
own calls into the package (``Tracer.call``), and ``Tracer.install`` swaps
the names through which one layer calls another for timing wrappers, at run
time and only while a traced operation runs. Boundaries crossed once or a
few times per operation become full spans (name, start, end, parent).
Boundaries crossed on every search node are aggregated per operation and
parent span into a call count, total time, self time and the number of
calls that returned True, so that the trace fits in memory.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

# (module, attribute, span name): names the package's layers call each
# other through. Hot boundaries are aggregated; coarse ones are full spans.
HOT_BOUNDARIES = (
    ("xcsp3core.solver", "check_constraint", "checker.check_constraint"),
    ("xcsp3core.checker", "check_constraint", "checker.check_constraint"),
    ("xcsp3core.solver", "partial_violated", "checker.partial"),
    ("xcsp3core.solver", "eval_objective", "checker.eval_objective"),
    ("xcsp3core.checker", "eval_objective", "checker.eval_objective"),
    ("xcsp3core.solver", "scope_of", "checker.scope_of"),
    ("xcsp3core.checker", "scope_of", "checker.scope_of"),
    ("xcsp3core.parser", "scope_of", "checker.scope_of"),
    ("xcsp3core.cli", "scope_of", "checker.scope_of"),
    ("xcsp3core.checker", "eval_expr", "expr.eval"),
    ("xcsp3core.checker", "free_vars", "expr.free_vars"),
    ("xcsp3core.parser", "parse_expr", "expr.parse"),
)
COARSE_BOUNDARIES = (
    ("xcsp3core.cli", "parse_file", "parser.parse"),
    ("xcsp3core.cli", "check_solution", "checker.check_solution"),
    ("xcsp3core.cli", "solve", "solver.solve"),
    ("xcsp3core.cli", "render_instance", "canonical.render"),
)

# What a full span records about its result, summed per name.
SIZES: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "parser.parse": lambda inst: {"constraints": len(inst.constraints)},
    "solver.solve": lambda res: {"nodes": res.nodes, "solutions": res.count},
}

# Full span: [name, start, end, parent index, child time, sizes]
NAME, START, END, PARENT, CHILD, SIZE = range(6)
# Aggregate: [calls, total, self, trues, first start, last end]
CALLS, TOTAL, SELF, TRUES, FIRST, LAST = range(6)


class TracedOp:
    """Spans of one finished operation."""

    __slots__ = ("op_id", "item", "spans", "aggs", "scale")

    def __init__(self, op_id: int, item: str, spans: List[list],
                 aggs: Dict[Tuple[str, int], list]):
        self.op_id = op_id
        self.item = item
        self.spans = spans
        self.aggs = aggs
        self.scale = 1.0    # reference.Scaler factor for this operation

    @property
    def wall(self) -> float:
        root = self.spans[0]
        return root[END] - root[START]

    def self_check(self, tol: float = 1e-9) -> List[str]:
        """Nesting and self-time faults; an empty list means consistent."""
        faults = []
        total_self = 0.0
        for k, span in enumerate(self.spans):
            own = span[END] - span[START] - span[CHILD]
            total_self += own
            if own < -tol:
                faults.append(f"{span[NAME]}: self time {own:.3e} s")
            if k and not (self.spans[span[PARENT]][START] <= span[START]
                          and span[END] <= self.spans[span[PARENT]][END]):
                faults.append(f"{span[NAME]} lies outside its parent")
        for (name, parent), agg in self.aggs.items():
            total_self += agg[SELF]
            if agg[SELF] < -tol * agg[CALLS]:
                faults.append(f"{name}: self time {agg[SELF]:.3e} s")
            if not (self.spans[parent][START] <= agg[FIRST]
                    and agg[LAST] <= self.spans[parent][END]):
                faults.append(f"{name} calls lie outside their parent")
        if abs(total_self - self.wall) > tol * (len(self.spans) + len(self.aggs)) + 1e-12:
            faults.append(f"self times add up to {total_self:.9f} s, "
                          f"wall time is {self.wall:.9f} s")
        return faults

    def to_json(self) -> dict:
        t0 = self.spans[0][START]
        return {
            "op": self.op_id, "item": self.item,
            "spans": [[s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9),
                       s[PARENT], s[SIZE]] for s in self.spans],
            "aggregates": [[name, parent, a[CALLS], round(a[TOTAL], 9),
                            round(a[SELF], 9), a[TRUES]]
                           for (name, parent), a in self.aggs.items()],
        }


class Tracer:
    """Records spans for one operation at a time and keeps finished ones."""

    def __init__(self) -> None:
        self.ops: List[TracedOp] = []
        self.missing: List[str] = []
        self._spans: List[list] = []
        self._aggs: Dict[Tuple[str, int], list] = {}
        # open frames: [child time, index of the innermost full span]
        self._stack: List[list] = []
        self._patches = self._resolve()

    # -- wrapping the package ----------------------------------------------------

    def _resolve(self) -> List[Tuple[Any, str, Callable, Callable]]:
        patches = []
        for boundaries, make in ((HOT_BOUNDARIES, self._hot),
                                 (COARSE_BOUNDARIES, self._coarse)):
            for module_name, attr, span_name in boundaries:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                patches.append((module, attr, original, make(span_name, original)))
        return patches

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _hot(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                key = (name, frame[1])
                agg = tracer._aggs.get(key)
                if agg is None:
                    agg = tracer._aggs[key] = [0, 0.0, 0.0, 0, t0, t1]
                agg[CALLS] += 1
                agg[TOTAL] += dt
                agg[SELF] += dt - frame[0]
                agg[LAST] = t1
            if result is True:
                agg[TRUES] += 1
            return result
        return wrapper

    def _coarse(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- spans -----------------------------------------------------------------

    def begin(self) -> None:
        """Open the root span of an operation."""
        self._spans = [["op", 0.0, 0.0, -1, 0.0, None]]
        self._aggs = {}
        self._stack[:] = [[0.0, 0]]
        self._spans[0][START] = perf_counter()

    def end(self, op_id: int, item: str) -> TracedOp:
        root = self._spans[0]
        root[END] = perf_counter()
        root[CHILD] = self._stack[0][0]
        op = TracedOp(op_id, item, self._spans, self._aggs)
        self.ops.append(op)
        return op

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a full span named name.

        ``SIZES[name](result)``, when defined, is recorded with the span.
        """
        stack = self._stack
        parent = stack[-1]
        index = len(self._spans)
        span = [name, 0.0, 0.0, parent[1], 0.0, None]
        self._spans.append(span)
        frame = [0.0, index]
        stack.append(frame)
        span[START] = t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = t1 = perf_counter()
            stack.pop()
            parent[0] += t1 - t0
            span[CHILD] = frame[0]
        sizes = SIZES.get(name)
        if sizes is not None:
            span[SIZE] = sizes(result)
        return result


def untraced_call(name: str, fn: Callable, *args, **kwargs):
    """Stand-in for ``Tracer.call`` when tracing is off."""
    return fn(*args, **kwargs)


def layer_totals(ops: Sequence[TracedOp]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds (scaled to the reference
    host speed), trues and sizes, summed."""
    out: Dict[str, Dict[str, float]] = {}

    def slot(name: str) -> Dict[str, float]:
        return out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                     "trues": 0})
    for op in ops:
        for span in op.spans:
            s = slot(span[NAME])
            s["calls"] += 1
            s["total"] += (span[END] - span[START]) * op.scale
            s["self"] += (span[END] - span[START] - span[CHILD]) * op.scale
            for key, value in (span[SIZE] or {}).items():
                s[key] = s.get(key, 0) + value
        for (name, _), agg in op.aggs.items():
            s = slot(name)
            s["calls"] += agg[CALLS]
            s["total"] += agg[TOTAL] * op.scale
            s["self"] += agg[SELF] * op.scale
            s["trues"] += agg[TRUES]
    return out
