"""Answers computed without the package under test.

Every operation the benchmark times is checked against one of these. This
module imports nothing from ``xcsp3core``: it works from the parameters the
generators drew, never from the package's own model of an instance.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import Callable, Dict, Optional, Sequence, Tuple

# Number of ways to place n non-attacking queens on an n x n board
# (OEIS A000170).
QUEENS_COUNTS = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}

# XCSP3 condition operators on integers.
CONDITION_OPS: Dict[str, Callable[[int, int], bool]] = {
    "lt": operator.lt, "le": operator.le, "gt": operator.gt,
    "ge": operator.ge, "eq": operator.eq, "ne": operator.ne,
}


def chain_count(length: int, domain: Sequence[int],
                relation: Callable[[int, int, int], bool]) -> int:
    """Solutions of x[0..length-1] over domain with relation(x[i], x[i+1], x[i+2]).

    Transfer-matrix counting: the state is the last two values, and each
    step extends every state by one value allowed by the relation.
    """
    if length < 3:
        return len(domain) ** length
    states: Dict[Tuple[int, int], int] = {(a, b): 1 for a in domain for b in domain}
    for _ in range(length - 2):
        nxt: Dict[Tuple[int, int], int] = defaultdict(int)
        for (a, b), ways in states.items():
            for c in domain:
                if relation(a, b, c):
                    nxt[(b, c)] += ways
        states = nxt
    return sum(states.values())


def sum_cop(domains: Sequence[Sequence[int]], coeffs: Sequence[int], op: str,
            rhs: int, obj_coeffs: Sequence[int],
            maximize: bool) -> Tuple[int, Optional[int]]:
    """(number of feasible assignments, optimum) of a one-constraint sum COP.

    Dynamic programming over the partial weighted sum of the constraint:
    for each reachable partial sum keep the number of ways to reach it and
    the best partial objective.
    """
    better = max if maximize else min
    layer: Dict[int, Tuple[int, int]] = {0: (1, 0)}
    for dom, a, b in zip(domains, coeffs, obj_coeffs):
        nxt: Dict[int, Tuple[int, int]] = {}
        for partial, (ways, best) in layer.items():
            for v in dom:
                key = partial + a * v
                cand = best + b * v
                if key in nxt:
                    w, o = nxt[key]
                    nxt[key] = (w + ways, better(o, cand))
                else:
                    nxt[key] = (ways, cand)
        layer = nxt
    holds = CONDITION_OPS[op]
    feasible = [(ways, best) for partial, (ways, best) in layer.items()
                if holds(partial, rhs)]
    if not feasible:
        return 0, None
    return sum(w for w, _ in feasible), better(b for _, b in feasible)


def median_weighted_sum(domains: Sequence[Sequence[int]], coeffs: Sequence[int]) -> int:
    """Median of sum(c * v) over all assignments of the domains."""
    ways: Dict[int, int] = {0: 1}
    for dom, a in zip(domains, coeffs):
        nxt: Dict[int, int] = defaultdict(int)
        for partial, w in ways.items():
            for v in dom:
                nxt[partial + a * v] += w
        ways = nxt
    half = sum(ways.values()) / 2
    seen = 0
    for total in sorted(ways):
        seen += ways[total]
        if seen >= half:
            return total
    raise ValueError("no assignments")


class Relation:
    """One generated constraint as the benchmark itself evaluates it."""

    __slots__ = ("label", "scope", "test")

    def __init__(self, label: str, scope: Sequence[int],
                 test: Callable[[Sequence[int]], bool]):
        self.label = label
        self.scope = tuple(scope)
        self.test = test

    def holds(self, assignment: Sequence[int]) -> bool:
        return self.test([assignment[i] for i in self.scope])
