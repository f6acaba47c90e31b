"""Core data model: domains, variables, arrays, conditions, instances.

All integers live in the signed 64-bit range; leaving it is a hard error.
The ``*`` wildcard (Star) appears only in solution value lists and in
short extension tuples, never in a domain.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import (Any, Callable, Dict, ItemsView, Iterable, Iterator, Mapping, Optional,
                    Tuple, Union, ValuesView)

from .errors import ParseError, UnboundVariable, check_int64
from .expr import CELL_RE, Record, VarRef


class Star:
    """Singleton wildcard; compares by identity, prints as ``*``."""

    _instance: Optional["Star"] = None

    def __new__(cls) -> "Star":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


STAR = Star()

Value = Union[int, Star]


class Domain(Record):
    """Finite ordered set of integers, stored as closed (lo, hi) runs.

    Runs must be strictly increasing and non-overlapping; single values
    are stored as (v, v). The declared shape is preserved (adjacent runs
    are not merged) so rendering stays close to the source text.
    """

    FIELDS = ("items",)  # Tuple[Tuple[int, int], ...]

    def _validate(self) -> None:
        prev_hi: Optional[int] = None
        for lo, hi in self.items:
            check_int64(lo, "domain bound")
            check_int64(hi, "domain bound")
            if lo > hi:
                raise ParseError(f"empty interval {lo}..{hi}", rule="interval-bounds")
            if prev_hi is not None and lo <= prev_hi:
                raise ParseError(
                    f"domain values must be strictly increasing ({prev_hi} then {lo})",
                    rule="domain-order")
            prev_hi = hi

    @property
    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.items)

    @property
    def min_value(self) -> int:
        return self.items[0][0]

    @property
    def max_value(self) -> int:
        return self.items[-1][1]

    def contains(self, v: int) -> bool:
        items = self.items
        if len(items) == 1:
            lo, hi = items[0]
            return lo <= v <= hi
        # the runs are ordered: only the last one starting at or below v may hold it
        i = bisect_right(items, (v, math.inf))
        return i > 0 and v <= items[i - 1][1]

    def values(self) -> Iterator[int]:
        for lo, hi in self.items:
            yield from range(lo, hi + 1)

    __iter__ = values

    def render(self) -> str:
        out = []
        for lo, hi in self.items:
            out.append(str(lo) if lo == hi else f"{lo}..{hi}")
        return " ".join(out)


class Variable(Record):
    """An integer variable; domain None means declared-but-undefined."""

    FIELDS = ("id", "domain")  # str, Optional[Domain]


class VarArray(Record):
    """Dense array of variables; cells stored row-major, 0-based."""

    FIELDS = ("id", "size", "cells")  # str, Tuple[int, ...], Tuple[Variable, ...]

    def _validate(self) -> None:
        if len(self.cells) != math.prod(self.size):
            raise ValueError(f"array {self.id}: {len(self.cells)} cells for size {self.size}")


# -- conditions ---------------------------------------------------------------

class CondOp(Enum):
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    IN = "in"
    NOTIN = "notin"


RELATIONAL_OPS = frozenset({CondOp.LT, CondOp.LE, CondOp.GT, CondOp.GE, CondOp.EQ, CondOp.NE})
MEMBERSHIP_OPS = frozenset({CondOp.IN, CondOp.NOTIN})


class Interval(Record):
    FIELDS = ("lo", "hi")


class IntSet(Record):
    FIELDS = ("values",)  # Tuple[int, ...]


Operand = Union[int, VarRef, Interval, IntSet]


class Condition(Record):
    """Numerical condition (op, operand) attached to many constraints."""

    FIELDS = ("op", "operand")  # CondOp, Operand

    def _validate(self) -> None:
        if self.op in RELATIONAL_OPS and not isinstance(self.operand, (int, VarRef)):
            raise ValueError(f"{self.op.value} needs a value or variable operand")
        if self.op in MEMBERSHIP_OPS and not isinstance(self.operand, (Interval, IntSet)):
            raise ValueError(f"{self.op.value} needs an interval or set operand")


def eval_condition(lhs: int, condition: Condition, env: Mapping[str, int]) -> bool:
    """Test lhs against the condition, resolving a variable operand via env."""
    operand = condition.operand
    if isinstance(operand, VarRef):
        v = env.get(operand.id)
        if not isinstance(v, int):
            raise UnboundVariable(operand.id)
        operand = v
    op = condition.op
    if op is CondOp.LT:
        return lhs < operand
    if op is CondOp.LE:
        return lhs <= operand
    if op is CondOp.GT:
        return lhs > operand
    if op is CondOp.GE:
        return lhs >= operand
    if op is CondOp.EQ:
        return lhs == operand
    if op is CondOp.NE:
        return lhs != operand
    if isinstance(operand, Interval):
        inside = operand.lo <= lhs <= operand.hi
    else:
        assert isinstance(operand, IntSet)
        inside = lhs in operand.values
    return inside if op is CondOp.IN else not inside


# -- instantiations -----------------------------------------------------------

class Instantiation(MappingABC):
    """Immutable assignment of values (or Star) to variable ids."""

    __slots__ = ("_values",)

    def __init__(self, pairs: Union[Mapping[str, Value], Iterable[Tuple[str, Value]]]):
        items = list(pairs.items()) if isinstance(pairs, Mapping) else list(pairs)
        values: Dict[str, Value] = {}
        for vid, val in items:
            if vid in values:
                raise ParseError(f"variable {vid} assigned twice", rule="instantiation-ids")
            if isinstance(val, int):
                check_int64(val, f"value of {vid}")
            values[vid] = val
        self._values = values

    def __getitem__(self, key: str) -> Value:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # The dict's own views: the Mapping defaults go through __getitem__ per item.
    def items(self) -> ItemsView[str, Value]:
        return self._values.items()

    def values(self) -> ValuesView[Value]:
        return self._values.values()

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self._values.items())
        return f"Instantiation({inner})"


# -- instances ----------------------------------------------------------------

class Framework(Enum):
    CSP = "CSP"
    COP = "COP"


class PostedConstraint(Record):
    """A constraint occurrence (kind: a kinds.ConstraintKind) with identity
    and block metadata."""

    FIELDS = ("kind", "id", "classes", "note")
    DEFAULTS = {"id": None, "classes": (), "note": None}

    def label(self, position: int) -> str:
        """Stable name for reports: the id, or a positional #k fallback."""
        return self.id if self.id is not None else f"#{position}"


@dataclass
class Instance:
    """A parsed instance: declarations in document order plus constraints.

    Building one checks its references: each id that a constraint, the
    objective or the decision names, in that order, must be a declared
    variable with a domain (see _check_ids). So a hand-built Instance fails
    as its document would, and a check or a search trusts every Instance it
    gets. useful_ids is derived on first use (a check or a search), never
    while parsing. From then on the Instance is treated as immutable:
    replacing its fields would leave it stale. removed holds the element
    paths of the constraints, blocks, groups and slides that the parser left
    out (lenient mode, dropped classes); it takes no part in equality.
    """

    declarations: Tuple[Union[Variable, VarArray], ...]
    constraints: Tuple[PostedConstraint, ...]
    objective: Optional[Any] = None  # kinds.Objective
    decision: Optional[Tuple[str, ...]] = None
    removed: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        self._vars_by_id: Dict[str, Variable] = {}
        self._arrays_by_id: Dict[str, VarArray] = {}
        for decl in self.declarations:
            if isinstance(decl, VarArray):
                if decl.id in self._arrays_by_id or decl.id in self._vars_by_id:
                    raise ParseError(f"id {decl.id!r} declared twice", rule="duplicate-id")
                self._arrays_by_id[decl.id] = decl
                for cell in decl.cells:
                    self._vars_by_id[cell.id] = cell
            else:
                if decl.id in self._vars_by_id or decl.id in self._arrays_by_id:
                    raise ParseError(f"id {decl.id!r} declared twice", rule="duplicate-id")
                self._vars_by_id[decl.id] = decl
        for position, posted in enumerate(self.constraints):
            self._check_ids(posted.kind.var_ids, lambda: f"constraint {posted.label(position)}")
        if self.objective is not None:
            self._check_ids(self.objective.var_ids, lambda: "objective")
        if self.decision is not None:
            self._check_ids(self.decision, lambda: "decision annotation")

    def _check_ids(self, ids: Iterable[str], who: Callable[[], str]) -> None:
        """Raise for the first of ids that names no variable with a domain;
        who() names what refers to them: a variable may be undefined or
        useful, never both."""
        for vid in ids:
            variable = self._vars_by_id.get(vid)
            if variable is None:
                # index-range for a cell of a declared array, else unknown-variable
                array = self._arrays_by_id.get(vid.partition("[")[0])
                if array is not None and CELL_RE.fullmatch(vid):
                    size = "".join(f"[{n}]" for n in array.size)
                    raise ParseError(f"{who()} references {vid!r}, no cell of array "
                                     f"{array.id}{size}", rule="index-range")
                raise ParseError(f"{who()} references undeclared variable {vid!r}",
                                 rule="unknown-variable")
            if variable.domain is None:
                raise ParseError(f"{who()} involves undefined variable {vid!r}",
                                 rule="undefined-useful")

    @property
    def framework(self) -> Framework:
        return Framework.COP if self.objective is not None else Framework.CSP

    @property
    def arrays(self) -> Tuple[VarArray, ...]:
        return tuple(d for d in self.declarations if isinstance(d, VarArray))

    @property
    def arrays_by_id(self) -> Dict[str, VarArray]:
        return self._arrays_by_id

    def variables(self) -> Iterator[Variable]:
        """Every variable (stand-alone and array cells) in document order."""
        for decl in self.declarations:
            if isinstance(decl, VarArray):
                yield from decl.cells
            else:
                yield decl

    def variable(self, vid: str) -> Optional[Variable]:
        return self._vars_by_id.get(vid)

    @cached_property
    def useful_ids(self) -> Tuple[str, ...]:
        """Declared variables that a constraint or the objective involves, in document order."""
        used = {vid for posted in self.constraints for vid in posted.kind.var_ids}
        if self.objective is not None:
            used.update(self.objective.var_ids)
        return tuple(v.id for v in self.variables() if v.id in used)


def export_id(identifier: str) -> str:
    """Flat-file spelling of a structured id: x[0][3] -> x_0_3, g[0] -> g_0."""
    return identifier.replace("[", "_").replace("]", "")
