"""Typed constraint kinds and objectives.

Each constraint family from the core subset gets one frozen dataclass
deriving from ConstraintKind. Variable lists are tuples of variable ids
(strings); where the format grants integer-expression views (allDifferent,
allEqual, sum, count, nValues, minimum, maximum and specialized
objectives) the operand lists hold expression trees instead.

Every kind and the Objective carry ``var_ids``: the variables they
involve, derived once by one rule over the dataclass fields (see
_Involving). Only Regular and Mdd override it, because their transitions
hold state names, not variable ids. The semantics of each kind live in
one table in checker.py.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from .errors import ParseError
from .expr import Expr, OpCall, VarRef
from .model import Condition, Domain, Interval, Value

# value-or-variable slot (coeffs, lengths, heights, counted values, size)
Val = Union[int, VarRef]


def _collect(value: object, ids: Dict[str, None]) -> None:
    if isinstance(value, str):
        ids.setdefault(value, None)
    elif isinstance(value, VarRef):
        ids.setdefault(value.id, None)
    elif isinstance(value, OpCall):
        _collect(value.args, ids)
    elif isinstance(value, Condition):
        _collect(value.operand, ids)
    elif isinstance(value, tuple):
        for item in value:
            _collect(item, ids)


class _Involving:
    """Something that involves variables: a constraint kind or an objective."""

    @cached_property
    def var_ids(self) -> Tuple[str, ...]:
        """Ids of the variables involved, in first-use order, no duplicates.

        Fields are walked in declaration order: a str is a variable id, a
        VarRef gives its id, an expression its free variables, a Condition
        its operand's id (if any); tuples are walked item by item and
        anything else adds nothing.
        """
        ids: Dict[str, None] = {}
        for f in fields(self):
            _collect(getattr(self, f.name), ids)
        return tuple(ids)


class ConstraintKind(_Involving):
    """Base class of the constraint kinds below."""


class OrderOp(Enum):
    LT = "lt"
    LE = "le"
    GE = "ge"
    GT = "gt"

    def holds(self, a, b) -> bool:
        if self is OrderOp.LT:
            return a < b
        if self is OrderOp.LE:
            return a <= b
        if self is OrderOp.GE:
            return a >= b
        return a > b


@dataclass(frozen=True)
class Intension(ConstraintKind):
    function: Expr


@dataclass(frozen=True)
class Extension(ConstraintKind):
    """Table constraint. Non-unary tables hold tuples (with * wildcards
    allowed); unary tables hold a Domain built from value/interval tokens."""

    scope: Tuple[str, ...]
    positive: bool
    tuples: Optional[Tuple[Tuple[Value, ...], ...]] = None
    unary: Optional[Domain] = None

    def __post_init__(self) -> None:
        if (self.tuples is None) == (self.unary is None):
            raise ValueError("exactly one of tuples/unary must be set")
        if self.unary is not None and len(self.scope) != 1:
            raise ValueError("unary table with non-unary scope")


@dataclass(frozen=True)
class _Automaton(ConstraintKind):
    """Regular and Mdd: labelled transitions between states along the scope."""

    scope: Tuple[str, ...]
    transitions: Tuple[Tuple[str, int, str], ...]

    @property
    def var_ids(self) -> Tuple[str, ...]:
        return self.scope  # the transitions hold state names


@dataclass(frozen=True)
class Regular(_Automaton):
    start: str
    finals: Tuple[str, ...]


@dataclass(frozen=True)
class Mdd(_Automaton):
    @cached_property
    def root_terminal(self) -> Tuple[str, str]:
        """Root has no incoming arcs, terminal no outgoing; both must be unique."""
        sources = {t[0] for t in self.transitions}
        targets = {t[2] for t in self.transitions}
        roots = sources - targets
        terminals = targets - sources
        if len(roots) != 1 or len(terminals) != 1:
            raise ParseError(f"mdd needs one root and one terminal, found "
                             f"{sorted(roots)} / {sorted(terminals)}", rule="mdd-shape")
        return next(iter(roots)), next(iter(terminals))


@dataclass(frozen=True)
class AllDifferent(ConstraintKind):
    operands: Tuple[Expr, ...]
    excepts: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AllDifferentLists(ConstraintKind):
    lists: Tuple[Tuple[str, ...], ...]
    excepts: Tuple[Tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class AllDifferentMatrix(ConstraintKind):
    rows: Tuple[Tuple[str, ...], ...]


@dataclass(frozen=True)
class AllEqual(ConstraintKind):
    operands: Tuple[Expr, ...]


@dataclass(frozen=True)
class Ordered(ConstraintKind):
    vars: Tuple[str, ...]
    op: OrderOp
    lengths: Optional[Tuple[Val, ...]] = None


@dataclass(frozen=True)
class Lex(ConstraintKind):
    lists: Tuple[Tuple[str, ...], ...]
    op: OrderOp


@dataclass(frozen=True)
class Lex2(ConstraintKind):
    """Lex chain over the rows and over the columns of a matrix."""

    rows: Tuple[Tuple[str, ...], ...]
    op: OrderOp


@dataclass(frozen=True)
class Sum(ConstraintKind):
    terms: Tuple[Expr, ...]
    coeffs: Tuple[Val, ...]
    condition: Condition


@dataclass(frozen=True)
class Count(ConstraintKind):
    operands: Tuple[Expr, ...]
    values: Tuple[Val, ...]
    condition: Condition


@dataclass(frozen=True)
class NValues(ConstraintKind):
    operands: Tuple[Expr, ...]
    condition: Condition
    excepts: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Cardinality(ConstraintKind):
    vars: Tuple[str, ...]
    values: Tuple[Val, ...]
    occurs: Tuple[Union[int, VarRef, Interval], ...]
    closed: bool = False


@dataclass(frozen=True)
class Minimum(ConstraintKind):
    operands: Tuple[Expr, ...]
    condition: Condition


@dataclass(frozen=True)
class Maximum(ConstraintKind):
    operands: Tuple[Expr, ...]
    condition: Condition


# right-hand side of element: a target value/variable or a full condition
ElementRhs = Union[int, VarRef, Condition]


@dataclass(frozen=True)
class ElementVarList(ConstraintKind):
    vars: Tuple[str, ...]
    index: str
    rhs: ElementRhs


@dataclass(frozen=True)
class ElementValList(ConstraintKind):
    values: Tuple[int, ...]
    index: str
    rhs: ElementRhs


@dataclass(frozen=True)
class ElementMatrix(ConstraintKind):
    """cells holds variable ids (str) or plain values (int), homogeneously."""

    cells: Tuple[Tuple[Union[str, int], ...], ...]
    row_index: str
    col_index: str
    rhs: ElementRhs


@dataclass(frozen=True)
class ChannelOne(ConstraintKind):
    vars: Tuple[str, ...]


@dataclass(frozen=True)
class ChannelTwo(ConstraintKind):
    first: Tuple[str, ...]
    second: Tuple[str, ...]


@dataclass(frozen=True)
class ChannelValue(ConstraintKind):
    vars: Tuple[str, ...]
    value: str


@dataclass(frozen=True)
class NoOverlap1(ConstraintKind):
    origins: Tuple[str, ...]
    lengths: Tuple[Val, ...]
    zero_ignored: bool = True


@dataclass(frozen=True)
class NoOverlapK(ConstraintKind):
    origins: Tuple[Tuple[str, ...], ...]
    lengths: Tuple[Tuple[Val, ...], ...]
    zero_ignored: bool = True


@dataclass(frozen=True)
class Cumulative(ConstraintKind):
    origins: Tuple[str, ...]
    lengths: Tuple[Val, ...]
    heights: Tuple[Val, ...]
    condition: Condition


@dataclass(frozen=True)
class Circuit(ConstraintKind):
    vars: Tuple[str, ...]
    size: Optional[Val] = None


@dataclass(frozen=True)
class InstantiationCtr(ConstraintKind):
    """instantiation posted as a constraint; * entries restrict nothing."""

    vars: Tuple[str, ...]
    values: Tuple[Value, ...]


class Sense(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class ObjKind(Enum):
    EXPRESSION = "expression"
    SUM = "sum"
    MINIMUM = "minimum"
    MAXIMUM = "maximum"
    NVALUES = "nValues"
    LEX = "lex"


@dataclass(frozen=True)
class Objective(_Involving):
    sense: Sense
    kind: ObjKind
    expression: Optional[Expr] = None
    operands: Tuple[Expr, ...] = ()
    coeffs: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind is ObjKind.EXPRESSION:
            if self.expression is None:
                raise ValueError("expression objective without an expression")
        elif not self.operands:
            raise ValueError(f"{self.kind.value} objective needs operands")
        if self.coeffs is not None and len(self.coeffs) != len(self.operands):
            raise ValueError("coeffs length differs from operand count")
        if self.kind is ObjKind.LEX and self.coeffs is not None:
            raise ValueError("lex objectives take no coefficients")
