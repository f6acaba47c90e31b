"""Typed constraint kinds and objectives.

Each constraint family from the core subset gets one frozen dataclass
deriving from ConstraintKind. Variable lists are tuples of variable ids
(strings); where the format grants integer-expression views (allDifferent,
allEqual, sum, count, nValues, minimum, maximum and specialized
objectives) the operand lists hold expression trees instead.

Every kind and the Objective carry ``var_ids``: the variables they
involve, derived once by one rule over the dataclass fields (see
_Involving). Extension, Regular and Mdd take it from their scope instead
(see _Scoped): walking a table costs time and finds only values, and
transitions hold state names, not variable ids. Kinds and the Objective
also carry ``compiled``: every expression held in a field declared as
Expr, Optional[Expr] or Tuple[Expr, ...], compiled once, on first
evaluation. An Extension without * rows likewise builds its ``table``, a
set of its tuples, on first check.
The semantics of each kind live in one table in checker.py.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple, Union, get_type_hints

from .errors import ParseError
from .expr import Evaluator, Expr, OpCall, VarRef, compile_expr, free_vars
from .model import Condition, Domain, Interval, Star, Value

# value-or-variable slot (coeffs, lengths, heights, counted values, size)
Val = Union[int, VarRef]

# a compiled expression and its free variables (None for a bare variable)
Compiled = Tuple[Evaluator, Optional[Tuple[str, ...]]]

_EXPRESSION_TYPES = (Expr, Optional[Expr], Tuple[Expr, ...])


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """Names of the fields of cls, in declaration order."""
    return tuple(f.name for f in fields(cls))


@lru_cache(maxsize=None)
def _expression_fields(cls: type) -> Tuple[str, ...]:
    """Names of the fields of cls declared to hold expressions."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if hints[f.name] in _EXPRESSION_TYPES)


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
        for name in _field_names(type(self)):
            _collect(getattr(self, name), ids)
        return tuple(ids)

    @cached_property
    def compiled(self) -> Tuple[Compiled, ...]:
        """Every expression held, compiled, with its free variables.

        Expression fields are taken in declaration order, tuples item by
        item. Built on first evaluation, never while parsing.
        """
        out: List[Compiled] = []
        for name in _expression_fields(type(self)):
            value = getattr(self, name)
            for e in value if isinstance(value, tuple) else (value,):
                if e is not None:
                    free = None if isinstance(e, VarRef) else tuple(free_vars(e))
                    out.append((compile_expr(e), free))
        return tuple(out)


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
class _Scoped(ConstraintKind):
    """A kind whose variables are exactly its scope: Extension, Regular, Mdd."""

    scope: Tuple[str, ...]

    @cached_property
    def var_ids(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.scope))


@dataclass(frozen=True)
class Extension(_Scoped):
    """Table constraint. Non-unary tables hold tuples (with * wildcards
    allowed); unary tables hold a Domain built from value/interval tokens."""

    positive: bool
    tuples: Optional[Tuple[Tuple[Value, ...], ...]] = None
    unary: Optional[Domain] = None

    def __post_init__(self) -> None:
        if (self.tuples is None) == (self.unary is None):
            raise ValueError("exactly one of tuples/unary must be set")
        if self.unary is not None and len(self.scope) != 1:
            raise ValueError("unary table with non-unary scope")

    @cached_property
    def table(self) -> Optional[FrozenSet[Tuple[int, ...]]]:
        """The tuples as a set, for one membership test per check.

        None for a unary table and when a row holds *, which are matched
        otherwise. Built on first check, never while parsing.
        """
        if self.tuples is None or any(isinstance(t, Star) for row in self.tuples for t in row):
            return None
        return frozenset(self.tuples)


@dataclass(frozen=True)
class _Automaton(_Scoped):
    """Regular and Mdd: labelled transitions between states along the scope."""

    transitions: Tuple[Tuple[str, int, str], ...]


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

    @cached_property
    def int_coeffs(self) -> Optional[Tuple[int, ...]]:
        """The coefficients when none is a variable, else None."""
        if any(isinstance(c, VarRef) for c in self.coeffs):
            return None
        return self.coeffs


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
