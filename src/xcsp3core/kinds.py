"""Typed constraint kinds and objectives.

Each constraint family from the core subset gets one record class
(expr.Record) deriving from ConstraintKind, which lists its FIELDS, its
DEFAULTS and its EXPRESSIONS fields once. Variable lists are tuples of
variable ids (strings); where the format grants integer-expression views
(allDifferent, allEqual, sum, count, nValues, minimum, maximum and
specialized objectives) the operand lists hold expression trees instead.

Every kind and the Objective carry ``var_ids``: the variables they
involve, derived once by one rule over FIELDS (see _Involving).
Extension, Regular and Mdd take it from their scope instead (see
_Scoped): walking a table costs time and finds only values, and
transitions hold state names, not variable ids. Kinds and the Objective
also carry ``compiled``: every expression held in their EXPRESSIONS
fields, compiled once, on first evaluation. An Extension without * rows
likewise builds its ``table``, a set of its tuples, on first check, and
``bounded_shape`` keeps the bounded shape of each expression for the
bounds of its variables. These caches live in __dict__; a copied or
unpickled record starts without them.
The semantics of each kind live in one table in checker.py, and its
element in LAYOUT, which the writer and the parser both read.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from .errors import ParseError
from .expr import (Bounded, Evaluator, Expr, OpCall, Record, Span, VarRef, bounded_shape,
                   compile_expr, free_vars)
from .model import Condition, Star

# value-or-variable slot (coeffs, lengths, heights, counted values, size)
Val = Union[int, VarRef]

# a compiled expression and its free variables (None for a bare variable)
Compiled = Tuple[Evaluator, Optional[Tuple[str, ...]]]


def _collect(value: object, ids: Dict[str, None]) -> None:
    """Add the ids value involves to ids, by the rule of _Involving.var_ids.

    A field holds these types exactly, never a subclass, so each is told by
    its type alone; an id met again keeps its first place in ids.
    """
    kind = type(value)
    if kind is str:
        ids[value] = None
    elif kind is VarRef:
        ids[value.id] = None
    elif kind is tuple:
        for item in value:
            _collect(item, ids)
    elif kind is OpCall:
        for arg in value.args:
            if type(arg) is VarRef:
                ids[arg.id] = None
            else:
                _collect(arg, ids)
    elif kind is Condition:
        _collect(value.operand, ids)


class _Involving(Record):
    """Something that involves variables: a constraint kind or an objective."""

    __slots__ = ("__dict__",)  # for the cached properties
    EXPRESSIONS: Tuple[str, ...] = ()  # fields holding Expr, Optional[Expr] or Expr tuples

    @cached_property
    def var_ids(self) -> Tuple[str, ...]:
        """Ids of the variables involved, in first-use order, no duplicates.

        FIELDS are walked in order: a str is a variable id, a VarRef gives
        its id, an expression its free variables, a Condition its operand's
        id (if any); tuples are walked item by item and anything else adds
        nothing.
        """
        ids: Dict[str, None] = {}
        for name in self.FIELDS:
            _collect(getattr(self, name), ids)
        return tuple(ids)

    @cached_property
    def compiled(self) -> Tuple[Compiled, ...]:
        """Every expression held, compiled, with its free variables.

        EXPRESSIONS fields are taken in order, tuples item by item. Built on
        first evaluation, never while parsing.
        """
        out: List[Compiled] = []
        for name in self.EXPRESSIONS:
            value = getattr(self, name)
            for e in value if isinstance(value, tuple) else (value,):
                if e is not None:
                    free = None if isinstance(e, VarRef) else tuple(free_vars(e))
                    out.append((compile_expr(e), free))
        return tuple(out)

    def bounded_shape(self, e: Expr, bounds: Mapping[str, Span]) -> Bounded:
        """expr.bounded_shape(e, bounds), for an expression e this record holds.

        The result is kept for e with the bounds of e's own variables, so a
        later call that gives them the same bounds returns it without
        walking e; one that gives others replaces it. At most one result is
        kept per expression.
        """
        memo = self.__dict__.setdefault("_bounded", {})
        # [e, its free variables, their bounds, its bounded shape]
        entry = memo.get(id(e))
        if entry is None or entry[0] is not e:
            entry = [e, tuple(free_vars(e)), None, None]
        key = tuple(map(bounds.get, entry[1]))
        if entry[2] != key:
            entry = memo[id(e)] = [e, entry[1], key, bounded_shape(e, bounds)]
        return entry[3]


class ConstraintKind(_Involving):
    """Base class of the constraint kinds below."""


class OrderOp(Enum):
    LT = "lt"
    LE = "le"
    GE = "ge"
    GT = "gt"

    def holds(self, a, b) -> bool:
        return getattr(operator, self.value)(a, b)


class Intension(ConstraintKind):
    FIELDS = ("function",)  # Expr
    EXPRESSIONS = ("function",)


class _Scoped(ConstraintKind):
    """A kind whose variables are exactly its scope: Extension, Regular, Mdd."""

    FIELDS = ("scope",)

    @cached_property
    def var_ids(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.scope))


class Extension(_Scoped):
    """Table constraint. Non-unary tables hold tuples (with * wildcards
    allowed); unary tables hold a Domain built from value/interval tokens."""

    FIELDS = ("scope", "positive", "tuples", "unary")  # ids, bool, rows, Domain
    DEFAULTS = {"tuples": None, "unary": None}

    def _validate(self) -> None:
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


class _Automaton(_Scoped):
    """Regular and Mdd: (state, value, state) transitions along the scope."""

    FIELDS = ("scope", "transitions")


class Regular(_Automaton):
    FIELDS = ("scope", "transitions", "start", "finals")  # ..., str, Tuple[str, ...]


class Mdd(_Automaton):
    FIELDS = ("scope", "transitions")  # declared again, so that __init__ calls _validate

    def _validate(self) -> None:
        self.root_terminal  # reject a bad shape when built, not when checked

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


class AllDifferent(ConstraintKind):
    FIELDS = ("operands", "excepts")  # Tuple[Expr, ...], Tuple[int, ...]
    DEFAULTS = {"excepts": ()}
    EXPRESSIONS = ("operands",)


class AllDifferentLists(ConstraintKind):
    FIELDS = ("lists", "excepts")  # lists of ids, tuples of excepted values
    DEFAULTS = {"excepts": ()}


class AllDifferentMatrix(ConstraintKind):
    FIELDS = ("rows",)  # Tuple[Tuple[str, ...], ...]


class AllEqual(ConstraintKind):
    FIELDS = ("operands",)
    EXPRESSIONS = ("operands",)


class Ordered(ConstraintKind):
    FIELDS = ("vars", "op", "lengths")  # ids, OrderOp, Optional[Tuple[Val, ...]]
    DEFAULTS = {"lengths": None}


class Lex(ConstraintKind):
    FIELDS = ("lists", "op")


class Lex2(ConstraintKind):
    """Lex chain over the rows and over the columns of a matrix."""

    FIELDS = ("rows", "op")


class Sum(ConstraintKind):
    FIELDS = ("terms", "coeffs", "condition")  # Tuple[Expr, ...], Tuple[Val, ...]
    EXPRESSIONS = ("terms",)

    @cached_property
    def int_coeffs(self) -> Optional[Tuple[int, ...]]:
        """The coefficients when none is a variable, else None."""
        if any(isinstance(c, VarRef) for c in self.coeffs):
            return None
        return self.coeffs


class Count(ConstraintKind):
    FIELDS = ("operands", "values", "condition")  # values: Tuple[Val, ...]
    EXPRESSIONS = ("operands",)


class NValues(ConstraintKind):
    FIELDS = ("operands", "condition", "excepts")
    DEFAULTS = {"excepts": ()}
    EXPRESSIONS = ("operands",)


class Cardinality(ConstraintKind):
    FIELDS = ("vars", "values", "occurs", "closed")  # occurs: int, VarRef or Interval
    DEFAULTS = {"closed": False}


class Minimum(ConstraintKind):
    FIELDS = ("operands", "condition")
    EXPRESSIONS = ("operands",)


class Maximum(ConstraintKind):
    FIELDS = ("operands", "condition")
    EXPRESSIONS = ("operands",)


# right-hand side of element: a target value/variable or a full condition
ElementRhs = Union[int, VarRef, Condition]


class ElementVarList(ConstraintKind):
    FIELDS = ("vars", "index", "rhs")  # ids, id, ElementRhs


class ElementValList(ConstraintKind):
    FIELDS = ("values", "index", "rhs")  # Tuple[int, ...], id, ElementRhs


class ElementMatrix(ConstraintKind):
    """cells holds variable ids (str) or plain values (int), homogeneously."""

    FIELDS = ("cells", "row_index", "col_index", "rhs")


class ChannelOne(ConstraintKind):
    FIELDS = ("vars",)


class ChannelTwo(ConstraintKind):
    FIELDS = ("first", "second")


class ChannelValue(ConstraintKind):
    FIELDS = ("vars", "value")  # ids, id


class NoOverlap1(ConstraintKind):
    FIELDS = ("origins", "lengths", "zero_ignored")  # ids, Tuple[Val, ...], bool
    DEFAULTS = {"zero_ignored": True}


class NoOverlapK(ConstraintKind):
    FIELDS = ("origins", "lengths", "zero_ignored")  # one tuple per box of each
    DEFAULTS = {"zero_ignored": True}


class Cumulative(ConstraintKind):
    FIELDS = ("origins", "lengths", "heights", "condition")


class Circuit(ConstraintKind):
    FIELDS = ("vars", "size")  # ids, Optional[Val]
    DEFAULTS = {"size": None}


class InstantiationCtr(ConstraintKind):
    """instantiation posted as a constraint; * entries restrict nothing."""

    FIELDS = ("vars", "values")  # ids, Tuple[Value, ...]


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


class Objective(_Involving):
    FIELDS = ("sense", "kind", "expression", "operands", "coeffs")
    DEFAULTS = {"expression": None, "operands": (), "coeffs": None}
    EXPRESSIONS = ("expression", "operands")

    def _validate(self) -> None:
        if self.kind is ObjKind.EXPRESSION:
            if self.expression is None:
                raise ValueError("expression objective without an expression")
        elif not self.operands:
            raise ValueError(f"{self.kind.value} objective needs operands")
        if self.coeffs is not None and len(self.coeffs) != len(self.operands):
            raise ValueError("coeffs length differs from operand count")
        if self.kind is ObjKind.LEX and self.coeffs is not None:
            raise ValueError("lex objectives take no coefficients")



# Each kind's element: its tag and its children in the order written and
# read, as (child tag, field name); a tuple of field names shares one child.
# A child "a|b" is <b> when the field holds a Condition or the kind's table is
# negative (Extension.positive is false), else <a>. The child "owner@name"
# holds the field as attribute name= of the child before it, or of the
# constraint element when owner is empty. A field left at its value in the
# kind's DEFAULTS is not written and may be absent. canonical.py writes each
# kind by its row; parser.py derives from the rows the attributes and children
# each tag takes, and reads the plain kinds by them.
LAYOUT: Dict[type, Tuple[str, tuple]] = {
    Intension: ("intension", (("function", "function"),)),
    Extension: ("extension", (("list", "scope"), ("supports|conflicts", "tuples"),
                              ("supports|conflicts", "unary"))),
    Regular: ("regular", (("list", "scope"), ("transitions", "transitions"),
                          ("start", "start"), ("final", "finals"))),
    Mdd: ("mdd", (("list", "scope"), ("transitions", "transitions"))),
    AllDifferent: ("allDifferent", (("list", "operands"), ("except", "excepts"))),
    AllDifferentLists: ("allDifferent", (("list", "lists"), ("except", "excepts"))),
    AllDifferentMatrix: ("allDifferent", (("matrix", "rows"),)),
    AllEqual: ("allEqual", (("list", "operands"),)),
    Ordered: ("ordered", (("list", "vars"), ("lengths", "lengths"), ("operator", "op"))),
    Lex: ("lex", (("list", "lists"), ("operator", "op"))),
    Lex2: ("lex", (("matrix", "rows"), ("operator", "op"))),
    Sum: ("sum", (("list", "terms"), ("coeffs", "coeffs"), ("condition", "condition"))),
    Count: ("count", (("list", "operands"), ("values", "values"), ("condition", "condition"))),
    NValues: ("nValues", (("list", "operands"), ("except", "excepts"),
                          ("condition", "condition"))),
    Cardinality: ("cardinality", (("list", "vars"), ("values", "values"),
                                  ("values@closed", "closed"), ("occurs", "occurs"))),
    Minimum: ("minimum", (("list", "operands"), ("condition", "condition"))),
    Maximum: ("maximum", (("list", "operands"), ("condition", "condition"))),
    ElementVarList: ("element", (("list", "vars"), ("index", "index"),
                                 ("value|condition", "rhs"))),
    ElementValList: ("element", (("list", "values"), ("index", "index"),
                                 ("value|condition", "rhs"))),
    ElementMatrix: ("element", (("matrix", "cells"), ("index", ("row_index", "col_index")),
                                ("value|condition", "rhs"))),
    ChannelOne: ("channel", (("list", "vars"),)),
    ChannelTwo: ("channel", (("list", "first"), ("list", "second"))),
    ChannelValue: ("channel", (("list", "vars"), ("value", "value"))),
    NoOverlap1: ("noOverlap", (("@zeroIgnored", "zero_ignored"), ("origins", "origins"),
                               ("lengths", "lengths"))),
    NoOverlapK: ("noOverlap", (("@zeroIgnored", "zero_ignored"), ("origins", "origins"),
                               ("lengths", "lengths"))),
    Cumulative: ("cumulative", (("origins", "origins"), ("lengths", "lengths"),
                                ("heights", "heights"), ("condition", "condition"))),
    Circuit: ("circuit", (("list", "vars"), ("size", "size"))),
    InstantiationCtr: ("instantiation", (("list", "vars"), ("values", "values"))),
}
