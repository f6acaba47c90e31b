"""Functional expression trees: parsing, printing, compilation.

Expressions use the functional notation of XCSP3-core, e.g.
``le(add(mul(250,b),mul(200,c)),4000)``. No whitespace is permitted
anywhere inside an expression. Booleans are the integers 0 and 1; any
integer may feed a boolean slot (nonzero counts as true) and any boolean
result may feed an integer slot.

The integer and identifier patterns here are the only ones in the package:
the token readers in parser.py build on them.

A group or slide repeats one expression with new operands, and a flat
document often repeats one shape of text (the text but for its operand
leaves). Either way the parser reads the text once, with parse_expr, and
builder turns the tree into a function that builds it again with the
operand leaves at chosen positions of the text replaced; operand_leaf
gives the leaf a token reads as in an operand's place, the same one
parse_expr would read from the substituted text.

Record, the base of the expression nodes and of the value classes of
model.py and kinds.py, is here, the lowest module they all import; the
generator of compile_expr writes its methods from each class's fields.

compile_expr generates Python code once per expression shape: the
operators, their operand counts and the kinds of the leaves. The first
expression of a shape generates and compiles a factory whose parameters
are the shape's constants (variable ids, integers, in() sets, error
messages); it returns a straight-line function of an environment, with
each if() branch in a function of its own. Every later expression of
the shape, such as each of the thousands of constraints one group or
slide posts, calls the factory with its own constants. The source is
written from generated names and fixed snippet tables alone: no id,
integer or operator text of the input ever enters it. At most MAX_SHAPES
factories are kept, the oldest dropped first. A new shape costs one
compile() call, well under a millisecond but many times what a shape met
again costs, a walk of the tree (compile_expr gives the measurements).

bounded_shape and Bounded.write are the same generator in a bounded,
inline mode, for a caller that runs the code only under environments
binding every variable inside known (min, max) bounds, as the search does
once a check's variables are assigned from their domains. bounded_shape's
walk also carries each node's span, the integer interval its values lie
in (interval arithmetic, as in Apt and Zoeteweij, "An analysis of
arithmetic constraints on integer intervals", Constraints 2007). Two
things are then left out of the code: the isinstance test of each
variable read, which such an environment cannot fail, and each int64
range test of neg, abs, sqr, add, sub, mul and dist whose span lies
inside int64, which cannot fire. Python integers do not wrap, so a value
is the same with or without a test; a test whose span reaches past int64
is kept, with its message. A div or mod whose dividend's span has lo >= 0
and whose divisor's has lo >= 1 is Python's // or %, exact there and
unable to raise. Every other div and mod, pow, n-ary add and mul, and
if() keep their code, so every error that can still happen is raised as
compile_expr's function raises it. The walk's result, a Bounded, keeps
the tree, the shape key with the list of kept tests and checked divs and
mods, and the constants. Bounded.write writes the expression's statements
into code of the caller's (the solver writes intensions and allDifferent
operands into its search loop, and check_solution each intension shape
into a loop over its rows), with a suffix on every name, and reads each
variable that the caller holds in a local from that local, any other
from env; an if() branch's function reads env. The caller passes every
constant (Bounded.consts, the ids of the variables read from locals too,
which the code never reads), in the walk's order, as it passes its own,
and keys its own code by the shape key and the reads. A caller that only
tests the value (an intension's check) has a top comparison written as
its negation in place, not stored as 0/1.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import (Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .errors import (
    INT_MAX,
    INT_MIN,
    DivisionByZero,
    EvalError,
    NegativeExponent,
    Overflow,
    ParseError,
    UnboundVariable,
    check_int64,
)


def generated(cache: Dict[Any, Callable[..., Any]], bound: int, key: Any,
              write: Callable[[], str], namespace: Mapping[str, object],
              filename: str) -> Callable[..., Any]:
    """The factory _make of shape key: from cache, or compiled from write().

    The source is executed in a copy of namespace. cache holds at most
    bound factories, the oldest dropped first. compile_expr, the solver's
    loop blocks, the checker's check loops and the record classes use it,
    each with its own cache.
    """
    make = cache.get(key)
    if make is None:
        scope = dict(namespace)
        exec(compile(write(), filename, "exec"), scope)
        make = scope["_make"]
        if len(cache) >= bound:
            del cache[next(iter(cache))]
        cache[key] = make
    return make


def _record_source(fields: Tuple[str, ...], defaults: Dict[str, Any], validate: bool) -> str:
    """The source of _make(setters..., defaults...) -> (__init__, __eq__, __hash__)."""
    values = ", ".join(f"self.{f}" for f in fields)  # a lone field is hashed as it is
    return "\n".join(
        ["def _make(" + ", ".join([f"_set_{f}" for f in fields]
                                  + [f"_default_{f}" for f in defaults]) + "):",
         "    def __init__(self, " + ", ".join(
             f"{f}=_default_{f}" if f in defaults else f for f in fields) + "):"]
        + [f"        _set_{f}(self, {f})" for f in fields]
        + ["        self._validate()"] * validate
        + ["    def __eq__(self, other):",
           "        if other.__class__ is self.__class__:",
           "            return " + " and ".join(f"self.{f} == other.{f}" for f in fields),
           "        return NotImplemented",
           "    def __hash__(self):",
           f"        return hash({values if len(fields) == 1 else f'({values})'})",
           "    return __init__, __eq__, __hash__", ""])


_RECORD_FACTORIES: Dict[Any, Callable[..., Any]] = {}  # shared by equal field lists


class _RecordType(type):
    """Gives a record class a slot per field its bases lack and, when it
    declares FIELDS, its generated __init__, __eq__ and __hash__."""

    def __new__(mcs, name: str, bases: tuple, namespace: dict) -> type:
        inherited = {f for base in bases for f in getattr(base, "FIELDS", ())}
        namespace.setdefault("__slots__", tuple(
            f for f in namespace.get("FIELDS", ()) if f not in inherited))
        cls = super().__new__(mcs, name, bases, namespace)
        if namespace.get("FIELDS"):
            fields, defaults = cls.FIELDS, cls.DEFAULTS
            validate = hasattr(cls, "_validate")
            make = generated(_RECORD_FACTORIES, 256, (fields, tuple(defaults), validate),
                             lambda: _record_source(fields, defaults, validate), {},
                             "<record>")
            cls.__init__, cls.__eq__, cls.__hash__ = make(
                *[getattr(cls, f).__set__ for f in fields], *defaults.values())
        return cls


class Record(metaclass=_RecordType):
    """An immutable value: its class and the values of its FIELDS.

    A subclass lists its fields in FIELDS (a base's first), the values of
    the trailing ones that may be left out in DEFAULTS, and may define
    _validate, which __init__ calls last. Records are equal when of one
    class with equal fields; assigning or deleting an attribute raises
    AttributeError; pickling and copying rebuild a record from its fields.
    """

    FIELDS: Tuple[str, ...] = ()
    DEFAULTS: Dict[str, Any] = {}

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> Tuple[type, tuple]:
        return type(self), tuple(getattr(self, f) for f in self.FIELDS)


class IntConst(Record):
    FIELDS = ("value",)


class VarRef(Record):
    """Reference to a variable, possibly an array cell like ``x[0][3]``."""
    FIELDS = ("id",)


class SetLiteral(Record):
    """set(...) of integer constants; only valid as the second slot of in()."""
    FIELDS = ("values",)  # Tuple[int, ...]


class OpCall(Record):
    FIELDS = ("op", "args")  # str, Tuple[Expr, ...]


Expr = Union[IntConst, VarRef, SetLiteral, OpCall]

# operator -> (min arity, max arity or None when unbounded)
ARITIES: Dict[str, Tuple[int, Optional[int]]] = {
    "neg": (1, 1), "abs": (1, 1), "sqr": (1, 1),
    "add": (2, None), "sub": (2, 2), "mul": (2, None),
    "div": (2, 2), "mod": (2, 2), "pow": (2, 2), "dist": (2, 2),
    "min": (2, None), "max": (2, None),
    "lt": (2, 2), "le": (2, 2), "ge": (2, 2), "gt": (2, 2),
    "ne": (2, 2), "eq": (2, None),
    "in": (2, 2),
    "not": (1, 1), "and": (2, None), "or": (2, None),
    "xor": (2, None), "iff": (2, None), "imp": (2, 2),
    "if": (3, 3),
}

# Reserved words; none of them may be used as an identifier.
KEYWORDS = frozenset(
    """neg abs add sub mul div mod sqr pow min max dist lt le ge gt ne eq set in
    not and or xor iff imp if card union inter diff sdiff hull djoint subset
    subseq supseq supset convex PI E fdiv fmod sqrt nroot exp ln log sin cos tan
    asin acos atan sinh cosh tanh others""".split()
)

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
INT_RE = re.compile(r"[+-]?[0-9]+")
INDEX_RE = re.compile(r"\[([0-9]+)\]")  # one index of a cell id: x[2][3]
CELL_RE = re.compile(rf"{IDENT_RE.pattern}(?:{INDEX_RE.pattern})+")  # a cell id


# Deepest nesting of operator calls an expression may have. Printing and
# generating code recurse once or twice per level, and evaluation once per
# if() branch taken, so deeper text is rejected (rule expression-depth) before
# it can exhaust the interpreter stack.
MAX_EXPR_DEPTH = 200


def is_identifier(token: str) -> bool:
    """Valid identifier: letter then letters/digits/underscores, not a keyword."""
    return bool(IDENT_RE.fullmatch(token)) and token not in KEYWORDS


def _int64(token: str, path: Optional[str], what: str) -> int:
    """The value of a token that INT_RE matches, if it lies in int64.

    A long token is cut to its significant digits before it is converted, so
    that one of thousands of digits fails with integer-range, and one with
    thousands of leading zeros reads, like any other.
    """
    if len(token) > 19:
        digits = token.lstrip("+-").lstrip("0") or "0"
        if len(digits) > 19:
            raise ParseError(f"{what} {_clip(token)} leaves the 64-bit integer range",
                             path=path, rule="integer-range")
        token = "-" + digits if token[0] == "-" else digits
    value = int(token)
    if value < INT_MIN or value > INT_MAX:
        raise ParseError(f"{what} {token} leaves the 64-bit integer range",
                         path=path, rule="integer-range")
    return value


def _clip(token: str) -> str:
    return token if len(token) <= 40 else f"{token[:20]}...({len(token)} characters)"


def read_int(token: str, path: Optional[str] = None, what: str = "integer") -> int:
    """The integer a token spells: optional sign, ASCII digits, int64 range."""
    if not INT_RE.fullmatch(token):
        raise ParseError(f"bad {what} token {_clip(token)!r}", path=path, rule="integer")
    return _int64(token, path, what)


# One operand token: an identifier followed by "(" (a call) or by cell
# indexes (a variable, maybe with none), or an integer.
_OPERAND_RE = re.compile(
    rf"({IDENT_RE.pattern})(\(|(?:\[[0-9]+\])*)|{INT_RE.pattern}")
_SPACE_RE = re.compile(r"\s")


def parse_expr(text: str, path: Optional[str] = None) -> Expr:
    """Parse a functional expression. The text must contain no whitespace.

    One pass over the text: each operand is one match of one pattern, ","
    and ")" are read by position, and the calls still open are kept on an
    explicit stack. Each check runs when its token is read: an operator
    when its name is, the depth when its call opens, the arity and the
    operand kinds when it closes. A set literal is valid only as the
    second operand of in().
    """
    space = _SPACE_RE.search(text)
    if space is not None:
        raise ParseError(f"whitespace inside functional expression (offset {space.start()})",
                         path=path, rule="expression-whitespace")
    if not text:
        raise ParseError("empty expression (offset 0)", path=path, rule="expression-syntax")

    def fail(message: str, offset: int, rule: str = "expression-syntax") -> ParseError:
        return ParseError(f"{message} (offset {offset})", path=path, rule=rule)

    match, end = _OPERAND_RE.match, len(text)
    calls: List[Tuple[str, int, List[Expr]]] = []  # (operator, offset, outer operands)
    operands: List[Expr] = []  # of the innermost open call; at the root, the result
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:
            raise fail("expected an operand" if pos < end else "unexpected end of expression",
                       pos)
        name, tail = m.group(1, 2)
        pos = m.end()
        if name is None:  # an integer; one of 18 characters or fewer lies in int64
            token = m.group()
            operands.append(IntConst(int(token) if len(token) < 19 else
                                     _int64(token, path, "integer literal")))
        elif tail == "(":
            if name != "set" and name not in ARITIES:
                raise fail(f"unknown operator '{name}'", m.start())
            if len(calls) == MAX_EXPR_DEPTH:
                raise fail(f"expression nested deeper than {MAX_EXPR_DEPTH} calls",
                           m.start(), rule="expression-depth")
            calls.append((name, m.start(), operands))
            operands = []
            if not text.startswith(")", pos):
                continue
            # a call without operands: its ")" is read below
        elif name in KEYWORDS:
            kind = "operator" if name in ARITIES else "reserved word"
            raise fail(f"{kind} '{name}' used as a variable", m.start())
        else:
            operands.append(VarRef(m.group()))
        # after an operand: each ")" closes the innermost call, "," opens the next operand
        while True:
            if pos == end:
                if calls:
                    raise fail("unexpected end of expression", pos)
                return operands[0]
            ch = text[pos]
            if ch == "," and calls:
                pos += 1
                break
            if ch != ")" or not calls:
                raise fail("expected ',' or ')'" if calls else
                           "trailing characters after expression", pos)
            pos += 1
            op, start, outer = calls.pop()
            node = _close_call(op, operands, start, fail)
            if type(node) is SetLiteral and not (calls and calls[-1][0] == "in"
                                                 and len(outer) == 1):
                raise fail("a set literal may only be the second operand of in()", start)
            outer.append(node)
            operands = outer


def operand_leaf(token: str) -> Optional[Expr]:
    """The leaf parse_expr reads from token in an operand's place: VarRef for
    an identifier or cell id whose name is no keyword, IntConst for an integer
    of fewer than 19 characters; None for any other token, which may read
    otherwise, or fail."""
    m = _OPERAND_RE.fullmatch(token)
    if m is None:
        return None
    name, tail = m.group(1, 2)
    if name is None:
        return IntConst(int(token)) if len(token) < 19 else None
    if tail == "(" or name in KEYWORDS:
        return None
    return VarRef(token)


def builder(tree: Expr, slots: Sequence[int]) -> Callable[[Sequence[Expr]], Expr]:
    """A function of leaves, one per slot, that builds tree again with the
    operand leaf at text position slots[i] replaced by leaves[i]. The
    positions count tree's operand leaves in text order, set members
    among them; a set member's leaf must be IntConst, else building raises
    TypeError, where parse_expr would reject the text. The subtrees that
    hold no slot are shared by every tree built, as records are immutable."""
    plan = _plan(tree, {position: i for i, position in enumerate(slots)}, itertools.count())
    if plan is None:
        return lambda leaves: tree
    return operator.itemgetter(plan) if type(plan) is int else functools.partial(_build, plan)


def _plan(node: Any, index: Mapping[int, int], positions: Iterator[int]) -> Any:
    """How _build builds node, a tree or a set's member, again: None when it
    holds no slot; the index of its leaf when it is a slot; else its class,
    operator, operands and the (k, plan) of each operand k with a slot.
    positions gives each leaf's position, index each slot's leaf."""
    kind = type(node)
    if kind is OpCall or kind is SetLiteral:
        operands = node.args if kind is OpCall else node.values
        parts = tuple((k, part) for k, part in enumerate(
            [_plan(operand, index, positions) for operand in operands]) if part is not None)
        return (kind, getattr(node, "op", None), operands, parts) if parts else None
    return index.get(next(positions))


def _build(plan: Any, leaves: Sequence[Expr]) -> Expr:
    """The node that plan (_plan) builds from leaves."""
    kind, op, operands, parts = plan
    args = list(operands)
    if kind is SetLiteral:
        for k, i in parts:
            if type(leaves[i]) is not IntConst:
                raise TypeError("set literals may only contain integers")
            args[k] = leaves[i].value
        return SetLiteral(tuple(args))
    for k, part in parts:
        args[k] = leaves[part] if type(part) is int else _build(part, leaves)
    return OpCall(op, tuple(args))


def _close_call(op: str, args: List[Expr], start: int,
                fail: Callable[..., ParseError]) -> Expr:
    """The node of a call whose operands are all read, checked; start is
    the offset of its name."""
    if op == "set":
        if any(type(a) is not IntConst for a in args):
            raise fail("set literals may only contain integers", start)
        return SetLiteral(tuple(a.value for a in args))
    lo, hi = ARITIES[op]
    if len(args) < lo or (hi is not None and len(args) > hi):
        bound = str(lo) if hi == lo else (f">= {lo}" if hi is None else f"{lo}..{hi}")
        raise fail(f"operator '{op}' takes {bound} arguments, got {len(args)}", start,
                   "operator-arity")
    if op == "in" and type(args[1]) is not SetLiteral:
        raise fail("second argument of in() must be a set literal", start)
    return OpCall(op, tuple(args))


def print_expr(e: Expr) -> str:
    """Render canonically; parse_expr(print_expr(e)) == e."""
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.id
    if isinstance(e, SetLiteral):
        return "set(" + ",".join(str(v) for v in e.values) + ")"
    return e.op + "(" + ",".join(print_expr(a) for a in e.args) + ")"


# -- evaluation -------------------------------------------------------------------
#
# compile_expr generates one Python function per expression shape (see the
# module docstring). Every operand is evaluated, left to right, before its
# operator applies, so and/or/imp do not short-circuit; only if() leaves the
# branch it does not take unevaluated. Arithmetic is checked signed 64-bit.

Evaluator = Callable[[Mapping[str, int]], int]


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero(f"div({a},{b})")
    q = abs(a) // abs(b)
    # div(INT_MIN,-1) is the one quotient that leaves the range
    return check_int64(q if (a >= 0) == (b >= 0) else -q, "div")


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero(f"mod({a},{b})")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _power(base: int, exponent: int) -> int:
    if exponent < 0:
        raise NegativeExponent(f"pow({base},{exponent})")
    if base == 0:
        return 1 if exponent == 0 else 0
    if base == 1:
        return 1
    if base == -1:
        return 1 if exponent % 2 == 0 else -1
    if exponent > 63:
        # |base| >= 2 here, so the result cannot fit in 64 bits.
        raise Overflow(f"pow({base},{exponent}) leaves the 64-bit integer range")
    result = 1
    for _ in range(exponent):
        result = check_int64(result * base, "pow")
    return result


def _add(values: List[int]) -> int:
    total = 0
    for v in values:
        total = check_int64(total + v, "add")
    return total


def _mul(values: List[int]) -> int:
    total = 1
    for v in values:
        total = check_int64(total * v, "mul")
    return total


# The operators with more than two operands, applied to their operand list.
_NARY: Dict[str, Callable[[List[int]], int]] = {
    "add": _add,
    "mul": _mul,
    "min": min,
    "max": max,
    "eq": lambda vs: 1 if vs.count(vs[0]) == len(vs) else 0,
    "and": lambda vs: 1 if all(vs) else 0,
    "or": lambda vs: 1 if any(vs) else 0,
    "xor": lambda vs: (len(vs) - vs.count(0)) % 2,
    "iff": lambda vs: 1 if all(vs) or not any(vs) else 0,
}

# The snippet tables: the right-hand side of the statement that computes an
# operator's value from its operands {a} and {b}, and the context of the
# int64 test that follows it (None: the value cannot leave the range). An
# operator name from the input is only ever a key into these tables.
_UNARY_CODE: Dict[str, Tuple[str, Optional[str]]] = {
    "neg": ("-{a}", "neg"),
    "abs": ("-{a} if {a} < 0 else {a}", "abs"),
    "sqr": ("{a} * {a}", "sqr"),
    "not": ("0 if {a} else 1", None),
}

_BINARY_CODE: Dict[str, Tuple[str, Optional[str]]] = {
    "add": ("{a} + {b}", "add"),
    "sub": ("{a} - {b}", "sub"),
    "mul": ("{a} * {b}", "mul"),
    "dist": ("{a} - {b} if {a} >= {b} else {b} - {a}", "dist"),
    "div": ("_trunc_div({a}, {b})", None),
    "mod": ("_trunc_mod({a}, {b})", None),
    "pow": ("_power({a}, {b})", None),
    "min": ("{b} if {b} < {a} else {a}", None),
    "max": ("{b} if {b} > {a} else {a}", None),
    "lt": ("1 if {a} < {b} else 0", None),
    "le": ("1 if {a} <= {b} else 0", None),
    "ge": ("1 if {a} >= {b} else 0", None),
    "gt": ("1 if {a} > {b} else 0", None),
    "ne": ("1 if {a} != {b} else 0", None),
    "eq": ("1 if {a} == {b} else 0", None),
    "imp": ("1 if not {a} or {b} else 0", None),
    "and": ("1 if {a} and {b} else 0", None),
    "or": ("1 if {a} or {b} else 0", None),
    "xor": ("1 if (not {a}) != (not {b}) else 0", None),
    "iff": ("1 if (not {a}) == (not {b}) else 0", None),
}

_NARY_CODE: Dict[str, str] = {op: f"_nary_{op}([{{a}}])" for op in _NARY}

# Where each comparison gives 0: how Bounded.write tests one in place
_FAILED: Dict[str, str] = {"lt": "{a} >= {b}", "le": "{a} > {b}", "ge": "{a} < {b}",
                           "gt": "{a} <= {b}", "ne": "{a} == {b}", "eq": "{a} != {b}"}

# div and mod where the bounds prove the dividend >= 0 and the divisor >= 1:
# Python's floor division and remainder are then the truncated ones, exact
# and unable to raise
_PROVED_CODE: Dict[str, str] = {"div": "{a} // {b}", "mod": "{a} % {b}"}

_RANGE_TEST = ("if {t} < -9223372036854775808 or {t} > 9223372036854775807: "
               "check_int64({t}, {context!r})")

# What generated code may name besides its own parameters and temporaries.
_NAMESPACE: Dict[str, object] = {
    "check_int64": check_int64, "UnboundVariable": UnboundVariable,
    "EvalError": EvalError, "_trunc_div": _trunc_div, "_trunc_mod": _trunc_mod,
    "_power": _power, **{f"_nary_{op}": fn for op, fn in _NARY.items()},
}

# Generated factories by shape, oldest first. Past the bound the oldest is
# dropped; an expression of its shape generates it again.
MAX_SHAPES = 1024
_FACTORIES: Dict[Tuple[object, ...], Callable[..., Evaluator]] = {}


def _form(op: str, args: Tuple[Expr, ...]) -> str:
    """How a call is evaluated: by a snippet table's name, or by "if",
    "in", or "?" (raise "unhandled operator" once the operands are in)."""
    n = len(args)
    if n == 2:
        if op in _BINARY_CODE:
            return "binary"
        if op == "in" and type(args[1]) is SetLiteral:
            return "in"
    elif n == 1:
        if op in _UNARY_CODE:
            return "unary"
    elif n > 2:
        if op in _NARY_CODE:
            return "nary"
        if n == 3 and op == "if":
            return "if"
    return "?"


# Value ranges for the bounded mode: the hull of the values an operator can
# give when its operands' values lie in the given ranges. Exact hulls for the
# operators with an inline range test; any superset for the others.
Span = Tuple[int, int]
_INT64: Span = (INT_MIN, INT_MAX)
_BOOL: Span = (0, 1)


def _abs_span(a: Span) -> Span:
    lo, hi = a
    if lo >= 0:
        return a
    return (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))


def _product(a: Span, b: Span) -> Span:
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ends), max(ends)


def _quotient(a: Span, b: Span) -> Span:
    # |div(x,y)| <= |x|; div(INT_MIN,-1) raises in _trunc_div
    m = max(-a[0], a[1])
    return -m, m


def _remainder(a: Span, b: Span) -> Span:
    # mod(x,y) has the sign of x, |mod(x,y)| <= |x| and |mod(x,y)| < |y|
    m = max(-b[0], b[1]) - 1
    return max(min(0, a[0]), -m), min(max(0, a[1]), m)


_UNARY_SPANS: Dict[str, Callable[[Span], Span]] = {
    "neg": lambda a: (-a[1], -a[0]),
    "abs": _abs_span,
    "sqr": lambda a: _product(_abs_span(a), _abs_span(a)),
    "not": lambda a: _BOOL,
}

_BINARY_SPANS: Dict[str, Callable[[Span, Span], Span]] = {
    "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "sub": lambda a, b: (a[0] - b[1], a[1] - b[0]),
    "mul": _product,
    "dist": lambda a, b: _abs_span((a[0] - b[1], a[1] - b[0])),
    "div": _quotient,
    "mod": _remainder,
    "pow": lambda a, b: _INT64,
    "min": lambda a, b: (min(a[0], b[0]), min(a[1], b[1])),
    "max": lambda a, b: (max(a[0], b[0]), max(a[1], b[1])),
    **{op: (lambda a, b: _BOOL) for op in
       ("lt", "le", "ge", "gt", "ne", "eq", "imp", "and", "or", "xor", "iff")},
}


def _fold(step: Callable[[Span, Span], Span]) -> Callable[[List[Span]], Span]:
    def fold(spans: List[Span]) -> Span:
        span = spans[0]
        for other in spans[1:]:
            span = step(span, other)
        return span
    return fold


# How _shape leaves a call of each (form, operator): the span of its values
# from its operands' spans (one span, two, or a list of three or more), and
# whether it has an inline range test (1), may raise whatever the values
# (2: the code of pow, n-ary add and mul, and formless calls), is div or
# mod, which may raise unless the operands' signs are proved (3), or
# neither (0).
_LEAVE: Dict[Tuple[str, str], Tuple[Callable[..., Span], int]] = {
    **{("unary", op): (_UNARY_SPANS[op], 0 if context is None else 1)
       for op, (_, context) in _UNARY_CODE.items()},
    **{("binary", op): (_BINARY_SPANS[op], 1 if context is not None
                        else 3 if op in _PROVED_CODE else 2 if op == "pow" else 0)
       for op, (_, context) in _BINARY_CODE.items()},
    **{("nary", op): (_fold(_BINARY_SPANS[op]) if op in ("add", "mul", "min", "max")
                      else lambda s: _BOOL, 2 if op in ("add", "mul") else 0)
       for op in _NARY_CODE},
    ("if", "if"): (lambda s: (min(s[1][0], s[2][0]), max(s[1][1], s[2][1])), 0),
    ("in", "in"): (lambda a: _BOOL, 0),
    ("?", "?"): (lambda *s: _INT64, 2),
}


def _shape(e: Expr, bounds: Optional[Mapping[str, Span]] = None,
           reads: Optional[List[Tuple[str, bool]]] = None
           ) -> Tuple[Any, List[object], List[bool], bool]:
    """The shape key of e, its constants, its range tests and whether it may raise.

    One walk, preorder, of the tree. A call gives its operator (or "?" when
    it has no form) and its operand count, a leaf "v", "i" or "s". The
    constants are each variable's id, each integer's value, each in() call's
    set and each formless call's error message, a call's own before its
    operands': the order in which _Writer numbers the factory's parameters.

    With bounds (each variable's (min, max)), the walk also leaves each call
    after its operands, working out the span of its values (_LEAVE): the
    range tests list, in the order _Writer writes them, which of the calls
    with an inline range test can leave int64 (a call that passes its test
    stays inside) and which div and mod calls need their checked code (the
    spans do not prove the dividend >= 0 and the divisor >= 1), and these
    flags join the key. The last result is True when some call may raise
    whatever the values: a surviving range test, a checked div or mod,
    pow, an n-ary add or mul, a formless call or a stray set literal.
    Without bounds the key is the tree's shape alone, every range test and
    checked call is written and the last two results mean nothing. With
    bounds and a list reads, the walk appends to reads each variable read,
    in the order of the constants (the order in which _Writer reads): its
    id and whether the read sits inside an if() branch.
    """
    key: List[object] = []
    consts: List[object] = []
    spans: List[Span] = []
    tests: List[bool] = []
    raises = False
    branches = 0  # the if() branches the walk is inside
    stack: List[Any] = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is VarRef:
            key.append("v")
            consts.append(node.id)
            if bounds is not None:
                spans.append(bounds[node.id])
                if reads is not None:
                    reads.append((node.id, branches > 0))
        elif kind is IntConst:
            key.append("i")
            consts.append(node.value)
            if bounds is not None:
                spans.append((node.value, node.value))
        elif kind is OpCall:
            op, args = node.op, node.args
            form = _form(op, args)
            if form == "in":
                consts.append(frozenset(args[1].values))
                args = args[:1]
            elif form == "?":
                consts.append(f"unhandled operator {op!r}")
                op = "?"
            key += (op, len(args))
            if bounds is not None:  # left once its operands' spans are on spans
                stack.append((_LEAVE[form, op], len(args)))
            if form == "if" and reads is not None:  # an int enters (1) or leaves (-1) a branch
                stack += (-1, args[2], args[1], 1, args[0])
            else:
                stack += args[::-1]
        elif kind is int:
            branches += node
        elif kind is tuple:
            (span_of, effect), n = node
            if n == 2:
                b = spans.pop()
                a = spans.pop()
                lo, hi = span_of(a, b)
            elif n == 1:
                lo, hi = span_of(spans.pop())
            else:
                lo, hi = span_of(spans[-n:])
                del spans[-n:]
            outside = lo < INT_MIN or hi > INT_MAX
            if effect == 1:
                tests.append(outside)
                raises = raises or outside
            elif effect == 2:
                raises = True
            elif effect == 3:
                checked = a[0] < 0 or b[0] < 1
                tests.append(checked)
                raises = raises or checked
            spans.append((max(lo, INT_MIN), min(hi, INT_MAX)) if outside else (lo, hi))
        else:
            key.append("s")
            spans.append(_INT64)
            raises = True
    if bounds is None:
        return tuple(key), consts, tests, raises
    return (tuple(key), tuple(tests)), consts, tests, raises


class _Writer:
    """Writes the source of one shape's factory from an expression of it.

    _make(p0, ..., pn) takes the constants in _shape's order and returns
    evaluate(env). A function body is straight-line code, one temporary per
    node; each if() branch is a function of its own beside evaluate, so no
    definition nests deeper than one level whatever the expression's depth.
    Only parameter, temporary and function names and snippet table text are
    written: constants reach the code as arguments of _make.

    Given tests (_shape's flags) and reads, the code is bounded and inline
    (Bounded.write): a variable is read without a test, a range test is
    written only where its flag is True, and a div or mod whose flag is
    False is Python's // or %. The statements go into code of the
    caller's, their names with a suffix, and reads gives, for each variable
    read in _shape's order, the name of a local that holds its value, or
    None to read env[p]; a read inside an if() branch, whose function runs
    apart from that code, must read env.
    """

    def __init__(self, tests: Optional[List[bool]] = None,
                 reads: Optional[Sequence[Optional[str]]] = None, suffix: str = "") -> None:
        self.params = 0
        self.temps = 0
        self.functions: List[str] = []  # the lines of each if() branch's function
        self.tests = None if tests is None else iter(tests)
        self.reads = None if reads is None else iter(reads)
        self.suffix = suffix

    def param(self) -> str:
        self.params += 1
        return f"p{self.suffix}{self.params - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.suffix}{self.temps - 1}"

    def function(self, name: str, e: Expr) -> str:
        body: List[str] = []
        result = self.node(e, body)
        self.functions += ([f"def {name}(env):"] + [f"    {line}" for line in body]
                           + [f"    return {result}"])
        return name

    def node(self, e: Expr, body: List[str]) -> str:
        """Append the statements computing e to body; the name of its value."""
        kind = type(e)
        if kind is IntConst:
            return self.param()
        if kind is VarRef:
            p = self.param()
            if self.tests is None:
                t = self.temp()
                body += [f"{t} = env.get({p})",
                         f"if not isinstance({t}, int): raise UnboundVariable({p})"]
                return t
            local = next(self.reads)
            if local is not None:
                return local
            t = self.temp()
            body.append(f"{t} = env[{p}]")
            return t
        if kind is not OpCall:
            body.append("raise EvalError('set literal outside in()')")
            return "None"
        form, t = _form(e.op, e.args), self.temp()
        if form == "in":
            values = self.param()
            body.append(f"{t} = 1 if {self.node(e.args[0], body)} in {values} else 0")
        elif form == "if":
            cond = self.node(e.args[0], body)
            then = self.function(f"b{t}", e.args[1])
            other = self.function(f"c{t}", e.args[2])
            body.append(f"{t} = {then}(env) if {cond} else {other}(env)")
        elif form == "?":
            message = self.param()
            for a in e.args:
                self.node(a, body)
            body.append(f"raise EvalError({message})")
        else:
            names = [self.node(a, body) for a in e.args]
            if form == "nary":
                code, context = _NARY_CODE[e.op].format(a=", ".join(names)), None
            else:
                template, context = (_UNARY_CODE if form == "unary" else _BINARY_CODE)[e.op]
                if e.op in _PROVED_CODE and self.tests is not None and not next(self.tests):
                    template = _PROVED_CODE[e.op]
                code = template.format(a=names[0], b=names[-1])
            body.append(f"{t} = {code}")
            if context is not None and (self.tests is None or next(self.tests)):
                body.append(_RANGE_TEST.format(t=t, context=context))
        return t

    def test(self, e: Expr, body: List[str]) -> str:
        """Append the statements computing e to body, but for a top
        comparison's own; an expression true exactly where e's value is 0."""
        if type(e) is OpCall and e.op in _FAILED and _form(e.op, e.args) == "binary":
            a, b = [self.node(arg, body) for arg in e.args]
            return _FAILED[e.op].format(a=a, b=b)
        return f"not {self.node(e, body)}"

    def source(self, e: Expr) -> str:
        self.function("evaluate", e)
        params = ", ".join(f"p{i}" for i in range(self.params))
        return "\n".join([f"def _make({params}):"] + [f"    {line}" for line in self.functions]
                         + ["    return evaluate", ""])


def compile_expr(e: Expr) -> Evaluator:
    """Compile into a function env -> int (booleans as 0/1).

    The first expression of a shape (see _shape) generates a factory
    _make(p0, ..., pn) whose function reads each variable with env.get and
    an isinstance test, applies one-operand and two-operand arithmetic,
    comparisons and booleans inline (with an int64 test wherever a value
    could leave the range), calls _trunc_div, _trunc_mod, _power and the
    _NARY functions for the rest, and evaluates each if() branch in a
    function of its own. Each expression of the shape calls the factory
    with its own constants: ids, integers, in() sets and messages are
    arguments and never enter the source. At most MAX_SHAPES factories are
    kept, the oldest dropped first. A new shape costs about 0.8 ms, so
    3,000 random expressions of 1,940 shapes (about 14 nodes each) compile
    in about 1.6 s, against 0.23 s for the closure trees this replaced; a
    shape met again costs about half what a closure tree did (3-5 us
    against 6-10 us for ``le(add(x[0],x[1]),add(x[2],3))``).

    Calling the function raises what evaluating e raises: UnboundVariable,
    DivisionByZero, NegativeExponent, Overflow, or EvalError for a set
    literal outside in() or, once its operands are evaluated, for an
    operator without a form (unknown, or with an operand count that
    ARITIES does not allow). Compiling raises none of them.
    """
    key, consts, _, _ = _shape(e)
    make = generated(_FACTORIES, MAX_SHAPES, key, lambda: _Writer().source(e),
                     _NAMESPACE, "<expression shape>")
    return make(*consts)


class Bounded(NamedTuple):
    """An expression under bounds, as one walk of _shape finds it: what
    writing it into other code needs.

    ids holds the variable each read reads, in _shape's order, and branched
    whether that read sits inside an if() branch. raises is False when its
    code cannot raise at all.
    """

    expr: Expr
    key: Any
    consts: List[object]
    tests: List[bool]
    raises: bool
    ids: Tuple[str, ...]
    branched: Tuple[bool, ...]

    def reads(self, local: Mapping[str, str]) -> Tuple[Optional[str], ...]:
        """Each read's local name in local, or None where it reads env: a
        read inside an if() branch always does."""
        if True not in self.branched:
            return tuple(map(local.get, self.ids))
        return tuple(None if branched else local.get(vid)
                     for vid, branched in zip(self.ids, self.branched))

    def write(self, suffix: str, local: Mapping[str, str], test: bool = False
              ) -> Tuple[List[str], List[str], str, List[str]]:
        """The code of the expression inside the caller's code (_Writer's
        inline mode): its parameters (one per constant, each with suffix,
        the id of a variable read from a local among them though the code
        never reads it), its statements, the name of its value, or with test an
        expression true exactly where that value is 0, and the lines of its
        if() branches' functions, which the caller defines where its
        statements can call them. A variable in local is read from the local
        named there, any other from env. The code names only what
        _NAMESPACE holds. Under an environment that binds every variable
        inside the bounds, its value is what compile_expr's function
        returns, and it raises what that raises, with the same message.
        """
        reads = self.reads(local)
        writer = _Writer(self.tests, reads, f"{suffix}_")
        body: List[str] = []
        value = (writer.test if test else writer.node)(self.expr, body)
        return [f"p{suffix}_{i}" for i in range(writer.params)], body, value, writer.functions


def bounded_shape(e: Expr, bounds: Mapping[str, Span]) -> Bounded:
    """e under bounds, each variable's (min, max): one walk of the tree (see
    _shape), kept with the tree for Bounded.write."""
    reads: List[Tuple[str, bool]] = []
    key, consts, tests, raises = _shape(e, bounds, reads)
    return Bounded(e, key, consts, tests, raises, tuple(vid for vid, _ in reads),
                   tuple(branched for _, branched in reads))


def free_vars(e: Expr) -> List[str]:
    """Variable ids in first-occurrence order, without duplicates."""
    seen: Dict[str, None] = {}

    def walk(node: Expr) -> None:
        if isinstance(node, VarRef):
            seen.setdefault(node.id, None)
        elif isinstance(node, OpCall):
            for a in node.args:
                walk(a)

    walk(e)
    return list(seen)
