"""Functional expression trees: parsing, printing, compilation.

Expressions use the functional notation of XCSP3-core, e.g.
``le(add(mul(250,b),mul(200,c)),4000)``. No whitespace is permitted
anywhere inside an expression. Booleans are the integers 0 and 1; any
integer may feed a boolean slot (nonzero counts as true) and any boolean
result may feed an integer slot.

The integer and identifier patterns here are the only ones in the package:
the token readers in parser.py build on them. Template parameters (%k,
%...) are not part of this grammar; groups and slides substitute them in
the text before an expression is parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .errors import (
    INT_MAX,
    INT_MIN,
    ArityError,
    DivisionByZero,
    EvalError,
    ExprSyntaxError,
    NegativeExponent,
    Overflow,
    ParseError,
    UnboundVariable,
    WhitespaceError,
    check_int64,
)


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class VarRef:
    """Reference to a variable, possibly an array cell like ``x[0][3]``."""
    id: str


@dataclass(frozen=True)
class SetLiteral:
    """set(...) of integer constants; only valid as the second slot of in()."""
    values: Tuple[int, ...]


@dataclass(frozen=True)
class OpCall:
    op: str
    args: Tuple["Expr", ...]


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


# Deepest nesting of operator calls an expression may have. Reading, printing,
# compiling and evaluating recurse once or twice per level, so deeper text is
# rejected (rule expression-depth) before it can exhaust the interpreter stack.
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
        raise WhitespaceError("whitespace inside functional expression", space.start(),
                              path=path, rule="expression-whitespace")
    if not text:
        raise ExprSyntaxError("empty expression", 0, path=path, rule="expression-syntax")

    def fail(message: str, offset: int, cls: type = ExprSyntaxError,
             rule: str = "expression-syntax") -> ExprSyntaxError:
        return cls(message, offset, path=path, rule=rule)

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


def _close_call(op: str, args: List[Expr], start: int,
                fail: Callable[..., ExprSyntaxError]) -> Expr:
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
                   ArityError, "operator-arity")
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
# compile_expr turns a tree into nested closures once; each closure maps an
# environment to an int. The semantics of the operators sit in three tables,
# by operand count: _UNARY and _BINARY take evaluated operands, _NARY takes
# their list. Every operand is evaluated, left to right, before its operator
# applies, so and/or/imp do not short-circuit; only if() leaves the branch it
# does not take unevaluated. Arithmetic is checked signed 64-bit.

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


_UNARY: Dict[str, Callable[[int], int]] = {
    "neg": lambda a: check_int64(-a, "neg"),
    "abs": lambda a: check_int64(abs(a), "abs"),
    "sqr": lambda a: check_int64(a * a, "sqr"),
    "not": lambda a: 0 if a else 1,
}

# The n-ary operators appear here too, in their two-operand form, the form
# most calls take: it skips building an operand list, which cuts the search
# benchmark's median latency by about a third. On int64 operands each entry
# agrees with its _NARY form.
_BINARY: Dict[str, Callable[[int, int], int]] = {
    "sub": lambda a, b: check_int64(a - b, "sub"),
    "div": _trunc_div,
    "mod": _trunc_mod,
    "pow": _power,
    "dist": lambda a, b: check_int64(abs(a - b), "dist"),
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "imp": lambda a, b: 1 if not a or b else 0,
    "add": lambda a, b: check_int64(a + b, "add"),
    "mul": lambda a, b: check_int64(a * b, "mul"),
    "min": min,
    "max": max,
    "eq": lambda a, b: 1 if a == b else 0,
    "and": lambda a, b: 1 if a and b else 0,
    "or": lambda a, b: 1 if a or b else 0,
    "xor": lambda a, b: 1 if (not a) != (not b) else 0,
    "iff": lambda a, b: 1 if (not a) == (not b) else 0,
}

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


def _variable(vid: str) -> Evaluator:
    def read(env: Mapping[str, int]) -> int:
        v = env.get(vid)
        if isinstance(v, int):
            return v
        raise UnboundVariable(vid)
    return read


def _failing(message: str) -> Callable[[object], int]:
    """A closure that raises EvalError(message) when it is called."""
    def fail(_: object) -> int:
        raise EvalError(message)
    return fail


def compile_expr(e: Expr) -> Evaluator:
    """Compile once into a closure env -> int (booleans as 0/1).

    Calling the closure raises what evaluating e raises: UnboundVariable,
    DivisionByZero, NegativeExponent, Overflow, or EvalError for a set
    literal outside in() or an unknown operator. Compiling raises none of
    them.
    """
    if isinstance(e, IntConst):
        value = e.value
        return lambda env: value
    if isinstance(e, VarRef):
        return _variable(e.id)
    if isinstance(e, SetLiteral):
        return _failing("set literal outside in()")

    op = e.op
    if op == "in":  # the parser makes the second operand a set literal
        lhs, values = compile_expr(e.args[0]), frozenset(e.args[1].values)
        return lambda env: 1 if lhs(env) in values else 0
    args = [compile_expr(a) for a in e.args]
    if op == "if":
        cond, then, other = args
        return lambda env: then(env) if cond(env) else other(env)
    if len(args) == 1 and op in _UNARY:
        f1, a = _UNARY[op], args[0]
        return lambda env: f1(a(env))
    if len(args) == 2 and op in _BINARY:
        f2, (a, b) = _BINARY[op], args
        return lambda env: f2(a(env), b(env))
    fn = _NARY.get(op) or _failing(f"unhandled operator {op!r}")
    return lambda env: fn([a(env) for a in args])


def eval_expr(e: Expr, env: Mapping[str, int]) -> int:
    """Evaluate under env (variable id -> int). Booleans come back as 0/1.

    Compiles e on every call; to evaluate one expression many times,
    compile it once with compile_expr.
    """
    return compile_expr(e)(env)


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
