"""One table over the token forms of XCSP3, in every slot that reads them.

Each row puts one token (or a short token sequence) into one slot of a
small document and gives either what the slot reads, or the exception
class and rule name of the failure.
"""

from typing import NamedTuple

import pytest

from xcsp3core.errors import (
    ExprSyntaxError,
    IndexOutOfBounds,
    LengthMismatch,
    MalformedCompactToken,
    MalformedInterval,
    MatrixContextError,
    MissingVariables,
    OutOfOrder,
    ParseError,
    UnknownArray,
    WhitespaceError,
)
from xcsp3core.expr import IntConst, OpCall, SetLiteral, VarRef
from xcsp3core.model import STAR, Interval, IntSet
from xcsp3core.parser import parse_string

BIG = "99999999999999999999"  # far outside int64


class Fails(NamedTuple):
    cls: type
    rule: str


def document(constraints="", variables="", tail="", type_="CSP"):
    return (f'<instance format="XCSP3" type="{type_}"><variables>'
            '<var id="y"> 0..9 </var><array id="x" size="[3]"> 0..9 </array>'
            f'<array id="m" size="[2][3]"> 0..9 </array>{variables}</variables>'
            f"<constraints>{constraints}</constraints>{tail}</instance>")


def kind(constraint):
    instance = parse_string(document(constraint))
    assert len(instance.constraints) == 1
    return instance.constraints[0].kind


def objective(text):
    return parse_string(document(type_="COP", tail=(
        f"<objectives><minimize> {text} </minimize></objectives>"))).objective.expression


def domain(text):
    return parse_string(document(variables=f'<var id="d"> {text} </var>')).variable(
        "d").domain.items


def for_cells(token):
    text = document(variables=(
        f'<array id="z" size="[2][3]"><domain for="{token}"> 0 1 </domain>'
        '<domain for="others"> 5 </domain></array>'))
    return tuple(v.id for v in parse_string(text).variables()
                 if v.id.startswith("z") and v.domain.max_value == 1)


SLOTS = {
    "list": lambda t: parse_string(document(tail=(
        f"<annotations><decision> {t} </decision></annotations>"))).decision,
    "operands": lambda t: kind(f"<allEqual> {t} </allEqual>").operands,
    "intension": lambda t: kind(f"<intension> {t} </intension>").function,
    "objective": objective,
    "coeffs": lambda t: kind(f"<sum><list> y </list><coeffs> {t} </coeffs>"
                             "<condition> (le,5) </condition></sum>").coeffs,
    "values": lambda t: kind(f"<count><list> x[] </list><values> {t} </values>"
                             "<condition> (eq,1) </condition></count>").values,
    "lengths": lambda t: kind(f"<noOverlap><origins> y </origins>"
                              f"<lengths> {t} </lengths></noOverlap>").lengths,
    "occurs": lambda t: kind(f"<cardinality><list> x[] </list><values> 1 </values>"
                             f"<occurs> {t} </occurs></cardinality>").occurs,
    "condition": lambda t: kind(f"<sum><list> y </list><condition> {t} </condition>"
                                "</sum>").condition.operand,
    "group-condition": lambda t: kind(
        "<group><sum><list> y </list><condition> (eq,%0) </condition></sum>"
        f"<args> {t} </args></group>").condition.operand,
    "element": lambda t: kind(f"<element><list> x[] </list><index> y </index>"
                              f"<value> {t} </value></element>").rhs,
    "element-of-values": lambda t: kind(
        f"<element><list> 1 2 3 </list><index> y </index><value> {t} </value>"
        "</element>").rhs,
    "table-field": lambda t: kind(f"<extension><list> y x[0] </list>"
                                  f"<supports> ({t},1) </supports></extension>").tuples[0][0],
    "origin-field": lambda t: kind(f"<noOverlap><origins> ({t},y) </origins>"
                                   "<lengths> (1,1) </lengths></noOverlap>").origins[0][0],
    "length-field": lambda t: kind(f"<noOverlap><origins> (y,y) </origins>"
                                   f"<lengths> ({t},1) </lengths></noOverlap>").lengths[0][0],
    "int-values": lambda t: kind(f"<allDifferent><list> x[] </list><except> {t} </except>"
                                 "</allDifferent>").excepts,
    "instantiation": lambda t: kind(f"<instantiation><list> x[] </list>"
                                    f"<values> {t} </values></instantiation>").values,
    "domain": domain,
    "for": for_cells,
    "matrix": lambda t: kind(f"<allDifferent><matrix> {t} </matrix></allDifferent>").rows,
}

X = ("x[0]", "x[1]", "x[2]")
Y, X1, X2 = VarRef("y"), VarRef("x[1]"), VarRef("x[2]")

ROWS = [
    # variable lists: identifiers, cells and compact references
    ("list", "y", ("y",)),
    ("list", "x[1]", ("x[1]",)),
    ("list", "x[]", X),
    ("list", "x[1..2]", X[1:]),
    ("list", "m[][1]", ("m[0][1]", "m[1][1]")),
    ("list", "m[1][0..1]", ("m[1][0]", "m[1][1]")),
    ("list", "y x[+2]", ("y", "x[2]")),
    ("list", "x[2..1]", Fails(MalformedInterval, "interval-bounds")),
    ("list", "x[3]", Fails(IndexOutOfBounds, "index-range")),
    ("list", "x[-1]", Fails(IndexOutOfBounds, "index-range")),
    ("list", "m[0]", Fails(IndexOutOfBounds, "index-range")),
    ("list", "x[a]", Fails(MalformedCompactToken, "compact-token")),
    ("list", "x[1..]", Fails(MalformedCompactToken, "compact-token")),
    ("list", "nope[0]", Fails(UnknownArray, "unknown-array")),
    ("list", "3", Fails(ParseError, "variable-token")),
    ("list", "add", Fails(ParseError, "variable-token")),
    ("list", "x[", Fails(ParseError, "variable-token")),
    # expression operands
    ("operands", "y", (Y,)),
    ("operands", "x[1]", (X1,)),
    ("operands", "x[]", tuple(map(VarRef, X))),
    ("operands", "7", (IntConst(7),)),
    ("operands", "-7", (IntConst(-7),)),
    ("operands", "add(x[1],-2)", (OpCall("add", (X1, IntConst(-2))),)),
    ("operands", "x[3]", Fails(IndexOutOfBounds, "index-range")),
    ("operands", "%0", Fails(ParseError, "parameter")),
    ("operands", "add(%0,1)", Fails(ParseError, "parameter")),
    ("operands", "x[%0]", Fails(ParseError, "parameter")),
    ("operands", "add(y,1", Fails(ExprSyntaxError, "expression-syntax")),
    ("intension", "eq(y,x[2])", OpCall("eq", (Y, X2))),
    ("intension", "eq(y,x[9])", Fails(IndexOutOfBounds, "index-range")),
    ("intension", "eq(y,x[0][0])", Fails(IndexOutOfBounds, "index-range")),
    ("intension", "eq(y,m[1])", Fails(IndexOutOfBounds, "index-range")),
    ("intension", "eq(y,q[0])", Fails(MissingVariables, "unknown-variable")),
    ("intension", "eq(y,%0)", Fails(ParseError, "parameter")),
    # a set literal is only the second operand of in()
    ("intension", "in(y,set(1,2))", OpCall("in", (Y, SetLiteral((1, 2))))),
    ("intension", "in(y,set())", OpCall("in", (Y, SetLiteral(())))),
    ("intension", "eq(y,set(1))", Fails(ExprSyntaxError, "expression-syntax")),
    ("intension", "set(1)", Fails(ExprSyntaxError, "expression-syntax")),
    ("intension", "in(set(1),set(1))", Fails(ExprSyntaxError, "expression-syntax")),
    ("operands", "set(1)", Fails(ExprSyntaxError, "expression-syntax")),
    ("operands", "add(set(1,2),y)", Fails(ExprSyntaxError, "expression-syntax")),
    ("objective", "add(y,set(1))", Fails(ExprSyntaxError, "expression-syntax")),
    ("intension", "eq(y,\u00e9)", Fails(ExprSyntaxError, "expression-syntax")),
    ("intension", "eq(y,\u0661)", Fails(ExprSyntaxError, "expression-syntax")),
    ("intension", "eq(y,%...)", Fails(ParseError, "parameter")),
    ("objective", "add(y,x[2])", OpCall("add", (Y, X2))),
    ("objective", "add(y,%1)", Fails(ParseError, "parameter")),
    # coefficients: integers, vxk repetitions, variables
    ("coeffs", "3", (3,)),
    ("coeffs", "-2", (-2,)),
    ("coeffs", "y", (Y,)),
    ("coeffs", "x[1]", (X1,)),
    ("coeffs", "-2x1", (-2,)),
    ("coeffs", "2x0", Fails(MalformedCompactToken, "vxk-count")),
    ("coeffs", "2x2", Fails(LengthMismatch, "coeffs-count")),
    ("coeffs", "9x", Fails(ParseError, "value-token")),
    ("coeffs", "%0", Fails(ParseError, "value-token")),
    ("values", "1", (1,)),
    ("values", "y x[0..1]", (Y, VarRef("x[0]"), X1)),
    ("values", "2x1", Fails(ParseError, "value-token")),
    ("lengths", "2", (2,)),
    ("lengths", "x[2]", (X2,)),
    ("lengths", "1..2", Fails(ParseError, "value-token")),
    # occurrences: integers, intervals, variables
    ("occurs", "2", (2,)),
    ("occurs", "0..2", (Interval(0, 2),)),
    ("occurs", "-1..-1", (Interval(-1, -1),)),
    ("occurs", "y", (Y,)),
    ("occurs", "x[1]", (X1,)),
    ("occurs", "1..", Fails(ParseError, "variable-token")),
    ("occurs", "x[]", Fails(LengthMismatch, "occurs-count")),
    # condition operands: integer, variable, interval, set
    ("condition", "(eq,3)", 3),
    ("condition", "(le,y)", Y),
    ("condition", "(in,2..5)", Interval(2, 5)),
    ("condition", "(notin,{1,3})", IntSet((1, 3))),
    ("condition", "(in,set(1,3))", IntSet((1, 3))),
    ("condition", "(in,{})", IntSet(())),
    ("condition", "(in,set())", IntSet(())),
    ("condition", "(in,{1,a})", Fails(ParseError, "integer")),
    ("condition", "(in,set(1,,2))", Fails(ParseError, "integer")),
    ("condition", "(eq,%0)", Fails(ParseError, "condition-operand")),
    ("condition", "(eq,x[])", Fails(ParseError, "condition-operand")),
    ("condition", "(eq,add)", Fails(ParseError, "condition-operand")),
    ("condition", "(lt,2..5)", Fails(ParseError, "condition-operand")),
    ("condition", "(in,3)", Fails(ParseError, "condition-operand")),
    ("condition", "(eq,1..)", Fails(ParseError, "condition-operand")),
    ("condition", "(eq,ghost)", Fails(MissingVariables, "unknown-variable")),
    ("group-condition", "y", Y),
    ("group-condition", "7", 7),
    # element targets
    ("element", "y", Y),
    ("element", "x[1]", X1),
    ("element", "4", 4),
    ("element", "x[]", Fails(ParseError, "element-value")),
    ("element", "1..2", Fails(ParseError, "element-value")),
    ("element", "y y", Fails(ParseError, "element-value")),
    ("element-of-values", "y", Y),
    ("element-of-values", "4", Fails(ParseError, "element-value")),
    # tuple fields
    ("table-field", "3", 3),
    ("table-field", "-1", -1),
    ("table-field", "*", STAR),
    ("table-field", "a", Fails(ParseError, "integer")),
    ("table-field", "", Fails(ParseError, "integer")),
    ("table-field", "1..2", Fails(ParseError, "integer")),
    ("table-field", "007", 7),
    ("table-field", "+" + "0" * 30 + "5", 5),
    ("table-field", "1_0", Fails(ParseError, "integer")),
    ("table-field", "\u0661", Fails(ParseError, "integer")),
    ("table-field", "**", Fails(ParseError, "integer")),
    ("origin-field", "y", "y"),
    ("origin-field", "x[1]", "x[1]"),
    ("origin-field", "m[1][2]", "m[1][2]"),
    ("origin-field", "x[9]", Fails(IndexOutOfBounds, "index-range")),
    ("origin-field", "x[]", Fails(ParseError, "variable-token")),
    ("origin-field", "3", Fails(ParseError, "variable-token")),
    ("length-field", "4", 4),
    ("length-field", "x[2]", X2),
    ("length-field", "x[]", Fails(ParseError, "variable-token")),
    # integer value lists, with and without vxk and *
    ("int-values", "1 3", (1, 3)),
    ("int-values", "2x2", Fails(ParseError, "integer")),
    ("int-values", "*", Fails(ParseError, "integer")),
    ("instantiation", "1 2 3", (1, 2, 3)),
    ("instantiation", "1x3", (1, 1, 1)),
    ("instantiation", "* 2x+2", (STAR, 2, 2)),
    ("instantiation", "2x0 1 1", Fails(MalformedCompactToken, "vxk-count")),
    ("instantiation", "2x-1 1 1", Fails(MalformedCompactToken, "vxk-count")),
    ("instantiation", "a 1 1", Fails(MalformedCompactToken, "vxk-token")),
    ("instantiation", "*x2 1", Fails(MalformedCompactToken, "vxk-token")),
    ("instantiation", "1 2", Fails(LengthMismatch, "instantiation-count")),
    # domains
    ("domain", "3", ((3, 3),)),
    ("domain", "-4..-2 0 3..5", ((-4, -2), (0, 0), (3, 5))),
    ("domain", "5..2", Fails(MalformedInterval, "interval-bounds")),
    ("domain", "1 .. 4", Fails(WhitespaceError, "interval-whitespace")),
    ("domain", "1.. 4", Fails(WhitespaceError, "interval-whitespace")),
    ("domain", "1..4 3", Fails(OutOfOrder, "domain-order")),
    ("domain", "a", Fails(ParseError, "domain-token")),
    ("domain", "1..2..3", Fails(ParseError, "domain-token")),
    # for= targets
    ("for", "z", ("z[0][0]", "z[0][1]", "z[0][2]", "z[1][0]", "z[1][1]", "z[1][2]")),
    ("for", "z[0][]", ("z[0][0]", "z[0][1]", "z[0][2]")),
    ("for", "z[][1..2] z[0][0]", ("z[0][0]", "z[0][1]", "z[0][2]", "z[1][1]", "z[1][2]")),
    ("for", "z[]", Fails(ParseError, "for-target")),
    ("for", "z[0][5]", Fails(ParseError, "for-target")),
    ("for", "z[2..1][0]", Fails(ParseError, "for-target")),
    ("for", "z[a][0]", Fails(ParseError, "for-target")),
    ("for", "y[0][0]", Fails(ParseError, "for-target")),
    # compact references in matrix context
    ("matrix", "m[][]", (("m[0][0]", "m[0][1]", "m[0][2]"), ("m[1][0]", "m[1][1]", "m[1][2]"))),
    ("matrix", "m[][1..2]", (("m[0][1]", "m[0][2]"), ("m[1][1]", "m[1][2]"))),
    ("matrix", "(y,x[0])(x[1],x[2])", (("y", "x[0]"), ("x[1]", "x[2]"))),
    ("matrix", "m[0][]", Fails(MatrixContextError, "matrix-shape")),
    ("matrix", "x[]", Fails(MatrixContextError, "matrix-shape")),
    ("matrix", "m", Fails(MalformedCompactToken, "compact-token")),
    ("matrix", "(y,3)", Fails(ParseError, "variable-token")),
    ("matrix", "m[][] x[]", Fails(ParseError, "matrix-shape")),
]

# Outcomes that changed when every token form got one reader: a cell is a
# variable in every single-variable slot, every interval is checked for
# order and range, an integer outside int64 is a parse error with a rule
# wherever it appears, and vxk is read by one rule in every slot.
CHANGED = [
    ("condition", "(eq,x[2])", X2),
    ("condition", "(eq,x[9])", Fails(IndexOutOfBounds, "index-range")),
    ("group-condition", "x[2]", X2),
    ("condition", "(in,5..2)", Fails(MalformedInterval, "interval-bounds")),
    ("occurs", "5..2", Fails(MalformedInterval, "interval-bounds")),
    ("occurs", f"0..{BIG}", Fails(ParseError, "integer-range")),
    ("condition", f"(in,0..{BIG})", Fails(ParseError, "integer-range")),
    ("condition", f"(eq,-{BIG})", Fails(ParseError, "integer-range")),
    ("condition", f"(in,{{1,{BIG}}})", Fails(ParseError, "integer-range")),
    ("occurs", BIG, Fails(ParseError, "integer-range")),
    ("domain", BIG, Fails(ParseError, "integer-range")),
    ("domain", f"0..{BIG}", Fails(ParseError, "integer-range")),
    ("operands", BIG, Fails(ParseError, "integer-range")),
    ("intension", f"eq(y,{BIG})", Fails(ParseError, "integer-range")),
    ("objective", f"add(y,-{BIG})", Fails(ParseError, "integer-range")),
    ("coeffs", BIG, Fails(ParseError, "integer-range")),
    ("values", BIG, Fails(ParseError, "integer-range")),
    ("element", BIG, Fails(ParseError, "integer-range")),
    ("table-field", BIG, Fails(ParseError, "integer-range")),
    ("length-field", BIG, Fails(ParseError, "integer-range")),
    ("int-values", BIG, Fails(ParseError, "integer-range")),
    ("instantiation", f"{BIG} 1 1", Fails(ParseError, "integer-range")),
    ("instantiation", f"{BIG}x1 1 1", Fails(ParseError, "integer-range")),
    ("list", f"x[{BIG}]", Fails(ParseError, "integer-range")),
    ("coeffs", "2x-1", Fails(MalformedCompactToken, "vxk-count")),
    ("coeffs", "2x+1", (2,)),
]


@pytest.mark.parametrize("slot,token,expected", ROWS + CHANGED,
                         ids=[f"{s}:{t}" for s, t, _ in ROWS + CHANGED])
def test_token_in_slot(slot, token, expected):
    read = SLOTS[slot]
    if not isinstance(expected, Fails):
        assert read(token) == expected
        return
    with pytest.raises(expected.cls) as err:
        read(token)
    assert type(err.value) is expected.cls
    assert expected.rule  # every parse failure names its rule
    assert err.value.rule == expected.rule
    if expected.rule == "integer-range":
        assert err.value.path is not None
