"""The one-scan readers against the reference readers in oracles.py.

parse_expr and the tuple readers of parser.py must agree with the
character-at-a-time and tuple-at-a-time readers they replaced, on texts
that print a tree or a table and on the same texts mutated: the same
value, or a ParseError of the same class with the same rule. Any other
exception fails the test.
"""

from hypothesis import given, settings, strategies as st

import oracles
from xcsp3core.errors import ParseError
from xcsp3core.expr import (ARITIES, MAX_EXPR_DEPTH, IntConst, OpCall, SetLiteral, VarRef,
                            parse_expr, print_expr)
from xcsp3core.model import STAR
from xcsp3core.parser import read_table, read_tuples, read_var

# What the mutations insert: identifier and integer characters, the
# punctuation of both grammars, and characters that int() or str.isdigit
# take but the format does not (_, U+0661 ARABIC-INDIC DIGIT ONE, tab and
# no-break space).
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789(),[]+-*%_ ١\t\xa0"


def outcome(read, text):
    """What read(text) returns, or the class and rule of its ParseError."""
    try:
        return read(text)
    except ParseError as e:
        assert e.rule, f"{type(e).__name__} without a rule: {e}"
        return type(e), e.rule


@st.composite
def mutated(draw, texts):
    """A text with one to four characters inserted, deleted, replaced or
    swapped with their neighbour."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "replace", "swap"]))
        i = draw(st.integers(0, max(0, len(text) - 1)))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(ALPHABET)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "replace":
            text = text[:i] + draw(st.sampled_from(ALPHABET)) + text[i + 1:]
        elif i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


# -- expressions ---------------------------------------------------------------------

_small = st.integers(-9, 99)
_integers = st.one_of(
    _small, _small, _small,
    st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**63, 10**25, -(10**40)]),
)
_sets = st.lists(_integers, max_size=3).map(lambda vs: SetLiteral(tuple(vs)))
_leaves = st.one_of(
    _integers.map(IntConst),
    st.sampled_from(["x", "y1", "z_2", "a[0]", "m[1][12]", "w[007]"]).map(VarRef),
)


def _valid_call(op, args, members):
    if op == "in":
        return OpCall(op, (args[0], members))
    lo, hi = ARITIES[op]
    n = min(max(len(args), lo), hi or len(args))
    return OpCall(op, tuple((args * 3)[:n]))  # if() may repeat an operand


def _calls(children):
    valid = st.builds(_valid_call, st.sampled_from(sorted(ARITIES)),
                      st.lists(children, min_size=1, max_size=4), _sets)
    # any operator, or set, with any number of operands, sets among them:
    # wrong arities and misplaced sets must fail alike
    anything = st.builds(lambda op, args: OpCall(op, tuple(args)),
                         st.sampled_from(sorted(ARITIES) + ["set"]),
                         st.lists(st.one_of(children, _sets), max_size=4))
    return st.one_of(valid, valid, valid, anything)


_trees = st.recursive(_leaves, _calls, max_leaves=10)


def _nested(depth):
    return "neg(" * depth + "x" + ")" * depth


_printed = st.one_of(
    _trees.map(print_expr),
    _trees.map(print_expr),
    st.integers(MAX_EXPR_DEPTH - 2, MAX_EXPR_DEPTH + 2).map(_nested),
)


def assert_expr_agrees(text):
    got = outcome(parse_expr, text)
    assert got == outcome(oracles.reference_parse_expr, text), text


@settings(max_examples=100)
@given(_printed)
def test_printed_expression_reads_as_the_reference_reads_it(text):
    assert_expr_agrees(text)


@settings(max_examples=300)
@given(mutated(_printed))
def test_mutated_expression_reads_as_the_reference_reads_it(text):
    assert_expr_agrees(text)


def test_valid_printed_trees_read_back():
    e = OpCall("in", (OpCall("add", (VarRef("x"), IntConst(-3))), SetLiteral((1, 2))))
    assert parse_expr(print_expr(e)) == e == oracles.reference_parse_expr(print_expr(e))


# -- tuple sequences -------------------------------------------------------------------

_fields = st.one_of(
    st.integers(-9, 99).map(str),
    st.sampled_from(["*", "-0", "+5", "007", str(2**63 - 1), str(-(2**63)), str(2**63),
                     "0" * 25 + "1", "9" * 25]),
)
_rows = st.lists(_fields, min_size=1, max_size=4).map(lambda fs: "(" + ",".join(fs) + ")")
_gaps = st.sampled_from(["", " ", "\n", " \t ", "\xa0"])
_tables = st.builds(lambda rows, gaps: "".join(g + r for r, g in zip(rows, gaps)),
                    st.lists(_rows, max_size=6), st.lists(_gaps, min_size=6, max_size=6))


def assert_table_agrees(text):
    got = outcome(lambda t: read_table(t, "/t"), text)
    want = outcome(lambda t: oracles.reference_read_tuples(t, "/t", oracles.reference_table_field),
                   text)
    if isinstance(want, list):
        assert got == (want, any(v is STAR for row in want for v in row)), text
    else:
        assert got == want, text


@settings(max_examples=100)
@given(_tables)
def test_printed_table_reads_as_the_reference_reads_it(text):
    assert_table_agrees(text)


@settings(max_examples=300)
@given(mutated(_tables))
def test_mutated_table_reads_as_the_reference_reads_it(text):
    assert_table_agrees(text)


_var_rows = st.lists(st.sampled_from(["x", "y", "a[1]", "m[0][2]"]), min_size=1,
                     max_size=3).map(lambda vs: "(" + ",".join(vs) + ")")
_var_tables = st.builds(lambda rows, gaps: "".join(g + r for r, g in zip(rows, gaps)),
                        st.lists(_var_rows, max_size=4),
                        st.lists(_gaps, min_size=4, max_size=4))


@settings(max_examples=150)
@given(mutated(_var_tables))
def test_mutated_variable_tuples_read_as_the_reference_reads_them(text):
    # the scan is shared by every tuple slot, whatever reads its fields
    got = outcome(lambda t: read_tuples(t, "/t", read_var), text)
    assert got == outcome(lambda t: oracles.reference_read_tuples(t, "/t", read_var), text), text
