"""Checker semantics for every constraint kind, plus whole-solution verdicts."""

import copy
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcsp3core import kinds as K
from xcsp3core.checker import (
    CheckMode,
    VerdictKind,
    _lowered,
    check_constraint,
    check_solution,
    ensure_scope_assigned,
    eval_objective,
    partial_violated,
)
from xcsp3core.errors import (
    CheckError,
    DivisionByZero,
    EvalError,
    Overflow,
    ParseError,
    UnboundVariable,
    XcspError,
)
from xcsp3core.expr import MAX_EXPR_DEPTH, IntConst, OpCall, VarRef, parse_expr
from xcsp3core.model import (
    STAR,
    CondOp,
    Condition,
    Instance,
    Instantiation,
    Interval,
    IntSet,
    Domain,
    PostedConstraint,
    Variable,
    eval_condition,
)
from xcsp3core.parser import parse_file, parse_string

import oracles
from conftest import fixture_path


def V(name):
    return VarRef(name)


def cond(op, operand):
    return Condition(CondOp(op), operand)


def expr(text):
    return parse_expr(text)


# -- intension / extension --------------------------------------------------------


def test_intension_truthiness():
    kind = K.Intension(expr("eq(add(x,y),z)"))
    assert check_constraint(kind, {"x": 1, "y": 2, "z": 3})
    assert not check_constraint(kind, {"x": 1, "y": 2, "z": 4})


def test_extension_positive_with_stars():
    kind = K.Extension(scope=("x", "y", "z"), positive=True,
                       tuples=((1, STAR, 3), (2, 2, 2)))
    assert check_constraint(kind, {"x": 1, "y": 9, "z": 3})
    assert check_constraint(kind, {"x": 2, "y": 2, "z": 2})
    assert not check_constraint(kind, {"x": 1, "y": 9, "z": 4})


def test_extension_negative_forbids_matches():
    kind = K.Extension(scope=("x", "y"), positive=False, tuples=((0, STAR),))
    assert not check_constraint(kind, {"x": 0, "y": 5})
    assert check_constraint(kind, {"x": 1, "y": 0})


def test_extension_unary_domain():
    dom = Domain(((1, 2), (5, 5)))
    pos = K.Extension(scope=("x",), positive=True, unary=dom)
    neg = K.Extension(scope=("x",), positive=False, unary=dom)
    assert check_constraint(pos, {"x": 2})
    assert not check_constraint(pos, {"x": 3})
    assert check_constraint(neg, {"x": 3})
    assert not check_constraint(neg, {"x": 5})


def test_extension_rejects_ambiguous_payload():
    with pytest.raises(ValueError):
        K.Extension(scope=("x",), positive=True)
    with pytest.raises(ValueError, match="^unary table with non-unary scope$"):
        K.Extension(scope=("x", "y"), positive=True, unary=Domain(((0, 1),)))


@pytest.mark.parametrize("tag", ["supports", "conflicts"])
@pytest.mark.parametrize("rows", ["(0,1)(1,2)(2,0)", "(0,*)(2,2)", "(*,*)", ""])
def test_hashed_and_scanned_tables_follow_the_row_rule(tag, rows):
    table = f"<{tag}> {rows} </{tag}>" if rows else f"<{tag}/>"
    kind = parse_string(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
        '<var id="y"> 0..2 </var></variables><constraints><extension>'
        f"<list> x y </list>{table}</extension></constraints></instance>"
    ).constraints[0].kind
    starred = "*" in rows
    for point in itertools.product(range(3), repeat=2):
        match = any(all(t is STAR or t == v for t, v in zip(row, point))
                    for row in kind.tuples)
        assert check_constraint(kind, dict(zip("xy", point))) == (match == (tag == "supports"))
    # a table without * is checked by one membership test, a starred one row by row
    assert kind.table == (None if starred else frozenset(kind.tuples))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_short_table_matches_expanded_table(seed):
    """A starred row constrains exactly like the set of rows it abbreviates."""
    rng = random.Random(seed)
    rows, domains = oracles.random_short_table(rng)
    names = [f"v{i}" for i in range(len(domains))]
    short = K.Extension(scope=tuple(names), positive=True,
                        tuples=tuple(tuple(r) for r in rows))
    expanded = oracles.expand_short_tuples(rows, domains)
    import itertools
    for point in itertools.product(*domains):
        env = dict(zip(names, point))
        assert check_constraint(short, env) == (point in expanded)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_negative_table_is_complement(seed):
    rng = random.Random(seed)
    rows, domains = oracles.random_short_table(rng)
    names = [f"v{i}" for i in range(len(domains))]
    pos = K.Extension(scope=tuple(names), positive=True,
                      tuples=tuple(tuple(r) for r in rows))
    neg = K.Extension(scope=tuple(names), positive=False,
                      tuples=tuple(tuple(r) for r in rows))
    import itertools
    for point in itertools.product(*domains):
        env = dict(zip(names, point))
        assert check_constraint(pos, env) != check_constraint(neg, env)


# -- regular / mdd ------------------------------------------------------------


WORD_AUTOMATON = K.Regular(
    scope=tuple(f"x{i}" for i in range(1, 8)),
    transitions=(("a", 0, "a"), ("a", 1, "b"), ("b", 1, "c"), ("c", 0, "d"),
                 ("d", 0, "d"), ("d", 1, "e"), ("e", 0, "e")),
    start="a",
    finals=("e",),
)


def _word_env(word):
    return {f"x{i}": v for i, v in enumerate(word, start=1)}


def test_regular_accepts_frozen_word():
    assert check_constraint(WORD_AUTOMATON, _word_env([0, 1, 1, 0, 0, 1, 0]))


def test_regular_rejects_dead_and_nonfinal_words():
    # no transition out of e on 1
    assert not check_constraint(WORD_AUTOMATON, _word_env([0, 1, 1, 0, 0, 1, 1]))
    # stops in d, which is not final
    assert not check_constraint(WORD_AUTOMATON, _word_env([0, 1, 1, 0, 0, 0, 0]))


def test_regular_matches_fixture_parse():
    inst = parse_file(fixture_path("regular_word.xml"))
    kind = inst.constraints[0].kind
    assert isinstance(kind, K.Regular)
    assert check_constraint(kind, _word_env([0, 1, 1, 0, 0, 1, 0]))


MDD_TRIPLES = K.Mdd(
    scope=("x1", "x2", "x3"),
    transitions=(("r", 0, "n1"), ("r", 1, "n2"), ("r", 2, "n3"),
                 ("n1", 2, "n4"), ("n2", 2, "n4"), ("n3", 0, "n5"),
                 ("n4", 0, "t"), ("n5", 0, "t")),
)


def test_mdd_accepts_exactly_frozen_triples():
    expected = {(0, 2, 0), (1, 2, 0), (2, 0, 0)}
    got = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if check_constraint(MDD_TRIPLES, {"x1": a, "x2": b, "x3": c}):
                    got.add((a, b, c))
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_regular_agrees_with_path_enumeration(seed):
    rng = random.Random(seed)
    transitions, start, finals, alphabet, length = oracles.random_automaton(rng)
    names = tuple(f"w{i}" for i in range(length))
    kind = K.Regular(scope=names, transitions=tuple(transitions),
                     start=start, finals=tuple(finals))
    import itertools
    for word in itertools.product(alphabet, repeat=length):
        env = dict(zip(names, word))
        assert check_constraint(kind, env) == oracles.automaton_accepts(
            transitions, start, finals, word)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_mdd_agrees_with_path_enumeration(seed):
    rng = random.Random(seed)
    transitions, arity, alphabet = oracles.random_mdd(rng)
    names = tuple(f"w{i}" for i in range(arity))
    kind = K.Mdd(scope=names, transitions=tuple(transitions))
    accepted = oracles.mdd_accepted(transitions)
    import itertools
    for word in itertools.product(alphabet, repeat=arity):
        env = dict(zip(names, word))
        assert check_constraint(kind, env) == (word in accepted)


# -- comparison family --------------------------------------------------------


def test_all_different_and_excepts():
    plain = K.AllDifferent(operands=(V("a"), V("b"), V("c")))
    assert check_constraint(plain, {"a": 1, "b": 2, "c": 3})
    assert not check_constraint(plain, {"a": 1, "b": 2, "c": 1})
    spared = K.AllDifferent(operands=(V("a"), V("b"), V("c")), excepts=(0,))
    assert check_constraint(spared, {"a": 0, "b": 0, "c": 3})
    assert not check_constraint(spared, {"a": 4, "b": 4, "c": 0})


def test_all_different_over_expressions():
    # the queens diagonal view: x_i + i all different
    kind = K.AllDifferent(operands=(expr("add(q0,0)"), expr("add(q1,1)"),
                                    expr("add(q2,2)")))
    assert check_constraint(kind, {"q0": 0, "q1": 2, "q2": 0})
    assert not check_constraint(kind, {"q0": 1, "q1": 0, "q2": 0})


def test_all_different_lists_with_excepts():
    kind = K.AllDifferentLists(lists=(("a", "b"), ("c", "d"), ("e", "f")),
                               excepts=((0, 0),))
    env = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 1, "f": 2}
    assert check_constraint(kind, env)
    env2 = {"a": 1, "b": 2, "c": 1, "d": 2, "e": 0, "f": 0}
    assert not check_constraint(kind, env2)


def test_all_different_matrix_checks_rows_and_columns():
    kind = K.AllDifferentMatrix(rows=(("a", "b"), ("c", "d")))
    assert check_constraint(kind, {"a": 1, "b": 2, "c": 2, "d": 1})
    # column clash: a and c share a value
    assert not check_constraint(kind, {"a": 1, "b": 2, "c": 1, "d": 2})


def test_all_equal():
    kind = K.AllEqual(operands=(V("a"), V("b"), V("c")))
    assert check_constraint(kind, {"a": 5, "b": 5, "c": 5})
    assert not check_constraint(kind, {"a": 5, "b": 5, "c": 6})


def test_ordered_with_and_without_lengths():
    strict = K.Ordered(vars=("a", "b", "c"), op=K.OrderOp.LT)
    assert check_constraint(strict, {"a": 1, "b": 2, "c": 5})
    assert not check_constraint(strict, {"a": 1, "b": 1, "c": 5})
    # separation: a + 3 <= b, b + 1 <= c
    gapped = K.Ordered(vars=("a", "b", "c"), op=K.OrderOp.LE, lengths=(3, 1))
    assert check_constraint(gapped, {"a": 0, "b": 3, "c": 4})
    assert not check_constraint(gapped, {"a": 0, "b": 2, "c": 4})


def test_ordered_with_variable_lengths():
    kind = K.Ordered(vars=("a", "b"), op=K.OrderOp.LT, lengths=(V("g"),))
    assert check_constraint(kind, {"a": 0, "b": 2, "g": 1})
    assert not check_constraint(kind, {"a": 0, "b": 2, "g": 2})


def test_lex_chains():
    kind = K.Lex(lists=(("a", "b"), ("c", "d")), op=K.OrderOp.LE)
    assert check_constraint(kind, {"a": 1, "b": 9, "c": 2, "d": 0})
    assert check_constraint(kind, {"a": 1, "b": 2, "c": 1, "d": 2})
    assert not check_constraint(kind, {"a": 2, "b": 0, "c": 1, "d": 9})
    strict = K.Lex(lists=(("a", "b"), ("c", "d")), op=K.OrderOp.LT)
    assert not check_constraint(strict, {"a": 1, "b": 2, "c": 1, "d": 2})


def test_lex2_orders_rows_and_columns():
    kind = K.Lex2(rows=(("a", "b"), ("c", "d")), op=K.OrderOp.LE)
    assert check_constraint(kind, {"a": 0, "b": 1, "c": 1, "d": 0})
    # rows (1,0) <= (1,2) hold but columns (1,1) > (0,2) do not
    assert not check_constraint(kind, {"a": 1, "b": 0, "c": 1, "d": 2})


# -- counting / summing -------------------------------------------------------


def test_sum_with_variable_coefficient_and_rhs():
    kind = K.Sum(terms=(V("a"), V("b")), coeffs=(V("k"), 2),
                 condition=cond("eq", V("t")))
    assert check_constraint(kind, {"a": 3, "b": 4, "k": 2, "t": 14})
    assert not check_constraint(kind, {"a": 3, "b": 4, "k": 2, "t": 15})


def test_sum_overflow_is_loud():
    kind = K.Sum(terms=(V("a"), V("b")), coeffs=(2**62, 2**62),
                 condition=cond("ge", 0))
    with pytest.raises(Overflow):
        check_constraint(kind, {"a": 2, "b": 2})


_HUGE = (2**62, 2**62, -2**62)
_HUGE_TEXT = " ".join(map(str, _HUGE))
_HUGE_COP = f"""<instance format="XCSP3" type="COP">
  <variables> <array id="x" size="[3]"> 0..2 </array> </variables>
  <constraints> <sum id="s"> <list> x[] </list> <coeffs> {{}} </coeffs>
    <condition> (ge,0) </condition> </sum> </constraints>
  <objectives> <minimize type="sum"> <list> x[] </list> <coeffs> {_HUGE_TEXT} </coeffs>
  </minimize> </objectives>
</instance>"""


def _overflow(context, value=2**63):
    return re.escape(f"{context}: {value} leaves the 64-bit integer range")


def test_a_partial_sum_that_leaves_int64_and_comes_back_still_overflows():
    kind = K.Sum(terms=(V("a"), V("b"), V("c")), coeffs=_HUGE, condition=cond("ge", 0))
    # 2^62 + 2^62 leaves the range before - 2^62 brings the total back
    with pytest.raises(Overflow, match=f"^{_overflow('sum')}$"):
        check_constraint(kind, {"a": 1, "b": 1, "c": 1})
    # 2 * 2^62 leaves it already as a product
    with pytest.raises(Overflow, match=f"^{_overflow('sum term')}$"):
        check_constraint(kind, {"a": 2, "b": 1, "c": 2})
    ones = Instantiation({"x[0]": 1, "x[1]": 1, "x[2]": 1})
    constrained = parse_string(_HUGE_COP.format(_HUGE_TEXT))
    with pytest.raises(Overflow, match=f"^s: {_overflow('sum')} at x\\[0\\]=1 x\\[1\\]=1 x\\[2\\]=1$"):
        check_solution(constrained, ones, declared_cost=0)
    # the constraint holds with small coefficients; the objective's total overflows
    objective = parse_string(_HUGE_COP.format("1 1 1"))
    with pytest.raises(Overflow, match=f"^{_overflow('objective')}$"):
        check_solution(objective, ones, declared_cost=0)
    with pytest.raises(Overflow, match=f"^{_overflow('objective term')}$"):
        check_solution(objective, Instantiation({"x[0]": 2, "x[1]": 1, "x[2]": 2}),
                       declared_cost=0)
    # a total that the magnitudes prove in range is summed in one step
    assert check_solution(objective, Instantiation({"x[0]": 0, "x[1]": 1, "x[2]": 1}),
                          declared_cost=0).satisfied


def test_a_sum_term_that_overflows_names_the_term():
    kind = K.Sum(terms=(V("a"), expr("mul(b,2)")), coeffs=(1, 2**62), condition=cond("ge", 0))
    with pytest.raises(Overflow, match=f"^{_overflow('sum term')}$"):
        check_constraint(kind, {"a": 0, "b": 1})
    bare = K.Sum(terms=(V("a"), V("b")), coeffs=(1, -(2**62)), condition=cond("ge", 0))
    with pytest.raises(Overflow, match=f"^{_overflow('sum term', -2**63 - 2**62)}$"):
        check_constraint(bare, {"a": 0, "b": 3})


@pytest.mark.parametrize("kind", [
    K.Sum(terms=(V("a"), V("b")), coeffs=(1, 1), condition=cond("ge", 0)),
    K.Count(operands=(V("a"), V("b")), values=(1,), condition=cond("ge", 0)),
    K.NValues(operands=(V("a"), V("b")), condition=cond("ge", 0)),
    K.AllDifferent(operands=(V("a"), V("b"))),
    K.AllEqual(operands=(V("a"), V("b"))),
    K.Minimum(operands=(V("a"), V("b")), condition=cond("ge", 0)),
    K.Maximum(operands=(V("a"), V("b")), condition=cond("ge", 0)),
], ids=lambda kind: type(kind).__name__)
def test_a_bare_operand_missing_without_validation_is_unbound(kind):
    with pytest.raises(UnboundVariable, match="^b$"):
        check_constraint(kind, {"a": 1}, validate=False)


def test_a_missing_operand_after_an_overflowing_term_keeps_the_overflow():
    # the first product overflows before the second term's variable is read
    kind = K.Sum(terms=(V("a"), V("b")), coeffs=(2**62, 1), condition=cond("ge", 0))
    with pytest.raises(Overflow, match=f"^{_overflow('sum term')}$"):
        check_constraint(kind, {"a": 2}, validate=False)


def test_a_raising_term_and_an_overflowing_term_raise_in_list_order():
    env = {"a": 2, "b": 0}
    first = K.Sum(terms=(expr("div(a,b)"), V("a")), coeffs=(1, 2**62), condition=cond("ge", 0))
    with pytest.raises(DivisionByZero, match=r"^div\(2,0\)$"):
        check_constraint(first, env)
    second = K.Sum(terms=(V("a"), expr("div(a,b)")), coeffs=(2**62, 1), condition=cond("ge", 0))
    with pytest.raises(Overflow, match=f"^{_overflow('sum term')}$"):
        check_constraint(second, env)


def test_count_with_variable_values():
    kind = K.Count(operands=(V("a"), V("b"), V("c")), values=(V("w"),),
                   condition=cond("eq", 2))
    assert check_constraint(kind, {"a": 7, "b": 7, "c": 1, "w": 7})
    assert not check_constraint(kind, {"a": 7, "b": 1, "c": 2, "w": 7})


def test_count_condition_interval():
    kind = K.Count(operands=(V("a"), V("b"), V("c")), values=(1, 2),
                   condition=cond("in", Interval(1, 2)))
    assert check_constraint(kind, {"a": 1, "b": 5, "c": 5})
    assert check_constraint(kind, {"a": 1, "b": 2, "c": 5})
    assert not check_constraint(kind, {"a": 5, "b": 5, "c": 5})
    assert not check_constraint(kind, {"a": 1, "b": 2, "c": 2})


def test_nvalues_with_excepts():
    kind = K.NValues(operands=(V("a"), V("b"), V("c")),
                     condition=cond("eq", 1), excepts=(0,))
    assert check_constraint(kind, {"a": 4, "b": 0, "c": 4})
    assert not check_constraint(kind, {"a": 4, "b": 5, "c": 4})


def test_cardinality_exact_and_interval_occurs():
    kind = K.Cardinality(vars=("a", "b", "c", "d"), values=(1, 2),
                         occurs=(2, Interval(0, 1)))
    assert check_constraint(kind, {"a": 1, "b": 1, "c": 2, "d": 9})
    assert check_constraint(kind, {"a": 1, "b": 1, "c": 9, "d": 9})
    assert not check_constraint(kind, {"a": 1, "b": 1, "c": 2, "d": 2})
    assert not check_constraint(kind, {"a": 1, "b": 9, "c": 9, "d": 9})


def test_cardinality_closed_restricts_value_set():
    kind = K.Cardinality(vars=("a", "b"), values=(0, 1),
                         occurs=(1, 1), closed=True)
    assert check_constraint(kind, {"a": 0, "b": 1})
    assert not check_constraint(kind, {"a": 0, "b": 2})


def test_a_closed_cardinality_rejects_an_uncounted_value():
    # 0 occurs once, as required, so only closed decides: y=5 is not counted
    text = ('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..9 </var>'
            '<var id="y"> 0..9 </var></variables><constraints><cardinality>'
            '<list> x y </list><values{}> 0 </values><occurs> 1 </occurs>'
            "</cardinality></constraints></instance>")
    candidate = Instantiation({"x": 0, "y": 5})
    closed = check_solution(parse_string(text.format(' closed="true"')), candidate)
    assert (closed.kind, closed.violated) == (VerdictKind.VIOLATED, ("#0",))
    assert check_solution(parse_string(text.format("")), candidate).satisfied


def test_a_variable_coefficient_missing_without_validation_is_unbound():
    kind = K.Sum(terms=(V("a"),), coeffs=(V("k"),), condition=cond("ge", 0))
    with pytest.raises(UnboundVariable, match="^k$"):
        check_constraint(kind, {"a": 1}, validate=False)


def test_cardinality_variable_values_must_be_distinct():
    kind = K.Cardinality(vars=("a", "b"), values=(V("u"), V("v")),
                         occurs=(1, 1))
    assert check_constraint(kind, {"a": 3, "b": 4, "u": 3, "v": 4})
    assert not check_constraint(kind, {"a": 3, "b": 3, "u": 3, "v": 3})


def test_minimum_and_maximum_conditions():
    mn = K.Minimum(operands=(V("a"), V("b"), V("c")), condition=cond("eq", V("m")))
    assert check_constraint(mn, {"a": 4, "b": 2, "c": 9, "m": 2})
    assert not check_constraint(mn, {"a": 4, "b": 2, "c": 9, "m": 4})
    mx = K.Maximum(operands=(V("a"), V("b")), condition=cond("notin", Interval(5, 9)))
    assert check_constraint(mx, {"a": 4, "b": 2})
    assert not check_constraint(mx, {"a": 7, "b": 2})


def test_minimum_over_expressions():
    kind = K.Minimum(operands=(expr("add(a,1)"), expr("mul(b,2)")),
                     condition=cond("le", 3))
    assert check_constraint(kind, {"a": 2, "b": 1})
    assert not check_constraint(kind, {"a": 4, "b": 2})


# -- element ------------------------------------------------------------------


def test_element_var_list_forms():
    base = dict(vars=("a", "b", "c"), index="i")
    value_rhs = K.ElementVarList(rhs=7, **base)
    assert check_constraint(value_rhs, {"a": 7, "b": 1, "c": 2, "i": 0})
    assert not check_constraint(value_rhs, {"a": 7, "b": 1, "c": 2, "i": 1})
    var_rhs = K.ElementVarList(rhs=V("t"), **base)
    assert check_constraint(var_rhs, {"a": 0, "b": 5, "c": 0, "i": 1, "t": 5})
    cond_rhs = K.ElementVarList(rhs=cond("gt", 4), **base)
    assert check_constraint(cond_rhs, {"a": 0, "b": 5, "c": 0, "i": 1})
    assert not check_constraint(cond_rhs, {"a": 0, "b": 4, "c": 0, "i": 1})


def test_element_index_out_of_range_is_violation():
    kind = K.ElementVarList(vars=("a", "b"), index="i", rhs=0)
    assert not check_constraint(kind, {"a": 0, "b": 0, "i": 2})
    assert not check_constraint(kind, {"a": 0, "b": 0, "i": -1})


def test_element_val_list():
    kind = K.ElementValList(values=(10, 20, 30), index="i", rhs=V("t"))
    assert check_constraint(kind, {"i": 2, "t": 30})
    assert not check_constraint(kind, {"i": 2, "t": 20})
    assert not check_constraint(kind, {"i": 3, "t": 30})


def test_element_matrix_with_mixed_rhs():
    cells = (("a", "b"), ("c", "d"))
    kind = K.ElementMatrix(cells=cells, row_index="r", col_index="s", rhs=9)
    env = {"a": 1, "b": 9, "c": 3, "d": 4, "r": 0, "s": 1}
    assert check_constraint(kind, env)
    assert not check_constraint(kind, env | {"s": 0})
    assert not check_constraint(kind, env | {"r": 2})
    values = K.ElementMatrix(cells=((10, 20), (30, 40)), row_index="r",
                             col_index="s", rhs=cond("ge", 25))
    assert check_constraint(values, {"r": 1, "s": 0})
    assert not check_constraint(values, {"r": 0, "s": 1})


def test_element_matrix_column_index_equal_to_the_width_is_false():
    kind = K.ElementMatrix(cells=(("a", "b"), ("c", "d")), row_index="r", col_index="s", rhs=1)
    env = {"a": 1, "b": 1, "c": 1, "d": 1, "r": 1}
    assert check_constraint(kind, env | {"s": 1})
    assert not check_constraint(kind, env | {"s": 2})  # no such column: False, not IndexError


# -- connection constraints -----------------------------------------------------


def test_channel_single_list_is_involution():
    kind = K.ChannelOne(vars=("a", "b", "c"))
    assert check_constraint(kind, {"a": 1, "b": 0, "c": 2})
    assert check_constraint(kind, {"a": 0, "b": 1, "c": 2})
    assert not check_constraint(kind, {"a": 1, "b": 2, "c": 0})
    assert not check_constraint(kind, {"a": 3, "b": 0, "c": 2})


def test_channel_two_lists():
    kind = K.ChannelTwo(first=("a", "b"), second=("u", "v"))
    assert check_constraint(kind, {"a": 1, "b": 0, "u": 1, "v": 0})
    assert not check_constraint(kind, {"a": 1, "b": 0, "u": 0, "v": 1})


def test_channel_two_lists_shorter_first():
    # only the first list is channeled when sizes differ
    kind = K.ChannelTwo(first=("a",), second=("u", "v", "w"))
    assert check_constraint(kind, {"a": 2, "u": 9, "v": 9, "w": 0})
    assert not check_constraint(kind, {"a": 2, "u": 9, "v": 9, "w": 1})


def test_channel_two_lists_value_equal_to_the_second_length_is_false():
    shorter = K.ChannelTwo(first=("a",), second=("u", "v"))
    assert check_constraint(shorter, {"a": 1, "u": 0, "v": 0})
    assert not check_constraint(shorter, {"a": 2, "u": 0, "v": 0})  # not IndexError
    equal = K.ChannelTwo(first=("a", "b"), second=("u", "v"))
    assert not check_constraint(equal, {"a": 2, "b": 0, "u": 1, "v": 0})


def test_channel_value_points_at_the_single_one():
    kind = K.ChannelValue(vars=("a", "b", "c"), value="p")
    assert check_constraint(kind, {"a": 0, "b": 1, "c": 0, "p": 1})
    assert not check_constraint(kind, {"a": 0, "b": 1, "c": 1, "p": 1})
    assert not check_constraint(kind, {"a": 0, "b": 0, "c": 0, "p": 1})
    assert not check_constraint(kind, {"a": 0, "b": 1, "c": 0, "p": 2})


# -- packing / scheduling ---------------------------------------------------------


def test_no_overlap_basic_and_zero_length():
    kind = K.NoOverlap1(origins=("a", "b"), lengths=(3, 2))
    assert check_constraint(kind, {"a": 0, "b": 3})
    assert not check_constraint(kind, {"a": 0, "b": 2})
    ignored = K.NoOverlap1(origins=("a", "b"), lengths=(4, 0))
    assert check_constraint(ignored, {"a": 0, "b": 2})
    strict = K.NoOverlap1(origins=("a", "b"), lengths=(4, 0), zero_ignored=False)
    assert not check_constraint(strict, {"a": 0, "b": 2})
    # a zero-length task at the boundary touches without overlapping
    assert check_constraint(strict, {"a": 0, "b": 4})


def test_no_overlap_k_dimensional():
    kind = K.NoOverlapK(origins=(("ax", "ay"), ("bx", "by")),
                        lengths=((2, 2), (2, 2)))
    # boxes disjoint horizontally
    assert check_constraint(kind, {"ax": 0, "ay": 0, "bx": 2, "by": 1})
    # overlapping in both dimensions
    assert not check_constraint(kind, {"ax": 0, "ay": 0, "bx": 1, "by": 1})
    flat = K.NoOverlapK(origins=(("ax", "ay"), ("bx", "by")),
                        lengths=((2, 0), (2, 2)), zero_ignored=False)
    assert not check_constraint(flat, {"ax": 0, "ay": 1, "bx": 0, "by": 0})
    lax = K.NoOverlapK(origins=(("ax", "ay"), ("bx", "by")),
                       lengths=((2, 0), (2, 2)))
    assert check_constraint(lax, {"ax": 0, "ay": 1, "bx": 0, "by": 0})


def test_no_overlap_k_boxes_that_touch_are_separated():
    kind = K.NoOverlapK(origins=(("ax", "ay"), ("bx", "by")), lengths=((2, 3), (2, 3)))
    inside = {"ax": 0, "ay": 0, "bx": 1, "by": 1}
    assert not check_constraint(kind, inside)
    # a box that ends exactly where the other starts, in either dimension and order
    for dim, first, second in [("x", "a", "b"), ("x", "b", "a"), ("y", "a", "b"), ("y", "b", "a")]:
        end = 2 if dim == "x" else 3
        env = inside | {f"{first}{dim}": 0, f"{second}{dim}": end}
        assert check_constraint(kind, env), env
        assert not check_constraint(kind, env | {f"{second}{dim}": end - 1}), env


def test_cumulative_load_profile():
    kind = K.Cumulative(origins=("a", "b", "c"), lengths=(3, 3, 2),
                        heights=(1, 1, 2), condition=cond("le", 2))
    assert check_constraint(kind, {"a": 0, "b": 0, "c": 3})
    assert not check_constraint(kind, {"a": 0, "b": 0, "c": 2})


def test_cumulative_with_variable_fields():
    kind = K.Cumulative(origins=("a", "b"), lengths=(V("la"), 2),
                        heights=(2, V("hb")), condition=cond("le", V("cap")))
    env = {"a": 0, "b": 1, "la": 2, "hb": 1, "cap": 3}
    assert check_constraint(kind, env)
    assert not check_constraint(kind, env | {"cap": 2})
    # zero-length tasks put no load anywhere
    assert check_constraint(kind, {"a": 0, "b": 0, "la": 0, "hb": 9, "cap": 9})


_TOP = 2**63 - 1


@pytest.mark.parametrize("kind,env", [
    (K.NoOverlap1(origins=("a", "b"), lengths=(5, 1)), {"a": _TOP, "b": 0}),
    # every end is checked before any two tasks are compared
    (K.NoOverlap1(origins=("a", "b", "c"), lengths=(2, 2, 5)), {"a": 0, "b": 0, "c": _TOP}),
    (K.NoOverlapK(origins=(("a", "b"), ("c", "d")), lengths=((1, 5), (1, 1))),
     {"a": 0, "b": _TOP, "c": 9, "d": 0}),
    (K.Cumulative(origins=("a", "b"), lengths=(V("l"), 1), heights=(1, 1),
                  condition=cond("le", 0)), {"a": _TOP, "b": 0, "l": 1}),
    # two overlapping tasks whose heights sum past int64
    (K.Cumulative(origins=("a", "b"), lengths=(2, 2), heights=(2**62, 2**62),
                  condition=cond("le", 10)), {"a": 0, "b": 1}),
    # every load is summed before any is compared: the load at 0 fails first
    (K.Cumulative(origins=("a", "b", "c"), lengths=(1, 2, 2), heights=(20, 2**62, 2**62),
                  condition=cond("le", 10)), {"a": 0, "b": 5, "c": 5}),
])
def test_scheduling_ends_and_loads_are_checked_int64(kind, env):
    context = "cumulative" if type(kind) is K.Cumulative else "noOverlap"
    with pytest.raises(Overflow, match=f"^{context}: "):
        check_constraint(kind, env)


def _cumulative_by_points(kind, env):
    """The definition, point by point: the condition holds of the load at
    every time point that a task of positive length covers."""
    def value(val):
        return env[val.id] if isinstance(val, VarRef) else val
    tasks = [(env[o], value(l), value(h))
             for o, l, h in zip(kind.origins, kind.lengths, kind.heights)]
    tasks = [(o, l, h) for o, l, h in tasks if l > 0]
    covered = {t for o, l, _ in tasks for t in range(o, o + l)}
    return all(eval_condition(sum(h for o, l, h in tasks if o <= t < o + l), kind.condition, env)
               for t in covered)


_conditions = st.one_of(
    st.tuples(st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]),
              st.one_of(st.integers(-4, 8), st.just(V("cap")))),
    st.tuples(st.sampled_from(["in", "notin"]),
              st.tuples(st.integers(-4, 6), st.integers(0, 4)).map(
                  lambda p: Interval(p[0], p[0] + p[1]))),
    st.tuples(st.sampled_from(["in", "notin"]),
              st.lists(st.integers(-4, 8), min_size=1, max_size=3, unique=True).map(
                  lambda values: IntSet(tuple(sorted(values))))),
).map(lambda p: cond(*p))


@settings(max_examples=400, deadline=None)
@given(tasks=st.lists(st.tuples(st.integers(-3, 6), st.integers(-2, 5), st.integers(-2, 3),
                                st.booleans(), st.booleans()), min_size=1, max_size=5),
       condition=_conditions, cap=st.integers(-2, 6))
def test_cumulative_agrees_with_its_point_by_point_definition(tasks, condition, cap):
    # lengths and heights are constants or variables; zero and negative
    # ones included
    env, lengths, heights = {"cap": cap}, [], []
    for i, (origin, length, height, var_length, var_height) in enumerate(tasks):
        env[f"o{i}"] = origin
        for field, val, as_var, name in ((lengths, length, var_length, f"l{i}"),
                                         (heights, height, var_height, f"h{i}")):
            if as_var:
                env[name] = val
            field.append(V(name) if as_var else val)
    kind = K.Cumulative(origins=tuple(f"o{i}" for i in range(len(tasks))),
                        lengths=tuple(lengths), heights=tuple(heights), condition=condition)
    assert check_constraint(kind, env) == _cumulative_by_points(kind, env)


def test_circuit_semantics():
    kind = K.Circuit(vars=("a", "b", "c", "d"))
    # full tour 0 -> 1 -> 2 -> 3 -> 0
    assert check_constraint(kind, {"a": 1, "b": 2, "c": 3, "d": 0})
    # subtour 0 -> 2 -> 0 with 1 and 3 self-looping
    assert check_constraint(kind, {"a": 2, "b": 1, "c": 0, "d": 3})
    # two disjoint 2-cycles do not make one circuit
    assert not check_constraint(kind, {"a": 1, "b": 0, "c": 3, "d": 2})
    # everybody self-loops: no circuit at all
    assert not check_constraint(kind, {"a": 0, "b": 1, "c": 2, "d": 3})
    # successor outside the list
    assert not check_constraint(kind, {"a": 4, "b": 1, "c": 2, "d": 3})


def test_circuit_with_size():
    sized = K.Circuit(vars=("a", "b", "c", "d"), size=V("n"))
    assert check_constraint(sized, {"a": 2, "b": 1, "c": 0, "d": 3, "n": 2})
    assert not check_constraint(sized, {"a": 2, "b": 1, "c": 0, "d": 3, "n": 3})


def test_instantiation_constraint_with_stars():
    kind = K.InstantiationCtr(vars=("a", "b", "c"), values=(1, STAR, 3))
    assert check_constraint(kind, {"a": 1, "b": 42, "c": 3})
    assert not check_constraint(kind, {"a": 1, "b": 42, "c": 4})


# -- scopes and guards ----------------------------------------------------------


def test_scope_first_use_order():
    kind = K.Sum(terms=(V("b"), V("a")), coeffs=(V("k"), 2),
                 condition=cond("lt", V("a")))
    assert kind.var_ids == ("b", "a", "k")
    elem = K.ElementVarList(vars=("p", "q"), index="i", rhs=cond("eq", V("t")))
    assert elem.var_ids == ("p", "q", "i", "t")


def test_unassigned_scope_variable_raises():
    kind = K.AllDifferent(operands=(V("a"), V("b")))
    with pytest.raises(UnboundVariable):
        check_constraint(kind, {"a": 1})
    with pytest.raises(CheckError, match="^star in scope: b$"):
        ensure_scope_assigned(kind, {"a": 1, "b": STAR})


def test_partial_violated_prunes_only_certain_kinds():
    alldiff = K.AllDifferent(operands=(V("a"), V("b"), V("c")))
    assert partial_violated(alldiff, {"a": 1, "b": 1})
    assert not partial_violated(alldiff, {"a": 1, "b": 2})
    # a sum cannot be declared dead from a prefix
    total = K.Sum(terms=(V("a"), V("b")), coeffs=(1, 1), condition=cond("eq", 0))
    assert not partial_violated(total, {"a": 50})


def test_partial_violated_on_extension_prefix():
    kind = K.Extension(scope=("a", "b"), positive=True, tuples=((0, 0), (1, 1)))
    assert partial_violated(kind, {"a": 2})
    assert not partial_violated(kind, {"a": 1})


# Small random constraints of every kind with a partial detector, over the
# variables v0..v3 with domain {0,1,2}. Each generator returns its variant's
# name (one per detector branch the test must see fire) and the kind.
_POOL = ("v0", "v1", "v2", "v3")


def _scope(rng, lo=2, hi=4):
    return tuple(rng.choice(_POOL) for _ in range(rng.randint(lo, hi)))


def _operand(rng):
    vid = rng.choice(_POOL)
    return rng.choice([V(vid), V(vid), parse_expr(f"add({vid},1)"), parse_expr("1")])


def _random_extension(rng):
    positive = rng.random() < 0.5
    if rng.random() < 0.4:
        values = sorted(rng.sample(range(3), rng.randint(0, 3)))
        unary = Domain(tuple((v, v) for v in values))
        return "unary", K.Extension((rng.choice(_POOL),), positive, unary=unary)
    scope = _scope(rng, 2, 3)
    rows = {tuple(rng.choice((0, 1, 2, 0, 1, 2, STAR)) for _ in scope)
            for _ in range(rng.randint(1, 6))}
    return "table", K.Extension(scope, positive, tuples=tuple(rows))


def _random_ordered(rng):
    scope = _scope(rng)
    op = rng.choice(list(K.OrderOp))
    if rng.random() < 0.5:
        return "plain", K.Ordered(scope, op)
    lengths = tuple(rng.choice((0, 1, V(rng.choice(_POOL)))) for _ in scope[1:])
    return "lengths", K.Ordered(scope, op, lengths)


def _random_lex(rng):
    width = rng.randint(1, 2)
    lists = tuple(tuple(rng.choice(_POOL) for _ in range(width))
                  for _ in range(rng.randint(2, 3)))
    return "lex", K.Lex(lists, rng.choice(list(K.OrderOp)))


def _random_instantiation(rng):
    scope = _scope(rng)
    return "instantiation", K.InstantiationCtr(
        scope, tuple(rng.choice((0, 1, 2, STAR)) for _ in scope))


def _random_all_different(rng):
    operands = tuple(_operand(rng) for _ in range(rng.randint(2, 4)))
    excepts = tuple(rng.sample(range(3), rng.randint(0, 1)))
    return "allDifferent", K.AllDifferent(operands, excepts)


def _random_all_equal(rng):
    return "allEqual", K.AllEqual(tuple(_operand(rng) for _ in range(rng.randint(2, 4))))


@pytest.mark.parametrize("generate", [_random_extension, _random_ordered, _random_lex,
                                      _random_instantiation, _random_all_different,
                                      _random_all_equal], ids=lambda g: g.__name__[8:])
def test_partial_detectors_are_sound(generate):
    """Whenever a detector declares a partial assignment dead, no completion
    of it satisfies the complete check; and every variant's detector fires."""
    rng = random.Random(f"partial-{generate.__name__}")
    fired = {}
    for _ in range(150):
        variant, kind = generate(rng)
        fired.setdefault(variant, 0)
        ids = kind.var_ids
        solutions = [dict(zip(ids, values))
                     for values in itertools.product(range(3), repeat=len(ids))
                     if check_constraint(kind, dict(zip(ids, values)))]
        for cells in itertools.product((None, 0, 1, 2), repeat=len(ids)):
            env = {vid: v for vid, v in zip(ids, cells) if v is not None}
            if partial_violated(kind, env):
                fired[variant] += 1
                assert not any(all(s[vid] == v for vid, v in env.items())
                               for s in solutions), (kind, env)
    assert all(fired.values()), fired


# -- objectives -----------------------------------------------------------------


def test_objective_kinds_evaluate():
    env = {"a": 3, "b": 5, "c": 3}
    ops = (V("a"), V("b"), V("c"))
    sense = K.Sense.MINIMIZE
    assert eval_objective(K.Objective(sense, K.ObjKind.EXPRESSION,
                                      expression=expr("mul(a,b)")), env) == 15
    assert eval_objective(K.Objective(sense, K.ObjKind.SUM, operands=ops), env) == 11
    assert eval_objective(K.Objective(sense, K.ObjKind.SUM, operands=ops,
                                      coeffs=(1, 2, 3)), env) == 22
    assert eval_objective(K.Objective(sense, K.ObjKind.MINIMUM, operands=ops), env) == 3
    assert eval_objective(K.Objective(sense, K.ObjKind.MAXIMUM, operands=ops), env) == 5
    assert eval_objective(K.Objective(sense, K.ObjKind.NVALUES, operands=ops), env) == 2
    assert eval_objective(K.Objective(sense, K.ObjKind.LEX, operands=ops),
                          env) == (3, 5, 3)


def test_objective_scope_covers_expression_and_operands():
    obj = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.EXPRESSION,
                      expression=expr("add(mul(b,400),mul(c,450))"))
    assert obj.var_ids == ("b", "c")


# -- whole-solution verdicts -------------------------------------------------------


CSP_TEXT = """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="x"> 0..3 </var>
    <var id="y"> 0..3 </var>
    <var id="free"> 0 1 </var>
  </variables>
  <constraints>
    <intension id="c1"> lt(x,y) </intension>
    <allDifferent id="c2"> x y </allDifferent>
  </constraints>
</instance>
"""


def test_check_solution_verdicts():
    inst = parse_string(CSP_TEXT)
    good = check_solution(inst, Instantiation({"x": 0, "y": 2}))
    assert good.kind is VerdictKind.SATISFIED and good.satisfied
    bad = check_solution(inst, Instantiation({"x": 1, "y": 1}))
    assert bad.kind is VerdictKind.VIOLATED
    assert bad.violated == ("c1", "c2")
    one = check_solution(inst, Instantiation({"x": 2, "y": 1}))
    assert one.violated == ("c1",)


def test_check_solution_ignores_useless_variables():
    inst = parse_string(CSP_TEXT)
    # "free" sits in no constraint, so leaving it out is still complete
    verdict = check_solution(inst, Instantiation({"x": 0, "y": 1}))
    assert verdict.satisfied
    assert inst.useful_ids == ("x", "y")


def test_useful_ids_follow_the_declarations():
    inst = parse_string("""<instance format="XCSP3" type="COP">
  <variables> <var id="a"> 0 1 </var> <var id="b"> 0 1 </var> <var id="c"> 0 1 </var>
    <var id="d"> 0 1 </var> </variables>
  <constraints> <intension> lt(c,a) </intension> </constraints>
  <objectives> <minimize> d </minimize> </objectives>
</instance>""")
    assert inst.useful_ids == ("a", "c", "d")
    verdict = check_solution(inst, Instantiation({"b": 0}))
    assert verdict.missing == ("a", "c", "d")


def test_check_solution_total_vs_partial():
    inst = parse_string(CSP_TEXT)
    partial = Instantiation({"x": 2})
    total = check_solution(inst, partial, CheckMode.TOTAL_REQUIRED)
    assert total.kind is VerdictKind.INCOMPLETE and total.missing == ("y",)
    lenient = check_solution(inst, partial, CheckMode.PARTIAL_ALLOWED)
    assert lenient.kind is VerdictKind.INCOMPLETE
    # a violation visible in the assigned part beats incompleteness
    seen = check_solution(inst, Instantiation({"x": 2, "y": 1, "free": STAR}),
                          CheckMode.PARTIAL_ALLOWED)
    assert seen.kind is VerdictKind.VIOLATED


def test_check_solution_guards():
    inst = parse_string(CSP_TEXT)
    with pytest.raises(CheckError, match="^unknown variable ghost$"):
        check_solution(inst, Instantiation({"x": 0, "y": 1, "ghost": 0}))
    with pytest.raises(CheckError, match=r"^x=9 outside 0\.\.3$"):
        check_solution(inst, Instantiation({"x": 9, "y": 1}))


def test_check_solution_cost_verification():
    inst = parse_file(fixture_path("cake_intension.xml"))
    best = Instantiation({"b": 2, "c": 2})
    assert check_solution(inst, best, declared_cost=1700).satisfied
    with pytest.raises(CheckError, match="^declared cost 1650, actual 1700$"):
        check_solution(inst, best, declared_cost=1650)
    plain = parse_string(CSP_TEXT)
    with pytest.raises(CheckError, match="^cost declared but the instance has no objective$"):
        check_solution(plain, Instantiation({"x": 0, "y": 1}), declared_cost=3)


DIV_TEXT = """<instance format="XCSP3" type="CSP">
  <variables> <var id="x"> 0..2 </var> <var id="y"> 0..9 </var> <var id="z"> 0 1 </var>
  </variables>
  <constraints>
    <intension id="c1"> lt(z,1) </intension>
    <intension> eq(div(6,x),y) </intension>
  </constraints>
</instance>"""


@pytest.mark.parametrize("mode", list(CheckMode))
def test_check_solution_names_the_constraint_of_an_evaluation_error(mode):
    inst = parse_string(DIV_TEXT)
    # c1 is violated first, but the error in #1 is what the caller sees
    with pytest.raises(DivisionByZero, match=r"^#1: div\(6,0\) at x=0 y=0$"):
        check_solution(inst, Instantiation({"x": 0, "y": 0, "z": 1}), mode)
    assert check_solution(inst, Instantiation({"x": 2, "y": 3, "z": 1}), mode).violated == ("c1",)


def test_a_constraint_on_an_undeclared_variable_fails_when_the_instance_is_built():
    # a hand-built Instance is rejected as its document would be, so the
    # checker never meets an undeclared variable
    table = K.Extension(scope=("x", "ghost"), positive=True, tuples=((2, 0),))
    with pytest.raises(ParseError, match=re.escape(
            "constraint c1 references undeclared variable 'ghost' [rule: unknown-variable]")):
        Instance(declarations=(Variable("x", Domain(((0, 2),))),),
                 constraints=(PostedConstraint(table, id="c1"),
                              PostedConstraint(K.Intension(expr("lt(x,2)")))))


# -- the verifier against the reference ----------------------------------------------

def _candidate(data, instance, solutions):
    """A solution, or a total, partial, starred, out-of-domain or unknown-variable candidate."""
    values = {v.id: data.draw(st.sampled_from(list(v.domain.values())))
              for v in instance.variables()}
    shape = data.draw(st.sampled_from(
        ["solution", "total", "partial", "starred", "outside", "unknown"]))
    if shape == "solution" and solutions:
        values = dict(data.draw(st.sampled_from(solutions)))
    some = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=1, unique=True))
    if shape == "partial":
        for vid in some:
            del values[vid]
    elif shape == "starred":
        values.update((vid, STAR) for vid in some)
    elif shape == "outside":
        domain = instance.variable(some[0]).domain
        values[some[0]] = data.draw(st.sampled_from([domain.min_value - 1, domain.max_value + 1,
                                                     domain.max_value + 3]))
    elif shape == "unknown":
        values["ghost"] = 0
    return Instantiation(values)


def _outcome(verify, instance, solution, mode, cost):
    try:
        verdict = verify(instance, solution, mode, declared_cost=cost)
    except XcspError as e:
        return type(e), str(e)
    return verdict.kind, verdict.violated, verdict.missing


def _reference_outcome(instance, solution, mode, cost):
    """The outcome of oracles.reference_check_solution; an evaluation error
    that a constraint raises names it, as check_solution must: the first
    constraint in order whose check raises, the last of the shortest prefix
    of the constraints that raises one. An error that no prefix raises is
    the objective's, which stays unnamed."""
    outcome = _outcome(oracles.reference_check_solution, instance, solution, mode, cost)
    if len(outcome) == 2 and issubclass(outcome[0], EvalError):
        for n, posted in enumerate(instance.constraints):
            prefix = Instance(instance.declarations, instance.constraints[:n + 1])
            raised = _outcome(oracles.reference_check_solution, prefix, solution, mode, None)
            if len(raised) == 2 and issubclass(raised[0], EvalError):
                return outcome[0], f"{posted.label(n)}: {outcome[1]}"
    return outcome


def _agree(got, want):
    """Equal outcomes, want from _reference_outcome; an evaluation error may
    also name the assigned values of its constraint's scope."""
    if got == want:
        return True
    if len(got) != 2 or got[0] is not want[0] or not issubclass(got[0], EvalError):
        return False
    return re.fullmatch(re.escape(want[1]) + r"( at( \S+=-?\d+)+)?", got[1]) is not None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), div=st.booleans(), data=st.data())
def test_check_solution_agrees_with_the_reference_verifier(seed, div, data):
    xml = oracles.random_instance_xml(random.Random(seed))
    base = parse_string(xml)
    solutions = oracles.naive_solutions(base)
    if div:  # a constraint that raises DivisionByZero where x0 is at its minimum
        low = base.variable("x0").domain.min_value
        xml = xml.replace("  </constraints>", f"    <intension> eq(div(6,sub(x0,{low})),x1)"
                          " </intension>\n  </constraints>")
    instance = parse_string(xml)
    # every candidate is checked against the same Instance, reusing its state
    for _ in range(data.draw(st.integers(1, 6))):
        solution = _candidate(data, instance, solutions)
        cost = data.draw(st.sampled_from([None, None, 0]))
        for mode in CheckMode:
            got = _outcome(check_solution, instance, solution, mode, cost)
            want = _reference_outcome(instance, solution, mode, cost)
            assert _agree(got, want), (got, want)


# Intensions over variables a, b, c and a constant k: two drawn from one
# template have one bounded shape, so check_solution checks them in one loop;
# if() keeps its plain call.
_INTENSIONS = (
    "lt({a},{b})",
    "le(add({a},{b}),{k})",  # may overflow near the int64 ends
    "ne(div({k},sub({a},{b})),{c})",  # divides by zero where a == b
    "eq(mul({a},{k}),{c})",
    "ge(if(lt({a},{b}),{a},{b}),{k})",
    "in({a},set(0,1))",
    "or(eq({a},{k}),ne({b},{c}))",
)
_END = 2**63 - 1
_LOOP_DOMAINS = ("-2..2", "0..1", f"{_END - 2}..{_END}", f"{-_END - 1}..{-_END + 1}")
_CONSTANTS = [-1, 0, 1, 3, 2**62, -(2**62)]
_RELATIONS = ["lt", "le", "ge", "gt", "eq", "ne"]


def _domain_values(text):
    lo, hi = map(int, text.split(".."))
    return list(range(lo, hi + 1))


def _loop_constraint(data, domains):
    """One constraint over the variables of domains (name -> domain text),
    of a kind that the plan writes as an intension, checks in its table
    loop or keeps on its check, drawn from a few templates so that shapes
    repeat."""
    names = sorted(domains)
    some = st.lists(st.sampled_from(names), min_size=1, max_size=4).map(" ".join)
    k = data.draw(st.sampled_from(_CONSTANTS))
    relation = f"({data.draw(st.sampled_from(_RELATIONS))},{k})"
    roll = data.draw(st.integers(0, 15))
    if roll == 0:
        return f"<allDifferent> {' '.join(names)} </allDifferent>"
    if roll == 1:
        return f"<sum> <list> {' '.join(names)} </list> <condition> (le,1) </condition> </sum>"
    if roll in (2, 3, 4):  # mixed signs; near the int64 ends some shapes raise
        terms = data.draw(some)
        coeffs = " ".join(str(data.draw(st.sampled_from(_CONSTANTS))) for _ in terms.split())
        if roll == 3:  # the condition's operand a variable
            relation = (f"({data.draw(st.sampled_from(_RELATIONS))},"
                        f"{data.draw(st.sampled_from(names))})")
        elif roll == 4:
            relation = data.draw(st.sampled_from(["(in,-1..1)", "(notin,{0,3})", "(in,{1})"]))
        return (f"<sum> <list> {terms} </list> <coeffs> {coeffs} </coeffs>"
                f" <condition> {relation} </condition> </sum>")
    if roll == 5:
        values = " ".join(map(str, data.draw(st.lists(st.sampled_from(
            [-1, 0, 1, _END, -_END - 1]), min_size=1, max_size=3, unique=True))))
        return (f"<count> <list> {data.draw(some)} </list> <values> {values} </values>"
                f" <condition> {relation} </condition> </count>")
    if roll == 6:
        chain = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=4))
        op = data.draw(st.sampled_from(["lt", "le", "ge", "gt"]))
        return f"<ordered> <list> {' '.join(chain)} </list> <operator> {op} </operator> </ordered>"
    if roll == 7:
        scope = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=3))
        product = list(itertools.product(*(_domain_values(domains[v]) for v in scope)))
        rows = data.draw(st.lists(st.sampled_from(product), min_size=1, max_size=6, unique=True))
        tag = data.draw(st.sampled_from(["supports", "conflicts"]))
        tuples = "".join(f"({','.join(map(str, row))})" for row in sorted(rows))
        return (f"<extension> <list> {' '.join(scope)} </list> <{tag}> {tuples} </{tag}>"
                " </extension>")
    a, b, c = (data.draw(st.sampled_from(names)) for _ in range(3))
    text = data.draw(st.sampled_from(_INTENSIONS)).format(a=a, b=b, c=c, k=k)
    return f"<intension> {text} </intension>"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_check_solution_loops_agree_with_the_reference_verifier(data):
    """Intensions, sums, counts, ordered chains and tables of a few shapes,
    some near the int64 ends, with other kinds among them, and candidates of
    every kind, partial ones included, each checked twice against the same
    Instance: its first check plans the intensions and tables, and its
    second lowers the sums, counts and ordered chains."""
    domains = {f"v{i}": data.draw(st.sampled_from(_LOOP_DOMAINS))
               for i in range(data.draw(st.integers(2, 4)))}
    variables = "".join(f'<var id="{name}"> {text} </var>' for name, text in domains.items())
    lines = [_loop_constraint(data, domains) for _ in range(data.draw(st.integers(1, 8)))]
    instance = parse_string(f'<instance format="XCSP3" type="CSP"> <variables> {variables}'
                            f' </variables> <constraints> {" ".join(lines)} </constraints>'
                            " </instance>")
    for _ in range(data.draw(st.integers(1, 6))):
        try:
            solution = _candidate(data, instance, [])
        except Overflow:  # a value past an int64 end: no Instantiation holds it
            continue
        for mode in CheckMode:
            want = _reference_outcome(instance, solution, mode, None)
            for _ in range(2):
                got = _outcome(check_solution, instance, solution, mode, None)
                assert _agree(got, want), (got, want)


def _planned(instance):
    """The positions of each loop's rows, then those of the other constraints,
    of instance's plan."""
    plan = vars(instance)["_check_plan"]
    return ([[row[0] for row in rows] for _, rows in plan.loops],
            [position for position, _, _ in plan.rest])


def test_the_first_error_in_constraint_order_is_raised_whichever_loop_meets_it():
    """#0 and #3 share a shape, so #3 is checked in the first loop, before
    #1 and #2; verdicts and errors still come in constraint order."""
    top = 2**63 - 1
    instance = parse_string(f"""<instance format="XCSP3" type="CSP">
  <variables> <var id="a"> 0..2 </var> <var id="b"> 0..6 </var> <var id="c"> 0..2 </var>
    <var id="q"> {top - 1}..{top} </var> </variables>
  <constraints>
    <intension> eq(div(6,a),b) </intension>
    <intension> lt(b,a) </intension>
    <intension> eq(add(q,1),b) </intension>
    <intension> eq(div(6,c),b) </intension>
    <intension> ge(if(lt(a,b),a,b),0) </intension>
  </constraints>
</instance>""")
    # the first check plans the intensions, the second lowers what else it can: none here
    for _ in range(2):
        verdict = check_solution(instance, Instantiation({"a": 2, "b": 3, "c": 1}),
                                 CheckMode.PARTIAL_ALLOWED)
        assert (verdict.kind, verdict.violated, verdict.missing) == (
            VerdictKind.VIOLATED, ("#1", "#3"), ())
        # one loop per shape; the if() intension is a plain call, its expression
        # compiled, and the others are not
        assert _planned(instance) == ([[0, 3], [1], [2]], [4])
        kinds = [posted.kind for posted in instance.constraints]
        assert ["compiled" in vars(kind) for kind in kinds] == [False] * 4 + [True]
    # #1 is violated and #3 raises, but #2's overflow comes first
    total = Instantiation({"a": 1, "b": 6, "c": 0, "q": top})
    with pytest.raises(Overflow, match=r"^#2: .* at q=9223372036854775807 b=6$"):
        check_solution(instance, total)
    assert _agree(_outcome(check_solution, instance, total, CheckMode.TOTAL_REQUIRED, None),
                  _reference_outcome(instance, total, CheckMode.TOTAL_REQUIRED, None))
    # without q, #2 is skipped: #1 is violated, and #3 raises
    partial = Instantiation({"a": 1, "b": 6, "c": 0})
    with pytest.raises(DivisionByZero, match=r"^#3: .* at c=0 b=6$"):
        check_solution(instance, partial, CheckMode.PARTIAL_ALLOWED)


BARE_COP = """<instance format="XCSP3" type="COP">
  <variables> <array id="x" size="[4]"> 0..3 </array> </variables>
  <constraints>
    <count id="n"> <list> x[] </list> <values> 0 1 </values> <condition> (le,2) </condition> </count>
    <sum id="s"> <list> x[] </list> <coeffs> 1 2 3 4 </coeffs> <condition> (le,40) </condition> </sum>
    <allDifferent id="d"> x[0] x[1] x[2] </allDifferent>
    <intension id="i"> lt(x[0],x[3]) </intension>
  </constraints>
  <objectives> <minimize type="sum"> <list> x[] </list> <coeffs> 2 1 1 1 </coeffs> </minimize>
  </objectives>
</instance>"""


def test_bare_variable_lists_are_read_without_compiling():
    instance = parse_string(BARE_COP)
    for _ in range(2):  # by the plan of the intensions, then by the lowered plan
        verdict = check_solution(instance, Instantiation(
            {"x[0]": 0, "x[1]": 1, "x[2]": 2, "x[3]": 3}), declared_cost=6)
        assert verdict.satisfied
    count, total, distinct, intension = (posted.kind for posted in instance.constraints)
    for holder in (count, total, distinct, instance.objective):
        assert "compiled" not in vars(holder), holder
        assert holder.bare_ids == ("x[0]", "x[1]", "x[2]", "x[3]")[:len(holder.var_ids)]
    # an intension is checked by its shape's loop, which compiles nothing for it
    assert "compiled" not in vars(intension)
    # the intension, then the count and the sum, are each a loop of its own
    # shape; allDifferent keeps its check
    assert _planned(instance) == ([[3], [0], [1]], [2])


LOWERED = """<instance format="XCSP3" type="CSP">
  <variables> <var id="a"> 0..3 </var> <var id="b"> 0..3 </var> <var id="c"> 0 2 3 </var>
    <var id="d"> -1..2 </var> </variables>
  <constraints>
    <sum id="s"> <list> a b c </list> <coeffs> 1 -2 3 </coeffs> <condition> (le,d) </condition> </sum>
    <count id="n"> <list> a b c d </list> <values> 0 2 </values> <condition> (ne,2) </condition> </count>
    <ordered id="o"> <list> d a b c </list> <operator> le </operator> </ordered>
    <ordered id="p"> <list> c b a </list> <operator> gt </operator> </ordered>
    <sum id="big"> <list> a b </list> <coeffs> 4611686018427387904 4611686018427387904 </coeffs>
      <condition> (ge,1) </condition> </sum>
    <sum id="m"> <list> a d </list> <condition> (in,1..3) </condition> </sum>
    <extension id="t"> <list> a c </list> <supports> (0,2)(1,3)(3,0) </supports> </extension>
    <extension id="f"> <list> b d </list> <conflicts> (0,-1)(2,2) </conflicts> </extension>
    <sum id="e"> <list> </list> <condition> (gt,0) </condition> </sum>
    <ordered id="one"> <list> a </list> <operator> lt </operator> </ordered>
    <sum id="v"> <list> a b </list> <coeffs> c 1 </coeffs> <condition> (le,5) </condition> </sum>
  </constraints>
</instance>"""


def test_lowered_sums_counts_chains_and_tables_keep_every_verdict():
    """Every total and partial assignment of LOWERED, checked by the plan,
    has the reference's outcome. The sum s, the count and the chains are
    each a loop; big, whose terms may pass 2^63, m, under (in,...), the
    empty sum, the chain of one and v, whose coefficient c is a variable,
    keep their checks; the tables share one loop."""
    instance = parse_string(LOWERED)
    names = ("a", "b", "c", "d")
    domains = [list(instance.variable(v).domain.values()) + [None] for v in names]
    for values in itertools.product(*domains):
        solution = Instantiation({v: x for v, x in zip(names, values) if x is not None})
        for mode in CheckMode:
            got = _outcome(check_solution, instance, solution, mode, None)
            assert _agree(got, _reference_outcome(instance, solution, mode, None)), (values, got)
    assert _planned(instance) == ([[6, 7], [0], [1], [2], [3]], [4, 5, 8, 9, 10])


def test_a_lowered_tree_nests_no_deeper_than_a_parsed_expression():
    """Writing code recurses through each call of a tree, and the fold
    nests one call per operand: a sum, count or ordered chain is lowered
    only while its tree nests at most MAX_EXPR_DEPTH calls, and a sum or
    count only over bare variables."""
    def deepest(tree):
        return 0 if type(tree) is not OpCall else 1 + max(map(deepest, tree.args))

    fit = MAX_EXPR_DEPTH - 1  # the operands of the longest sum or count of variables lowered
    for n, lowered in ((fit, True), (fit + 1, False)):
        terms = tuple(V(f"x{i}") for i in range(n))
        for kind in (K.Sum(terms=terms, coeffs=(1,) * n, condition=cond("le", 3)),
                     K.Count(operands=terms, values=(1,), condition=cond("ge", 1)),
                     K.Ordered(vars=tuple(f"x{i}" for i in range(n + 2)), op=K.OrderOp.LT)):
            tree = _lowered(kind)
            assert (tree is not None) is lowered, (type(kind), n)
            if lowered:
                assert deepest(tree) == MAX_EXPR_DEPTH
    # a term that is an expression, however shallow, keeps the kind's check
    terms = (OpCall("neg", (V("a"),)), V("b"))
    assert _lowered(K.Sum(terms=terms, coeffs=(1, 2), condition=cond("le", 3))) is None
    assert _lowered(K.Count(operands=terms, values=(1,), condition=cond("ge", 1))) is None


def test_long_sums_counts_and_chains_keep_every_verdict():
    """A sum, a count and an ordered chain over 1,000 variables, too long to
    lower, and the longest of each that is lowered, checked three times
    against one Instance (the plan of the intensions, then the lowered
    plan, then the same again) with the reference's verdicts."""
    n, fit = 1000, MAX_EXPR_DEPTH - 1
    coeffs = " ".join(str(1 + i % 3) for i in range(n))
    instance = parse_string(f"""<instance format="XCSP3" type="CSP">
  <variables> <array id="x" size="[{n}]"> 0..3 </array> </variables>
  <constraints>
    <sum> <list> x[] </list> <coeffs> {coeffs} </coeffs> <condition> (le,3000) </condition> </sum>
    <count> <list> x[] </list> <values> 1 2 </values> <condition> (ge,400) </condition> </count>
    <ordered> <list> x[] </list> <operator> le </operator> </ordered>
    <sum> <list> x[0..{fit - 1}] </list> <condition> (ge,10) </condition> </sum>
    <count> <list> x[0..{fit - 1}] </list> <values> 0 </values> <condition> (le,100) </condition> </count>
    <ordered> <list> x[0..{fit + 1}] </list> <operator> le </operator> </ordered>
  </constraints>
</instance>""")
    rng = random.Random(0)
    rising = {f"x[{i}]": i * 4 // n for i in range(n)}
    candidates = [rising, dict(rising, **{"x[500]": 0}), dict(rising, **{"x[100]": 0}),
                  {f"x[{i}]": 3 for i in range(n)},
                  {f"x[{i}]": rng.randrange(4) for i in range(n)},
                  {f"x[{i}]": i * 4 // n for i in range(n) if i != 600}]
    for values in candidates:
        solution = Instantiation(values)
        for mode in CheckMode:
            want = _reference_outcome(instance, solution, mode, None)
            for _ in range(3):
                got = _outcome(check_solution, instance, solution, mode, None)
                assert _agree(got, want), (got, want)
    assert _planned(instance) == ([[3], [4], [5]], [0, 1, 2])


def test_an_instance_lowers_its_plan_on_its_second_check():
    """The first check plans the intensions and tables alone, the second
    also lowers the sums, counts and ordered chains, and later checks keep
    that plan; a pickle or deep copy starts again without one."""
    instance = parse_string(BARE_COP)
    solution = Instantiation({"x[0]": 0, "x[1]": 1, "x[2]": 2, "x[3]": 3})

    def plan(instance):
        return vars(instance).get("_check_plan")

    # a candidate found incomplete before any constraint is checked counts for nothing
    assert check_solution(instance, Instantiation({"x[0]": 0})).kind is VerdictKind.INCOMPLETE
    assert plan(instance) is None
    assert check_solution(instance, solution).satisfied
    assert not plan(instance).lowered and _planned(instance) == ([[3]], [0, 1, 2])
    assert check_solution(instance, solution).satisfied
    built = plan(instance)
    assert built.lowered and _planned(instance) == ([[3], [0], [1]], [2])
    assert check_solution(instance, solution).satisfied and plan(instance) is built
    assert instance.spans == {f"x[{i}]": (0, 3) for i in range(4)}
    for again in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance)):
        assert plan(again) is None
        assert check_solution(again, solution).satisfied and not plan(again).lowered
        assert check_solution(again, solution).satisfied
        assert plan(again) is not built and _planned(again) == _planned(instance)


# -- the reference predicates ---------------------------------------------------------

_NAMES = ("v0", "v1", "v2")
_NEAR_LIMIT = (2**62, -(2**62), 2**62 - 1, -(2**62) + 1, 2**62 + 3, -(2**62) - 3)


@st.composite
def _operand_lists(draw, min_size=1):
    """Operands over _NAMES: mostly bare variables, some expressions that
    may overflow or divide by zero."""
    def one(text):
        return V(text) if text in _NAMES else expr(text)
    texts = st.one_of(st.sampled_from(_NAMES), st.sampled_from(
        ["add(v0,1)", "mul(v1,2)", "sub(v2,v0)", "div(7,v1)", "3"]))
    return tuple(map(one, draw(st.lists(texts, min_size=min_size, max_size=4))))


_slots = st.one_of(st.integers(-3, 3), st.sampled_from(_NAMES).map(V))
_conditions = st.one_of(
    st.builds(cond, st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]), _slots),
    st.builds(lambda op, lo, width: cond(op, Interval(lo, lo + width)),
              st.sampled_from(["in", "notin"]), st.integers(-4, 4), st.integers(0, 4)),
    st.builds(lambda op, values: cond(op, IntSet(tuple(sorted(values)))),
              st.sampled_from(["in", "notin"]), st.sets(st.integers(-4, 4), min_size=1)))
_excepts = st.lists(st.integers(-2, 2), max_size=2, unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def _sums(draw):
    terms = draw(_operand_lists())
    coeffs = tuple(draw(st.one_of(_slots, st.sampled_from(_NEAR_LIMIT))) for _ in terms)
    return K.Sum(terms, coeffs, draw(_conditions))


@st.composite
def _ordered(draw):
    ids = tuple(draw(st.lists(st.sampled_from(_NAMES), min_size=2, max_size=4)))
    lengths = draw(st.one_of(st.none(), st.tuples(*[st.one_of(
        _slots, st.sampled_from(_NEAR_LIMIT))] * (len(ids) - 1))))
    return K.Ordered(ids, draw(st.sampled_from(list(K.OrderOp))), lengths)


# Packing and scheduling: lengths stay small, so that tasks often touch,
# and reach the int64 ends through the origins and length variables that
# _ENVS sets near them; heights also come near +-2^62, so that loads overflow.
_limit_slots = st.one_of(_slots, st.sampled_from(_NEAR_LIMIT))
_name_lists = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4).map(tuple)


@st.composite
def _no_overlap_k(draw):
    dims = draw(st.integers(1, 3))
    boxes = draw(st.integers(1, 3))
    origins = tuple(tuple(draw(st.lists(st.sampled_from(_NAMES), min_size=dims, max_size=dims)))
                    for _ in range(boxes))
    lengths = tuple(tuple(draw(_slots) for _ in range(dims)) for _ in range(boxes))
    return K.NoOverlapK(origins, lengths, draw(st.booleans()))


@st.composite
def _cumulative(draw):
    origins = draw(_name_lists)
    return K.Cumulative(origins, tuple(draw(_slots) for _ in origins),
                        tuple(draw(_limit_slots) for _ in origins), draw(_conditions))


@st.composite
def _cardinality(draw):
    """A cardinality over _NAMES whose counted values are small integers or
    variables, with occurs of each form; closed often leaves a variable on
    an uncounted value."""
    ids = tuple(draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4)))
    values = tuple(draw(st.lists(_slots, min_size=1, max_size=3)))
    occurs = st.one_of(st.integers(0, 3), st.sampled_from(_NAMES).map(V),
                       st.builds(lambda lo, width: Interval(lo, lo + width),
                                 st.integers(0, 2), st.integers(0, 2)))
    return K.Cardinality(ids, values, tuple(draw(occurs) for _ in values), draw(st.booleans()))


# An element's right-hand side: a value, a variable or a condition. Its
# lists are at most 4 long, so _ENVS puts an index inside them about half
# the time.
_element_rhs = st.one_of(st.integers(-3, 3), st.sampled_from(_NAMES).map(V), _conditions)


@st.composite
def _element_matrix(draw):
    rows, columns = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = draw(st.sampled_from([st.sampled_from(_NAMES), st.integers(-3, 3)]))
    cells = tuple(tuple(draw(cell) for _ in range(columns)) for _ in range(rows))
    return K.ElementMatrix(cells, draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES)),
                           draw(_element_rhs))


# One strategy per kind: the property draws the kind before the example, so
# that each kind gets the whole example budget.
_KINDS = {
    "sum": _sums(),
    "count": st.builds(K.Count, _operand_lists(), st.lists(_slots, min_size=1, max_size=3).map(
        tuple), _conditions),
    "nValues": st.builds(K.NValues, _operand_lists(), _conditions, _excepts),
    "allDifferent": st.builds(K.AllDifferent, _operand_lists(), _excepts),
    "allEqual": st.builds(K.AllEqual, _operand_lists()),
    "ordered": _ordered(),
    "minimum": st.builds(K.Minimum, _operand_lists(), _conditions),
    "maximum": st.builds(K.Maximum, _operand_lists(), _conditions),
    "noOverlap": _name_lists.flatmap(lambda origins: st.builds(
        K.NoOverlap1, st.just(origins), st.tuples(*[_slots] * len(origins)),
        st.booleans())),
    "noOverlapK": _no_overlap_k(),
    "cumulative": _cumulative(),
    "cardinality": _cardinality(),
    "element": st.builds(K.ElementVarList, _name_lists, st.sampled_from(_NAMES), _element_rhs),
    "elementValues": st.builds(K.ElementValList, st.lists(
        st.integers(-3, 3), min_size=1, max_size=4).map(tuple), st.sampled_from(_NAMES),
        _element_rhs),
    "elementMatrix": _element_matrix(),
    "circuit": st.builds(K.Circuit, _name_lists, st.one_of(st.none(), _slots)),
}
_ENVS = st.fixed_dictionaries({name: st.one_of(st.integers(-3, 3), st.sampled_from(
    [2**62, -(2**62), 2**63 - 1, -(2**63)])) for name in _NAMES})


def test_reference_element_and_circuit_predicates_on_chosen_cases():
    """An index outside the list, a right-hand side that is a value, a
    variable or a condition, and circuits with self-loops and a size, each
    against check_constraint; then every assignment of a 3-node and a
    4-node circuit, with and without sizes."""
    env = {"i": 1, "j": 0, "x": 5, "y": 7, "z": -1, "a": 1, "b": 2, "c": 0, "s": 1, "t": 2}
    le6 = cond("le", 6)
    for kind, holds in [
        (K.ElementVarList(("x", "y"), "i", 7), True),
        (K.ElementVarList(("x", "y"), "j", V("y")), False),
        (K.ElementVarList(("x", "y"), "z", le6), False),  # index -1
        (K.ElementVarList(("x",), "i", le6), False),  # index 1 of a list of 1
        (K.ElementValList((3, 4), "i", V("z")), False),
        (K.ElementValList((3, 4), "i", cond("gt", V("j"))), True),
        (K.ElementValList((3, 4), "x", 4), False),  # index 5
        (K.ElementMatrix((("x", "y"), ("y", "x")), "i", "i", 5), True),
        (K.ElementMatrix(((1, 2),), "i", "j", 1), False),  # row 1 of 1
        (K.ElementMatrix(((1, 2),), "j", "i", cond("in", IntSet((2, 9)))), True),
        (K.ElementMatrix(((1, 2),), "j", "y", 2), False),  # column 7 of 2
        (K.Circuit(("a", "b", "c")), True),  # 0 -> 1 -> 2 -> 0
        (K.Circuit(("a", "b", "c"), 3), True),
        (K.Circuit(("a", "b", "c"), V("i")), False),
        (K.Circuit(("a", "s", "c")), False),  # 1 -> 1, which 0 -> 1 enters
        (K.Circuit(("t", "s", "c")), True),  # 0 -> 2 -> 0, 1 -> 1 left out
        (K.Circuit(("t", "s", "c"), 2), True),
        (K.Circuit(("t", "s", "c"), V("b")), True),
        (K.Circuit(("t", "s", "c"), 3), False),
        (K.Circuit(("j", "i")), False),  # every node left out
        (K.Circuit(("a", "y")), False),  # 1 -> 7
    ]:
        assert oracles.REFERENCE_PREDICATES[type(kind)](kind, env) is holds, kind
        assert check_constraint(kind, env) is holds, kind
    for n in (3, 4):
        ids = tuple(f"x{k}" for k in range(n))
        for size in (None, 2, n, V("s")):
            kind = K.Circuit(ids, size)
            for values in itertools.product(range(-1, n + 1), repeat=n):
                env = dict(zip(ids, values), s=3)
                assert oracles.REFERENCE_PREDICATES[K.Circuit](kind, env) is check_constraint(
                    kind, env), (size, values)


def _kind_outcome(check, kind, env):
    """The verdict, or the class of the error and, when it is the kind's own
    arithmetic that overflows, its message."""
    try:
        return check(kind, env)
    except EvalError as e:
        own = isinstance(e, Overflow) and str(e).split(":")[0] in (
            "sum", "sum term", "ordered", "noOverlap", "cumulative")
        return type(e), str(e) if own else None


@pytest.mark.parametrize("name", sorted(_KINDS))
@settings(max_examples=400, deadline=None)
@given(data=st.data(), envs=st.lists(_ENVS, min_size=1, max_size=3))
def test_reference_predicates_agree_with_check_constraint(name, data, envs):
    kind = data.draw(_KINDS[name])
    reference = oracles.REFERENCE_PREDICATES[type(kind)]
    # one kind, several assignments: later checks reuse what the first built
    for env in envs:
        assert _kind_outcome(check_constraint, kind, env) == _kind_outcome(reference, kind, env)
