"""Functional expression syntax and evaluation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from xcsp3core.errors import (
    ArityError,
    DivisionByZero,
    EvalError,
    ExprSyntaxError,
    NegativeExponent,
    Overflow,
    UnboundVariable,
    WhitespaceError,
)
from xcsp3core.expr import (
    ARITIES,
    IntConst,
    OpCall,
    SetLiteral,
    VarRef,
    compile_expr,
    eval_expr,
    free_vars,
    parse_expr,
    print_expr,
)


def ev(text, **env):
    return eval_expr(parse_expr(text), env)


def test_parse_atoms():
    assert parse_expr("42") == IntConst(42)
    assert parse_expr("-7") == IntConst(-7)
    assert parse_expr("x3") == VarRef("x3")


def test_parse_nested_call():
    e = parse_expr("le(add(mul(250,b),mul(200,c)),4000)")
    assert isinstance(e, OpCall) and e.op == "le"
    assert print_expr(e) == "le(add(mul(250,b),mul(200,c)),4000)"


def test_whitespace_inside_expression_rejected():
    with pytest.raises(WhitespaceError):
        parse_expr("add(x,y )")
    with pytest.raises(WhitespaceError):
        parse_expr("eq( x,y)")


def test_arity_checked():
    with pytest.raises(ArityError):
        parse_expr("neg(x,y)")
    with pytest.raises(ArityError):
        parse_expr("if(x,y)")
    with pytest.raises(ArityError):
        parse_expr("add(x)")


def test_malformed_rejected():
    for text in ("add(x,", "add(x,y))", "", "x y", "5..6", "eq(,x)"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(text)


def test_operator_names_are_not_variables():
    # an operator token without parentheses cannot denote a variable
    with pytest.raises(ExprSyntaxError):
        parse_expr("eq(add,2)")


# -- arithmetic semantics (division truncates toward zero, mod follows dividend) ----

def test_truncated_division():
    assert ev("div(7,2)") == 3
    assert ev("div(-7,2)") == -3
    assert ev("div(7,-2)") == -3
    assert ev("div(-7,-2)") == 3


def test_modulo_sign_follows_dividend():
    assert ev("mod(7,2)") == 1
    assert ev("mod(-7,2)") == -1
    assert ev("mod(7,-2)") == 1
    assert ev("mod(-7,-2)") == -1


@given(a=st.integers(-50, 50), b=st.integers(-50, 50).filter(lambda v: v != 0))
def test_div_mod_reconstruct(a, b):
    q = ev("div(a,b)", a=a, b=b)
    r = ev("mod(a,b)", a=a, b=b)
    assert q * b + r == a
    assert abs(r) < abs(b)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ev("div(1,0)")
    with pytest.raises(DivisionByZero):
        ev("mod(1,0)")


INT_MIN, INT_MAX = -(2**63), 2**63 - 1


def test_div_overflow_is_checked():
    # the one quotient of two int64 values that is not an int64
    with pytest.raises(Overflow):
        ev("div(-9223372036854775808,-1)")
    with pytest.raises(Overflow):
        ev("div(x,-1)", x=INT_MIN)
    assert ev("div(x,1)", x=INT_MIN) == INT_MIN
    assert ev("mod(x,-1)", x=INT_MIN) == 0


def test_pow_edges():
    assert ev("pow(2,10)") == 1024
    assert ev("pow(0,0)") == 1
    with pytest.raises(NegativeExponent):
        ev("pow(2,-1)")
    with pytest.raises(Overflow):
        ev("pow(10,50)")


def test_dist_abs_min_max():
    assert ev("dist(3,-4)") == 7
    assert ev("abs(-9)") == 9
    assert ev("min(3,1,2)") == 1
    assert ev("max(3,1,2)") == 3


# -- boolean semantics ---------------------------------------------------------------

def test_relational_and_logic():
    assert ev("and(le(1,2),gt(3,2))") == 1
    assert ev("or(eq(1,2),eq(2,2))") == 1
    assert ev("not(eq(1,2))") == 1
    assert ev("imp(eq(1,2),eq(3,4))") == 1
    assert ev("xor(eq(1,1),eq(2,2),eq(3,3))") == 1  # odd number of true terms
    assert ev("iff(eq(1,2),eq(3,4))") == 1          # all terms agree


def test_nary_eq_means_all_equal():
    assert ev("eq(2,2,2)") == 1
    assert ev("eq(2,2,3)") == 0


def test_if_branches():
    assert ev("if(le(1,2),10,div(1,0))") == 10  # untaken branch is not evaluated
    assert ev("if(le(2,1),10,20)") == 20


def test_membership_and_sets():
    assert ev("in(3,set(1,3,5))") == 1
    assert ev("in(2,set(1,3,5))") == 0
    assert ev("in(2,set())") == 0


def test_boolean_results_are_ints():
    # boolean operators value or(...) at 0/1 so arithmetic can consume them
    assert ev("add(lt(1,2),lt(2,1))") == 1


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        ev("add(x,1)")


def test_every_operand_is_evaluated():
    # and/or/imp do not short-circuit; only if() skips a branch
    for text in ("and(0,div(1,0))", "or(1,div(1,0))", "imp(0,div(1,0))"):
        with pytest.raises(DivisionByZero):
            ev(text)


def test_stray_leaves_fail_when_evaluated_not_when_compiled():
    evaluate = compile_expr(OpCall("add", (IntConst(1), SetLiteral((1, 2)))))
    with pytest.raises(EvalError):
        evaluate({})


def test_compiled_expression_is_reusable():
    evaluate = compile_expr(parse_expr("le(add(x,y),3)"))
    assert [evaluate({"x": x, "y": 1}) for x in range(4)] == [1, 1, 1, 0]


def test_free_vars_order():
    assert free_vars(parse_expr("add(b,mul(a,b),c)")) == ["b", "a", "c"]


# -- round trip ----------------------------------------------------------------------

_leaf = st.one_of(
    st.integers(-100, 100).map(IntConst),
    st.sampled_from(["x", "y", "z", "w0"]).map(VarRef),
)


def _calls(children):
    binary = st.tuples(children, children)
    return st.one_of(
        st.tuples(st.sampled_from(["add", "mul", "min", "max"]),
                  st.lists(children, min_size=2, max_size=3)).map(
            lambda t: OpCall(t[0], tuple(t[1]))),
        st.tuples(st.sampled_from(["sub", "div", "mod", "lt", "le", "eq", "ne"]),
                  binary).map(lambda t: OpCall(t[0], t[1])),
        children.map(lambda c: OpCall("neg", (c,))),
    )


_exprs = st.recursive(_leaf, _calls, max_leaves=12)


@given(_exprs)
def test_print_parse_round_trip(e):
    assert parse_expr(print_expr(e)) == e


@given(_exprs, st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5))
def test_eval_total_or_flagged(e, x, y, z, w0):
    # evaluation either yields an int64 or raises a typed evaluation error
    env = {"x": x, "y": y, "z": z, "w0": w0}
    try:
        value = eval_expr(e, env)
    except (DivisionByZero, Overflow, NegativeExponent):
        return
    assert isinstance(value, int)
    assert -(2**63) <= value < 2**63


@given(a=st.integers(0, 1), b=st.integers(0, 1))
def test_de_morgan(a, b):
    env = {"x": a, "y": b}
    lhs = eval_expr(parse_expr("not(and(eq(x,1),eq(y,1)))"), env)
    rhs = eval_expr(parse_expr("or(not(eq(x,1)),not(eq(y,1)))"), env)
    assert lhs == rhs


# -- compiled evaluation against the reference tree-walker ----------------------------

# Mostly small values, where operators differ from each other, then the
# int64 edges and any int64; a tenth of the leaves fail when evaluated.
_small = st.integers(-3, 3)
_ints = st.one_of(
    st.sampled_from([-1, 0, 1]), _small, _small,
    st.sampled_from([INT_MIN, INT_MIN + 1, INT_MAX - 1, INT_MAX]),
    st.integers(INT_MIN, INT_MAX),
)
_stray = st.sampled_from([VarRef("unbound"), SetLiteral((1, 2))])
_any_leaf = st.one_of(*[_ints.map(IntConst)] * 5,
                      *[st.sampled_from(["x", "y", "z"]).map(VarRef)] * 4, _stray)


def _call(op, args, members):
    if op == "in":
        return OpCall(op, (args[0], SetLiteral(tuple(members))))
    lo, hi = ARITIES[op]
    n = min(max(len(args), lo), hi or len(args))
    return OpCall(op, tuple((args * 2)[:n]))  # if() may repeat an operand


def _any_call(children):
    return st.builds(_call, st.sampled_from(sorted(ARITIES)),
                     st.lists(children, min_size=2, max_size=4),
                     st.lists(_ints, max_size=3))


def _outcome(evaluate):
    try:
        value = evaluate()
    except EvalError as exc:
        return type(exc)
    assert type(value) is int
    return value


@settings(max_examples=400)
@given(st.recursive(_any_leaf, _any_call, max_leaves=8),
       st.fixed_dictionaries({"x": _ints, "y": _ints, "z": _ints}))
def test_compiled_agrees_with_reference(e, env):
    # the same value or the same exception class, on every tree
    compiled = _outcome(lambda: compile_expr(e)(env))
    assert compiled == _outcome(lambda: oracles.reference_eval(e, env))


_EDGES = [INT_MIN, INT_MIN + 1, -2, -1, 0, 1, 2, 3, INT_MAX]


@pytest.mark.parametrize("op", sorted(set(ARITIES) - {"in", "if"}))
def test_each_operator_agrees_with_reference_on_edge_operands(op):
    # every operand tuple over _EDGES, at the least arity and one more
    lo, hi = ARITIES[op]
    for n in range(lo, (lo + 1 if hi is None else hi) + 1):
        for values in itertools.product(_EDGES, repeat=n):
            e = OpCall(op, tuple(map(IntConst, values)))
            compiled = _outcome(lambda: compile_expr(e)({}))
            assert compiled == _outcome(lambda: oracles.reference_eval(e, {})), e
