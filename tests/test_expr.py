"""Functional expression syntax and evaluation."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from xcsp3core import expr, parser
from xcsp3core.errors import (
    INT_MAX,
    INT_MIN,
    DivisionByZero,
    EvalError,
    NegativeExponent,
    Overflow,
    ParseError,
    UnboundVariable,
)
from xcsp3core.expr import (
    ARITIES,
    MAX_EXPR_DEPTH,
    IntConst,
    OpCall,
    SetLiteral,
    VarRef,
    bounded_shape,
    builder,
    compile_expr,
    free_vars,
    operand_leaf,
    parse_expr,
    print_expr,
)
from xcsp3core.parser import parse_string


def ev(text, **env):
    return compile_expr(parse_expr(text))(env)


def test_parse_atoms():
    assert parse_expr("42") == IntConst(42)
    assert parse_expr("-7") == IntConst(-7)
    assert parse_expr("x3") == VarRef("x3")


def test_parse_nested_call():
    e = parse_expr("le(add(mul(250,b),mul(200,c)),4000)")
    assert isinstance(e, OpCall) and e.op == "le"
    assert print_expr(e) == "le(add(mul(250,b),mul(200,c)),4000)"


def test_whitespace_inside_expression_rejected():
    with pytest.raises(ParseError) as err:
        parse_expr("add(x,y )")
    assert err.value.rule == "expression-whitespace"
    with pytest.raises(ParseError) as err:
        parse_expr("eq( x,y)")
    assert err.value.rule == "expression-whitespace"


def test_arity_checked():
    with pytest.raises(ParseError) as err:
        parse_expr("neg(x,y)")
    assert err.value.rule == "operator-arity"
    with pytest.raises(ParseError) as err:
        parse_expr("if(x,y)")
    assert err.value.rule == "operator-arity"
    with pytest.raises(ParseError) as err:
        parse_expr("add(x)")
    assert err.value.rule == "operator-arity"


def test_malformed_rejected():
    for text, rule in (("add(x,", "expression-syntax"), ("add(x,y))", "expression-syntax"),
                       ("", "expression-syntax"), ("x y", "expression-whitespace"),
                       ("5..6", "expression-syntax"), ("eq(,x)", "expression-syntax")):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.rule == rule


def test_operator_names_are_not_variables():
    # an operator token without parentheses cannot denote a variable
    with pytest.raises(ParseError) as err:
        parse_expr("eq(add,2)")
    assert err.value.rule == "expression-syntax"


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


# -- building a tree again -------------------------------------------------------------

@pytest.mark.parametrize("text", ["eq(x[%0],1)", "eq(%0[1],1)", "eq(%1x,1)", "in(x,set(%0))",
                                  "in(x,%0)", "%0(x,1)", "eq(%,1)", "eq(%...,1)", "eq(%0,%a)",
                                  "ne(%0,add(%12,x))", "%3"])
def test_the_grammar_reads_no_parameter(text):
    with pytest.raises(ParseError):
        parse_expr(text)


@pytest.mark.parametrize("token,leaf", [
    ("x", VarRef("x")), ("x[3][0]", VarRef("x[3][0]")), ("x[03]", VarRef("x[03]")),
    ("w_0", VarRef("w_0")), ("0", IntConst(0)), ("-7", IntConst(-7)), ("+5", IntConst(5)),
    ("007", IntConst(7)), ("123456789012345678", IntConst(123456789012345678)),
    ("1234567890123456789", None), ("add", None), ("others", None), ("add[1]", None),
    ("x(", None), ("x[0]y", None), ("x[]", None), ("%0", None), ("add(x,1)", None),
    ("set(1)", None), ("3x", None), ("", None),
])
def test_operand_leaf(token, leaf):
    assert operand_leaf(token) == leaf


def _set_members(tree):
    """Whether each operand leaf of tree, in text order, is a set member."""
    if type(tree) is OpCall:
        return [member for arg in tree.args for member in _set_members(arg)]
    if type(tree) is SetLiteral:
        return [True] * len(tree.values)
    return [False]


_trees = st.recursive(_leaf, lambda children: st.one_of(_calls(children), st.builds(
    lambda e, values: OpCall("in", (e, SetLiteral(tuple(values)))),
    children, st.lists(st.integers(-9, 9), max_size=3))), max_leaves=12)


@given(_trees, st.data())
def test_building_reads_as_the_text_with_the_slots_substituted(tree, data):
    members = _set_members(tree)
    slots = sorted(data.draw(st.sets(st.integers(0, len(members) - 1))))
    tokens = data.draw(st.lists(st.sampled_from(["x", "y", "x[3]", "0", "-7", "+5", "0012"]),
                                min_size=len(slots), max_size=len(slots)))
    parts = parser._LEAF_RE.split(print_expr(tree))
    for slot, token in zip(slots, tokens):
        parts[2 * slot + 1] = token
    substituted = "".join(parts)
    leaves = [operand_leaf(token) for token in tokens]
    build = builder(tree, slots)
    if any(members[slot] and type(leaf) is not IntConst for slot, leaf in zip(slots, leaves)):
        with pytest.raises(TypeError):
            build(leaves)
        with pytest.raises(ParseError):
            parse_expr(substituted)
    else:
        assert build(leaves) == parse_expr(substituted)
    assert builder(tree, [])([]) is tree


@given(_exprs, st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5))
def test_eval_total_or_flagged(e, x, y, z, w0):
    # evaluation either yields an int64 or raises a typed evaluation error
    env = {"x": x, "y": y, "z": z, "w0": w0}
    try:
        value = compile_expr(e)(env)
    except (DivisionByZero, Overflow, NegativeExponent):
        return
    assert isinstance(value, int)
    assert -(2**63) <= value < 2**63


@given(a=st.integers(0, 1), b=st.integers(0, 1))
def test_de_morgan(a, b):
    env = {"x": a, "y": b}
    lhs = ev("not(and(eq(x,1),eq(y,1)))", **env)
    rhs = ev("or(not(eq(x,1)),not(eq(y,1)))", **env)
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
    # any operator; if() and in() over any operands; an operator whose
    # operands repeat one subtree, often a variable
    return st.one_of(
        st.builds(_call, st.sampled_from(sorted(ARITIES)),
                  st.lists(children, min_size=2, max_size=4),
                  st.lists(_ints, max_size=3)),
        st.builds(lambda *args: OpCall("if", args), children, children, children),
        st.builds(_call, st.just("in"), st.lists(children, min_size=1, max_size=1),
                  st.lists(_ints, max_size=3)),
        st.builds(lambda op, c, n: _call(op, [c] * n, []),
                  st.sampled_from(sorted(set(ARITIES) - {"in"})), children,
                  st.integers(2, 3)),
    )


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


# -- generated evaluators -------------------------------------------------------------


def _agree(e, env):
    """The compiled outcome, after checking it against the reference's."""
    compiled = _outcome(lambda: compile_expr(e)(env))
    assert compiled == _outcome(lambda: oracles.reference_eval(e, env))
    return compiled


def _nested_ifs(depth):
    """depth if() calls, each with div(1,0) as the branch it does not take at
    x >= 0, taking its then branch and its else branch in turn."""
    text = "x"
    for k in range(depth):
        text = (f"if(ge(x,0),{text},div(1,0))" if k % 2 else
                f"if(lt(x,0),div(1,0),{text})")
    return text


def test_generated_code_holds_expressions_at_the_depth_limit():
    ifs = parse_expr(_nested_ifs(MAX_EXPR_DEPTH - 1))
    assert _agree(ifs, {"x": 7}) == 7
    assert _agree(ifs, {"x": -1}) is DivisionByZero
    negs = parse_expr("neg(" * (MAX_EXPR_DEPTH - 1) + "x" + ")" * (MAX_EXPR_DEPTH - 1))
    assert _agree(negs, {"x": 5}) == -5
    assert _agree(negs, {"x": INT_MIN}) is Overflow
    assert _agree(negs, {}) is UnboundVariable
    wide = parse_expr("add(" + ",".join(f"x,{k}" for k in range(2500)) + ")")
    assert len(wide.args) == 5000
    assert _agree(wide, {"x": 1}) == 2500 + sum(range(2500))
    assert _agree(wide, {"x": INT_MAX - 1}) is Overflow


def test_one_group_generates_one_shape(monkeypatch):
    monkeypatch.setattr(expr, "_FACTORIES", {})
    args = "".join(f"<args> x[{k}] x[{k + 1}] {k % 7 - 3} </args>" for k in range(1000))
    inst = parse_string(
        '<instance format="XCSP3" type="CSP"><variables><array id="x" size="[1001]">'
        "0..9 </array></variables><constraints><group><intension> le(add(%0,%1),%2) "
        f"</intension>{args}</group></constraints></instance>")
    assert expr._FACTORIES == {}  # parsing generates nothing
    env = {f"x[{k}]": k % 5 for k in range(1001)}
    for posted in inst.constraints:
        (evaluate, _), = posted.kind.compiled
        assert evaluate(env) == oracles.reference_eval(posted.kind.function, env)
    assert len(expr._FACTORIES) == 1
    # each member reads its own cells
    del env["x[500]"]
    outcomes = [_outcome(lambda: posted.kind.compiled[0][0](env))
                for posted in inst.constraints]
    assert [k for k, o in enumerate(outcomes) if o is UnboundVariable] == [499, 500]


def test_import_and_parse_generate_nothing():
    fixture = str(Path(__file__).parent / "fixtures" / "group_g.xml")
    code = ("import xcsp3core, xcsp3core.cli; from xcsp3core import expr; "
            f"xcsp3core.parse_file({fixture!r}); print(len(expr._FACTORIES))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "0"


def test_operator_text_is_only_a_key(monkeypatch):
    ran = []
    monkeypatch.setattr(os, "system", lambda command: ran.append(command) or 0)
    op = "__import__('os').system('false')"
    e = OpCall(op, (VarRef("x"), IntConst(1)))
    assert "system" not in expr._Writer().source(e)
    with pytest.raises(EvalError) as caught:
        compile_expr(e)({"x": 1})
    assert str(caught.value) == f"unhandled operator {op!r}"
    assert _agree(e, {"x": 1}) is EvalError
    assert _agree(e, {}) is UnboundVariable  # its operands first, as the reference
    assert ran == []


def test_constants_never_enter_the_source():
    e = parse_expr("le(add(secretvar,987654321),if(in(other,set(-123456789,31337)),"
                   "mul(other,55555),dist(secretvar,-424242)))")
    source = expr._Writer().source(e)
    for text in ("secretvar", "other", "987654321", "123456789", "31337", "55555",
                 "424242", "set"):
        assert text not in source
    env = {"secretvar": 3, "other": 31337}
    assert _agree(e, env) == 1 and _agree(e, {**env, "other": 2}) == 0


QUOTED_IDS = ['a"b', "c'd", "e\nf", "{g}", "h\\", "'''", '"""', "}{", "x) or (1"]


def test_ids_are_looked_up_verbatim():
    e = OpCall("add", tuple(map(VarRef, QUOTED_IDS)))
    env = {vid: 2 ** k for k, vid in enumerate(QUOTED_IDS)}
    assert _agree(e, env) == 2 ** len(QUOTED_IDS) - 1
    assert not any(vid in expr._Writer().source(e) for vid in QUOTED_IDS)
    for vid in QUOTED_IDS:
        with pytest.raises(UnboundVariable) as caught:
            compile_expr(e)({k: v for k, v in env.items() if k != vid})
        assert caught.value.args == (vid,)


def test_results_stay_right_past_the_cache_bound(monkeypatch):
    monkeypatch.setattr(expr, "_FACTORIES", {})
    monkeypatch.setattr(expr, "MAX_SHAPES", 4)
    texts = [f"add({'neg(' * k}x{')' * k},{k})" for k in range(10)] + [
        "le(x,3)", "if(x,div(9,x),mod(x,0))", "in(x,set(1,2))", "eq(x,x,x)"]
    env = {"x": 2}
    early = [(compile_expr(parse_expr(text)), text) for text in texts]
    assert len(expr._FACTORIES) == 4
    for evaluate, text in early:  # evaluators of dropped shapes keep their code
        assert evaluate(env) == oracles.reference_eval(parse_expr(text), env)
    for text in reversed(texts):  # and a dropped shape is generated again
        assert _agree(parse_expr(text), env) == oracles.reference_eval(parse_expr(text), env)
    assert len(expr._FACTORIES) == 4


# -- bounded expressions, written inline ---------------------------------------------

# the written functions, by shape key and reads, as a caller of
# Bounded.write keeps the code it writes
_WRITTEN = {}


def _written(e, bounds, local, test=False):
    """e's code under bounds as Bounded.write writes it into a caller's,
    run as a function: evaluate(env), whether the code may raise, and the
    source it was written into. With test, evaluate gives the expression
    that write gives for a caller that tests the value: true where it is 0.

    With local, each variable is held in a local named after its position,
    as the search's loop holds the variables its block assigns, and every
    read outside an if() branch reads that local; without, every read
    reads env. Functions of one shape key, reads and locals share a factory.
    """
    shape = bounded_shape(e, bounds)
    names = {vid: f"v{k}" for k, vid in enumerate(dict.fromkeys(shape.ids))} if local else {}
    params, body, value, functions = shape.write("0", names, test)
    source = "\n".join([f"def _make({', '.join(params)}):"]
                       + [f"    {line}" for line in functions]
                       + [f"    def evaluate({', '.join(['env', *names.values()])}):"]
                       + [f"        {line}" for line in body]
                       + [f"        return {value}", "    return evaluate", ""])
    reads = shape.reads(names)
    make = expr.generated(_WRITTEN, 64, (shape.key, reads, tuple(names.values()), test),
                          lambda: source, expr._NAMESPACE, "<written expression>")
    function = make(*shape.consts)
    return lambda env: function(env, *map(env.__getitem__, names)), shape.raises, source


def _detailed(evaluate):
    """The value, or the class and message of the evaluation error."""
    try:
        return evaluate()
    except EvalError as exc:
        return type(exc), str(exc)


def _around(value):
    """A (min, max) holding value: tight, small, reaching an int64 end, or any."""
    below = st.one_of(st.just(value), st.integers(max(INT_MIN, value - 3), value),
                      st.just(INT_MIN), st.integers(INT_MIN, value))
    above = st.one_of(st.just(value), st.integers(value, min(INT_MAX, value + 3)),
                      st.just(INT_MAX), st.integers(value, INT_MAX))
    return st.tuples(below, above)


@settings(max_examples=400)
@given(st.recursive(_any_leaf, _any_call, max_leaves=8),
       st.fixed_dictionaries({"x": _ints, "y": _ints, "z": _ints, "unbound": _ints}),
       st.data())
def test_bounded_agrees_with_compiled_and_reference(e, env, data):
    # under any bounds that hold env: the same value, or the same error and message
    bounds = {vid: data.draw(_around(value), label=vid) for vid, value in env.items()}
    for local in (False, True):
        evaluate, raises, _ = _written(e, bounds, local)
        bounded = _detailed(lambda: evaluate(env))
        assert bounded == _detailed(lambda: compile_expr(e)(env))
        reference = _outcome(lambda: oracles.reference_eval(e, env))
        assert (bounded[0] if isinstance(bounded, tuple) else bounded) == reference
        if not raises:  # proved unable to raise: no value in bounds makes it raise
            assert not isinstance(bounded, tuple)
        # written as a test: true exactly where the value is 0, or the same error
        fails = _detailed(lambda: _written(e, bounds, local, test=True)[0](env))
        assert fails == (bounded if isinstance(bounded, tuple) else bounded == 0)


# operand ranges: small ones, every value of which is tried, and ranges at
# and across the int64 ends, tried at their ends, near them and around 0
_SPANS = [(-3, 3), (0, 4), (-4, -1), (2, 2), (0, 0), (-7, 5), (INT_MIN, INT_MIN + 2),
          (INT_MAX - 2, INT_MAX), (INT_MIN, INT_MAX), (-1, INT_MAX), (INT_MIN, 1)]
# the value before the range test of the operators that have one
_RAW = {"neg": lambda a: -a, "abs": abs, "sqr": lambda a: a * a,
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
        "dist": lambda a, b: abs(a - b)}


def _points(span):
    lo, hi = span
    if hi - lo <= 12:
        return range(lo, hi + 1)
    return sorted({v for v in (lo, lo + 1, lo + 2, -2, -1, 0, 1, 2, hi - 2, hi - 1, hi)
                   if lo <= v <= hi})


@pytest.mark.parametrize("form,op", sorted(expr._LEAVE))
def test_each_span_holds_every_value_of_its_operator(form, op):
    n = {"unary": 1, "binary": 2, "in": 1, "?": 2}.get(form, 3)
    span_of = expr._LEAVE[form, op][0]
    names = ["x", "y", "z"][:n]
    e = (OpCall(op, (VarRef("x"), SetLiteral((0, 5)))) if form == "in"
         else OpCall(op, tuple(map(VarRef, names))))
    evaluate = compile_expr(e)
    for spans in itertools.product(_SPANS, repeat=n):
        lo, hi = span_of(*spans) if n < 3 else span_of(list(spans))
        for values in itertools.product(*map(_points, spans)):
            if op in _RAW and form in ("unary", "binary"):
                value = _RAW[op](*values)
            else:
                value = _outcome(lambda: evaluate(dict(zip(names, values))))
                if not isinstance(value, int):
                    continue
            assert lo <= value <= hi, (spans, values)


def test_bounded_keeps_a_range_test_the_bounds_cannot_rule_out():
    e = parse_expr("eq(add(x,y),z)")
    narrow = {"x": (0, 9), "y": (0, 9), "z": (0, 1)}
    wide = {**narrow, "x": (0, 2**62), "y": (0, 2**62)}
    assert expr._shape(e, narrow)[2:] == ([False], False)
    assert expr._shape(e, wide)[2:] == ([True], True)
    for local in (False, True):
        assert "check_int64" not in _written(e, narrow, local)[2]
        evaluate, raises, source = _written(e, wide, local)
        assert raises and "check_int64" in source
        assert evaluate({"x": 2**62 - 1, "y": 2**62, "z": 0}) == 0
        with pytest.raises(Overflow) as caught:
            evaluate({"x": 2**62, "y": 2**62, "z": 0})
        assert str(caught.value) == f"add: {2**63} leaves the 64-bit integer range"
        with pytest.raises(Overflow) as same:
            compile_expr(e)({"x": 2**62, "y": 2**62, "z": 0})
        assert str(same.value) == str(caught.value)


# a (min, max) span: small, or reaching an int64 end
_sign_spans = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(0, 6)).map(lambda p: (p[0], p[0] + p[1])),
    st.sampled_from([(0, INT_MAX), (1, INT_MAX), (INT_MIN, 0), (INT_MIN, -1),
                     (INT_MIN, INT_MAX), (INT_MAX - 2, INT_MAX)]))


@settings(max_examples=400)
@given(op=st.sampled_from(["div", "mod"]), dividend=_sign_spans, divisor=_sign_spans,
       nested=st.booleans(), data=st.data())
def test_div_and_mod_are_inlined_exactly_where_the_spans_prove_their_signs(
        op, dividend, divisor, nested, data):
    # mod(add(x,z),y) as a slide's chain writes it, z adding nothing
    x = OpCall("add", (VarRef("x"), VarRef("z"))) if nested else VarRef("x")
    e = OpCall("eq", (OpCall(op, (x, VarRef("y"))), VarRef("z")))
    bounds = {"x": dividend, "y": divisor, "z": (0, 0)}
    proved = dividend[0] >= 0 and divisor[0] >= 1
    _, _, tests, raises = expr._shape(e, bounds)
    assert tests[-1] is not proved and raises is not proved
    written = [_written(e, bounds, local) for local in (False, True)]
    assert all((f"_trunc_{op}" in source) is not proved for _, _, source in written)
    for _ in range(5):
        env = {"x": data.draw(st.integers(*dividend)), "y": data.draw(st.integers(*divisor)),
               "z": 0}
        for evaluate, _, _ in written:
            bounded = _detailed(lambda: evaluate(env))
            assert bounded == _detailed(lambda: compile_expr(e)(env))
            assert bounded == _detailed(lambda: oracles.reference_eval(e, env))

@pytest.mark.parametrize("text,raises", [
    ("x", False), ("3", False), ("le(add(x,y),add(z,3))", False),
    ("dist(mul(x,y),sqr(neg(z)))", False), ("if(x,min(y,z),abs(x))", False),
    ("in(sub(x,y),set(1,2))", False), ("div(x,y)", True), ("mod(x,3)", True),
    ("mod(z,3)", False), ("div(z,add(x,6))", False), ("div(z,add(x,5))", True),
    ("pow(x,2)", True), ("add(x,y,z)", True), ("mul(x,y,z)", True),
])
def test_bounded_says_when_it_cannot_raise(text, raises):
    bounds = {"x": (-5, 5), "y": (-5, 5), "z": (0, 9)}
    for local in (False, True):
        assert _written(parse_expr(text), bounds, local)[1] is raises


def test_bounded_shares_the_cache_and_writes_source_once(monkeypatch):
    monkeypatch.setattr(expr, "_FACTORIES", {})
    monkeypatch.setattr(sys.modules[__name__], "_WRITTEN", {})
    compiled = []
    monkeypatch.setattr(expr, "compile", lambda source, filename, mode: compiled.append(
        filename) or compile(source, filename, mode), raising=False)
    bounds = {f"x[{k}]": (0, 9) for k in range(4)}
    texts = [f"le(add(x[{k}],x[{k + 1}]),{k})" for k in range(3)]
    for local in (False, True):
        assert [_written(parse_expr(text), bounds, local)[0](dict.fromkeys(bounds, 1))
                for text in texts] == [0, 0, 1]
    compile_expr(parse_expr(texts[0]))
    # one bounded shape for each way of reading, one unbounded, and one for
    # a surviving range test; the bounded ones make no factory of compile_expr's
    _written(parse_expr(texts[0]), {**bounds, "x[0]": (0, INT_MAX)}, False)
    assert len(_WRITTEN) == 3 and len(expr._FACTORIES) == 1
    assert sorted(compiled) == ["<expression shape>"] + ["<written expression>"] * 3


def test_bounded_source_holds_no_input_text():
    e = OpCall("le", (OpCall("add", tuple(map(VarRef, QUOTED_IDS))), IntConst(987654321)))
    bounds = {vid: (0, 2**k) for k, vid in enumerate(QUOTED_IDS)}
    env = {vid: 2 ** k for k, vid in enumerate(QUOTED_IDS)}
    for local in (False, True):
        evaluate, _, source = _written(e, bounds, local)
        assert not any(vid in source for vid in QUOTED_IDS) and "987654321" not in source
        assert evaluate(env) == 1


def test_a_tested_comparison_is_written_in_place():
    # eq(add(x,y),z) as a check: add's value against z, no 0/1 stored
    e = parse_expr("eq(add(x,y),z)")
    bounds = {"x": (0, 9), "y": (0, 9), "z": (0, 1)}
    evaluate, _, source = _written(e, bounds, True, test=True)
    assert "return t0_0 != v2" in source and "else 0" not in source
    assert [evaluate({"x": 1, "y": 0, "z": z}) for z in (0, 1)] == [True, False]
    # any other top operator is its value, tested
    assert "return not t0_0" in _written(parse_expr("and(x,y)"), bounds, True, test=True)[2]
