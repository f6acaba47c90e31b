"""Exhaustive search: statuses, counts against the naive filter, optimization."""

import ast
import itertools
import json
import random
import re
import time
from pathlib import Path
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, fixture_path
from xcsp3core import expr, solver
from xcsp3core import kinds as K
from xcsp3core.checker import (_CHECKERS, check_constraint, check_solution, eval_objective,
                               partial_violated)
from xcsp3core.errors import (INT_MAX, INT_MIN, DivisionByZero, EvalError, Overflow, ParseError,
                              UnforcedVariable, XcspError)
from xcsp3core.expr import IntConst, OpCall, VarRef, bounded_shape
from xcsp3core.model import (CondOp, Condition, Domain, Instance, Instantiation, PostedConstraint,
                             Variable)
from xcsp3core.parser import parse_file, parse_string
from xcsp3core.solver import (
    SearchConfig,
    _Search,
    Status,
    VarOrder,
    count_solutions,
    solve,
    staged_checks,
)


def test_toy_network_is_unsatisfiable():
    inst = parse_file(fixture_path("toy_network.xml"))
    result = solve(inst)
    assert result.status is Status.UNSATISFIABLE
    assert result.count == 0 and result.best is None
    # the naive filter scans all 8 assignments and keeps none
    assert oracles.naive_solutions(inst) == []


def test_count_matches_factorial_enumeration():
    text = ('<instance format="XCSP3" type="CSP"><variables>'
            '<array id="x" size="[3]"> 1..3 </array></variables>'
            "<constraints><allDifferent> x[] </allDifferent></constraints>"
            "</instance>")
    inst = parse_string(text)
    result = count_solutions(inst)
    assert result.status is Status.SATISFIABLE
    assert result.count == 6
    assert result.solutions == ()  # counting drops the assignments


def test_solutions_are_instantiations():
    text = ('<instance format="XCSP3" type="CSP"><variables>'
            '<var id="a"> 0 1 </var><var id="b"> 0 1 </var></variables>'
            "<constraints><intension> le(a,b) </intension></constraints>"
            "</instance>")
    inst = parse_string(text)
    result = solve(inst)
    assert result.count == 3
    pairs = {(s["a"], s["b"]) for s in result.solutions}
    assert pairs == {(0, 0), (0, 1), (1, 1)}
    for sol in result.solutions:
        assert check_solution(inst, sol).satisfied


@pytest.mark.parametrize("name", ["cake_intension.xml", "cake_groups.xml",
                                  "cake_sums.xml"])
def test_cake_optimum(name):
    inst = parse_file(fixture_path(name))
    result = solve(inst)
    assert result.status is Status.OPTIMUM
    assert result.best_cost == 1700
    assert result.best["b"] == 2 and result.best["c"] == 2


def test_unsatisfiable_objective_reports_no_best():
    text = ('<instance format="XCSP3" type="COP"><variables>'
            '<var id="x"> 0..5 </var></variables>'
            "<constraints><intension> gt(x,9) </intension></constraints>"
            "<objectives><minimize> x </minimize></objectives></instance>")
    result = solve(parse_string(text))
    assert result.status is Status.UNSATISFIABLE
    assert result.best is None and result.best_cost is None


def test_max_solutions_stops_early():
    text = ('<instance format="XCSP3" type="CSP"><variables>'
            '<array id="x" size="[3]"> 0..9 </array></variables>'
            "<constraints><intension> le(x[0],x[1]) </intension></constraints>"
            "</instance>")
    inst = parse_string(text)
    result = solve(inst, SearchConfig(max_solutions=5))
    assert result.status is Status.SATISFIABLE
    assert result.count == 5 and len(result.solutions) == 5


BIG_SPACE = ('<instance format="XCSP3" type="CSP"><variables>'
             '<array id="x" size="[5]"> 0..9 </array></variables>'
             "<constraints><allDifferent> x[] </allDifferent></constraints>"
             "</instance>")


def test_node_limit_yields_limit_status():
    inst = parse_string(BIG_SPACE)
    result = count_solutions(inst, SearchConfig(node_limit=300))
    assert result.status is Status.LIMIT
    assert result.nodes == 300


@pytest.mark.parametrize("fixture,search,cfg", [
    ("queens_8.xml", count_solutions, SearchConfig()),
    ("queens_8.xml", solve, SearchConfig(max_solutions=1)),
    ("queens_8.xml", count_solutions, SearchConfig(time_limit=60.0)),
    ("cake_sums.xml", solve, SearchConfig()),
    ("coins_83.xml", solve, SearchConfig(time_limit=60.0)),
])
def test_node_limit_is_exact(fixture, search, cfg):
    inst = parse_file(fixture_path(fixture))
    full = search(inst, cfg)
    assert full.status is not Status.LIMIT
    at = search(inst, replace(cfg, node_limit=full.nodes))
    assert at == full
    below = search(inst, replace(cfg, node_limit=full.nodes - 1))
    assert (below.status, below.nodes) == (Status.LIMIT, full.nodes - 1)


@pytest.mark.parametrize("field,value", [
    ("max_solutions", 0), ("max_solutions", -3), ("node_limit", -1),
    ("time_limit", -0.5), ("time_limit", float("nan")),
])
def test_search_config_rejects_a_limit_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def test_time_limit_yields_limit_status():
    inst = parse_string(BIG_SPACE)
    result = count_solutions(inst, SearchConfig(time_limit=1e-9))
    assert result.status is Status.LIMIT


def test_the_time_limit_counts_the_building_of_the_search(monkeypatch):
    # building that outlasts the limit leaves no time for a node
    blocks = _Search._blocks

    def slow_blocks(self):
        time.sleep(0.05)
        return blocks(self)

    monkeypatch.setattr(_Search, "_blocks", slow_blocks)
    inst = parse_string(BIG_SPACE)
    for run in (solve, count_solutions):
        result = run(inst, SearchConfig(time_limit=0.01))
        assert (result.status, result.nodes) == (Status.LIMIT, 0)


def test_variable_order_does_not_change_the_count():
    text = ('<instance format="XCSP3" type="CSP"><variables>'
            '<var id="a"> 0..6 </var><var id="b"> 0 1 </var>'
            '<var id="c"> 0..3 </var></variables>'
            "<constraints><intension> eq(add(a,b),c) </intension></constraints>"
            "</instance>")
    inst = parse_string(text)
    declared = count_solutions(inst)
    smallest = count_solutions(inst, SearchConfig(var_order=VarOrder.SMALLEST_DOMAIN))
    assert declared.count == smallest.count
    with_solutions = solve(inst, SearchConfig(var_order=VarOrder.SMALLEST_DOMAIN))
    frozen = {tuple(sorted(s.items())) for s in with_solutions.solutions}
    assert frozen == {tuple(sorted(s.items())) for s in solve(inst).solutions}


DECISION_TEXT = ('<instance format="XCSP3" type="CSP"><variables>'
                 '<var id="x"> 0..4 </var><var id="y"> 0..9 </var></variables>'
                 "<constraints>{ctr}</constraints>"
                 "<annotations><decision> x </decision></annotations></instance>")


def test_restrict_to_decision_forces_dependents():
    inst = parse_string(DECISION_TEXT.format(ctr="<intension> eq(y,add(x,1)) </intension>"))
    full = count_solutions(inst)
    restricted = solve(inst, SearchConfig(restrict_to_decision=True))
    assert full.count == restricted.count == 5
    for sol in restricted.solutions:
        assert sol["y"] == sol["x"] + 1


def test_restrict_to_decision_rejects_unforced_variables():
    inst = parse_string(DECISION_TEXT.format(ctr="<intension> le(y,x) </intension>"))
    with pytest.raises(UnforcedVariable):
        solve(inst, SearchConfig(restrict_to_decision=True))


X_AND_UNDEFINED_Y = (Variable("x", Domain(((0, 1),))), Variable("y", None))


def test_a_constrained_variable_without_a_domain_is_not_searched():
    # the Instance is rejected as its document would be, before any search
    with pytest.raises(ParseError, match=re.escape(
            "constraint #0 involves undefined variable 'y' [rule: undefined-useful]")):
        Instance(X_AND_UNDEFINED_Y,
                 (PostedConstraint(K.Intension(OpCall("le", (VarRef("x"), VarRef("y"))))),))


def test_a_decision_variable_without_a_domain_is_not_searched():
    le = (PostedConstraint(K.Intension(OpCall("le", (VarRef("x"), IntConst(1))))),)
    with pytest.raises(ParseError, match=re.escape(
            "decision annotation involves undefined variable 'y' [rule: undefined-useful]")):
        Instance(X_AND_UNDEFINED_Y, le, decision=("x", "y"))
    # searched over every variable, y is neither branched on nor constrained
    inst = Instance(X_AND_UNDEFINED_Y, le, decision=("x",))
    assert [v.id for v in _Search(inst, SearchConfig(restrict_to_decision=True)).order] == ["x"]
    assert solve(inst).count == 2


def test_partial_check_pruning_is_transparent():
    inst = parse_string(BIG_SPACE)
    pruned = count_solutions(inst)
    plain = count_solutions(inst, SearchConfig(partial_checks=False))
    assert pruned.count == plain.count
    assert pruned.nodes <= plain.nodes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_count_agrees_with_naive_filter(seed):
    rng = random.Random(seed)
    inst = parse_string(oracles.random_instance_xml(rng))
    assert count_solutions(inst).count == oracles.naive_count(inst)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_optimum_agrees_with_naive_optimum(seed):
    inst = parse_string(oracles.random_cop_xml(random.Random(seed)))
    want = oracles.naive_optimum(inst)
    result = solve(inst)
    if want is None:
        assert (result.status, result.best) == (Status.UNSATISFIABLE, None)
    else:
        assert (result.status, result.best_cost) == (Status.OPTIMUM, want)
        assert oracles.naive_cost(inst.objective, dict(result.best)) == want


# -- the plan's staged checks -----------------------------------------------------


def _written_function(calls, env, named, vid=None, fail="return True", result="False"):
    """A function running the code of calls over env, as the loop writes
    them (solver._code) at the depth that assigns vid: vid is read as that
    depth's loop variable, every other variable from env. fail runs where a
    check fails; after the last call the function returns result."""
    local = {} if vid is None else {vid: "v"}
    # each depth apart: every state a stage leaves goes to its list
    listed = [("list", form not in ("d.", "last")) for form, _, _ in calls]
    params, code, functions = solver._code(calls, "", fail, local, listed, "dict(env)")
    scope = dict(solver._NAMESPACE)
    exec("\n".join([f"def _make({', '.join(['env', 'named', 'i', *params])}):"]
                   + [f"    {line}" for line in functions]
                   + ["    def run():"] + ["        v = env[i]"] * (vid is not None)
                   + [f"        {line}" for line in code]
                   + [f"        return {result}", "    return run"]), scope)
    return scope["_make"](env, named, vid, *solver._written(calls, local, listed)[1])


def _stages_by_depth(kind, order, domains, env):
    """The kind's stages for order, as (depth, check) pairs in depth order:
    each check its depth's stages written as the loop writes them, True at
    the first that fails, raising errors unnamed."""
    depth_of = {v: d for d, v in enumerate(order)}
    bounds = {v: (min(domains[v]), max(domains[v])) for v in order}
    stages = staged_checks(kind, depth_of, bounds)
    if stages is None:
        return None, depth_of
    by_depth = {}
    for depth, form, args in stages:
        by_depth.setdefault(depth, []).append((form, args, 0))
    return [(depth, _written_function(calls, env, lambda error, ci: error, order[depth]))
            for depth, calls in by_depth.items()], depth_of


_names = st.sampled_from(["a", "b", "c", "d"])
_operand = st.one_of(
    _names.map(VarRef),
    st.tuples(_names, st.integers(-2, 2)).map(
        lambda p: OpCall("add", (VarRef(p[0]), IntConst(p[1])))),
    st.integers(-3, 3).map(IntConst))
_domains = st.fixed_dictionaries(
    {v: st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True)
     for v in "abcd"})


@settings(max_examples=300, deadline=None)
@given(operands=st.lists(_operand, min_size=2, max_size=6),
       excepts=st.lists(st.integers(-3, 3), max_size=2, unique=True),
       domains=_domains, order=st.permutations("abcd"), data=st.data())
def test_staged_all_different_agrees_with_the_detector_at_every_prefix(
        operands, excepts, domains, order, data):
    kind = K.AllDifferent(tuple(operands), tuple(excepts))
    assume(kind.var_ids)  # without variables it is settled before search
    env = {}
    stages, depth_of = _stages_by_depth(kind, order, domains, env)
    if excepts:  # its detector and complete check serve it instead
        assert stages is None
        return
    stages = dict(stages)
    last = max(depth_of[v] for v in kind.var_ids)
    for depth, vid in enumerate(order[:last]):
        env[vid] = data.draw(st.sampled_from(domains[vid]))
        if vid not in kind.var_ids:
            continue  # the search checks a constraint only when it sets one of its variables
        staged = stages[depth]() if depth in stages else False
        assert staged == partial_violated(kind, env)
        if staged:
            break


_SUM_OPS = ["lt", "le", "ge", "gt", "eq", "ne"]


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.tuples(_names, st.integers(-3, 3)), min_size=1, max_size=5),
       op=st.sampled_from(_SUM_OPS), k=st.integers(-12, 12),
       domains=_domains, order=st.permutations("abcd"), data=st.data())
def test_staged_sum_never_prunes_a_prefix_that_extends_to_a_solution(
        terms, op, k, domains, order, data):
    kind = K.Sum(tuple(VarRef(v) for v, _ in terms), tuple(c for _, c in terms),
                 Condition(CondOp(op), k))
    env = {}
    stages, depth_of = _stages_by_depth(kind, order, domains, env)
    if op == "ne":
        assert stages is None
        return
    rest = sorted(kind.var_ids, key=depth_of.get)
    for depth, check in stages:
        for vid in order[:depth + 1]:
            env.setdefault(vid, data.draw(st.sampled_from(domains[vid])))
        open_ids = [v for v in rest if v not in env]
        extends = any(
            check_constraint(kind, {**env, **dict(zip(open_ids, values))})
            for values in itertools.product(*(domains[v] for v in open_ids)))
        violated = check()
        if not open_ids:  # the stage completing the scope gives the verdict
            assert (depth, violated) == (stages[-1][0], not extends)
        if violated:
            assert not extends
            break


def _costed_by_eval_objective(search, plan, depth_of):
    return "cost", (partial(eval_objective, search.objective),), None


def _fallback_search(monkeypatch, inst, cfg=SearchConfig()):
    """A search whose partial checks are the generic detectors alone.

    No constraint is staged, so each is checked by its complete check and
    its kind's detector, and every cost goes through eval_objective.
    """
    with monkeypatch.context() as m:
        m.setattr(solver, "_STAGED", {})
        m.setattr(_Search, "_cost", _costed_by_eval_objective)
        return _Search(inst, cfg)


def _complete_check_search(monkeypatch, inst, cfg=SearchConfig()):
    """A search with the same staged partial checks, finished by check_constraint.

    Each staged constraint's last stage, at the depth completing its scope,
    is replaced by check_constraint, and every cost goes through
    eval_objective: the plan as it was before the stages finished their own
    scopes, with the same pruning and so the same node count.
    """
    searches = []  # the search, once built: its env is read when a check runs

    def finished_by_check_constraint(build):
        def builder(kind, depth_of, bounds):
            stages = build(kind, depth_of, bounds)
            if stages is None:
                return None

            def complete():
                return not check_constraint(kind, searches[0].env, validate=False)

            last = stages[-1][0]
            return [stage for stage in stages if stage[0] != last] + [
                (last, "s", (complete,))]
        return builder

    with monkeypatch.context() as m:
        m.setattr(solver, "_STAGED", {kind: finished_by_check_constraint(build)
                                      for kind, build in solver._STAGED.items()})
        m.setattr(_Search, "_cost", _costed_by_eval_objective)
        searches.append(_Search(inst, cfg))
    return searches[0]


def _outcome(search):
    try:
        result = search.run()
    except XcspError as e:
        return type(e), str(e), search.nodes
    return result.status, result.count, result.nodes


def _full_outcome(search):
    """_outcome, with the best assignment and its cost."""
    try:
        result = search.run()
    except XcspError as e:
        return type(e), str(e), search.nodes
    best = None if result.best is None else dict(result.best)
    return result.status, result.count, best, result.best_cost, result.nodes


TWO_VARS = ('<instance format="XCSP3" type="CSP"><variables>'
            '<var id="x"> 0..2 </var><var id="y"> 0..2 </var></variables>'
            "<constraints>{}</constraints></instance>")


def test_staged_all_different_raises_where_the_detector_scan_does(monkeypatch):
    # y's value repeats x only at x's later operand, so div(6,y) is met first
    inst = parse_string(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
        '<var id="y"> 0..2 </var><var id="z"> 0..2 </var></variables><constraints>'
        '<allDifferent id="c"> y div(6,y) x z </allDifferent></constraints></instance>')
    staged = _outcome(_Search(inst, SearchConfig()))
    assert staged == (DivisionByZero, "c: div(6,0) at y=0 x=0", 2)
    assert staged == _outcome(_fallback_search(monkeypatch, inst))


def test_staged_all_different_stops_where_the_detector_scan_does(monkeypatch):
    # here y=x=0 repeats before div(6,y) is reached, so it is never evaluated
    inst = parse_string(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0 </var>'
        '<var id="y"> 0..2 </var><var id="z"> 9 </var></variables><constraints>'
        "<allDifferent> x y div(6,y) z </allDifferent></constraints></instance>")
    assert _outcome(_Search(inst, SearchConfig())) \
        == _outcome(_fallback_search(monkeypatch, inst)) == (Status.SATISFIABLE, 2, 6)


INELIGIBLE_SUMS = [
    "<sum><list> add(x,1) y </list><condition> (le,2) </condition></sum>",
    "<sum><list> x y </list><coeffs> y 1 </coeffs><condition> (le,2) </condition></sum>",
    "<sum><list> x y </list><condition> (ne,2) </condition></sum>",
    "<sum><list> x y </list><condition> (in,5..9) </condition></sum>",
    "<sum><list> x y </list><condition> (le,y) </condition></sum>",
    # twice 2^62 may leave int64, so the bounds are not used and y=2 overflows
    "<sum><list> x y </list><coeffs> 4611686018427387904 4611686018427387904 </coeffs>"
    "<condition> (le,0) </condition></sum>",
]


@pytest.mark.parametrize("body", INELIGIBLE_SUMS)
def test_sum_outside_the_bounded_shape_enumerates_as_before(monkeypatch, body):
    inst = parse_string(TWO_VARS.format(body))
    search = _Search(inst, SearchConfig())
    assert all(form in ("i", "c") for calls in search.plan for form, _, _ in calls)
    assert _outcome(search) == _outcome(_fallback_search(monkeypatch, inst))


def test_bounded_sum_prunes_and_keeps_the_count():
    inst = parse_string(TWO_VARS.format(
        "<sum><list> x y </list><coeffs> 3 1 </coeffs><condition> (ge,7) </condition></sum>"))
    bounded = count_solutions(inst)
    plain = count_solutions(inst, SearchConfig(partial_checks=False))
    assert bounded.count == plain.count == 2
    assert bounded.nodes < plain.nodes


def test_forced_variable_rebuilds_staged_state(monkeypatch):
    # y and z are forced; the allDifferent stage at y's depth also passes for
    # y=9 before the intension rejects it, so z=9 must be checked against y=x+1
    inst = parse_string(
        '<instance format="XCSP3" type="CSP"><variables>'
        '<var id="x"> 0..3 </var><var id="y"> 0..9 </var><var id="z"> 0..9 </var>'
        '<var id="w"> 0..9 </var></variables><constraints>'
        "<allDifferent> x y z w </allDifferent>"
        "<intension> eq(y,add(x,1)) </intension>"
        "<intension> eq(z,9) </intension><intension> eq(w,0) </intension>"
        "</constraints><annotations><decision> x </decision></annotations></instance>")
    cfg = SearchConfig(restrict_to_decision=True)
    result = solve(inst, cfg)
    assert result.count == 3
    assert [s["x"] for s in result.solutions] == [1, 2, 3]
    assert _outcome(_Search(inst, cfg)) == _outcome(_fallback_search(monkeypatch, inst, cfg))


_risky_operand = st.one_of(
    _operand, _names.map(lambda v: OpCall("div", (IntConst(6), VarRef(v)))))


def _verdict(check):
    try:
        return check()
    except EvalError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(operands=st.lists(_risky_operand, min_size=1, max_size=6),
       excepts=st.lists(st.integers(-3, 3), max_size=2, unique=True),
       domains=_domains, order=st.permutations("abcd"), data=st.data())
def test_staged_all_different_finishes_as_the_complete_check_does(
        operands, excepts, domains, order, data):
    kind = K.AllDifferent(tuple(operands), tuple(excepts))
    assume(kind.var_ids)
    env = {}
    stages, depth_of = _stages_by_depth(kind, order, domains, env)
    # excepts, or an operand that may raise, leave the constraint to the detector scan
    bounds = {v: (min(domains[v]), max(domains[v])) for v in order}
    assert (stages is None) == (bool(excepts)
                                or any(bounded_shape(op, bounds).raises for op in operands))
    if stages is None:
        return
    for vid in order:  # a stage reads only the variables of its depth and earlier
        env[vid] = data.draw(st.sampled_from(domains[vid]))
    *earlier, (depth, finish) = stages
    assert depth == max(depth_of[v] for v in kind.var_ids)
    for _, check in earlier:
        assume(_verdict(check) is False)  # the search stops before the last depth
    assert _verdict(finish) == _verdict(lambda: not check_constraint(kind, env))


def test_staged_all_different_evaluates_every_fresh_operand_at_the_last_depth(monkeypatch):
    # at y=0, y repeats x, whose operand comes later; the complete check
    # still evaluates div(6,y) first, so the search raises there
    inst = parse_string(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0 </var>'
        '<var id="y"> 0..2 </var></variables><constraints>'
        '<allDifferent id="c"> y x div(6,y) </allDifferent></constraints></instance>')
    staged = _outcome(_Search(inst, SearchConfig()))
    assert staged == (DivisionByZero, "c: div(6,0) at y=0 x=0", 2)
    assert staged == _outcome(_fallback_search(monkeypatch, inst))


# -- staged sums and costs against check_constraint and eval_objective -------------

_OPS = ["lt", "le", "ge", "gt", "eq", "ne"]


@st.composite
def _linear_cops(draw):
    """A COP of sums over 1-6 variables with small, partly negative domains."""
    n = draw(st.integers(1, 6))
    names = [f"x{i}" for i in range(n)]
    variables = "".join(
        f'<var id="{v}"> '
        + " ".join(map(str, draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4,
                                          unique=True).map(sorted))))
        + " </var>" for v in names)

    def linear():
        scope = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        text = f"<list> {' '.join(scope)} </list>"
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(scope),
                                   max_size=len(scope)))
            text += f"<coeffs> {' '.join(map(str, coeffs))} </coeffs>"
        return text

    constraints = "".join(
        f"<sum>{linear()}<condition> ({draw(st.sampled_from(_OPS))},"
        f"{draw(st.integers(-8, 8))}) </condition></sum>"
        for _ in range(draw(st.integers(0, 3))))
    if draw(st.booleans()):
        scope = draw(st.lists(st.sampled_from(names), min_size=2, max_size=4))
        constraints += f"<allDifferent> {' '.join(scope)} </allDifferent>"
    sense = draw(st.sampled_from(["minimize", "maximize"]))
    return ('<instance format="XCSP3" type="COP"><variables>' + variables
            + "</variables><constraints>" + constraints + "</constraints>"
            f'<objectives><{sense} type="sum">{linear()}</{sense}></objectives></instance>')


@settings(max_examples=200, deadline=None)
@given(xml=_linear_cops(), order=st.sampled_from(list(VarOrder)), decision=st.booleans())
def test_staged_sums_and_costs_agree_with_the_complete_checks(xml, order, decision):
    if decision:
        xml = xml.replace("</instance>", "<annotations><decision> x0 </decision>"
                          "</annotations></instance>")
    inst = parse_string(xml)
    cfg = SearchConfig(var_order=order, restrict_to_decision=decision)
    search = _Search(inst, cfg)
    assert search.leaf[0][0] == "last"  # the domains here prove every sum
    staged = _full_outcome(search)
    # fresh patchers per example: the monkeypatch fixture is shared between them
    assert staged == _full_outcome(_complete_check_search(pytest.MonkeyPatch(), inst, cfg))
    # without any stage the answer is the same, from at least as many nodes;
    # only the unpruned search may meet an unforced variable
    plain = _full_outcome(_fallback_search(pytest.MonkeyPatch(), inst, cfg))
    if isinstance(plain[0], Status):
        assert staged[:-1] == plain[:-1] and staged[-1] <= plain[-1]


def test_without_partial_checks_every_verdict_and_cost_is_the_complete_one():
    inst = parse_file(fixture_path("cake_sums.xml"))
    plain = _Search(inst, SearchConfig(partial_checks=False))
    assert all(form == "c" for calls in plain.plan for form, _, _ in calls)
    (form, (cost,), _), = plain.leaf
    assert form == "cost" and cost.func is eval_objective
    # with them, every sum is checked by its stages alone, the cost summed plainly
    staged = _Search(inst, SearchConfig())
    assert all(form not in ("i", "c") for calls in staged.plan for form, _, _ in calls)
    assert staged.leaf[0][0] == "last"
    assert _full_outcome(staged)[:4] == _full_outcome(plain)[:4]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.xml")))
def test_the_reference_plan_is_one_checker_call_per_constraint(name):
    inst = parse_file(fixture_path(name))
    plan = _Search(inst, SearchConfig(partial_checks=False)).plan
    calls = [call for calls in plan for call in calls]
    for form, args, ci in calls:
        kind = inst.constraints[ci].kind
        assert (form, args) == ("c", (_CHECKERS[type(kind)][0], kind))
    assert sorted(ci for _, _, ci in calls) \
        == [ci for ci, posted in enumerate(inst.constraints) if posted.kind.var_ids]


HUGE = 2**62
HUGE_COP = ('<instance format="XCSP3" type="COP"><variables>'
            '<var id="x"> 0..2 </var><var id="y"> 0..2 </var></variables>'
            "<constraints>{}</constraints>"
            '<objectives><minimize type="sum"><list> x y </list>'
            "<coeffs> {} 1 </coeffs></minimize></objectives></instance>")


@pytest.mark.parametrize("constraint,cost_coeff,error", [
    (f'<sum id="s"><list> x y </list><coeffs> {HUGE} {HUGE} </coeffs>'
     "<condition> (le,0) </condition></sum>", 1,
     f"s: sum term: {2 * HUGE} leaves the 64-bit integer range at x=0 y=2"),
    ("<intension> ge(y,x) </intension>", HUGE,
     f"objective term: {2 * HUGE} leaves the 64-bit integer range"),
])
def test_an_unproved_sum_overflows_where_it_did(monkeypatch, constraint, cost_coeff, error):
    inst = parse_string(HUGE_COP.format(constraint, cost_coeff))
    search = _Search(inst, SearchConfig())
    assert search.leaf[0][0] == ("cost" if cost_coeff == HUGE else "last")
    outcome = _outcome(search)
    assert outcome[:2] == (Overflow, error)
    assert outcome == _outcome(_fallback_search(monkeypatch, inst))


def _costed_search(obj, domains):
    """A search of no constraint over variables x and y with these domains
    (each a tuple of (lo, hi) runs), costing obj."""
    variables = tuple(Variable(vid, Domain(runs)) for vid, runs in zip("xy", domains))
    return _Search(Instance(variables, (), obj), SearchConfig())


def _costs(search):
    """Each assignment of the search's variables, with the cost the search
    gives it after running every depth's checks and stages (each depth's
    calls written as the loop writes them) and then its leaf's call (every
    variable read from env), and the assignment's eval_objective: the two
    agree when each pair is equal."""
    env, ids = search.env, [v.id for v in search.order]
    domains = [[value for lo, hi in v.domain.items for value in range(lo, hi + 1)]
               for v in search.order]
    depths = [_written_function(calls, env, search._named, vid)
              for vid, calls in zip(ids, search.plan)]
    read = _written_function(search.leaf, env, search._named, fail="pass", result="value")
    pairs = []
    for values in itertools.product(*domains):
        env.update(zip(ids, values))
        assert not any(fails() for fails in depths)
        pairs.append((_verdict(read),
                      _verdict(partial(eval_objective, search.objective, dict(env)))))
    return pairs


@pytest.mark.parametrize("kind,coeffs,proved", [
    (K.ObjKind.SUM, (INT_MAX // 3, -1), True),        # exactly INT_MAX
    (K.ObjKind.SUM, (INT_MAX // 3, 2), False),        # one past it
    (K.ObjKind.SUM, (INT_MAX // 3 + 1, 0), False),    # a term may overflow
    (K.ObjKind.SUM, None, True),
    (K.ObjKind.MINIMUM, None, False),
    (K.ObjKind.MAXIMUM, (2, 3), False),
])
def test_objective_cost_skips_range_checks_only_for_a_proved_sum(kind, coeffs, proved):
    obj = K.Objective(K.Sense.MINIMIZE, kind, operands=(VarRef("x"), VarRef("y")),
                      coeffs=coeffs)
    search = _costed_search(obj, [((-3, 2),), ((0, 1),)])
    assert search.leaf[0][0] == ("last" if proved else "cost")
    forms = [form for calls in search.plan for form, _, _ in calls]
    assert forms == (["total", "total"] if proved else [])
    assert all(cost == reference for cost, reference in _costs(search))


def test_objective_cost_evaluates_other_objectives_with_eval_objective():
    # a sum of expressions is no sum of bare variables
    not_bare = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.SUM,
                           operands=(OpCall("add", (VarRef("x"), IntConst(1))),))
    (form, (cost,), ci), = _costed_search(not_bare, [((0, 1),), ((0, 1),)]).leaf
    assert (form, cost.func, ci) == ("cost", eval_objective, None)


@pytest.mark.parametrize("bound", [1, INT_MAX])
def test_objective_cost_evaluates_an_expression_with_eval_objective(bound):
    # with y up to INT_MAX, add(x,y) leaves int64 at x=1, unnamed
    obj = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.EXPRESSION,
                      expression=OpCall("add", (VarRef("x"), VarRef("y"))))
    search = _costed_search(obj, [((0, 1),), ((0, 0), (bound, bound))])
    (form, (cost,), ci), = search.leaf
    assert (form, cost.func, ci) == ("cost", eval_objective, None)
    pairs = _costs(search)
    assert all(cost == reference for cost, reference in pairs)
    if bound == INT_MAX:
        assert pairs[-1][0][0] is Overflow


@pytest.mark.parametrize("condition,outcome", [
    ("(eq,4)", (Status.SATISFIABLE, 5, 55)),
    ("(le,4)", (UnforcedVariable, "variable y is not determined by the decision "
                "variables (both 0 and 1 extend) at x=0", 3)),
])
def test_staged_sum_completing_at_a_forced_depth(monkeypatch, condition, outcome):
    # y is forced; the sum's last stage runs at y's depth for every value of y
    inst = parse_string(DECISION_TEXT.format(
        ctr=f"<sum><list> x y </list><condition> {condition} </condition></sum>"))
    cfg = SearchConfig(restrict_to_decision=True)
    assert _outcome(_Search(inst, cfg)) == outcome
    assert _outcome(_fallback_search(monkeypatch, inst, cfg)) == outcome


# -- the generated plan -----------------------------------------------------------

ERROR_AT_THIRD = ('<instance format="XCSP3" type="CSP"><variables>'
                  '<var id="x"> 0..2 </var><var id="y"> 0..2 </var><var id="z"> 0..2 </var>'
                  "</variables><constraints>"
                  "<intension> le(x,y) </intension>"
                  "<allDifferent> y z </allDifferent>"
                  "<extension><list> x z </list><conflicts> (0,0) </conflicts></extension>"
                  '<intension id="bad"> gt(div(6,sub(z,1)),x) </intension>'
                  "</constraints></instance>")


def test_an_error_raised_after_other_checks_of_its_depth_is_named_by_its_constraint():
    # at z's depth allDifferent's last stage, the table and the intension run
    # in that order; x=0 y=0 z=1 passes the first two and divides by zero in
    # the third, where nothing pruned before, so with or without partial
    # checks the search meets it at its fourth node
    inst = parse_string(ERROR_AT_THIRD)
    depth_2 = _Search(inst, SearchConfig()).plan[2]
    assert [type(inst.constraints[ci].kind) for _, _, ci in depth_2] \
        == [K.AllDifferent, K.Extension, K.Intension]
    outcome = _outcome(_Search(inst, SearchConfig()))
    assert outcome == (DivisionByZero, "bad: div(6,0) at z=1 x=0", 4)
    assert outcome == _outcome(_Search(inst, SearchConfig(partial_checks=False)))


def _many_intensions(n, raising):
    """n ne() intensions at y's depth, the one at position raising dividing by y-3."""
    ctrs = [f"<intension> ne(add(x,{k}),y) </intension>" for k in range(1, n + 1)]
    if raising is not None:
        ctrs[raising] = "<intension> ne(div(6,sub(y,3)),x) </intension>"
    return parse_string('<instance format="XCSP3" type="CSP"><variables>'
                        '<var id="x"> 0..3 </var><var id="y"> 0..3 </var></variables>'
                        f"<constraints>{''.join(ctrs)}</constraints></instance>")


@pytest.mark.parametrize("raising,x", [(None, None), (0, 0), (69, 3), (99, 3)])
def test_a_depth_with_a_hundred_checks(monkeypatch, raising, x):
    inst = _many_intensions(100, raising)
    compiled = []
    with monkeypatch.context() as m:
        m.setattr(expr, "compile", lambda *args: compiled.append(args) or compile(*args),
                  raising=False)
        m.setattr(solver, "_LOOPS", {})
        search = _Search(inst, SearchConfig())
    # every check of y's depth is written into the one loop block, each
    # going on to y's next value where it fails
    assert [filename for _, filename, _ in compiled] == ["<search loop>"]
    assert compiled[0][0].count("continue") == 100
    generated = _outcome(search)
    assert generated == _outcome(_Search(inst, SearchConfig(partial_checks=False)))
    if raising is None:
        assert generated == (Status.SATISFIABLE, 10, 20)  # the pairs with y <= x
    else:
        # at y=3, x is the first value that passes the checks before the division
        assert generated[:2] == (DivisionByZero, f"#{raising}: div(6,0) at y=3 x={x}")


def _holding(rng, value):
    """A condition (op,k) that value satisfies."""
    op = rng.choice(["lt", "le", "ge", "gt", "eq", "ne"])
    slack = rng.randint(0 if op in ("le", "ge") else 1, 3)
    k = {"lt": value + slack, "le": value + slack, "ge": value - slack, "gt": value - slack,
         "eq": value, "ne": value + rng.choice((-slack, slack))}[op]
    return op, k


def _wide_xml(rng):
    """A document of 3-4 variables with at most 4 values each, whose last
    variable completes 33-120 constraints: first an intension over the last
    variable alone whose div may divide by 0, then picks from a few
    intensions, sums, allDifferents over expressions and tables, each
    holding at a planted assignment; and an objective, or none. The planted
    prefix is never pruned, so the search reaches the last depth and meets
    the division with the message the reference gives."""
    ids = [f"x{i}" for i in range(rng.randint(3, 4))]
    *rest, last = ids
    domains = {vid: sorted(rng.sample(range(-3, 4), rng.randint(1, 4))) for vid in ids}
    plant = {vid: rng.choice(domains[vid]) for vid in ids}
    c = rng.randint(domains[last][0] - 1, domains[last][-1] + 1)
    pool = []
    for _ in range(rng.randint(3, 12)):
        x, kind = rng.choice(rest), rng.choice(["intension", "sum", "allDifferent", "table"])
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        if kind == "intension":
            op, k = _holding(rng, plant[x] + plant[last] * a)
            pool.append(f"<intension> {op}(add({x},mul({last},{a})),{k}) </intension>")
        elif kind == "sum":
            op, k = _holding(rng, a * plant[x] + b * plant[last])
            pool.append(f"<sum><list> {x} {last} </list><coeffs> {a} {b} </coeffs>"
                        f"<condition> ({op},{k}) </condition></sum>")
        elif kind == "allDifferent":
            y = rng.choice(rest)
            while plant[x] + a == plant[y]:
                a += 1
            while plant[last] + b in (plant[x] + a, plant[y]):
                b += 1
            pool.append(f"<allDifferent> add({x},{a}) {y} add({last},{b}) </allDifferent>")
        else:
            rows = {(rng.choice(domains[x]), rng.choice(domains[last])) for _ in range(4)}
            tag, rows = "supports", rows | {(plant[x], plant[last])}
            if rng.random() < 0.5:
                tag, rows = "conflicts", rows - {(plant[x], plant[last])}
            text = "".join(f"({u},{v})" for u, v in sorted(rows))
            pool.append(f"<extension><list> {x} {last} </list><{tag}> {text} </{tag}>"
                        "</extension>")
    ctrs = ([f"<intension> ne(div(6,sub({last},{c})),{rng.randint(-2, 2)}) </intension>"]
            + rng.choices(pool, k=rng.randint(32, 119)))
    objective = rng.choice([
        "",
        "<minimize type=\"sum\"><list> {} </list><coeffs> {} </coeffs></minimize>".format(
            " ".join(ids), " ".join(str(rng.randint(-3, 3)) for _ in ids)),
        f"<maximize> add(mul({rest[0]},{rng.randint(-3, 3)}),sub({last},{rest[1]})) </maximize>"])
    return (f'<instance format="XCSP3" type="{"COP" if objective else "CSP"}"><variables>'
            + "".join(f'<var id="{vid}"> {" ".join(map(str, domains[vid]))} </var>'
                      for vid in ids)
            + f"</variables><constraints>{''.join(ctrs)}</constraints>"
            + (f"<objectives>{objective}</objectives>" if objective else "") + "</instance>")


def _answer(run, inst, cfg):
    """run's status, count, first kept solution, best assignment and cost,
    or the class and message of its error."""
    try:
        result = run(inst, cfg)
    except XcspError as e:
        return type(e), str(e)
    return (result.status, result.count, [dict(s) for s in result.solutions[:1]],
            None if result.best is None else dict(result.best), result.best_cost)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_wide_depths_agree_with_the_reference_and_the_naive_filter(seed):
    inst = parse_string(_wide_xml(random.Random(seed)))
    assert len(_Search(inst, SearchConfig()).plan[-1]) >= 33
    for run in (count_solutions, solve):
        answer = _answer(run, inst, SearchConfig())
        assert answer == _answer(run, inst, SearchConfig(partial_checks=False))
    if isinstance(answer[0], Status):
        assert answer[1] == oracles.naive_count(inst)
    else:
        with pytest.raises(answer[0]):
            oracles.naive_count(inst)


def test_generated_code_holds_no_input_text(monkeypatch):
    # each name holds a word that would survive any quoting of it
    ids = ['x"\n{IDONE}', "y'}{\nIDTWO", 'z{"\'}\\IDTHREE']
    labels = ['c"\n{}\'LABELONE', "t'\n}{LABELTWO", 'bad{"}\nLABELTHREE']
    sources = []

    def recording_compile(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", recording_compile, raising=False)
    monkeypatch.setattr(expr, "_FACTORIES", {})
    monkeypatch.setattr(solver, "_LOOPS", {})
    x, y, z = map(VarRef, ids)
    constraints = (
        PostedConstraint(K.Intension(OpCall("le", (x, y))), id=labels[0]),
        PostedConstraint(K.AllDifferent((x, y, z))),
        PostedConstraint(K.Extension(scope=tuple(ids[:2]), positive=False, tuples=((0, 0),)),
                         id=labels[1]),
        PostedConstraint(K.Intension(OpCall("gt", (
            OpCall("div", (IntConst(6), OpCall("sub", (z, IntConst(1))))), IntConst(-1)))),
            id=labels[2]))
    inst = Instance(tuple(Variable(v, Domain(((0, 2),))) for v in ids), constraints,
                    K.Objective(K.Sense.MINIMIZE, K.ObjKind.SUM, operands=(x, y, z),
                                coeffs=(1, 2, 3)))
    outcome = _outcome(_Search(inst, SearchConfig()))
    # the ids and labels reach the message as arguments, never as source
    assert outcome[:2] == (DivisionByZero, f"{labels[2]}: div(6,0) at {ids[2]}=1")
    # the objective's ids reach its sum stages as arguments too
    assert [form for calls in _Search(inst, SearchConfig()).plan
            for form, _, ci in calls if ci is None] == ["total"] * 3
    # the checks are written into the loop, each naming its errors by
    # position, the intensions' code with them: no evaluator is compiled;
    # the objective's totals are kept in locals of the one block, each
    # stage reading the local of the stage before it, never its list
    assert any("raise named(e, n2_1) from e" in s and "_trunc_div(" in s
               and "u2_2 = u1_3 + c2_2 * v2" in s and "value = u2_2" in s
               and "T2_2[i2_2]" not in s for s in sources)
    assert not any("def evaluate" in s for s in sources)
    words = ["IDONE", "IDTWO", "IDTHREE", "LABELONE", "LABELTWO", "LABELTHREE"]
    for source in sources:
        for text in ids + labels + words:
            assert text not in source


# Search outcomes that must not change: each fixture's, and those of seeded
# allDifferents that may raise (oracles.random_raising_all_different),
# recorded from an implementation that checked those in stages of their own
PINNED = json.loads((Path(__file__).parent / "pinned_outcomes.json").read_text())


def _pinned(outcome):
    """An outcome of _full_outcome as the pinned table writes it: the status
    or error class by name, an assignment as pairs sorted by id."""
    head, *rest = outcome
    name = head.name if isinstance(head, Status) else head.__name__
    return json.loads(json.dumps(
        [name] + [sorted(v.items()) if isinstance(v, dict) else v for v in rest]))


def test_results_stay_right_when_few_depth_functions_are_kept(monkeypatch):
    # every fixture, with fixture_report.py's node budget, on which only
    # mixed_domains stops, at the same node
    paths = sorted(Path(fixture_path("queens_8.xml")).parent.glob("*.xml"))
    instances = [parse_file(str(path)) for path in paths]
    cfg = SearchConfig(node_limit=2_000_000, keep_solutions=False)
    expected = [_full_outcome(_Search(inst, cfg)) for inst in instances]
    assert len(expected) == 28
    assert [path.name for path, outcome in zip(paths, expected)
            if outcome[0] is Status.LIMIT] == ["mixed_domains.xml"]
    # status, count, best cost and nodes
    assert {path.name: [status, count, cost, nodes] for path, (status, count, _, cost, nodes)
            in zip(paths, map(_pinned, expected))} == PINNED["fixtures"]
    # the reference path evaluates every expression by compile_expr, so
    # that expr's cap is met too
    reference = replace(cfg, node_limit=20_000, partial_checks=False)
    referenced = [_full_outcome(_Search(inst, reference)) for inst in instances]
    monkeypatch.setattr(expr, "MAX_SHAPES", 2)
    monkeypatch.setattr(expr, "_FACTORIES", {})
    monkeypatch.setattr(solver, "MAX_LOOPS", 2)
    monkeypatch.setattr(solver, "_LOOPS", {})
    for _ in range(2):
        # parsed again, so that no kind keeps a bounded shape
        # (kinds.bounded_shape) and every expression is written under the cap
        instances = [parse_file(str(path)) for path in paths]
        assert [_full_outcome(_Search(inst, cfg)) for inst in instances] == expected
        assert [_full_outcome(_Search(inst, reference)) for inst in instances] == referenced
        assert len(expr._FACTORIES) == len(solver._LOOPS) == 2


def test_all_differents_that_may_raise_keep_their_pinned_outcomes():
    outcomes = []
    for seed in range(len(PINNED["raising_all_different"])):
        xml, options = oracles.random_raising_all_different(random.Random(seed))
        cfg = SearchConfig(**dict(options, var_order=VarOrder(options["var_order"])))
        outcomes.append(_pinned(_full_outcome(_Search(parse_string(xml), cfg))))
    assert outcomes == PINNED["raising_all_different"]


def test_a_second_search_of_an_instance_writes_no_source(monkeypatch):
    names = ["queens_8.xml", "cake_sums.xml", "cake_intension.xml", "magic_square_3.xml",
             "slide_c2.xml", "misc_core_1.xml"]
    instances = [parse_file(fixture_path(name)) for name in names]
    outcomes = [_full_outcome(_Search(inst, SearchConfig())) for inst in instances]
    written, compiled, walked = [], [], []
    source, write, shape = expr._Writer.source, expr.Bounded.write, expr._shape
    monkeypatch.setattr(expr._Writer, "source",
                        lambda self, e: written.append(e) or source(self, e))
    # nor the code of an expression written into the loop
    monkeypatch.setattr(expr.Bounded, "write",
                        lambda self, *args: written.append(self) or write(self, *args))
    monkeypatch.setattr(expr, "compile",
                        lambda *args: compiled.append(args) or compile(*args), raising=False)
    # nor walks an expression again: each kind keeps its bounded shapes
    monkeypatch.setattr(expr, "_shape", lambda *args: walked.append(args) or shape(*args))
    assert [_full_outcome(_Search(inst, SearchConfig())) for inst in instances] == outcomes
    assert written == [] and compiled == [] and walked == []


def test_a_second_round_of_fixture_and_benchmark_searches_compiles_nothing(monkeypatch):
    # every fixture, then every perfbench search item (seed 1), each searched
    # by a search built for it, twice: the second builds write no source
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen
    from workloads import SEARCH_LIMITS

    fixtures = [parse_file(str(path)) for path in sorted(FIXTURES.glob("*.xml"))]
    items = gen.search_items(random.Random("search:1"))
    searches = ([(inst, SearchConfig(node_limit=20_000)) for inst in fixtures]
                + [(parse_string(item.xml),
                    replace(SEARCH_LIMITS, keep_solutions=item.optimum is not None))
                   for item in items])
    compiled = []
    monkeypatch.setattr(expr, "compile",
                        lambda *args: compiled.append(args) or compile(*args), raising=False)
    monkeypatch.setattr(solver, "_LOOPS", {})
    outcomes = [_full_outcome(_Search(inst, cfg)) for inst, cfg in searches[:len(fixtures)]]
    assert 0 < len(solver._LOOPS) < solver.MAX_LOOPS  # the fixtures' loop shapes
    outcomes += [_full_outcome(_Search(inst, cfg)) for inst, cfg in searches[len(fixtures):]]
    assert len(solver._LOOPS) <= solver.MAX_LOOPS and compiled
    compiled.clear()
    assert [_full_outcome(_Search(inst, cfg)) for inst, cfg in searches] == outcomes
    assert compiled == []


# -- written expressions, stages and leaf calls against the reference path ---------

def _two_ways(text, cfg=SearchConfig(), pruned=False):
    """The outcome with partial checks, after checking it against the
    reference path's (partial_checks=False): equal, or equal but for the
    node count when partial checks may prune nodes that the reference
    visits (pruned)."""
    inst = parse_string(text)
    outcome = _full_outcome(_Search(inst, cfg))
    reference = _full_outcome(_Search(inst, replace(cfg, partial_checks=False)))
    assert (outcome[:-1] == reference[:-1]) if pruned else (outcome == reference)
    return outcome


def _csp(variables, constraints):
    return ('<instance format="XCSP3" type="CSP"><variables>' + "".join(
        f'<var id="{vid}"> {domain} </var>' for vid, domain in variables)
        + f"</variables><constraints>{constraints}</constraints></instance>")


def test_an_intension_overflows_where_the_reference_does():
    # add(x,y) can reach 2^63, so its range test survives; it fires at the
    # last node, after the one solution x=0 y=1 z=1
    outcome = _two_ways(_csp([("x", f"0 {HUGE}"), ("y", f"1 {HUGE}"), ("z", "0 1")],
                             '<intension id="c"> eq(add(x,y),z) </intension>'))
    assert outcome == (Overflow, f"c: add: {2 * HUGE} leaves the 64-bit integer range "
                       f"at x={HUGE} y={HUGE} z=0", 13)


def test_an_all_different_that_may_raise_raises_where_the_reference_does():
    # div(6,y) may divide by zero, so the constraint has no stages: its
    # detector runs at x's and z's depths, its complete check at y's
    text = _csp([("x", "0"), ("z", "1"), ("y", "0..2")],
                '<allDifferent id="c"> x z div(6,y) </allDifferent>')
    search = _Search(parse_string(text), SearchConfig())
    assert [form for calls in search.plan for form, _, _ in calls] == ["s", "s", "c"]
    assert _two_ways(text) == (DivisionByZero, "c: div(6,0) at x=0 z=1 y=0", 3)


@pytest.mark.parametrize("operands,excepts,count", [
    ("x add(x,1) y", "", 16),       # two operands ready at x's depth
    ("y x add(x,1)", "", 16),
    ("x y add(y,1)", "<except> 0 </except>", 17),
    ("x y 2", "<except> 2 </except>", 21),
])
def test_a_proved_all_different_is_written_into_the_depth_functions(operands, excepts, count):
    text = _csp([("y", "0..4"), ("x", "0..4")],
                f"<allDifferent><list> {operands} </list>{excepts}</allDifferent>")
    search = _Search(parse_string(text), SearchConfig())
    forms = [form for calls in search.plan for form, _, _ in calls]
    if excepts:  # its detector at y's depth, its complete check at x's
        assert forms == ["s", "c"]
    else:
        assert all(form.startswith("d") for form in forms) and forms[-1].endswith(".")
    # no operand can clash before the last depth, so no node is pruned
    status, found, _, _, nodes = _two_ways(text)
    assert (status, found, nodes) == (Status.SATISFIABLE, count, 30)


def test_stage_and_bounded_forms_hold_no_input_text(monkeypatch):
    ids = ['x"\n{IDONE}', "y'}{\nIDTWO", 'z{"\'}\\IDTHREE']
    sources = []
    monkeypatch.setattr(expr, "compile",
                        lambda source, *rest: sources.append(source) or compile(source, *rest),
                        raising=False)
    monkeypatch.setattr(expr, "_FACTORIES", {})
    monkeypatch.setattr(solver, "_LOOPS", {})
    x, y, z = map(VarRef, ids)
    # an id and an integer of its own inside expressions written into the loop
    q, big = VarRef("qZ7[3]"), IntConst(987654321)
    constraints = (
        PostedConstraint(K.Sum((x, y, z, x), (1, 2, 3, 4), Condition(CondOp.LE, 9))),
        PostedConstraint(K.AllDifferent((x, OpCall("add", (y, IntConst(1))), z))),
        PostedConstraint(K.AllDifferent((y, OpCall("mod", (z, x))), (7,))),
        PostedConstraint(K.Intension(OpCall("ne", (OpCall("sub", (x, y)), z)))),
        PostedConstraint(K.Intension(OpCall("ne", (OpCall("mul", (q, big)), OpCall("if", (
            OpCall("in", (y, expr.SetLiteral((987654321, 1)))), x, big)))))),
        PostedConstraint(K.AllDifferent((q, OpCall("add", (q, big))))))
    # and a sum objective whose coefficient is the integer
    inst = Instance(tuple(Variable(v, Domain(((0, 2),))) for v in ids + [q.id]), constraints,
                    K.Objective(K.Sense.MAXIMIZE, K.ObjKind.SUM, operands=(x, q),
                                coeffs=(987654321, 1)))
    search = _Search(inst, SearchConfig())
    forms = {form for calls in search.plan for form, _, _ in calls}
    assert {"sum", "s", "c", "i", "d", "d.", "total"} <= forms
    # the first allDifferent's operands: x and z bare, add(y,1) written as code
    assert [type(args[0]) for calls in search.plan for form, args, ci in calls
            if ci == 1] == [str, expr.Bounded, str]
    assert _full_outcome(search) == _full_outcome(_Search(inst, SearchConfig(
        partial_checks=False)))
    # the stages and add(y,1) are written into the loop, which reads y as v1
    # and keeps each stage's set in a local, the last two constraints' code
    # at q's depth, an if() branch a function that reads env, and the
    # objective's last total into the leaf
    assert search.leaf[0][0] == "last"
    assert any("t1_1_0 = v1 + p1_1_1" in s and "u1_1 = {*u0_1, t1_1_0}" in s
               and " in p3_" in s and "(env) if " in s and "value = u3_" in s
               for s in sources)
    for source in sources:
        for text in ids + ["IDONE", "IDTWO", "IDTHREE", "qZ7", "987654321"]:
            assert text not in source
        # no written expression is a call of a compiled evaluator
        assert not re.search(r"\bf[0-9_]+\(env\)", source)


# the operators drawn
_UNARY = ["neg", "abs", "sqr", "not"]
_BINARY = ["sub", "div", "mod", "dist", "lt", "le", "ne", "imp", "xor"]
_NARY_OPS = ["add", "mul", "min", "max", "eq", "and", "or"]


@st.composite
def _bounded_expressions(draw, names, depth=3):
    """An expression over names: arithmetic with div and mod, comparisons,
    booleans, if() and in() sets, its leaves variables and integers, some
    of them at the int64 ends."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.integers(0, 2)):
            return VarRef(draw(st.sampled_from(names)))
        return IntConst(draw(st.sampled_from([*range(-3, 4), INT_MIN, INT_MAX])))
    operand = _bounded_expressions(names, depth - 1)
    op = draw(st.sampled_from(_UNARY + _BINARY + _NARY_OPS + ["if", "in"]))
    if op in _UNARY:
        return OpCall(op, (draw(operand),))
    if op == "in":
        values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
        return OpCall("in", (draw(operand), expr.SetLiteral(tuple(values))))
    count = 3 if op == "if" else draw(st.integers(2, 3)) if op in _NARY_OPS else 2
    return OpCall(op, tuple(draw(operand) for _ in range(count)))


# a variable's values when it has more than one: some keep a range test alive
_small_domains = st.one_of(
    st.lists(st.integers(-3, 3), min_size=2, max_size=3, unique=True),
    st.sampled_from([[0, 1, 2], [1, 2, 3], [INT_MAX - 1, INT_MAX], [INT_MIN, INT_MIN + 1]]))


@st.composite
def _written_expression_instances(draw):
    """Two instances over 17-20 variables, most of them with one value,
    so that blocks are crossed and the reference path stays small, and
    whether to search only the decision variables.

    The first posts the drawn expressions that have variables, in ne()
    intensions, which may raise: the checks of both paths then run at the
    same nodes. The second posts those that cannot raise, and an
    allDifferent of bare variables, an operand without variables and the
    same expressions: there partial checks prune nodes that the reference
    visits. With a decision annotation, each other variable is fixed by an
    eq() intension over the decision variables and the ones declared
    before it: it must take their value, at least the value of the one
    before it, clamped to its bounds.
    """
    n = draw(st.integers(17, 20))
    names = [f"x{i}" for i in range(n)]
    decision = draw(st.none() | st.integers(1, n - 1))
    # at most 5 variables have more than one value, forced ones among them
    wide = draw(st.sets(st.integers(0, n - 1), max_size=3))
    if decision is not None:
        wide |= draw(st.sets(st.integers(decision, n - 1), min_size=1, max_size=2))
    domains = [draw(_small_domains) if i in wide else [draw(st.integers(-20, 20))]
               for i in range(n)]
    bounds = {v: (min(values), max(values)) for v, values in zip(names, domains)}
    # the variables with more than one value are read more often
    weighted = names + [names[i] for i in sorted(wide)] * 4
    expressions = draw(st.lists(_bounded_expressions(weighted), min_size=3, max_size=6))

    def raises(e):
        return bounded_shape(e, bounds).raises

    # a constraint without variables is settled before search, so none is
    # posted; ne() holds for most values
    posted = [OpCall("ne", (e, IntConst(draw(st.integers(-3, 3)))))
              for e in expressions if expr.free_vars(e)]

    fixed = []
    if decision is not None:
        for i in range(decision, n):
            # at least the one before, clamped to the variable's bounds: the
            # value is often in its domain, and reads the depth before
            lo, hi = map(IntConst, bounds[names[i]])
            earlier = [v for v in weighted if int(v[1:]) < i]
            e = OpCall("min", (OpCall("max", (VarRef(names[i - 1]),
                                              draw(_bounded_expressions(earlier)), lo)), hi))
            fixed.append((e, OpCall("eq", (VarRef(names[i]), e))))
    operands = [VarRef(v) for v in draw(st.lists(st.sampled_from(names), min_size=1,
                                                  max_size=4, unique=True))]
    operands += [e for e in expressions if expr.free_vars(e) and not raises(e)]
    operands.insert(draw(st.integers(0, len(operands))), OpCall("add", (IntConst(2), IntConst(3))))
    # comparisons and booleans give 0 and 1, which an except often lets repeat
    excepts = draw(st.lists(st.integers(-1, 2), max_size=3, unique=True))

    def document(constraints):
        variables = "".join(f'<var id="{v}"> {" ".join(map(str, sorted(values)))} </var>'
                            for v, values in zip(names, domains))
        annotation = ("" if decision is None else
                      f"<annotations><decision> {' '.join(names[:decision])} </decision>"
                      "</annotations>")
        return ('<instance format="XCSP3" type="CSP"><variables>' + variables
                + f"</variables><constraints>{constraints}</constraints>{annotation}</instance>")

    def intensions(es):
        return "".join(f"<intension> {expr.print_expr(e)} </intension>" for e in es)

    raising = document(intensions(posted + [eq for _, eq in fixed]))
    proved = document(
        intensions([e for e in posted if not raises(e)]
                   + [eq if not raises(e) else OpCall("eq", (eq.args[0], IntConst(0)))
                      for e, eq in fixed])
        + f"<allDifferent><list> {' '.join(map(expr.print_expr, operands))} </list>"
        + (f"<except> {' '.join(map(str, excepts))} </except>" if excepts else "")
        + "</allDifferent>")
    return raising, proved, decision is not None


@settings(max_examples=150, deadline=None)
@given(_written_expression_instances())
def test_written_expressions_agree_with_the_reference_path(instances):
    raising, proved, restrict = instances
    cfg = SearchConfig(restrict_to_decision=restrict)
    # each intension is checked at the depth that completes it on both paths
    _two_ways(raising, cfg)
    _two_ways(proved, cfg, pruned=True)
    plan = _Search(parse_string(proved), cfg).plan
    assert all(type(args[0]) is expr.Bounded
               for calls in plan for form, args, _ in calls if form == "i")


def _solved(search):
    """_full_outcome, with the solutions kept."""
    try:
        result = search.run()
    except XcspError as e:
        return type(e), str(e), search.nodes
    best = None if result.best is None else dict(result.best)
    return (result.status, result.count, [dict(s) for s in result.solutions], best,
            result.best_cost, result.nodes)


@st.composite
def _leaf_searches(draw):
    """The first instance of _written_expression_instances, which posts
    intensions alone, so that partial checks prune no node, searched as a
    CSP or a COP; the config, with max_solutions None, 1 or 2; and the
    forms the leaf's calls may take.

    An EXPRESSION objective is a bare variable, an if() whose first branch
    is one, a div whose divisor's domain holds 0, an add that leaves int64
    when its variable has two values (at any but the smallest), or any
    drawn expression, each costed by eval_objective. A sum objective is
    proved or not by its variables' bounds; a maximum objective is
    eval_objective's.
    """
    text, _, restrict = draw(_written_expression_instances())
    cfg = SearchConfig(max_solutions=draw(st.sampled_from([None, 1, 2])),
                       restrict_to_decision=restrict)
    kind = draw(st.sampled_from(["csp", "bare", "if", "div", "range", "any", "sum", "maximum"]))
    if kind == "csp":
        return text, cfg, {"keep"}
    variables = list(parse_string(text).variables())
    names = [v.id for v in variables]
    wide = [v for v in variables if v.domain.size > 1] or variables
    var = draw(st.sampled_from(wide))
    x, low = VarRef(var.id), IntConst(var.domain.min_value)
    expressions = _bounded_expressions(names)
    e = {"bare": lambda: x,
         "if": lambda: OpCall("if", (draw(expressions), x, draw(expressions))),
         "div": lambda: OpCall("div", (draw(expressions), OpCall("sub", (
             x, IntConst(draw(st.sampled_from(list(var.domain.values())))))))),
         "range": lambda: OpCall("add", (OpCall("sub", (x, low)), IntConst(INT_MAX))),
         "any": lambda: draw(expressions)}.get(kind)
    sense = draw(st.sampled_from(["minimize", "maximize"]))
    if e is not None:
        objective, forms = f"<{sense}> {expr.print_expr(e())} </{sense}>", {"cost"}
    else:
        scope = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(scope), max_size=len(scope)))
        objective = (f'<{sense} type="{kind}"><list> {" ".join(scope)} </list>'
                     f'<coeffs> {" ".join(map(str, coeffs))} </coeffs></{sense}>')
        forms = {"last", "cost"} if kind == "sum" else {"cost"}
    text = text.replace('type="CSP"', 'type="COP"').replace(
        "</constraints>", f"</constraints><objectives>{objective}</objectives>")
    return text, cfg, forms


@settings(max_examples=150, deadline=None)
@given(_leaf_searches())
def test_leaf_calls_agree_with_the_reference_path(search):
    # the same status, count, solutions, best assignment and cost, nodes,
    # or error and message, however the leaf's calls are written
    text, cfg, forms = search
    inst = parse_string(text)
    leaf = _Search(inst, cfg)
    assert {form for form, _, _ in leaf.leaf} <= forms
    assert _solved(leaf) == _solved(_Search(inst, replace(cfg, partial_checks=False)))


# -- the generated search loop ------------------------------------------------------

def _chain(length, domain, template, arity):
    """A slide of template over the length cells of x, each with domain."""
    return parse_string(
        '<instance format="XCSP3" type="CSP"><variables>'
        f'<array id="x" size="[{length}]"> {domain} </array></variables><constraints>'
        f"<slide><list> x[] </list><intension> {template} </intension></slide>"
        "</constraints></instance>")


# 40 cells: blocks of depths 0-15, 16-31 and 32-39
CHAINS = [
    ("0..2", "eq(mod(add(%0,%1),3),%2)", 3, lambda a, b, c: (a + b) % 3 == c),
    ("0..2", "le(%0,%1)", 2, lambda a, b: a <= b),
    ("0 2 5", "eq(%2,dist(%0,%1))", 3, lambda a, b, c: c == abs(a - b)),
]


@pytest.mark.parametrize("domain,template,arity,relation", CHAINS)
def test_a_chain_over_three_blocks_counts_as_its_transfer_matrix(
        domain, template, arity, relation):
    assert 2 * solver.LOOP_DEPTHS < 40 <= 3 * solver.LOOP_DEPTHS
    inst = _chain(40, domain, template, arity)
    values = list(inst.variable("x[0]").domain.values())
    expected = oracles.window_count(40, values, arity, relation)
    counted = count_solutions(inst)
    plain = count_solutions(inst, SearchConfig(partial_checks=False))
    assert counted.count == plain.count == expected
    assert counted.nodes == plain.nodes
    # the first solution is the smallest, as in plain enumeration
    first = solve(inst, SearchConfig(max_solutions=1)).solutions[0]
    assert first == plain.best


def _traced(monkeypatch, inst, cfg):
    """The outcome of a search, and the depth of each of its nodes with
    whether its checks failed: each depth's calls are written between a
    partial check that records a failing node and one that records that it
    passed, neither of which fails."""
    trace = []
    plan = _Search._plan

    def node(depth):
        trace.append((depth, True))
        return False

    def passed():
        trace[-1] = (trace[-1][0], False)
        return False

    def traced(self):
        plan(self)
        self.plan = [(("s", (partial(node, depth),), None), *calls, ("s", (passed,), None))
                     for depth, calls in enumerate(self.plan)]

    with monkeypatch.context() as patch:
        patch.setattr(_Search, "_plan", traced)
        return _Search(inst, cfg).run(), trace


def test_the_node_limit_stays_exact_around_every_block_boundary(monkeypatch):
    inst = _chain(40, "0..2", "le(%0,%1)", 2)
    cfg = SearchConfig(keep_solutions=False)
    full, trace = _traced(monkeypatch, inst, cfg)
    assert full.nodes == len(trace) and full.status is Status.SATISFIABLE
    depths = [depth for depth, _ in trace]
    leaves = [k + 1 for k, (depth, failed) in enumerate(trace) if depth == 39 and not failed]
    assert len(leaves) == full.count
    # node k + 1 is the first in a block after one in the block above, or
    # the reverse; take the first crossing each way at each boundary
    limits = set()
    for boundary in range(solver.LOOP_DEPTHS, 40, solver.LOOP_DEPTHS):
        down = next(k for k in range(1, len(depths)) if depths[k - 1] < boundary <= depths[k])
        up = next(k for k in range(1, len(depths)) if depths[k] < boundary <= depths[k - 1])
        for k in (down, up):
            limits.update(range(k - 2, k + 5))  # one depth's 3 values on each side
    assert len(limits) == 4 * 7
    for limit in sorted(limits):
        result = count_solutions(inst, replace(cfg, node_limit=limit))
        assert (result.status, result.nodes) == (Status.LIMIT, limit)
        assert result.count == sum(1 for leaf in leaves if leaf <= limit)


def test_a_search_reaches_depth_five_thousand_without_recursion():
    inst = _chain(5000, "0..1", "le(%0,%1)", 2)
    result = solve(inst, SearchConfig(max_solutions=1))
    assert (result.status, result.count, result.nodes) == (Status.SATISFIABLE, 1, 5000)
    assert result.solutions[0] == Instantiation({f"x[{i}]": 0 for i in range(5000)})


def _blocked_search(rng):
    """An instance over 4-7 variables of 1-3 values each, and a config.

    It posts a staged sum, a staged allDifferent of variables and add()
    operands, an intension whose div may divide by 0 and whose if()
    branches read env, and a table over two variables, whose detector and
    complete check read env; all but the intension hold at a planted
    assignment. It minimizes or maximizes a proved sum, or is a CSP. A
    config keeps its solutions or not, may stop after 1 or 2, and may
    search the decision variables alone, each other variable then fixed by
    an eq() intension over the one before it, clamped to its bounds, or
    left open, so that the search raises UnforcedVariable.
    """
    n = rng.randint(4, 7)
    names = [f"x{i}" for i in range(n)]
    domains = {v: sorted(rng.sample(range(-2, 4), rng.randint(1, 3))) for v in names}
    plant = {v: rng.choice(domains[v]) for v in names}

    def scope(least):
        return rng.sample(names, rng.randint(least, n))

    summed = scope(2)
    coeffs = [rng.randint(-2, 2) for _ in summed]
    op, k = _holding(rng, sum(c * plant[v] for c, v in zip(coeffs, summed)))
    if op == "ne":  # no stages for ne
        op = "eq"
        k = sum(c * plant[v] for c, v in zip(coeffs, summed))
    ctrs = [f"<sum><list> {' '.join(summed)} </list><coeffs> {' '.join(map(str, coeffs))}"
            f" </coeffs><condition> ({op},{k}) </condition></sum>"]
    operands, taken = [], set()
    for v in scope(2):
        shift = 0 if rng.random() < 0.5 else rng.randint(-2, 2)
        while plant[v] + shift in taken:
            shift += 1
        taken.add(plant[v] + shift)
        operands.append(f"add({v},{shift})" if shift else v)
    excepts = rng.sample(range(-1, 3), rng.randint(0, 2))
    ctrs.append(f"<allDifferent><list> {' '.join(operands)} </list>"
                + (f"<except> {' '.join(map(str, excepts))} </except>" if excepts else "")
                + "</allDifferent>")
    a, b, c, d = (rng.choice(names) for _ in range(4))
    ctrs.append(f"<intension> ne(div(add({a},3),sub({b},{rng.randint(-2, 3)})),"
                f"if(ge({c},1),{d},{rng.randint(-2, 2)})) </intension>")
    x, y = rng.sample(names, 2)
    rows = {(rng.choice(domains[x]), rng.choice(domains[y])) for _ in range(3)}
    tag, rows = "supports", rows | {(plant[x], plant[y])}
    if rng.random() < 0.5:
        tag, rows = "conflicts", rows - {(plant[x], plant[y])}
    ctrs.append(f"<extension><list> {x} {y} </list><{tag}> "
                + "".join(f"({u},{v})" for u, v in sorted(rows)) + f" </{tag}></extension>")
    decision = rng.choice([None, rng.randint(1, n - 1)])
    annotation = ""
    if decision is not None:
        annotation = (f"<annotations><decision> {' '.join(names[:decision])} </decision>"
                      "</annotations>")
        for i in range(decision, n):
            if rng.random() < 0.8:
                lo, hi = domains[names[i]][0], domains[names[i]][-1]
                ctrs.append(f"<intension> eq({names[i]},min(max({names[i - 1]},{lo}),{hi}))"
                            " </intension>")
    sense = rng.choice([None, "minimize", "maximize"])
    objective = "" if sense is None else (
        f"<objectives><{sense} type=\"sum\"><list> {' '.join(scope(1))} </list></{sense}>"
        "</objectives>")
    text = (f'<instance format="XCSP3" type="{"CSP" if sense is None else "COP"}"><variables>'
            + "".join(f'<var id="{v}"> {" ".join(map(str, domains[v]))} </var>' for v in names)
            + f"</variables><constraints>{''.join(ctrs)}</constraints>{objective}{annotation}"
            "</instance>")
    cfg = SearchConfig(max_solutions=rng.choice([None, 1, 2]),
                       keep_solutions=rng.random() < 0.5,
                       restrict_to_decision=decision is not None)
    return text, cfg


def _ordered(search):
    """A search's status, count, nodes, solutions in order and best, each
    with its keys in order, and best cost; or its error's class, message
    and nodes."""
    try:
        result = search.run()
    except XcspError as e:
        return type(e), str(e), search.nodes
    best = None if result.best is None else list(result.best.items())
    return (result.status, result.count, result.nodes,
            [list(s.items()) for s in result.solutions], best, result.best_cost)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_block_boundaries_change_no_outcome(seed):
    # the same outcome whether the depths make one block or blocks of 1, 2
    # or 3: stages that pass their state across a boundary in its list,
    # and a last block that writes env only where its code reads it
    text, cfg = _blocked_search(random.Random(seed))
    inst = parse_string(text)
    plan = _Search(inst, cfg).plan
    assert {"sum", "c", "s"} <= {form for calls in plan for form, _, _ in calls}
    outcomes = []
    for depths in (16, 1, 2, 3):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "LOOP_DEPTHS", depths)
            outcomes.append(_ordered(_Search(inst, cfg)))
    assert outcomes[1:] == outcomes[:1] * 3


def _decided(forced_ctr, n_decision=10, n_forced=12):
    """x[0..n_decision-1] decide; y[i] = x[i mod n_decision] + 1 is forced,
    as is y[-1] by forced_ctr."""
    ctrs = "".join(f"<intension> eq(y[{i}],add(x[{i % n_decision}],1)) </intension>"
                   for i in range(n_forced - 1))
    return parse_string(
        '<instance format="XCSP3" type="CSP"><variables>'
        f'<array id="x" size="[{n_decision}]"> 0..1 </array>'
        f'<array id="y" size="[{n_forced}]"> 0..2 </array></variables>'
        f"<constraints>{ctrs}{forced_ctr}</constraints>"
        "<annotations><decision> x[] </decision></annotations></instance>")


def test_forced_depths_across_a_block_boundary():
    # depths 10-21 are forced: the boundary at 16 falls among them
    inst = _decided("<intension> eq(y[11],add(x[3],x[4])) </intension>")
    restricted = solve(inst, SearchConfig(restrict_to_decision=True))
    plain = count_solutions(inst)
    assert restricted.count == plain.count == 1024
    assert restricted.solutions[0] == plain.best
    assert all(s["y[11]"] == s["x[3]"] + s["x[4]"] for s in restricted.solutions)
    # y[11], at depth 21, has two values that extend x = 0...0
    inst = _decided("<intension> le(y[11],1) </intension>")
    at = " ".join(f"x[{i}]=0" for i in range(10))
    with pytest.raises(UnforcedVariable, match=re.escape(
            f"variable y[11] is not determined by the decision variables "
            f"(both 0 and 1 extend) at {at}")):
        solve(inst, SearchConfig(restrict_to_decision=True))


@pytest.mark.parametrize("cfg", [SearchConfig(), SearchConfig(restrict_to_decision=True)])
def test_every_block_takes_all_its_calls_constants(monkeypatch, cfg):
    # every block takes the same leading parameters, and each expression
    # one p parameter per constant of its bounded shape, in order; the only
    # parameters its code never reads are unforced, named, the list and
    # index of a stage or "last" that reads a local and stores nothing, and
    # the ids of the variables an expression reads from loop variables
    loop_source = solver._loop_source
    written = []

    def recording_source(*args):
        source = loop_source(*args)
        written.append((args[4], args[5], args[6], source))
        return source

    monkeypatch.setattr(solver, "_loop_source", recording_source)
    monkeypatch.setattr(solver, "_LOOPS", {})
    for path in sorted(FIXTURES.glob("*.xml")):
        _Search(parse_file(path), cfg)
    bounded = unread_ids = 0
    for leaf, calls, local, source in written:
        make = next(node for node in ast.parse(source).body
                    if isinstance(node, ast.FunctionDef) and node.name == "_make")
        params = [arg.arg for arg in make.args.args]
        assert params[:5] == ["search", "env", "checkpoint", "unforced", "named"]
        unread = {node.id for node in ast.walk(make)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread = {p for p in set(params) - unread
                  if not re.fullmatch(r"unforced|named|[TSi]\d+_\d+|TL\d+", p)}
        for suffix, depth in [("L", leaf), *((f"{d}_", depth) for d, depth in enumerate(calls))]:
            for j, (_, args, _) in enumerate(depth):
                if type(args[0]) is not expr.Bounded:
                    continue
                taken = [p for p in params if re.fullmatch(rf"p{suffix}{j}_\d+", p)]
                consts = args[0].consts
                assert taken == [f"p{suffix}{j}_{i}" for i in range(len(consts))], source
                for i, p in enumerate(taken):
                    if p in unread:
                        assert consts[i] in local, source
                        unread.discard(p)
                        unread_ids += 1
                bounded += 1
        assert not unread, source
    assert bounded and unread_ids


@pytest.mark.parametrize("cfg,sense", [
    (SearchConfig(), None),
    (SearchConfig(keep_solutions=False, max_solutions=3), None),
    (SearchConfig(restrict_to_decision=True), None),
    (SearchConfig(), "minimize"),
    (SearchConfig(), "maximize"),
])
def test_the_loop_source_holds_no_id_or_constant(monkeypatch, cfg, sense):
    ids = [f'v{k}"\n{{IDWORD}}' for k in range(20)]
    sources = []

    def recording_compile(source, filename, mode):
        if filename == "<search loop>":
            sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", recording_compile, raising=False)
    monkeypatch.setattr(solver, "_LOOPS", {})
    refs = [VarRef(v) for v in ids]
    # distinct values, and one domain of two intervals
    domains = [Domain(((70001, 70002),))] * 19 + [Domain(((70001, 70001), (80005, 80006)))]
    # the three forced depths of restrict_to_decision follow v16 by eq()
    constraints = tuple(PostedConstraint(K.Intension(OpCall("le" if k < 16 else "eq", (a, b))),
                                         id=f"LABEL{k}")
                        for k, (a, b) in enumerate(zip(refs, refs[1:])))
    # a variable of its own, declared last and a decision variable, and an
    # integer of its own: an intension and an allDifferent whose expressions
    # hold both, at its depth in the second block, and read v3 from the
    # first; neither ever fails
    q, big = VarRef("qZ7[3]"), IntConst(987654321)
    constraints += (
        PostedConstraint(K.Intension(OpCall("ne", (OpCall("add", (q, big)), OpCall("if", (
            OpCall("in", (refs[3], expr.SetLiteral((987654321, 70001)))), refs[5], big)))))),
        PostedConstraint(K.AllDifferent((q, OpCall("add", (refs[3], big)),
                                         OpCall("sub", (q, big))))))
    # a sum objective, summed by stages, or an expression that holds q and
    # the integer, costed in the leaf by eval_objective
    expression = OpCall("add", (OpCall("mul", (q, big)), OpCall("if", (
        OpCall("in", (refs[3], expr.SetLiteral((987654321, 70001)))), refs[19], big))))
    objective = sense and (
        K.Objective(K.Sense(sense), K.ObjKind.SUM, operands=tuple(refs), coeffs=(90017,) * 20)
        if sense == "minimize" else
        K.Objective(K.Sense(sense), K.ObjKind.EXPRESSION, expression=expression))
    inst = Instance(tuple(map(Variable, ids + [q.id], domains + [Domain(((70001, 70002),))])),
                    constraints, objective, tuple(ids[:17]) + (q.id,))
    result = _Search(inst, cfg).run()
    assert result.status in (Status.SATISFIABLE, Status.OPTIMUM)
    assert len(sources) == 2  # blocks of 16 and of 5 depths
    # the expressions are written into the second block, which reads q as
    # its loop variable and v3 from env
    assert any(" in p" in source and "= env[p" in source for source in sources)
    leaf = {"minimize": "value = u3_1", "maximize": "value = fL0(env)"}.get(sense, "")
    assert leaf in sources[-1]
    if sense == "minimize":  # the sum's total crosses the boundary in its list
        assert "T15_1[i15_1 + 1] = u15_1" in sources[0]
        assert "u0_1 = T0_1[i0_1] + c0_1 * v0" in sources[1]
    for source in sources:
        for text in ["IDWORD", "LABEL", "7000", "8000", "9001", "qZ7", "987654321"]:
            assert text not in source
        # no written expression is a call of a compiled evaluator
        assert not re.search(r"\bf[0-9_]+\(env\)", source)
