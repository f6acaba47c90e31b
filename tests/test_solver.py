"""Exhaustive search: statuses, counts against the naive filter, optimization."""

import itertools
import json
import random
import re
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
from xcsp3core.errors import (INT_MAX, DivisionByZero, EvalError, Overflow, SolverError,
                              UnforcedVariable, XcspError)
from xcsp3core.expr import IntConst, OpCall, VarRef, compile_bounded
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


# The parser rejects both instances below (undefined-useful), so only a
# hand-built Instance reaches the search's own guards.
X_AND_UNDEFINED_Y = (Variable("x", Domain(((0, 1),))), Variable("y", None))


def test_a_constrained_variable_without_a_domain_is_not_searched():
    inst = Instance(X_AND_UNDEFINED_Y,
                    (PostedConstraint(K.Intension(OpCall("le", (VarRef("x"), VarRef("y"))))),))
    with pytest.raises(SolverError, match=re.escape(
            "variable y has no domain but is constrained; cannot search")):
        _Search(inst, SearchConfig())


def test_a_decision_variable_without_a_domain_is_not_searched():
    inst = Instance(X_AND_UNDEFINED_Y,
                    (PostedConstraint(K.Intension(OpCall("le", (VarRef("x"), IntConst(1))))),),
                    decision=("x", "y"))
    with pytest.raises(SolverError, match=re.escape(
            "decision variables without a domain: ['y']")):
        _Search(inst, SearchConfig(restrict_to_decision=True))
    # searched over every variable, y is neither branched on nor constrained
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


def _stages_by_depth(kind, order, domains, env):
    """The kind's stages for order, as (depth, check) pairs in depth order:
    each check the generated function of its depth's stages, as the search
    writes it, raising errors unnamed."""
    depth_of = {v: d for d, v in enumerate(order)}
    bounds = {v: (min(domains[v]), max(domains[v])) for v in order}
    stages = staged_checks(kind, depth_of, bounds)
    if stages is None:
        return None, depth_of
    by_depth = {}
    for depth, form, args in stages:
        by_depth.setdefault(depth, []).append((form, args, 0))
    return [(depth, solver._function(calls, env, lambda error, ci: error))
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
    return partial(eval_objective, search.objective)


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
    assert all(form in ("e", "c") for calls in search.plan for form, _, _ in calls)
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
    # an operand that may raise leaves the constraint to the detector scan
    bounds = {v: (min(domains[v]), max(domains[v])) for v in order}
    assert (stages is None) == any(compile_bounded(op, bounds)[1] for op in operands)
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
    assert not isinstance(search.cost, partial)  # the domains here prove every sum
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
    assert plain.cost.func is eval_objective
    # with them, every sum is checked by its stages alone, the cost summed plainly
    staged = _Search(inst, SearchConfig())
    assert all(form not in ("e", "c") for calls in staged.plan for form, _, _ in calls)
    assert not isinstance(staged.cost, partial)
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
    assert isinstance(search.cost, partial) == (cost_coeff == HUGE)
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
    gives it after running every depth's checks and stages, and the
    assignment's eval_objective: the two agree when each pair is equal."""
    env, ids = search.env, [v.id for v in search.order]
    domains = [[value for lo, hi in v.domain.items for value in range(lo, hi + 1)]
               for v in search.order]
    pairs = []
    for values in itertools.product(*domains):
        env.update(zip(ids, values))
        assert not any(fails() for fails in search.fails)
        pairs.append((_verdict(partial(search.cost, env)),
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
    assert isinstance(search.cost, partial) != proved
    forms = [form for calls in search.plan for form, _, _ in calls]
    assert forms == (["sum", "sum"] if proved else [])
    assert all(cost == reference for cost, reference in _costs(search))


def test_objective_cost_evaluates_other_objectives_with_eval_objective():
    expression = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.EXPRESSION,
                             expression=OpCall("add", (VarRef("x"), VarRef("z"))))
    not_bare = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.SUM,
                           operands=(OpCall("add", (VarRef("x"), IntConst(1))),))
    unbounded = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.SUM, operands=(VarRef("z"),))
    # z is declared nowhere, so it has no bounds
    for obj in (expression, not_bare, unbounded):
        cost = _costed_search(obj, [((0, 1),), ((0, 1),)]).cost
        assert isinstance(cost, partial) and cost.func is eval_objective


@pytest.mark.parametrize("bound", [1, INT_MAX])
def test_objective_cost_evaluates_a_bounded_expression_by_its_bounded_evaluator(bound):
    # with y up to INT_MAX, add(x,y) keeps its range test, and x=1 fires it
    obj = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.EXPRESSION,
                      expression=OpCall("add", (VarRef("x"), VarRef("y"))))
    search = _costed_search(obj, [((0, 1),), ((0, 0), (bound, bound))])
    assert not isinstance(search.cost, partial)
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


@pytest.mark.parametrize("chunk", [solver.MAX_CHUNK, 2])
@pytest.mark.parametrize("raising,x", [(None, None), (0, 0), (69, 3), (99, 3)])
def test_a_depth_with_more_checks_than_a_function_holds(monkeypatch, chunk, raising, x):
    monkeypatch.setattr(solver, "MAX_CHUNK", chunk)
    inst = _many_intensions(100, raising)
    generated = _outcome(_Search(inst, SearchConfig()))
    assert generated == _outcome(_Search(inst, SearchConfig(partial_checks=False)))
    if raising is None:
        assert generated == (Status.SATISFIABLE, 10, 20)  # the pairs with y <= x
    else:
        # at y=3, x is the first value that passes the checks before the division
        assert generated[:2] == (DivisionByZero, f"#{raising}: div(6,0) at y=3 x={x}")


def test_generated_code_holds_no_input_text(monkeypatch):
    # each name holds a word that would survive any quoting of it
    ids = ['x"\n{IDONE}', "y'}{\nIDTWO", 'z{"\'}\\IDTHREE']
    labels = ['c"\n{}\'LABELONE', "t'\n}{LABELTWO", 'bad{"}\nLABELTHREE']
    sources = []

    def recording_compile(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", recording_compile, raising=False)
    for module in (expr, solver):
        monkeypatch.setattr(module, "_FACTORIES", {})
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
            for form, _, ci in calls if ci is None] == ["sum"] * 3
    assert any("def fails" in s for s in sources) and any("def evaluate" in s for s in sources)
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
    for module in (expr, solver):
        monkeypatch.setattr(module, "MAX_SHAPES", 2)
        monkeypatch.setattr(module, "_FACTORIES", {})
    monkeypatch.setattr(solver, "MAX_LOOPS", 2)
    monkeypatch.setattr(solver, "_LOOPS", {})
    for _ in range(2):
        # parsed again, so that no kind keeps a bounded evaluator (kinds.bounded)
        # and every expression is compiled under the cap
        instances = [parse_file(str(path)) for path in paths]
        assert [_full_outcome(_Search(inst, cfg)) for inst in instances] == expected
        assert len(solver._FACTORIES) == len(expr._FACTORIES) == len(solver._LOOPS) == 2


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
    source, shape = expr._Writer.source, expr._shape
    monkeypatch.setattr(expr._Writer, "source",
                        lambda self, e: written.append(e) or source(self, e))
    monkeypatch.setattr(expr, "compile",
                        lambda *args: compiled.append(args) or compile(*args), raising=False)
    # nor walks an expression again: each kind keeps its bounded evaluators
    monkeypatch.setattr(expr, "_shape", lambda *args: walked.append(args) or shape(*args))
    assert [_full_outcome(_Search(inst, SearchConfig())) for inst in instances] == outcomes
    assert written == [] and compiled == [] and walked == []


# -- bounded evaluators and generated stages against the reference path -------------

def _two_ways(text):
    """The outcome with partial checks, after checking it against the
    reference path's (partial_checks=False)."""
    inst = parse_string(text)
    outcome = _full_outcome(_Search(inst, SearchConfig()))
    assert outcome == _full_outcome(_Search(inst, SearchConfig(partial_checks=False)))
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
    for module in (expr, solver):
        monkeypatch.setattr(module, "_FACTORIES", {})
    x, y, z = map(VarRef, ids)
    constraints = (
        PostedConstraint(K.Sum((x, y, z, x), (1, 2, 3, 4), Condition(CondOp.LE, 9))),
        PostedConstraint(K.AllDifferent((x, OpCall("add", (y, IntConst(1))), z), (7,))),
        PostedConstraint(K.AllDifferent((y, OpCall("mod", (z, x))))),
        PostedConstraint(K.Intension(OpCall("ne", (OpCall("sub", (x, y)), z)))))
    inst = Instance(tuple(Variable(v, Domain(((0, 2),))) for v in ids), constraints,
                    K.Objective(K.Sense.MAXIMIZE, K.ObjKind.EXPRESSION,
                                expression=OpCall("mul", (x, OpCall("add", (y, z))))))
    search = _Search(inst, SearchConfig())
    forms = {form for calls in search.plan for form, _, _ in calls}
    assert {"sum", "s", "dvx", "dfx", "dvx."} <= forms
    assert _full_outcome(search) == _full_outcome(_Search(inst, SearchConfig(
        partial_checks=False)))
    assert any("def fails" in s for s in sources) and any("env[p0]" in s for s in sources)
    for source in sources:
        for text in ids + ["IDONE", "IDTWO", "IDTHREE"]:
            assert text not in source


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
    whether its checks failed: a node runs its depth's function once."""
    trace, depths = [], itertools.count()
    compile_depth = _Search._compile

    def traced(self, checks):
        fails, depth = compile_depth(self, checks), next(depths)
        return lambda: trace.append((depth, fails())) or trace[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(_Search, "_compile", traced)
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
    objective = sense and K.Objective(K.Sense(sense), K.ObjKind.SUM, operands=tuple(refs),
                                      coeffs=(90017,) * 20)
    inst = Instance(tuple(map(Variable, ids, domains)), constraints, objective,
                    tuple(ids[:17]))
    result = _Search(inst, cfg).run()
    assert result.status in (Status.SATISFIABLE, Status.OPTIMUM)
    assert len(sources) == 2  # blocks of 16 and of 4 depths
    for source in sources:
        for text in ["IDWORD", "LABEL", "7000", "8000", "9001"]:
            assert text not in source
