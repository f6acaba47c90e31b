"""Exhaustive search: statuses, counts against the naive filter, optimization."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import fixture_path
from xcsp3core import checker, solver
from xcsp3core import kinds as K
from xcsp3core.checker import (
    check_constraint,
    check_solution,
    eval_objective,
    objective_cost,
    partial_violated,
    staged_checks,
)
from xcsp3core.errors import (INT_MAX, DivisionByZero, EvalError, Overflow, UnforcedVariable,
                              XcspError)
from xcsp3core.expr import IntConst, OpCall, VarRef
from xcsp3core.model import CondOp, Condition
from xcsp3core.parser import parse_file, parse_string
from xcsp3core.solver import (
    SearchConfig,
    _Search,
    Status,
    VarOrder,
    count_solutions,
    solve,
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
    assert result.nodes <= 600  # stops soon after the threshold


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
    depth_of = {v: d for d, v in enumerate(order)}
    bounds = {v: (min(domains[v]), max(domains[v])) for v in order}
    return staged_checks(kind, depth_of, bounds, env), depth_of


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


def _costed_by_eval_objective(obj, bounds):
    return partial(eval_objective, obj)


def _fallback_search(monkeypatch, inst, cfg=SearchConfig()):
    """A search whose partial checks are the generic detectors alone.

    Every complete check goes through check_constraint and every cost
    through eval_objective.
    """
    with monkeypatch.context() as m:
        m.setattr(checker, "_STAGED", {})
        m.setattr(solver, "objective_cost", _costed_by_eval_objective)
        return _Search(inst, cfg)


def _complete_check_search(monkeypatch, inst, cfg=SearchConfig()):
    """A search with the same staged partial checks, finished by check_constraint.

    Each staged constraint's last stage, at the depth completing its scope,
    is replaced by check_constraint, and every cost goes through
    eval_objective: the plan as it was before the stages finished their own
    scopes, with the same pruning and so the same node count.
    """
    def finished_by_check_constraint(build):
        def builder(kind, depth_of, bounds, env):
            stages = build(kind, depth_of, bounds, env)
            if stages is None:
                return None

            def complete():
                return not check_constraint(kind, env, validate=False)

            return stages[:-1] + [(stages[-1][0], complete)]
        return builder

    with monkeypatch.context() as m:
        m.setattr(checker, "_STAGED", {kind: finished_by_check_constraint(build)
                                       for kind, build in checker._STAGED.items()})
        m.setattr(solver, "objective_cost", _costed_by_eval_objective)
        return _Search(inst, cfg)


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
    assert all(check[2] is None for checks in search.plan for check in checks)
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
    assert all(check[2] is None for checks in plain.plan for check in checks)
    assert plain.cost.func is eval_objective
    # with them, every sum is checked by its stages alone, the cost summed plainly
    staged = _Search(inst, SearchConfig())
    assert all(check[2] is not None for checks in staged.plan for check in checks)
    assert not isinstance(staged.cost, partial)
    assert _full_outcome(staged)[:4] == _full_outcome(plain)[:4]


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
    cost = objective_cost(obj, {"x": (-3, 2), "y": (0, 1)})
    assert isinstance(cost, partial) != proved
    for x, y in itertools.product((-3, 2), (0, 1)):
        env = {"x": x, "y": y}
        assert _verdict(partial(cost, env)) == _verdict(partial(eval_objective, obj, env))


def test_objective_cost_evaluates_other_objectives_with_eval_objective():
    bounds = {"x": (0, 1), "y": (0, 1)}
    expression = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.EXPRESSION,
                             expression=OpCall("add", (VarRef("x"), VarRef("y"))))
    not_bare = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.SUM,
                           operands=(OpCall("add", (VarRef("x"), IntConst(1))),))
    unbounded = K.Objective(K.Sense.MAXIMIZE, K.ObjKind.SUM, operands=(VarRef("z"),))
    for obj in (expression, not_bare, unbounded):
        cost = objective_cost(obj, bounds)
        assert isinstance(cost, partial) and cost.func is eval_objective


@pytest.mark.parametrize("condition,outcome", [
    ("(eq,4)", (Status.SATISFIABLE, 5, 55)),
    ("(le,4)", (UnforcedVariable, "variable y is not determined by the decision "
                "variables (both 0 and 1 extend)", 3)),
])
def test_staged_sum_completing_at_a_forced_depth(monkeypatch, condition, outcome):
    # y is forced; the sum's last stage runs at y's depth for every value of y
    inst = parse_string(DECISION_TEXT.format(
        ctr=f"<sum><list> x y </list><condition> {condition} </condition></sum>"))
    cfg = SearchConfig(restrict_to_decision=True)
    assert _outcome(_Search(inst, cfg)) == outcome
    assert _outcome(_fallback_search(monkeypatch, inst, cfg)) == outcome
