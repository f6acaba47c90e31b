"""Exhaustive backtracking search over parsed instances.

The solver is a ground-truth oracle for desk-scale instances: depth-first
search over the variables in an order fixed before search starts. That
order is compiled into a plan: for each depth, the checks that run when
that depth's variable is set, in constraint order. A constraint's complete
check runs at the depth that completes its scope, and its partial check at
the earlier depths that assign one of its variables. allDifferent and sum
are checked in stages instead, carrying state from depth to depth: the
stage at the completing depth gives the complete verdict from that state,
and a sum is bounded by the domain min/max of its unassigned terms (see
staged_checks). Partial checks only skip subtrees that hold no solution; no
domain is ever filtered. So counts, solution order and optima are those of
plain enumeration, easy to compare against a brute-force filter. The
semantics themselves are checker's: this module writes the search's code
from them and from the domain bounds.

The plan is then compiled into code, once per search: one function per
depth that runs the depth's checks in plan order and returns True at the
first that fails. Writing each check's code for the model, rather than
calling a general one, follows Minion (Gent, Jefferson and Miguel, ECAI
2006). Each check is written as the code of its form (_FORMS):
- "e", an intension's complete check: a call of its bounded evaluator
  (expr.compile_bounded over the domain bounds). The check runs only once
  its variables are assigned from their domains, so the evaluator reads
  them as env[id] and keeps only the int64 tests the bounds cannot rule
  out: its value and errors are those of the unbounded one.
- "sum", a stage of a sum: written inline, t = T[i] + c * env[v], kept in
  T[i + 1], failing when t leaves the stage's cut-offs. A depth assigns
  one variable, so its coefficients are merged into one c. A sum
  objective whose bounds prove it stays in int64 is summed by the same
  stages, planned after each depth's constraint checks with cut-offs that
  cannot fire; its cost is their last total.
- "d...", a stage of an allDifferent none of whose operands can raise: one
  inline membership test per operand, of its value (env[id] for a bare
  variable, else its bounded evaluator) against the set of the values of
  the operands checked before it, excepts never entering the set.
- "s", a partial detector: a call of partial_violated. An allDifferent an
  operand of which may raise (a div by a domain holding 0, a range test
  that survives) has no stages: its operands must be evaluated, and raise,
  at the node and with the message where the reference scan would, and
  partial_violated and the complete check are that scan.
- "c", any other kind's complete check from checker's table.
- "g", a generated function of checks (see below).
The callables, constants, state lists, kinds and the constraint positions
that name an evaluation error are arguments of the factory that builds
the function: as in expr's generator, no id, label or other input text
enters the source, and one factory serves every function with the same
sequence of forms. A generated function makes at most MAX_CHUNK checks: a
depth with more gets a tree of functions ("g" calls one), so planning
stays linear in the number of checks. At most MAX_SHAPES factories are
kept, the oldest dropped first; a search of an instance met again writes
no source. An EXPRESSION objective is costed by its bounded evaluator. With
partial_checks off, every complete check goes through check_constraint
and every cost through eval_objective, both with unbounded evaluators:
that is the reference path.

A complete assignment reaches one leaf, chosen when the search is built:
count it; cost it and keep the best; or keep solutions, and stop after
max_solutions. The search visits at most node_limit nodes and stops with
LIMIT only when it needs one more. The clock is read before the first node
and then every CLOCK_NODES nodes. Both cost one comparison of the node
count per node. The loop runs over an explicit stack of per-depth value
iterators, so the number of variables is not bounded by Python's recursion
limit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from .checker import (
    _CHECKERS,
    Cost,
    check_constraint,
    eval_objective,
    named_error,
    partial_violated,
)
from .errors import INT_MAX, INT_MIN, EvalError, SolverError, UnforcedVariable
from .expr import Expr, VarRef, compile_bounded, free_vars, generated
from .kinds import AllDifferent, ConstraintKind, Intension, Objective, ObjKind, Sense, Sum
from .model import CondOp, Instance, Instantiation, Variable


class Status(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    OPTIMUM = "optimum"
    LIMIT = "limit"


class VarOrder(Enum):
    DECLARATION = "declaration"
    SMALLEST_DOMAIN = "smallest-domain"


@dataclass(frozen=True)
class SearchConfig:
    """Search options. A limit of None means none.

    max_solutions must be at least 1, node_limit at least 0 and time_limit
    (seconds) at least 0; anything else raises ValueError.
    """

    max_solutions: Optional[int] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    var_order: VarOrder = VarOrder.DECLARATION
    restrict_to_decision: bool = False
    partial_checks: bool = True
    keep_solutions: bool = True

    def __post_init__(self) -> None:
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError(f"max_solutions must be at least 1, not {self.max_solutions}")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node_limit must be at least 0, not {self.node_limit}")
        if self.time_limit is not None and (math.isnan(self.time_limit)
                                            or self.time_limit < 0):
            raise ValueError(f"time_limit must be at least 0 seconds, not {self.time_limit}")


@dataclass(frozen=True)
class SolveResult:
    status: Status
    count: int
    solutions: Tuple[Instantiation, ...]
    best: Optional[Instantiation]
    best_cost: Optional[Union[int, Tuple[int, ...]]]
    nodes: int


class _Stop(Exception):
    pass


class _LimitReached(Exception):
    pass


# One check of the plan: the constraint's position, the constraint, and a
# check of its own, (form, arguments) as in staged_checks: a stage, or
# ("s", (detector,)) for a partial detector (True when violated); or None
# for its complete check. A stage of a sum objective has None and the
# objective in place of the position and the constraint.
_Check = Tuple[Optional[int], Union[ConstraintKind, Objective],
               Optional[Tuple[str, Tuple[object, ...]]]]

# -- generated depth functions ----------------------------------------------------

MAX_CHUNK = 32      # checks, or functions of checks, per generated function
MAX_SHAPES = 256    # factories kept, one per sequence of forms
CLOCK_NODES = 256   # nodes between two readings of the clock

# how an allDifferent operand's check reads its value: its parameter and line
_READS = {"v": ("p", "v = env[p{k}]"), "f": ("f", "v = f{k}(env)")}


def _distinct_form(read: str, excepts: bool, last: bool) -> Tuple[Tuple[str, ...], ...]:
    """An allDifferent operand's check: its value v against the set S[i] of
    the values of the operands checked before it; unless it is the last,
    the set with v goes to S[i + 1], where the next one reads it. A value in
    the excepts E enters no set."""
    param, line = _READS[read]
    lines = [line, "s = S{k}[i{k}]"]
    test = ["if v in s:", "    return True"]
    if excepts:
        lines += ["if v not in E{k}:"] + [f"    {line}" for line in test]
        if not last:
            lines += ["    s = {{*s, v}}", "S{k}[i{k} + 1] = s"]
    else:
        lines += test + ([] if last else ["S{k}[i{k} + 1] = {{*s, v}}"])
    return (param, "S", "i") + (("E",) if excepts else ()), tuple(lines)


# The code of each form, for call k: its parameters, which get k as a
# suffix, and its lines, str.format()ed with k, which return True when the
# check fails. "e" calls an intension's bounded evaluator (0 is false), "s"
# a partial detector (True when violated), "c" the complete check of kind
# a{k}, and "g" a generated function of checks, whose errors are named
# already. A sum stage adds its variable's term c * x (the coefficients of
# a variable merged) to the total T[i] of the stages before, keeps it in
# T[i + 1] and fails outside lo..hi. An allDifferent operand ("d": "v" a
# bare variable read from env, "f" a call of a bounded evaluator that
# cannot raise; "x" with excepts; "." the last operand checked) is a
# membership test. A form whose last parameter is n, the constraint's
# position, may raise: its lines run in a try whose handler raises the
# EvalError again as named(error, n{k}).
_FORMS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "e": (("f", "n"), ("if not f{k}(env):", "    return True")),
    "s": (("f", "n"), ("if f{k}():", "    return True")),
    "c": (("f", "a", "n"), ("if not f{k}(a{k}, env):", "    return True")),
    "g": (("f",), ("if f{k}():", "    return True")),
    "sum": (("T", "i", "c", "v", "lo", "hi"),
            ("t = T{k}[i{k}] + c{k} * env[v{k}]",
             "T{k}[i{k} + 1] = t",
             "if t < lo{k} or t > hi{k}:",
             "    return True")),
    **{f"d{read}{'x' if excepts else ''}{'.' if last else ''}":
       _distinct_form(read, excepts, last)
       for read in _READS for excepts in (False, True) for last in (False, True)},
}
_FACTORIES: Dict[Tuple[str, ...], Callable[..., Callable[[], bool]]] = {}
_NAMESPACE = {"EvalError": EvalError}

# the reference path's complete check
_reference_check = partial(check_constraint, validate=False)

# A call of a generated function: form, arguments, and the constraint's
# position, which a form that names no error leaves unused.
_Call = Tuple[str, Tuple[object, ...], Optional[int]]


def _source(forms: Tuple[str, ...]) -> str:
    """The factory of one shape: _make(env, named, <the forms' parameters>).

    fails() runs the forms' code in order and returns True at the first
    check that fails, False when all pass.
    """
    params, body = ["env", "named"], ["    def fails():"]
    for k, form in enumerate(forms):
        names, lines = _FORMS[form]
        params += [f"{name}{k}" for name in names]
        code = [line.format(k=k) for line in lines]
        if names[-1] == "n":
            code = (["try:"] + [f"    {line}" for line in code]
                    + ["except EvalError as e:", f"    raise named(e, n{k}) from e"])
        body += [f"        {line}" for line in code]
    body.append("        return False")
    return "\n".join([f"def _make({', '.join(params)}):"] + body + ["    return fails", ""])


def _function(calls: List[_Call], env: Dict[str, int],
              named: Callable[[EvalError, int], EvalError]) -> Callable[[], bool]:
    """One generated function running calls in order over env: True at the
    first that fails. named(error, position) names an error of a call."""
    forms = tuple(form for form, _, _ in calls)
    make = generated(_FACTORIES, MAX_SHAPES, forms, partial(_source, forms),
                     _NAMESPACE, "<search depth>")
    return make(env, named, *[arg for form, args, ci in calls
                              for arg in (args + (ci,) if _FORMS[form][0][-1] == "n"
                                          else args)])


# -- staged checks ----------------------------------------------------------------
#
# A search that assigns the variables in a fixed order can check a kind in
# stages: the check at one depth starts from the state the check at the
# previous depth left, instead of rescanning the whole scope. A builder gets
# the depth at which each variable is assigned, each variable's domain
# bounds (min, max) and the assignment the search mutates. It returns
# stages (depth, form, arguments) in depth order: the depths are those that
# assign a variable of the constraint, or a subset of them that ends with
# the one completing the scope, and a depth may have more than one stage.
# The search writes each stage into its depth's generated function as the
# code of its form, in order; no stage form can raise. A stage fails
# (returns True) when it finds the constraint violated, and runs only after
# the stages before it, at its depth and the earlier ones, have passed
# under the current assignment. Before the last depth it fails only when no
# extension can satisfy the constraint, like partial_violated; the stages
# of the last depth together are the complete check: one fails exactly
# when check_constraint would return False. None means the constraint does
# not qualify, and the search falls back to check_constraint and
# partial_violated.

Stage = Tuple[int, str, Tuple[object, ...]]


def _scope_depths(kind: ConstraintKind, depth_of: Mapping[str, int]) -> List[int]:
    """Depths that assign a variable of kind, the one completing its scope last."""
    return sorted({depth_of[v] for v in kind.var_ids})


# A term c * x of a sum: c, the id of x and the domain bounds (lo, hi) of x
_Term = Tuple[int, str, Tuple[int, int]]


def _proved_terms(operands: Sequence[Expr], coeffs: Sequence[int],
                  bounds: Mapping[str, Tuple[int, int]]) -> Optional[List[_Term]]:
    """The terms c * x of a sum, when every operand x is a variable with
    bounds and no product c * x or partial sum of them can leave int64;
    else None."""
    if any(type(op) is not VarRef or op.id not in bounds for op in operands):
        return None
    terms = [(c, op.id, bounds[op.id]) for c, op in zip(coeffs, operands)]
    fits = sum(abs(c) * max(abs(lo), abs(hi)) for c, _, (lo, hi) in terms) <= INT_MAX
    return terms if fits else None


def _staged_all_different(kind: AllDifferent, depth_of: Mapping[str, int],
                          bounds: Mapping[str, Tuple[int, int]]) -> Optional[List[Stage]]:
    """Evaluate each operand once, at the depth where it becomes ready.

    Each operand is a bare variable or a bounded evaluator (compile_bounded),
    and each is a check of its own ("d" forms), in depth then position
    order: none can raise, so the verdicts are those of partial_violated and
    the complete check, and no order of evaluation can be seen. None when
    an operand may raise: then partial_violated and the complete check,
    which scan the operands in their own order, decide where it raises.
    """
    depths = _scope_depths(kind, depth_of)
    # each depth's fresh operands: operand, bounded evaluator (None for a
    # bare variable), in position order
    fresh: Dict[int, List[Tuple[Expr, Optional[Callable]]]] = {d: [] for d in depths}
    for op in kind.operands:
        if type(op) is VarRef:
            fresh[depth_of[op.id]].append((op, None))
            continue
        evaluate, may_raise = compile_bounded(op, bounds)
        if may_raise:
            return None
        # an operand without variables is ready at the first check
        ready = max((depth_of[v] for v in free_vars(op)), default=depths[0])
        fresh[ready].append((op, evaluate))
    excepts = frozenset(kind.excepts)
    checks = [(d, op, evaluate) for d in depths for op, evaluate in fresh[d]]
    # sets[i]: the values of the operands checked before check i, but excepts
    sets: List[Optional[FrozenSet[int]]] = [frozenset()] + [None] * (len(checks) - 1)
    suffix = "x" if excepts else ""
    stages: List[Stage] = []
    for i, (d, op, evaluate) in enumerate(checks):
        form = ("dv" if evaluate is None else "df") + suffix
        if i == len(checks) - 1:
            form += "."
        args = (op.id if evaluate is None else evaluate, sets, i)
        stages.append((d, form, args + ((excepts,) if excepts else ())))
    return stages


def _sum_stages(terms: Sequence[_Term], depth_of: Mapping[str, int], want_lo: int,
                want_hi: int) -> Tuple[List[Stage], List[int]]:
    """"sum" stages of a running total of terms c * x, and the totals they keep.

    One stage per depth that assigns a term's variable adds that
    variable's terms, and fails when the unassigned terms' bounds leave the
    total no way into want_lo..want_hi. After the last stage, totals[-1] is
    the sum of every term.
    """
    depths = sorted({depth_of[vid] for _, vid, _ in terms})
    totals = [0] * (len(depths) + 1)  # totals[i + 1]: the terms of stages 0..i, summed
    stages: List[Stage] = []
    for i, d in enumerate(depths):
        here = [(c, vid) for c, vid, _ in terms if depth_of[vid] == d]
        rest = [(c * lo, c * hi) for c, vid, (lo, hi) in terms if depth_of[vid] > d]
        rest_lo = sum(min(ends) for ends in rest)
        rest_hi = sum(max(ends) for ends in rest)
        stages.append((d, "sum", (totals, i, sum(c for c, _ in here), here[0][1],
                                  want_lo - rest_hi, want_hi - rest_lo)))
    return stages, totals


_BOUNDED_OPS = frozenset({CondOp.LT, CondOp.LE, CondOp.GE, CondOp.GT, CondOp.EQ})


def _staged_sum(kind: Sum, depth_of: Mapping[str, int],
                bounds: Mapping[str, Tuple[int, int]]) -> Optional[List[Stage]]:
    """Keep a running sum; prune when the unassigned terms' bounds cannot meet the condition.

    Only for integer coefficients over bare variables, a relational
    condition other than ne with an integer operand, and domains small
    enough that no partial or total sum can leave the 64-bit range, so that
    the complete check could never raise Overflow on this constraint. At the
    completing depth no term is left unassigned, so the same comparison is
    the complete verdict.
    """
    coeffs, condition = kind.int_coeffs, kind.condition
    if (coeffs is None or condition.op not in _BOUNDED_OPS
            or not isinstance(condition.operand, int)):
        return None
    terms = _proved_terms(kind.terms, coeffs, bounds)
    if terms is None:
        return None
    k, op = condition.operand, condition.op
    # the totals that satisfy the condition; one past the int64 range is unbounded
    want_lo = k + 1 if op is CondOp.GT else k if op in (CondOp.GE, CondOp.EQ) else INT_MIN - 1
    want_hi = k - 1 if op is CondOp.LT else k if op in (CondOp.LE, CondOp.EQ) else INT_MAX + 1
    return _sum_stages(terms, depth_of, want_lo, want_hi)[0]


# kind -> builder of its staged checks
_STAGED: Dict[type, Callable[..., Optional[List[Stage]]]] = {
    AllDifferent: _staged_all_different,
    Sum: _staged_sum,
}


def staged_checks(kind: ConstraintKind, depth_of: Mapping[str, int],
                  bounds: Mapping[str, Tuple[int, int]]) -> Optional[List[Stage]]:
    """The kind's staged checks for a fixed variable order, or None."""
    build = _STAGED.get(type(kind))
    return None if build is None else build(kind, depth_of, bounds)


class _Search:
    def __init__(self, instance: Instance, cfg: SearchConfig):
        self.instance = instance
        self.cfg = cfg
        self.env: Dict[str, int] = {}
        self.nodes = 0
        self.count = 0
        self.solutions: List[Instantiation] = []
        self.best: Optional[Instantiation] = None
        self.best_cost: Optional[Union[int, Tuple[int, ...]]] = None
        self.deadline = (time.monotonic() + cfg.time_limit
                         if cfg.time_limit is not None else None)

        useful = set(instance.useful_ids)
        defined: List[Variable] = []
        for var in instance.variables():
            if var.domain is None:
                if var.id in useful:
                    raise SolverError(f"variable {var.id} has no domain but is "
                                      f"constrained; cannot search")
                continue
            defined.append(var)

        if cfg.restrict_to_decision and instance.decision is not None:
            decision = list(dict.fromkeys(instance.decision))
            by_id = {v.id: v for v in defined}
            missing = [d for d in decision if d not in by_id]
            if missing:
                raise SolverError(f"decision variables without a domain: {missing}")
            branch = [by_id[d] for d in decision]
            decided = set(decision)
            forced = [v for v in defined if v.id not in decided and v.id in useful]
        else:
            branch = defined
            forced = []
        if cfg.var_order is VarOrder.SMALLEST_DOMAIN:
            branch = sorted(branch, key=lambda v: v.domain.size)
        self.order: List[Variable] = branch + forced
        self.branch_len = len(branch)

        self.kinds = [posted.kind for posted in instance.constraints]
        # constraints without variables are settled here, once
        self.infeasible = False
        for ci, kind in enumerate(self.kinds):
            if not kind.var_ids:
                try:
                    holds = check_constraint(kind, {}, validate=False)
                except EvalError as e:
                    raise self._named(e, ci) from e
                if not holds:
                    self.infeasible = True
                    break
        self.bounds = {v.id: (v.domain.min_value, v.domain.max_value) for v in self.order}
        self.objective = instance.objective
        if self.objective is not None:
            self.sense = self.objective.sense
        self._plan()
        self.fails = [self._compile(checks) for checks in self.plan]
        self.leaf = self._leaf()

    def _plan(self) -> None:
        """For each depth, the checks its variable triggers, in constraint order.

        A staged constraint is checked by its stages alone, the last of them
        at the depth completing its scope. The stages of a summed objective
        (see _cost) come after every constraint's checks.
        """
        env = self.env
        depth_of = {v.id: d for d, v in enumerate(self.order)}
        plan: List[List[_Check]] = [[] for _ in self.order]
        for ci, kind in enumerate(self.kinds):
            if not kind.var_ids:
                continue
            stages = (staged_checks(kind, depth_of, self.bounds)
                      if self.cfg.partial_checks else None)
            if stages is not None:
                for d, form, args in stages:
                    plan[d].append((ci, kind, (form, args)))
                continue
            depths = _scope_depths(kind, depth_of)
            plan[depths[-1]].append((ci, kind, None))
            if self.cfg.partial_checks and _CHECKERS[type(kind)][1] is not None:
                detector = ("s", (partial(partial_violated, kind, env),))
                for d in depths[:-1]:
                    plan[d].append((ci, kind, detector))
        if self.objective is not None:
            self.cost = self._cost(plan, depth_of)
        # a constraint's checks at one depth are consecutive, in position order
        self.plan = [tuple(checks) for checks in plan]

    def _cost(self, plan: List[List[_Check]],
              depth_of: Mapping[str, int]) -> Callable[[Mapping[str, int]], Cost]:
        """The objective's cost of a complete assignment, as one function.

        An expression whose variables all have bounds is evaluated by its
        bounded evaluator (expr.compile_bounded). A sum whose terms the
        bounds prove to stay in int64 (see _proved_terms) is summed by "sum" stages, added to plan after each depth's checks:
        their cut-offs lie one past int64, where no partial total can go, so
        they never fail, and the cost reads their last total. Any other
        objective, and every objective with partial_checks off, goes through
        eval_objective.
        """
        obj, bounds = self.objective, self.bounds
        if not self.cfg.partial_checks:
            return partial(eval_objective, obj)
        if obj.kind is ObjKind.EXPRESSION and all(v in bounds for v in obj.var_ids):
            return compile_bounded(obj.expression, bounds)[0]
        coeffs = obj.coeffs if obj.coeffs is not None else (1,) * len(obj.operands)
        terms = _proved_terms(obj.operands, coeffs, bounds) if obj.kind is ObjKind.SUM else None
        if terms is None:
            return partial(eval_objective, obj)
        stages, totals = _sum_stages(terms, depth_of, INT_MIN - 1, INT_MAX + 1)
        for d, form, args in stages:
            plan[d].append((None, obj, (form, args)))
        return lambda env: totals[-1]

    def _compile(self, checks: Tuple[_Check, ...]) -> Callable[[], bool]:
        """One depth's checks as one function: True when one of them fails.

        The checks are split into generated functions of MAX_CHUNK checks,
        and while there is more than one, those are grouped MAX_CHUNK at a
        time under a generated function that calls them in order. So no
        function grows with the depth's checks, and the calls nest only
        log base MAX_CHUNK deep.
        """
        calls: List[_Call] = []
        for ci, kind, check in checks:
            if check is not None:
                form, args = check
            elif not self.cfg.partial_checks:
                form, args = "c", (_reference_check, kind)
            elif type(kind) is Intension:
                form, args = "e", (compile_bounded(kind.function, self.bounds)[0],)
            else:
                form, args = "c", (_CHECKERS[type(kind)][0], kind)
            calls.append((form, args, ci))
        while True:
            functions = [_function(calls[i:i + MAX_CHUNK], self.env, self._named)
                         for i in range(0, len(calls) or 1, MAX_CHUNK)]
            if len(functions) == 1:
                return functions[0]
            calls = [("g", (f,), None) for f in functions]

    # -- bookkeeping ---------------------------------------------------------

    def _checkpoint(self, nodes: int) -> int:
        """Stop with LIMIT if a limit is reached after nodes nodes; else the
        count at which to test again, -1 when never.

        The node limit is tested when the count reaches it, before one more
        node would be visited, and the clock at 0 nodes and every
        CLOCK_NODES nodes after.
        """
        limit = self.cfg.node_limit
        if limit is not None and nodes >= limit:
            raise _LimitReached()
        if self.deadline is None:
            return -1 if limit is None else limit
        if time.monotonic() > self.deadline:
            raise _LimitReached()
        clock = nodes + CLOCK_NODES
        return clock if limit is None else min(clock, limit)

    def _named(self, error: EvalError, ci: int) -> EvalError:
        return named_error(error, self.instance.constraints[ci].label(ci),
                           self.kinds[ci].var_ids, self.env)

    def _leaf(self) -> Callable[[], None]:
        """What a complete assignment does: count it, cost it, or keep it."""
        env, cfg = self.env, self.cfg
        if self.objective is not None:
            cost, minimize = self.cost, self.sense is Sense.MINIMIZE

            def keep_best() -> None:
                self.count += 1
                value, best = cost(env), self.best_cost
                if best is None or (value < best if minimize else value > best):
                    self.best_cost = value
                    self.best = Instantiation(dict(env))
            return keep_best

        if not cfg.keep_solutions and cfg.max_solutions is None:
            def count() -> None:
                self.count += 1
                if self.best is None:
                    self.best = Instantiation(dict(env))
            return count

        def keep() -> None:
            self.count += 1
            solution = Instantiation(dict(env))
            if cfg.keep_solutions:
                self.solutions.append(solution)
            if self.best is None:
                self.best = solution
            if cfg.max_solutions is not None and self.count >= cfg.max_solutions:
                raise _Stop()
        return keep

    # -- search --------------------------------------------------------------

    def run(self) -> SolveResult:
        status: Status
        if self.infeasible:
            return self._result(Status.UNSATISFIABLE)
        try:
            self._search()
        except _Stop:
            return self._result(Status.SATISFIABLE)
        except _LimitReached:
            return self._result(Status.LIMIT)
        if self.objective is not None:
            status = Status.OPTIMUM if self.best is not None else Status.UNSATISFIABLE
        else:
            status = Status.SATISFIABLE if self.count else Status.UNSATISFIABLE
        return self._result(status)

    def _result(self, status: Status) -> SolveResult:
        return SolveResult(status, self.count, tuple(self.solutions),
                           self.best, self.best_cost, self.nodes)

    def _search(self) -> None:
        """Depth-first over the compiled plan, with one value iterator per depth.

        A branching depth descends on its first value that passes every
        check and resumes its iterator on the way back. A forced depth
        (restrict_to_decision) tries all its values first: exactly one may
        pass, and search descends with it after running its checks again,
        which rebuilds the staged state for that value.
        """
        n, leaf = len(self.order), self.leaf
        if n == 0:
            leaf()
            return
        env, fails, branch_len = self.env, self.fails, self.branch_len
        ids = [v.id for v in self.order]
        runs = [tuple(range(lo, hi + 1) for lo, hi in v.domain.items) for v in self.order]
        iters = [chain.from_iterable(runs[0])] + [iter(())] * (n - 1)
        nodes = test_at = self.nodes  # the limits are first tested before the first node
        depth = 0
        try:
            while depth >= 0:
                vid, failed = ids[depth], fails[depth]
                chosen = None
                for value in iters[depth]:
                    if nodes == test_at:
                        test_at = self._checkpoint(nodes)
                    nodes += 1
                    env[vid] = value
                    if failed():
                        continue
                    if depth < branch_len:
                        break
                    if chosen is not None:
                        at = " ".join(f"{v}={env[v]}" for v in ids[:branch_len])
                        raise UnforcedVariable(
                            f"variable {vid} is not determined by the decision "
                            f"variables (both {chosen} and {value} extend)"
                            + (f" at {at}" if at else ""))
                    chosen = value
                else:
                    if chosen is None:
                        env.pop(vid, None)
                        depth -= 1
                        continue
                    env[vid] = chosen
                    failed()
                depth += 1
                if depth < n:
                    iters[depth] = chain.from_iterable(runs[depth])
                    continue
                leaf()
                depth -= 1
        finally:
            self.nodes = nodes


def solve(instance: Instance, config: Optional[SearchConfig] = None) -> SolveResult:
    return _Search(instance, config or SearchConfig()).run()


def count_solutions(instance: Instance,
                    config: Optional[SearchConfig] = None) -> SolveResult:
    cfg = replace(config or SearchConfig(), keep_solutions=False)
    return _Search(instance, cfg).run()
