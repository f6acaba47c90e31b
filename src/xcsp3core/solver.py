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
checker.staged_checks). Partial checks only skip subtrees that hold no
solution; no domain is ever filtered. So counts, solution order and optima
are those of plain enumeration, easy to compare against a brute-force
filter.

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
  one variable, so its coefficients are merged into one c.
- "d...", a stage of an allDifferent none of whose operands can raise: one
  inline membership test per operand, of its value (env[id] for a bare
  variable, else its bounded evaluator) against the set of the values of
  the operands checked before it, excepts never entering the set.
- "s", a closure: a partial detector, or a stage of an allDifferent an
  operand of which may raise (a div by a domain holding 0, a range test
  that survives). Its closure scans the operands in the order the
  reference check does, so such an operand raises at the node, and with
  the message, where check_constraint and partial_violated would raise.
- "c", any other kind's complete check from checker's table.
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
count it; cost it and keep the best (checker.objective_cost builds the
cost as one function); or keep solutions, and stop after max_solutions.
The search visits at most node_limit nodes and stops with LIMIT only when
it needs one more. The clock is read before the first node and then
every CLOCK_NODES nodes. Both cost one comparison of the node count per
node. The loop runs over an explicit stack of per-depth value iterators,
so the number of variables is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple, Union

from .checker import (
    _CHECKERS,
    STAGE_FORMS,
    check_constraint,
    eval_objective,
    named_error,
    objective_cost,
    partial_violated,
    prunes,
    staged_checks,
)
from .errors import EvalError, SolverError, UnforcedVariable
from .expr import compile_bounded, generated
from .kinds import ConstraintKind, Intension, Sense
from .model import Instance, Instantiation, Variable


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
# check of its own, (form, arguments) as in checker.staged_checks: a stage,
# or ("s", (detector,)) for a partial detector (True when violated); or
# None for its complete check.
_Check = Tuple[int, ConstraintKind, Optional[Tuple[str, Tuple[object, ...]]]]

# -- generated depth functions ----------------------------------------------------

MAX_CHUNK = 32      # checks, or functions of checks, per generated function
MAX_SHAPES = 256    # factories kept, one per sequence of forms
CLOCK_NODES = 256   # nodes between two readings of the clock

# The code of each form, for call k: its parameters, which get k as a
# suffix, and its lines, which return True when the check fails. "e" calls
# an intension's bounded evaluator (0 is false), "s" a closure stage or
# partial detector (True when violated), "c" the complete check of kind
# a{k}, and "g" a generated function of checks, whose errors are named
# already; the stage forms are checker's. A form whose last parameter is n,
# the constraint's position, may raise: its lines run in a try whose
# handler raises the EvalError again as named(error, n{k}).
_FORMS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "e": (("f", "n"), ("if not f{k}(env):", "    return True")),
    "s": (("f", "n"), ("if f{k}():", "    return True")),
    "c": (("f", "a", "n"), ("if not f{k}(a{k}, env):", "    return True")),
    "g": (("f",), ("if f{k}():", "    return True")),
    **STAGE_FORMS,
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
        self._plan()
        self.fails = [self._compile(checks) for checks in self.plan]

        self.objective = instance.objective
        if self.objective is not None:
            self.sense = self.objective.sense
            self.cost = (objective_cost(self.objective, self.bounds) if cfg.partial_checks
                         else partial(eval_objective, self.objective))
        self.leaf = self._leaf()

    def _plan(self) -> None:
        """For each depth, the checks its variable triggers, in constraint order.

        A staged constraint is checked by its stages alone, the last of them
        at the depth completing its scope.
        """
        env = self.env
        depth_of = {v.id: d for d, v in enumerate(self.order)}
        plan: List[List[_Check]] = [[] for _ in self.order]
        for ci, kind in enumerate(self.kinds):
            if not kind.var_ids:
                continue
            stages = (staged_checks(kind, depth_of, self.bounds, env)
                      if self.cfg.partial_checks else None)
            if stages is not None:
                for d, form, args in stages:
                    plan[d].append((ci, kind, (form, args)))
                continue
            depths = sorted({depth_of[v] for v in kind.var_ids})
            plan[depths[-1]].append((ci, kind, None))
            if self.cfg.partial_checks and prunes(kind):
                detector = ("s", (partial(partial_violated, kind, env),))
                for d in depths[:-1]:
                    plan[d].append((ci, kind, detector))
        # a constraint's checks at one depth are consecutive, in position order
        self.plan = [tuple(checks) for checks in plan]

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
