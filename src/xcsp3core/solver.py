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
checker.staged_checks). The objective is costed by one function built
before search (checker.objective_cost). Partial checks only skip subtrees
that hold no solution; no domain is ever filtered. So counts, solution
order and optima are those of plain enumeration, easy to compare against a
brute-force filter. With partial_checks off, every complete check goes
through check_constraint and every cost through eval_objective. The loop
runs over an explicit stack of per-depth value iterators, so the number of
variables is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple, Union

from .checker import (
    check_constraint,
    eval_objective,
    named_error,
    objective_cost,
    partial_violated,
    prunes,
    staged_checks,
)
from .errors import EvalError, SolverError, UnforcedVariable
from .kinds import ConstraintKind, Sense
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
    max_solutions: Optional[int] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    var_order: VarOrder = VarOrder.DECLARATION
    restrict_to_decision: bool = False
    partial_checks: bool = True
    keep_solutions: bool = True


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
# check of its own (a partial detector or a stage of checker.staged_checks,
# True when violated), or None for check_constraint.
_Check = Tuple[int, ConstraintKind, Optional[Callable[[], bool]]]


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
        bounds = {v.id: (v.domain.min_value, v.domain.max_value) for v in self.order}
        self._plan(bounds)

        self.objective = instance.objective
        if self.objective is not None:
            self.sense = self.objective.sense
            self.cost = (objective_cost(self.objective, bounds) if cfg.partial_checks
                         else partial(eval_objective, self.objective))

    def _plan(self, bounds: Dict[str, Tuple[int, int]]) -> None:
        """For each depth, the checks its variable triggers, in constraint order.

        A staged constraint is checked by its stages alone, the last of them
        at the depth completing its scope. staged[d] lists the stages at
        depth d whose state later stages read: a forced variable rebuilds it
        for its chosen value.
        """
        env = self.env
        depth_of = {v.id: d for d, v in enumerate(self.order)}
        plan: List[List[_Check]] = [[] for _ in self.order]
        self.staged: List[List[Callable[[], bool]]] = [[] for _ in self.order]
        for ci, kind in enumerate(self.kinds):
            if not kind.var_ids:
                continue
            stages = (staged_checks(kind, depth_of, bounds, env)
                      if self.cfg.partial_checks else None)
            if stages is not None:
                for d, check in stages:
                    plan[d].append((ci, kind, check))
                for d, check in stages[:-1]:
                    self.staged[d].append(check)
                continue
            depths = sorted({depth_of[v] for v in kind.var_ids})
            plan[depths[-1]].append((ci, kind, None))
            if self.cfg.partial_checks and prunes(kind):
                detector = partial(partial_violated, kind, env)
                for d in depths[:-1]:
                    plan[d].append((ci, kind, detector))
        # each constraint adds at most one check per depth, in position order
        self.plan = [tuple(checks) for checks in plan]

    # -- bookkeeping ---------------------------------------------------------

    def _limit_reached(self, nodes: int) -> bool:
        if self.cfg.node_limit is not None and nodes >= self.cfg.node_limit:
            return True
        return self.deadline is not None and time.monotonic() > self.deadline

    def _named(self, error: EvalError, ci: int) -> EvalError:
        return named_error(error, self.instance.constraints[ci].label(ci),
                           self.kinds[ci].var_ids, self.env)

    def _record(self) -> None:
        self.count += 1
        if self.objective is not None:
            cost = self.cost(self.env)
            if self.best_cost is None or self._better(cost, self.best_cost):
                self.best_cost = cost
                self.best = Instantiation(dict(self.env))
        else:
            if self.cfg.keep_solutions:
                self.solutions.append(Instantiation(dict(self.env)))
            if self.best is None:
                self.best = self.solutions[-1] if self.solutions \
                    else Instantiation(dict(self.env))
            if (self.cfg.max_solutions is not None
                    and self.count >= self.cfg.max_solutions):
                raise _Stop()

    def _better(self, a, b) -> bool:
        return a < b if self.sense is Sense.MINIMIZE else a > b

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
        """Depth-first over the plan, with one value iterator per depth.

        A branching depth descends on its first value that passes every
        check and resumes its iterator on the way back. A forced depth
        (restrict_to_decision) tries all its values first: exactly one may
        pass, and search descends with it after rebuilding the staged state.
        """
        n = len(self.order)
        if n == 0:
            self._record()
            return
        env, plan, staged, branch_len = self.env, self.plan, self.staged, self.branch_len
        ids = [v.id for v in self.order]
        runs = [tuple(range(lo, hi + 1) for lo, hi in v.domain.items) for v in self.order]
        iters = [chain.from_iterable(runs[0])] + [iter(())] * (n - 1)
        nodes = self.nodes
        depth = 0
        ci: Optional[int] = None  # the constraint whose check is running
        try:
            while depth >= 0:
                vid, checks = ids[depth], plan[depth]
                chosen = None
                for value in iters[depth]:
                    nodes += 1
                    if not nodes & 0xFF and self._limit_reached(nodes):
                        raise _LimitReached()
                    env[vid] = value
                    for ci, kind, detector in checks:
                        if detector is None:
                            if not check_constraint(kind, env, validate=False):
                                break
                        elif detector():
                            break
                    else:
                        if depth < branch_len:
                            break
                        if chosen is not None:
                            raise UnforcedVariable(
                                f"variable {vid} is not determined by the decision "
                                f"variables (both {chosen} and {value} extend)")
                        chosen = value
                else:
                    if chosen is None:
                        env.pop(vid, None)
                        depth -= 1
                        continue
                    env[vid] = chosen
                    for check in staged[depth]:
                        check()
                depth += 1
                if depth < n:
                    iters[depth] = chain.from_iterable(runs[depth])
                    continue
                ci = None
                self._record()
                depth -= 1
        except EvalError as e:
            if ci is None:
                raise
            raise self._named(e, ci) from e
        finally:
            self.nodes = nodes


def solve(instance: Instance, config: Optional[SearchConfig] = None) -> SolveResult:
    return _Search(instance, config or SearchConfig()).run()


def count_solutions(instance: Instance,
                    config: Optional[SearchConfig] = None) -> SolveResult:
    cfg = replace(config or SearchConfig(), keep_solutions=False)
    return _Search(instance, cfg).run()
