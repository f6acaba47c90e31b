"""Exhaustive backtracking search over parsed instances.

The solver is a ground-truth oracle for desk-scale instances: depth-first
search over the declared variables in declaration order, checking every
constraint as soon as its scope is fully assigned, plus cheap partial
violation detection for pruning. No propagation beyond that, so results
are easy to trust and to compare against brute-force enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from .checker import (
    check_constraint,
    eval_objective,
    partial_violated,
    prunes,
    useful_variables,
)
from .errors import SolverError, UnforcedVariable
from .kinds import Sense
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

        useful = set(useful_variables(instance))
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
        self.infeasible = any(
            not check_constraint(kind, {}, validate=False)
            for kind in self.kinds if not kind.var_ids)
        self.remaining = [len(kind.var_ids) for kind in self.kinds]
        self.touching: Dict[str, List[int]] = {v.id: [] for v in self.order}
        for ci, kind in enumerate(self.kinds):
            for vid in kind.var_ids:
                self.touching[vid].append(ci)
        self.partial_ok = [cfg.partial_checks and prunes(kind) for kind in self.kinds]

        self.objective = instance.objective
        if self.objective is not None:
            self.sense = self.objective.sense

    # -- bookkeeping ---------------------------------------------------------

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes & 0xFF:
            return
        if self.cfg.node_limit is not None and self.nodes >= self.cfg.node_limit:
            raise _LimitReached()
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _LimitReached()

    def _consistent(self, vid: str) -> bool:
        for ci in self.touching[vid]:
            if self.remaining[ci] == 0:
                if not check_constraint(self.kinds[ci], self.env, validate=False):
                    return False
            elif self.partial_ok[ci] and partial_violated(self.kinds[ci], self.env):
                return False
        return True

    def _record(self) -> None:
        self.count += 1
        if self.objective is not None:
            cost = eval_objective(self.objective, self.env)
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
            self._extend(0)
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

    def _extend(self, depth: int) -> None:
        if depth == len(self.order):
            self._record()
            return
        var = self.order[depth]
        vid = var.id
        for ci in self.touching[vid]:
            self.remaining[ci] -= 1
        try:
            if depth < self.branch_len:
                for value in var.domain.values():
                    self._tick()
                    self.env[vid] = value
                    if self._consistent(vid):
                        self._extend(depth + 1)
            else:
                self._force(depth, var)
        finally:
            self.env.pop(vid, None)
            for ci in self.touching[vid]:
                self.remaining[ci] += 1

    def _force(self, depth: int, var: Variable) -> None:
        # Non-decision variables must be functionally determined by the
        # decision variables; several consistent values is a modelling error.
        vid = var.id
        chosen: Optional[int] = None
        for value in var.domain.values():
            self._tick()
            self.env[vid] = value
            if self._consistent(vid):
                if chosen is not None:
                    raise UnforcedVariable(
                        f"variable {vid} is not determined by the decision "
                        f"variables (both {chosen} and {value} extend)")
                chosen = value
        if chosen is None:
            self.env.pop(vid, None)
            return
        self.env[vid] = chosen
        self._extend(depth + 1)
        self.env.pop(vid, None)


def solve(instance: Instance, config: Optional[SearchConfig] = None) -> SolveResult:
    return _Search(instance, config or SearchConfig()).run()


def count_solutions(instance: Instance,
                    config: Optional[SearchConfig] = None) -> SolveResult:
    cfg = replace(config or SearchConfig(), keep_solutions=False)
    return _Search(instance, cfg).run()
