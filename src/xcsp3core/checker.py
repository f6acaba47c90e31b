"""Constraint checking, solution verification and objective evaluation.

The semantics of every constraint kind sit in one table, _CHECKERS: a
complete check and, for kinds that prune, a partial violation detector.
check_constraint evaluates one constraint under a complete assignment of
its scope. partial_violated detects certain violations from a partial
assignment (used for pruning; it never flags a satisfiable extension).
check_solution verifies a candidate instantiation against an instance.
Scopes are not computed here: each kind carries its own var_ids (see
kinds.py), and scope_of / objective_scope only copy them into lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from . import kinds as K
from .errors import (
    CostMismatch,
    StarInScope,
    UnboundVariable,
    UnknownVariable,
    ValueOutsideDomain,
    check_int64,
)
from .expr import Expr, VarRef, eval_expr, free_vars
from .model import (
    Condition,
    Instance,
    Instantiation,
    Interval,
    Star,
    eval_condition,
)


def scope_of(kind: K.ConstraintKind) -> List[str]:
    """Every variable id the constraint reads, in first-use order."""
    return list(kind.var_ids)


def _resolve(val: K.Val, env: Mapping[str, int]) -> int:
    if isinstance(val, VarRef):
        v = env.get(val.id)
        if not isinstance(v, int):
            raise UnboundVariable(val.id)
        return v
    return val


def ensure_scope_assigned(kind: K.ConstraintKind, env: Mapping[str, object]) -> None:
    for vid in kind.var_ids:
        v = env.get(vid)
        if isinstance(v, Star):
            raise StarInScope(vid)
        if not isinstance(v, int):
            raise UnboundVariable(vid)


# -- per-kind checks -----------------------------------------------------------

def _tuple_matches(tup: Sequence[K.Value], values: Sequence[int]) -> bool:
    return all(isinstance(t, Star) or t == v for t, v in zip(tup, values))


def _check_intension(kind: K.Intension, env: Mapping[str, int]) -> bool:
    return eval_expr(kind.function, env) != 0


def _check_extension(kind: K.Extension, env: Mapping[str, int]) -> bool:
    if kind.unary is not None:
        inside = kind.unary.contains(env[kind.scope[0]])
        return inside if kind.positive else not inside
    values = [env[v] for v in kind.scope]
    hit = any(_tuple_matches(t, values) for t in kind.tuples or ())
    return hit if kind.positive else not hit


def _walk_states(kind: Union[K.Regular, K.Mdd], start: str,
                 env: Mapping[str, int]) -> Set[str]:
    """States reached from start by reading the scope's values; empty on a dead end."""
    states = {start}
    for vid in kind.scope:
        v = env[vid]
        states = {dst for src, val, dst in kind.transitions if src in states and val == v}
        if not states:
            break
    return states


def _check_regular(kind: K.Regular, env: Mapping[str, int]) -> bool:
    return bool(_walk_states(kind, kind.start, env) & set(kind.finals))


def _check_mdd(kind: K.Mdd, env: Mapping[str, int]) -> bool:
    root, terminal = kind.root_terminal
    return terminal in _walk_states(kind, root, env)


def _check_all_different(kind: K.AllDifferent, env: Mapping[str, int]) -> bool:
    values = [eval_expr(op, env) for op in kind.operands]
    excepts = set(kind.excepts)
    seen = set()
    for v in values:
        if v in excepts:
            continue
        if v in seen:
            return False
        seen.add(v)
    return True


def _check_all_different_lists(kind: K.AllDifferentLists, env: Mapping[str, int]) -> bool:
    tuples = [tuple(env[v] for v in lst) for lst in kind.lists]
    excepts = set(kind.excepts)
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if tuples[i] == tuples[j] and tuples[i] not in excepts and tuples[j] not in excepts:
                return False
    return True


def _check_all_equal(kind: K.AllEqual, env: Mapping[str, int]) -> bool:
    values = {eval_expr(op, env) for op in kind.operands}
    return len(values) <= 1


def _pairwise_distinct(values: Sequence[int]) -> bool:
    return len(set(values)) == len(values)


def _check_all_different_matrix(kind: K.AllDifferentMatrix, env: Mapping[str, int]) -> bool:
    grid = [[env[v] for v in row] for row in kind.rows]
    for row in grid:
        if not _pairwise_distinct(row):
            return False
    for col in zip(*grid):
        if not _pairwise_distinct(col):
            return False
    return True


def _check_ordered(kind: K.Ordered, env: Mapping[str, int]) -> bool:
    values = [env[v] for v in kind.vars]
    lengths = kind.lengths
    for i in range(len(values) - 1):
        lhs = values[i]
        if lengths is not None:
            lhs = check_int64(lhs + _resolve(lengths[i], env), "ordered")
        if not kind.op.holds(lhs, values[i + 1]):
            return False
    return True


def _check_lex(kind: K.Lex, env: Mapping[str, int]) -> bool:
    tuples = [tuple(env[v] for v in lst) for lst in kind.lists]
    return all(kind.op.holds(a, b) for a, b in zip(tuples, tuples[1:]))


def _check_lex2(kind: K.Lex2, env: Mapping[str, int]) -> bool:
    rows = [tuple(env[v] for v in row) for row in kind.rows]
    cols = list(zip(*rows))
    return (all(kind.op.holds(a, b) for a, b in zip(rows, rows[1:]))
            and all(kind.op.holds(a, b) for a, b in zip(cols, cols[1:])))


def _check_sum(kind: K.Sum, env: Mapping[str, int]) -> bool:
    total = 0
    for coeff, term in zip(kind.coeffs, kind.terms):
        product = check_int64(_resolve(coeff, env) * eval_expr(term, env), "sum term")
        total = check_int64(total + product, "sum")
    return eval_condition(total, kind.condition, env)


def _check_count(kind: K.Count, env: Mapping[str, int]) -> bool:
    counted = {_resolve(v, env) for v in kind.values}
    n = sum(1 for op in kind.operands if eval_expr(op, env) in counted)
    return eval_condition(n, kind.condition, env)


def _check_nvalues(kind: K.NValues, env: Mapping[str, int]) -> bool:
    distinct = {eval_expr(op, env) for op in kind.operands} - set(kind.excepts)
    return eval_condition(len(distinct), kind.condition, env)


def _check_cardinality(kind: K.Cardinality, env: Mapping[str, int]) -> bool:
    values = [env[v] for v in kind.vars]
    resolved = [_resolve(v, env) for v in kind.values]
    # With variables among the counted values, those values must be distinct.
    if any(isinstance(v, VarRef) for v in kind.values) and not _pairwise_distinct(resolved):
        return False
    for target, occurs in zip(resolved, kind.occurs):
        n = values.count(target)
        if isinstance(occurs, Interval):
            if not occurs.lo <= n <= occurs.hi:
                return False
        elif n != _resolve(occurs, env):
            return False
    if kind.closed and any(v not in resolved for v in values):
        return False
    return True


def _check_minimum(kind: K.Minimum, env: Mapping[str, int]) -> bool:
    lhs = min(eval_expr(op, env) for op in kind.operands)
    return eval_condition(lhs, kind.condition, env)


def _check_maximum(kind: K.Maximum, env: Mapping[str, int]) -> bool:
    lhs = max(eval_expr(op, env) for op in kind.operands)
    return eval_condition(lhs, kind.condition, env)


def _rhs_holds(lhs: int, rhs: K.ElementRhs, env: Mapping[str, int]) -> bool:
    if isinstance(rhs, Condition):
        return eval_condition(lhs, rhs, env)
    if isinstance(rhs, VarRef):
        return lhs == env[rhs.id]
    return lhs == rhs


def _check_element_var_list(kind: K.ElementVarList, env: Mapping[str, int]) -> bool:
    i = env[kind.index]
    if not 0 <= i < len(kind.vars):
        return False
    return _rhs_holds(env[kind.vars[i]], kind.rhs, env)


def _check_element_val_list(kind: K.ElementValList, env: Mapping[str, int]) -> bool:
    i = env[kind.index]
    if not 0 <= i < len(kind.values):
        return False
    return _rhs_holds(kind.values[i], kind.rhs, env)


def _check_element_matrix(kind: K.ElementMatrix, env: Mapping[str, int]) -> bool:
    i = env[kind.row_index]
    j = env[kind.col_index]
    if not (0 <= i < len(kind.cells) and 0 <= j < len(kind.cells[0])):
        return False
    cell = kind.cells[i][j]
    lhs = env[cell] if isinstance(cell, str) else cell
    return _rhs_holds(lhs, kind.rhs, env)


def _check_channel_one(kind: K.ChannelOne, env: Mapping[str, int]) -> bool:
    values = [env[v] for v in kind.vars]
    n = len(values)
    for i, j in enumerate(values):
        if not 0 <= j < n:
            return False  # the value must point at a position of the list
        if values[j] != i and j != i:
            return False
    return True


def _check_channel_two(kind: K.ChannelTwo, env: Mapping[str, int]) -> bool:
    xs = [env[v] for v in kind.first]
    ys = [env[v] for v in kind.second]
    for i, j in enumerate(xs):
        if not 0 <= j < len(ys) or ys[j] != i:
            return False
    if len(xs) == len(ys):
        for j, i in enumerate(ys):
            if not 0 <= i < len(xs) or xs[i] != j:
                return False
    return True


def _check_channel_value(kind: K.ChannelValue, env: Mapping[str, int]) -> bool:
    values = [env[v] for v in kind.vars]
    v = env[kind.value]
    ones = [i for i, x in enumerate(values) if x == 1]
    return len(ones) == 1 and v == ones[0]


def _check_no_overlap_1(kind: K.NoOverlap1, env: Mapping[str, int]) -> bool:
    tasks = []
    for origin, length in zip(kind.origins, kind.lengths):
        o, l = env[origin], _resolve(length, env)
        if kind.zero_ignored and l == 0:
            continue
        tasks.append((o, l))
    for i in range(len(tasks)):
        for j in range(i + 1, len(tasks)):
            oi, li = tasks[i]
            oj, lj = tasks[j]
            if not (oi + li <= oj or oj + lj <= oi):
                return False
    return True


def _check_no_overlap_k(kind: K.NoOverlapK, env: Mapping[str, int]) -> bool:
    boxes = []
    for origin, length in zip(kind.origins, kind.lengths):
        os = [env[v] for v in origin]
        ls = [_resolve(l, env) for l in length]
        if kind.zero_ignored and any(l == 0 for l in ls):
            continue
        boxes.append((os, ls))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            oi, li = boxes[i]
            oj, lj = boxes[j]
            separated = any(
                oi[k] + li[k] <= oj[k] or oj[k] + lj[k] <= oi[k]
                for k in range(len(oi)))
            if not separated:
                return False
    return True


def _check_cumulative(kind: K.Cumulative, env: Mapping[str, int]) -> bool:
    tasks = []
    for origin, length, height in zip(kind.origins, kind.lengths, kind.heights):
        o = env[origin]
        l = _resolve(length, env)
        h = _resolve(height, env)
        if l > 0:
            tasks.append((o, l, h))
    # Quantify only over time points covered by at least one task.
    covered = sorted({t for o, l, _ in tasks for t in range(o, o + l)})
    for t in covered:
        load = sum(h for o, l, h in tasks if o <= t < o + l)
        if not eval_condition(load, kind.condition, env):
            return False
    return True


def _check_circuit(kind: K.Circuit, env: Mapping[str, int]) -> bool:
    values = [env[v] for v in kind.vars]
    n = len(values)
    members = [i for i in range(n) if not (0 <= values[i] < n) or values[i] != i]
    # Out-of-range successors can never close a circuit.
    if any(not 0 <= values[i] < n for i in members):
        return False
    member_set = set(members)
    if {values[i] for i in members} != member_set:
        return False
    if len(members) <= 1:
        return False
    # Follow successors: one cycle must cover every member.
    start = members[0]
    seen = set()
    node = start
    while node not in seen:
        seen.add(node)
        node = values[node]
    if node != start or seen != member_set:
        return False
    if kind.size is not None and _resolve(kind.size, env) != len(members):
        return False
    return True


def _check_instantiation(kind: K.InstantiationCtr, env: Mapping[str, int]) -> bool:
    for vid, val in zip(kind.vars, kind.values):
        if isinstance(val, Star):
            continue
        if env[vid] != val:
            return False
    return True


# -- partial violation detection ------------------------------------------------
#
# A detector sees a partial assignment and returns True only when no
# extension of it can satisfy the constraint; kinds without one never prune.

def _eval_if_ready(op: Expr, env: Mapping[str, int]) -> Optional[int]:
    if isinstance(op, VarRef):
        v = env.get(op.id)
        return v if isinstance(v, int) else None
    for vid in free_vars(op):
        if not isinstance(env.get(vid), int):
            return None
    return eval_expr(op, env)


def _partial_all_different(kind: K.AllDifferent, env: Mapping[str, int]) -> bool:
    excepts = set(kind.excepts)
    seen = set()
    for op in kind.operands:
        v = _eval_if_ready(op, env)
        if v is None or v in excepts:
            continue
        if v in seen:
            return True
        seen.add(v)
    return False


def _partial_all_equal(kind: K.AllEqual, env: Mapping[str, int]) -> bool:
    ready = [v for v in (_eval_if_ready(op, env) for op in kind.operands)
             if v is not None]
    return len(set(ready)) > 1


def _partial_ordered(kind: K.Ordered, env: Mapping[str, int]) -> bool:
    values = [env.get(v) for v in kind.vars]
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if not (isinstance(a, int) and isinstance(b, int)):
            continue
        if kind.lengths is not None:
            length = kind.lengths[i]
            if isinstance(length, VarRef):
                lv = env.get(length.id)
                if not isinstance(lv, int):
                    continue
                a = a + lv
            else:
                a = a + length
        if not kind.op.holds(a, b):
            return True
    return False


def _partial_lex(kind: K.Lex, env: Mapping[str, int]) -> bool:
    tuples = []
    for lst in kind.lists:
        vals = [env.get(v) for v in lst]
        tuples.append(tuple(vals) if all(isinstance(v, int) for v in vals) else None)
    for a, b in zip(tuples, tuples[1:]):
        if a is not None and b is not None and not kind.op.holds(a, b):
            return True
    return False


def _partial_instantiation(kind: K.InstantiationCtr, env: Mapping[str, int]) -> bool:
    for vid, val in zip(kind.vars, kind.values):
        if isinstance(val, Star):
            continue
        v = env.get(vid)
        if isinstance(v, int) and v != val:
            return True
    return False


def _partial_extension(kind: K.Extension, env: Mapping[str, int]) -> bool:
    if kind.unary is not None:
        v = env.get(kind.scope[0])
        if isinstance(v, int):
            inside = kind.unary.contains(v)
            return not inside if kind.positive else inside
        return False
    assigned = [(p, env[vid]) for p, vid in enumerate(kind.scope)
                if isinstance(env.get(vid), int)]
    if not assigned:
        return False
    if kind.positive:
        # Violated when no tuple is compatible with the assigned positions.
        for t in kind.tuples:
            if all(isinstance(t[p], Star) or t[p] == v for p, v in assigned):
                return False
        return True
    assigned_pos = {p for p, _ in assigned}
    env_at = dict(assigned)
    for t in kind.tuples:
        concrete = [p for p in range(len(t)) if not isinstance(t[p], Star)]
        if all(p in assigned_pos and env_at[p] == t[p] for p in concrete):
            return True
    return False


# -- the semantics table ------------------------------------------------------------

_Check = Callable[..., bool]

# kind -> (complete check, partial detector or None)
_CHECKERS: Dict[type, Tuple[_Check, Optional[_Check]]] = {
    K.Intension: (_check_intension, None),
    K.Extension: (_check_extension, _partial_extension),
    K.Regular: (_check_regular, None),
    K.Mdd: (_check_mdd, None),
    K.AllDifferent: (_check_all_different, _partial_all_different),
    K.AllDifferentLists: (_check_all_different_lists, None),
    K.AllDifferentMatrix: (_check_all_different_matrix, None),
    K.AllEqual: (_check_all_equal, _partial_all_equal),
    K.Ordered: (_check_ordered, _partial_ordered),
    K.Lex: (_check_lex, _partial_lex),
    K.Lex2: (_check_lex2, None),
    K.Sum: (_check_sum, None),
    K.Count: (_check_count, None),
    K.NValues: (_check_nvalues, None),
    K.Cardinality: (_check_cardinality, None),
    K.Minimum: (_check_minimum, None),
    K.Maximum: (_check_maximum, None),
    K.ElementVarList: (_check_element_var_list, None),
    K.ElementValList: (_check_element_val_list, None),
    K.ElementMatrix: (_check_element_matrix, None),
    K.ChannelOne: (_check_channel_one, None),
    K.ChannelTwo: (_check_channel_two, None),
    K.ChannelValue: (_check_channel_value, None),
    K.NoOverlap1: (_check_no_overlap_1, None),
    K.NoOverlapK: (_check_no_overlap_k, None),
    K.Cumulative: (_check_cumulative, None),
    K.Circuit: (_check_circuit, None),
    K.InstantiationCtr: (_check_instantiation, _partial_instantiation),
}


def check_constraint(kind: K.ConstraintKind, env: Mapping[str, int], *,
                     validate: bool = True) -> bool:
    """True iff the constraint holds under env (complete over its scope)."""
    if validate:
        ensure_scope_assigned(kind, env)
    return _CHECKERS[type(kind)][0](kind, env)


def prunes(kind: K.ConstraintKind) -> bool:
    """True when the kind has a partial violation detector."""
    return _CHECKERS[type(kind)][1] is not None


def partial_violated(kind: K.ConstraintKind, env: Mapping[str, int]) -> bool:
    """True only when no extension of env can satisfy the constraint.

    Kinds without a detector in the table conservatively return False.
    """
    detector = _CHECKERS[type(kind)][1]
    return detector is not None and detector(kind, env)


# -- objectives -----------------------------------------------------------------

def objective_scope(obj: K.Objective) -> List[str]:
    return list(obj.var_ids)


def eval_objective(obj: K.Objective, env: Mapping[str, int]) -> Union[int, Tuple[int, ...]]:
    if obj.kind is K.ObjKind.EXPRESSION:
        return eval_expr(obj.expression, env)
    values = [eval_expr(op, env) for op in obj.operands]
    coeffs = obj.coeffs if obj.coeffs is not None else (1,) * len(values)
    if obj.kind is K.ObjKind.LEX:
        return tuple(values)
    weighted = [check_int64(c * v, "objective term") for c, v in zip(coeffs, values)]
    if obj.kind is K.ObjKind.SUM:
        total = 0
        for w in weighted:
            total = check_int64(total + w, "objective")
        return total
    if obj.kind is K.ObjKind.MINIMUM:
        return min(weighted)
    if obj.kind is K.ObjKind.MAXIMUM:
        return max(weighted)
    if obj.kind is K.ObjKind.NVALUES:
        return len(set(weighted))
    raise TypeError(f"unknown objective kind {obj.kind}")


# -- whole-solution verdicts ------------------------------------------------------

class VerdictKind(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCOMPLETE = "incomplete"


class CheckMode(Enum):
    PARTIAL_ALLOWED = "partial-allowed"
    TOTAL_REQUIRED = "total-required"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    violated: Tuple[str, ...] = ()
    missing: Tuple[str, ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.kind is VerdictKind.SATISFIED


def useful_variables(instance: Instance) -> List[str]:
    """Variables referenced by at least one constraint or the objective."""
    used: Dict[str, None] = {}
    for posted in instance.constraints:
        for vid in posted.kind.var_ids:
            used.setdefault(vid, None)
    if instance.objective is not None:
        for vid in instance.objective.var_ids:
            used.setdefault(vid, None)
    return list(used)


def check_solution(
    instance: Instance,
    solution: Instantiation,
    mode: CheckMode = CheckMode.TOTAL_REQUIRED,
    declared_cost: Optional[int] = None,
) -> Verdict:
    """Verify a candidate solution.

    total-required: any unassigned (or starred) useful variable makes the
    verdict incomplete before constraints are looked at. partial-allowed:
    constraints whose scope is fully assigned are checked first (a
    violation wins), then missing useful variables make it incomplete.
    """
    for vid, val in solution.items():
        var = instance.variable(vid)
        if var is None:
            raise UnknownVariable(vid)
        if isinstance(val, int) and var.domain is not None and not var.domain.contains(val):
            raise ValueOutsideDomain(f"{vid}={val} outside {var.domain.render()}")

    useful = set(useful_variables(instance))
    missing = tuple(
        v.id for v in instance.variables()
        if v.id in useful and not isinstance(solution.get(v.id), int))

    env = {vid: val for vid, val in solution.items() if isinstance(val, int)}

    def evaluate_all(skip_unassigned: bool) -> Tuple[str, ...]:
        bad = []
        for position, posted in enumerate(instance.constraints):
            if skip_unassigned:
                if any(not isinstance(env.get(v), int) for v in posted.kind.var_ids):
                    continue
            if not check_constraint(posted.kind, env, validate=not skip_unassigned):
                bad.append(posted.label(position))
        return tuple(bad)

    if mode is CheckMode.TOTAL_REQUIRED:
        if missing:
            return Verdict(VerdictKind.INCOMPLETE, missing=missing)
        violated = evaluate_all(skip_unassigned=False)
        if violated:
            return Verdict(VerdictKind.VIOLATED, violated=violated)
    else:
        violated = evaluate_all(skip_unassigned=True)
        if violated:
            return Verdict(VerdictKind.VIOLATED, violated=violated)
        if missing:
            return Verdict(VerdictKind.INCOMPLETE, missing=missing)

    if declared_cost is not None:
        if instance.objective is None:
            raise CostMismatch("cost declared but the instance has no objective")
        if all(isinstance(env.get(v), int) for v in instance.objective.var_ids):
            actual = eval_objective(instance.objective, env)
            if actual != declared_cost:
                raise CostMismatch(f"declared cost {declared_cost}, actual {actual}")
    return Verdict(VerdictKind.SATISFIED)
