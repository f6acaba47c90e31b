"""Constraint checking, solution verification and objective evaluation.

This module is the reference for the semantics: it says what each
constraint kind and objective means, written as the specification reads,
and verifies candidate solutions with it. The semantics of every kind sit
in one table, _CHECKERS: a complete check and, for kinds that prune, a
partial violation detector. check_constraint evaluates one constraint under
a complete assignment of its scope. partial_violated detects certain
violations from a partial assignment (used for pruning; it never flags a
satisfiable extension). check_solution verifies a candidate instantiation
against an instance, and eval_objective costs a complete assignment. The
search (solver.py) runs these, or code it writes from them and from the
domain bounds; nothing here depends on a variable order or on bounds.
Nothing is prepared here per call: each kind carries its own var_ids, its
compiled expressions or, when every one is a bare variable, their ids
(bare_ids, read straight from the assignment, so nothing is compiled), its
integer coefficients (Sum.int_coeffs) or counted values (Count.int_values)
and, for a table without *, a set of its tuples (see kinds.py), and the
instance its useful variables (see model.Instance), all built on the first
check. An Instance checks its references when it is built, so nothing here
looks for an undeclared variable. A candidate then pays only for its own
checks: check_solution looks each kind's check up in _CHECKERS itself, and a
sum of bare variables adds its products in one step once their magnitudes
prove that no partial sum can leave int64 (else it checks each step).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import (AbstractSet, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from . import kinds as K
from .errors import INT_MAX, CheckError, EvalError, UnboundVariable, check_int64
from .expr import VarRef
from .model import (
    Condition,
    Instance,
    Instantiation,
    Interval,
    Star,
    eval_condition,
)


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
            raise CheckError(f"star in scope: {vid}")
        if not isinstance(v, int):
            raise UnboundVariable(vid)


# -- per-kind checks -----------------------------------------------------------

def _tuple_matches(tup: Sequence[K.Value], values: Sequence[int]) -> bool:
    return all(isinstance(t, Star) or t == v for t, v in zip(tup, values))


def _bare_values(holder: Union[K.ConstraintKind, K.Objective],
                 env: Mapping[str, int]) -> Optional[List[int]]:
    """The values of the expressions a kind or objective holds, read from
    env when every one is a bare variable that env assigns; else None."""
    ids = holder.bare_ids
    if ids is not None:
        try:
            return list(map(env.__getitem__, ids))
        except KeyError:
            pass  # the compiled reads raise UnboundVariable, in their order
    return None


def _values(holder: Union[K.ConstraintKind, K.Objective],
            env: Mapping[str, int]) -> List[int]:
    """The values of the expressions a kind or objective holds, in field order."""
    values = _bare_values(holder, env)
    if values is None:
        values = [evaluate(env) for evaluate, _ in holder.compiled]
    return values


def _fits(products: Iterable[int]) -> bool:
    """Whether no item nor partial sum of products can leave int64: each is
    at most the sum of their magnitudes in size, which INT_MAX then bounds.
    This accepts every list that len(products) * max|p| <= INT_MAX does."""
    return sum(map(abs, products)) <= INT_MAX


def _check_intension(kind: K.Intension, env: Mapping[str, int]) -> bool:
    return kind.compiled[0][0](env) != 0


def _check_extension(kind: K.Extension, env: Mapping[str, int]) -> bool:
    if kind.unary is not None:
        inside = kind.unary.contains(env[kind.scope[0]])
        return inside if kind.positive else not inside
    values = tuple(map(env.__getitem__, kind.scope))
    table = kind.table
    if table is not None:
        hit = values in table
    else:
        hit = any(_tuple_matches(t, values) for t in kind.tuples)
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
    values = _values(kind, env)
    excepts = kind.excepts
    if excepts:
        values = [v for v in values if v not in excepts]
    return len(set(values)) == len(values)


def _check_all_different_lists(kind: K.AllDifferentLists, env: Mapping[str, int]) -> bool:
    tuples = [tuple(env[v] for v in lst) for lst in kind.lists]
    excepts = set(kind.excepts)
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if tuples[i] == tuples[j] and tuples[i] not in excepts and tuples[j] not in excepts:
                return False
    return True


def _check_all_equal(kind: K.AllEqual, env: Mapping[str, int]) -> bool:
    return len(set(_values(kind, env))) <= 1


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
    values = list(map(env.__getitem__, kind.vars))
    holds, lengths = kind.op.holds, kind.lengths
    if lengths is None:
        return all(map(holds, values, values[1:]))
    for i in range(len(values) - 1):
        lhs = check_int64(values[i] + _resolve(lengths[i], env), "ordered")
        if not holds(lhs, values[i + 1]):
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
    coeffs = kind.int_coeffs
    if coeffs is None:
        coeffs = [_resolve(c, env) for c in kind.coeffs]
    values = _bare_values(kind, env)
    if values is None:
        # a term may raise: each is evaluated, then checked, in order
        products = (coeff * evaluate(env) for coeff, (evaluate, _) in zip(coeffs, kind.compiled))
    else:
        products = list(map(mul, coeffs, values))
        if _fits(products):
            return eval_condition(sum(products), kind.condition, env)
    total = 0
    for product in products:
        total = check_int64(total + check_int64(product, "sum term"), "sum")
    return eval_condition(total, kind.condition, env)


def _check_count(kind: K.Count, env: Mapping[str, int]) -> bool:
    counted = kind.int_values
    if counted is None:
        counted = {_resolve(v, env) for v in kind.values}
    n = sum(map(counted.__contains__, _values(kind, env)))
    return eval_condition(n, kind.condition, env)


def _check_nvalues(kind: K.NValues, env: Mapping[str, int]) -> bool:
    distinct = set(_values(kind, env))
    if kind.excepts:
        distinct.difference_update(kind.excepts)
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
    lhs = min(_values(kind, env))
    return eval_condition(lhs, kind.condition, env)


def _check_maximum(kind: K.Maximum, env: Mapping[str, int]) -> bool:
    lhs = max(_values(kind, env))
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
    # Quantify over the time points covered by at least one task. The load
    # changes only where a task starts or ends, so each stretch of constant
    # load begins at a start or at an end that another task covers: testing
    # those points tests every covered one.
    for t in sorted({o for o, _, _ in tasks} | {o + l for o, l, _ in tasks}):
        heights = [h for o, l, h in tasks if o <= t < o + l]
        if heights and not eval_condition(sum(heights), kind.condition, env):
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

def _ready_values(kind: Union[K.AllDifferent, K.AllEqual],
                  env: Mapping[str, int]) -> Iterator[int]:
    """Values of the operands whose variables are all assigned, in order.

    Lazy: an operand is evaluated only when the caller asks for it.
    """
    for op, (evaluate, free) in zip(kind.operands, kind.compiled):
        if free is None:  # a bare variable
            v = env.get(op.id)
            if isinstance(v, int):
                yield v
            continue
        for vid in free:
            if not isinstance(env.get(vid), int):
                break
        else:
            yield evaluate(env)


def _partial_all_different(kind: K.AllDifferent, env: Mapping[str, int]) -> bool:
    excepts = set(kind.excepts)
    seen = set()
    for v in _ready_values(kind, env):
        if v in excepts:
            continue
        if v in seen:
            return True
        seen.add(v)
    return False


def _partial_all_equal(kind: K.AllEqual, env: Mapping[str, int]) -> bool:
    return len(set(_ready_values(kind, env))) > 1


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
    """True iff the constraint holds under env (complete over its scope).

    validate=False: the caller vouches that env holds ints only and assigns
    the whole scope, as check_solution and the search do.
    """
    if validate:
        ensure_scope_assigned(kind, env)
    return _CHECKERS[type(kind)][0](kind, env)


def partial_violated(kind: K.ConstraintKind, env: Mapping[str, int]) -> bool:
    """True only when no extension of env can satisfy the constraint.

    Kinds without a detector in the table conservatively return False.
    """
    detector = _CHECKERS[type(kind)][1]
    return detector is not None and detector(kind, env)


# -- objectives -----------------------------------------------------------------

# a lex objective's value is a tuple, every other one an int
Cost = Union[int, Tuple[int, ...]]


def eval_objective(obj: K.Objective, env: Mapping[str, int]) -> Cost:
    if obj.kind is K.ObjKind.EXPRESSION:
        return obj.compiled[0][0](env)
    values = _values(obj, env)
    if obj.kind is K.ObjKind.LEX:
        return tuple(values)
    coeffs = obj.coeffs
    products = values if coeffs is None else list(map(mul, coeffs, values))
    if obj.kind is K.ObjKind.SUM and _fits(products):
        return sum(products)
    weighted = [check_int64(p, "objective term") for p in products]
    if obj.kind is K.ObjKind.SUM:
        total = 0
        for w in weighted:
            total = check_int64(total + w, "objective")
        return total
    if obj.kind is K.ObjKind.MINIMUM:
        return min(weighted)
    if obj.kind is K.ObjKind.MAXIMUM:
        return max(weighted)
    return len(set(weighted))  # NVALUES, the last kind


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


def named_error(error: EvalError, label: str, var_ids: Sequence[str],
                env: Mapping[str, int]) -> EvalError:
    """The same error, naming the constraint and its scope's assigned values."""
    at = " ".join(f"{v}={env[v]}" for v in var_ids if v in env)
    return type(error)(f"{label}: {error}" + (f" at {at}" if at else ""))


def _violated(instance: Instance, env: Dict[str, int],
              missing: AbstractSet[str]) -> Tuple[str, ...]:
    """Labels of the constraints that env violates, in constraint order.

    missing: the useful variables that env leaves unassigned. Every other
    useful variable holds an int, which proves the scope of each constraint
    that involves none of missing, since an Instance names only declared
    variables; the constraints that involve one are skipped.
    """
    checkers = _CHECKERS
    bad = []
    try:
        for position, posted in enumerate(instance.constraints):
            kind = posted.kind
            if not missing or missing.isdisjoint(kind.var_ids):
                if not checkers[type(kind)][0](kind, env):
                    bad.append(posted.label(position))
    except EvalError as e:
        raise named_error(e, posted.label(position), kind.var_ids, env) from e
    return tuple(bad)


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
    An EvalError names the constraint and the assigned values of its scope.
    """
    variable = instance.variable
    for vid, val in solution.items():
        var = variable(vid)
        if var is None:
            raise CheckError(f"unknown variable {vid}")
        if isinstance(val, int) and var.domain is not None and not var.domain.contains(val):
            raise CheckError(f"{vid}={val} outside {var.domain.render()}")

    env = {vid: val for vid, val in solution.items() if isinstance(val, int)}
    missing = tuple(vid for vid in instance.useful_ids if vid not in env)
    if missing and mode is CheckMode.TOTAL_REQUIRED:
        return Verdict(VerdictKind.INCOMPLETE, missing=missing)
    violated = _violated(instance, env, frozenset(missing))
    if violated:
        return Verdict(VerdictKind.VIOLATED, violated=violated)
    if missing:
        return Verdict(VerdictKind.INCOMPLETE, missing=missing)

    if declared_cost is not None:
        if instance.objective is None:
            raise CheckError("cost declared but the instance has no objective")
        if all(v in env for v in instance.objective.var_ids):
            actual = eval_objective(instance.objective, env)
            if actual != declared_cost:
                raise CheckError(f"declared cost {declared_cost}, actual {actual}")
    return Verdict(VerdictKind.SATISFIED)
