"""Constraint checking, solution verification and objective evaluation.

The semantics of every constraint kind sit in one table, _CHECKERS: a
complete check and, for kinds that prune, a partial violation detector.
allDifferent and sum also have staged checks (_STAGED) that a search with a
fixed variable order runs depth by depth instead: each depth's check starts
from the state the earlier depths left, and the check at the depth that
completes the scope gives the complete verdict from that state. A sum
stage, and an allDifferent stage whose operands cannot raise, is a form of
STAGE_FORMS: code that the search writes into its generated depth functions.
check_constraint evaluates one constraint under a complete assignment of
its scope. partial_violated detects certain violations from a partial
assignment (used for pruning; it never flags a satisfiable extension).
check_solution verifies a candidate instantiation against an instance.
eval_objective costs a complete assignment; objective_cost gives a search
the same cost as one function: generated straight-line code without range
checks for a sum objective whose domain bounds prove that none can fire.
Nothing is prepared here per call: each kind carries its own var_ids, its
compiled expressions and, for a table without *, a set of its tuples (see
kinds.py), and the instance its useful variables and the constraints that
name an undeclared variable (see model.Instance), all built on first use.
A candidate then pays only for its own checks; scope_of / objective_scope
only copy var_ids into lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from . import kinds as K
from .errors import (
    INT_MAX,
    INT_MIN,
    CostMismatch,
    EvalError,
    StarInScope,
    UnboundVariable,
    UnknownVariable,
    ValueOutsideDomain,
    check_int64,
)
from .expr import Expr, VarRef, compile_bounded, free_vars, generated
from .model import (
    Condition,
    CondOp,
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


def _values(holder: Union[K.ConstraintKind, K.Objective],
            env: Mapping[str, int]) -> List[int]:
    """The values of the expressions a kind or objective holds, in field order."""
    return [evaluate(env) for evaluate, _ in holder.compiled]


def _check_intension(kind: K.Intension, env: Mapping[str, int]) -> bool:
    return kind.compiled[0][0](env) != 0


def _check_extension(kind: K.Extension, env: Mapping[str, int]) -> bool:
    if kind.unary is not None:
        inside = kind.unary.contains(env[kind.scope[0]])
        return inside if kind.positive else not inside
    values = tuple([env[v] for v in kind.scope])
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
    excepts = set(kind.excepts)
    seen = set()
    for v in _values(kind, env):
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
    coeffs = kind.int_coeffs
    if coeffs is None:
        coeffs = [_resolve(c, env) for c in kind.coeffs]
    total = 0
    for coeff, (evaluate, _) in zip(coeffs, kind.compiled):
        product = check_int64(coeff * evaluate(env), "sum term")
        total = check_int64(total + product, "sum")
    return eval_condition(total, kind.condition, env)


def _check_count(kind: K.Count, env: Mapping[str, int]) -> bool:
    counted = {_resolve(v, env) for v in kind.values}
    n = sum(1 for v in _values(kind, env) if v in counted)
    return eval_condition(n, kind.condition, env)


def _check_nvalues(kind: K.NValues, env: Mapping[str, int]) -> bool:
    distinct = set(_values(kind, env)) - set(kind.excepts)
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
# code of its form, in order. Form "s" calls its one argument, a function
# that may raise; the forms of STAGE_FORMS are code of their own, which
# cannot raise. A stage fails (returns True) when it finds the constraint
# violated, and runs only after the stages before it, at its depth and the
# earlier ones, have passed under the current assignment. Before the last
# depth it fails only when no extension can satisfy the constraint, like
# partial_violated; the stages of the last depth together are the complete
# check: one fails exactly when check_constraint would return False, and
# one raises what check_constraint would raise. None means the constraint
# does not qualify, and the search falls back to check_constraint and
# partial_violated.

Stage = Tuple[int, str, Tuple[object, ...]]


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


# The stage forms written as code of their own: each one's parameters,
# which the search suffixes with the number k of the check, and its lines,
# str.format()ed with k, which return True when the check fails. A sum
# stage adds its variable's term c * x (the coefficients of a variable
# merged) to the total T[i] of the stages before, keeps it in T[i + 1] and
# fails outside lo..hi. An allDifferent operand ("d": "v" a bare variable
# read from env, "f" a call of a bounded evaluator that cannot raise; "x"
# with excepts; "." the last operand checked) is a membership test. Every
# argument is a value or callable: no input text enters the code.
STAGE_FORMS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "sum": (("T", "i", "c", "v", "lo", "hi"),
            ("t = T{k}[i{k}] + c{k} * env[v{k}]",
             "T{k}[i{k} + 1] = t",
             "if t < lo{k} or t > hi{k}:",
             "    return True")),
    **{f"d{read}{'x' if excepts else ''}{'.' if last else ''}":
       _distinct_form(read, excepts, last)
       for read in _READS for excepts in (False, True) for last in (False, True)},
}


def _scope_depths(kind: K.ConstraintKind, depth_of: Mapping[str, int]) -> List[int]:
    """Depths that assign a variable of kind, the one completing its scope last."""
    return sorted({depth_of[v] for v in kind.var_ids})


def _fits_int64(terms: Iterable[Tuple[int, Tuple[int, int]]]) -> bool:
    """True when no product c*x or partial sum of them can leave int64.

    terms: each coefficient c with the bounds (lo, hi) of its value x.
    """
    return sum(abs(c) * max(abs(lo), abs(hi)) for c, (lo, hi) in terms) <= INT_MAX


def _staged_all_different(kind: K.AllDifferent, depth_of: Mapping[str, int],
                          bounds: Mapping[str, Tuple[int, int]],
                          env: Mapping[str, int]) -> List[Stage]:
    """Evaluate each operand once, at the depth where it becomes ready.

    Each operand is a bare variable or a bounded evaluator (compile_bounded).
    When none can raise, each one is a check of its own ("d" forms of
    STAGE_FORMS), in depth then position order: the verdicts are those of
    partial_violated and the complete check, and no order of evaluation can
    be seen. Otherwise each depth has one stage, a closure keeping the order
    in which the operands raise. Before the last depth its scan keeps
    partial_violated's operand order: it stops where that scan would meet
    its first repeated value, so an operand that raises is evaluated, and
    raises, exactly when it would have been there. At the last depth every
    fresh operand is evaluated, in order, before any value is compared, as
    the complete check does.
    """
    depths = _scope_depths(kind, depth_of)
    # each depth's fresh operands: position, operand, bounded evaluator (None
    # for a bare variable)
    fresh: Dict[int, List[Tuple[int, Expr, Optional[Callable]]]] = {d: [] for d in depths}
    raises = False
    for pos, op in enumerate(kind.operands):
        if type(op) is VarRef:
            fresh[depth_of[op.id]].append((pos, op, None))
            continue
        evaluate, may_raise = compile_bounded(op, bounds)
        raises = raises or may_raise
        # an operand without variables is ready at the first check
        ready = max((depth_of[v] for v in free_vars(op)), default=depths[0])
        fresh[ready].append((pos, op, evaluate))
    excepts = frozenset(kind.excepts)
    if not raises:
        ready = [(d, op, evaluate) for d in depths for _, op, evaluate in fresh[d]]
        # sets[i]: the values of the operands checked before check i, but excepts
        sets: List[Optional[FrozenSet[int]]] = [frozenset()] + [None] * (len(ready) - 1)
        suffix = "x" if excepts else ""
        stages: List[Stage] = []
        for i, (d, op, evaluate) in enumerate(ready):
            form = ("dv" if evaluate is None else "df") + suffix
            if i == len(ready) - 1:
                form += "."
            args = (op.id if evaluate is None else evaluate, sets, i)
            stages.append((d, form, args + ((excepts,) if excepts else ())))
        return stages

    # values_at[i + 1]: value -> position of the operand that holds it, for
    # every operand ready by the i-th stage (distinct, since that stage passed)
    values_at: List[Dict[int, int]] = [{}]

    def stage(i: int, operands: Tuple[Tuple[int, Callable], ...]) -> bool:
        values = values_at[i].copy()
        # an operand ready before this stage, later in the scan, whose value a
        # fresh operand repeats: the scan stops at the first such position
        clash = None
        for pos, evaluate in operands:
            if clash is not None and pos > clash:
                return True
            v = evaluate(env)
            if v in excepts:
                continue
            first = values.get(v)
            if first is not None:
                if first < pos:
                    return True
                clash = first if clash is None else min(clash, first)
            values[v] = pos
        if clash is not None:
            return True
        values_at[i + 1] = values
        return False

    def finish(i: int, evaluators: Tuple[Callable, ...]) -> bool:
        before = values_at[i]
        values = set()
        for v in [evaluate(env) for evaluate in evaluators]:
            if v in excepts:
                continue
            if v in before or v in values:
                return True
            values.add(v)
        return False

    def evaluators(ops: List[Tuple[int, Expr, Optional[Callable]]]
                   ) -> Tuple[Tuple[int, Callable], ...]:
        return tuple((pos, compile_bounded(op, bounds)[0] if evaluate is None else evaluate)
                     for pos, op, evaluate in ops)

    # the completing depth always has a fresh operand: one holding its variable
    *early, (last_depth, last_ops) = [(d, ops) for d, ops in fresh.items() if ops]
    values_at.extend({} for _ in early)
    closures: List[Stage] = [(d, "s", (partial(stage, i, evaluators(ops)),))
                             for i, (d, ops) in enumerate(early)]
    closures.append((last_depth, "s", (partial(finish, len(early), tuple(
        e for _, e in evaluators(last_ops))),)))
    return closures


_BOUNDED_OPS = frozenset({CondOp.LT, CondOp.LE, CondOp.GE, CondOp.GT, CondOp.EQ})


def _staged_sum(kind: K.Sum, depth_of: Mapping[str, int],
                bounds: Mapping[str, Tuple[int, int]],
                env: Mapping[str, int]) -> Optional[List[Stage]]:
    """Keep a running sum; prune when the unassigned terms' bounds cannot meet the condition.

    Only for integer coefficients over bare variables, a relational
    condition other than ne with an integer operand, and domains small
    enough that no partial or total sum can leave the 64-bit range, so that
    the complete check could never raise Overflow on this constraint. Each
    stage is a "sum" form of STAGE_FORMS, adding the term of the one
    variable its depth assigns. At the completing depth no term is left
    unassigned, so the same comparison is the complete verdict.
    """
    coeffs, condition = kind.int_coeffs, kind.condition
    if (coeffs is None or condition.op not in _BOUNDED_OPS
            or not isinstance(condition.operand, int)
            or any(type(term) is not VarRef for term in kind.terms)):
        return None
    terms = [(c, op.id, bounds[op.id]) for c, op in zip(coeffs, kind.terms)]
    if not _fits_int64((c, ends) for c, _, ends in terms):
        return None
    k, op = condition.operand, condition.op
    # the totals that satisfy the condition; one past the int64 range is unbounded
    want_lo = k + 1 if op is CondOp.GT else k if op in (CondOp.GE, CondOp.EQ) else INT_MIN - 1
    want_hi = k - 1 if op is CondOp.LT else k if op in (CondOp.LE, CondOp.EQ) else INT_MAX + 1
    depths = _scope_depths(kind, depth_of)
    totals = [0] * (len(depths) + 1)  # totals[i + 1]: the terms of stages 0..i, summed
    stages: List[Stage] = []
    for i, d in enumerate(depths):
        here = [(c, vid) for c, vid, _ in terms if depth_of[vid] == d]
        rest = [(c * lo, c * hi) for c, vid, (lo, hi) in terms if depth_of[vid] > d]
        rest_lo = sum(min(ends) for ends in rest)
        rest_hi = sum(max(ends) for ends in rest)
        stages.append((d, "sum", (totals, i, sum(c for c, _ in here), here[0][1],
                                  want_lo - rest_hi, want_hi - rest_lo)))
    return stages


# kind -> builder of its staged checks
_STAGED: Dict[type, Callable[..., Optional[List[Stage]]]] = {
    K.AllDifferent: _staged_all_different,
    K.Sum: _staged_sum,
}


def staged_checks(kind: K.ConstraintKind, depth_of: Mapping[str, int],
                  bounds: Mapping[str, Tuple[int, int]],
                  env: Mapping[str, int]) -> Optional[List[Stage]]:
    """The kind's staged checks for a fixed variable order, or None."""
    build = _STAGED.get(type(kind))
    return None if build is None else build(kind, depth_of, bounds, env)


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


# a lex objective's value is a tuple, every other one an int
Cost = Union[int, Tuple[int, ...]]


def eval_objective(obj: K.Objective, env: Mapping[str, int]) -> Cost:
    if obj.kind is K.ObjKind.EXPRESSION:
        return obj.compiled[0][0](env)
    values = _values(obj, env)
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


# Generated sum costs: a function adds at most SUM_CHUNK terms, or the
# costs of at most SUM_CHUNK such functions. The factories are keyed by
# that count and kind, so there are never more than MAX_SUMS of them.
SUM_CHUNK = 32
MAX_SUMS = 2 * (SUM_CHUNK + 1)
_SUMS: Dict[Tuple[int, bool], Callable[..., Callable[[Mapping[str, int]], int]]] = {}


def _sum_source(n: int, group: bool) -> str:
    """_make(c0, v0, ...) whose cost(env) is c0 * env[v0] + ..., in straight-line code.

    For a group, _make(f0, ...) whose cost(env) is f0(env) + ...
    """
    if group:
        params, terms = [f"f{i}" for i in range(n)], [f"f{i}(env)" for i in range(n)]
    else:
        params = [f"c{i}, v{i}" for i in range(n)]
        terms = [f"c{i} * env[v{i}]" for i in range(n)]
    return "\n".join([f"def _make({', '.join(params)}):", "    def cost(env):",
                      f"        return {' + '.join(terms) or '0'}", "    return cost", ""])


def _generated_sum(terms: Sequence[Tuple[int, str]]) -> Callable[[Mapping[str, int]], int]:
    """sum(c * env[v] for c, v in terms) as a tree of generated functions."""
    args: List[Tuple[object, ...]] = list(terms)
    group = False
    while True:
        parts = []
        for i in range(0, len(args) or 1, SUM_CHUNK):
            chunk = args[i:i + SUM_CHUNK]
            make = generated(_SUMS, MAX_SUMS, (len(chunk), group),
                             partial(_sum_source, len(chunk), group), {}, "<sum cost>")
            parts.append(make(*[a for arg in chunk for a in arg]))
        if len(parts) == 1:
            return parts[0]
        args, group = [(part,) for part in parts], True


def objective_cost(obj: K.Objective,
                   bounds: Mapping[str, Tuple[int, int]]) -> Callable[[Mapping[str, int]], Cost]:
    """The objective's cost of a complete assignment, as one function.

    bounds: the domain (min, max) of each variable the caller assigns. A sum
    over bare variables whose terms those bounds prove to stay in int64
    (see _fits_int64) is summed by generated straight-line code without
    range checks, since none could fire (see _generated_sum). Its
    coefficients and ids are arguments of factories shared by every sum, so
    no input text enters the source. An expression whose variables all have
    bounds is evaluated by its bounded evaluator (expr.compile_bounded). Any
    other objective goes through eval_objective.
    """
    if obj.kind is K.ObjKind.EXPRESSION and all(v in bounds for v in obj.var_ids):
        return compile_bounded(obj.expression, bounds)[0]
    if obj.kind is K.ObjKind.SUM and all(isinstance(op, VarRef) for op in obj.operands):
        ids = [op.id for op in obj.operands]
        coeffs = obj.coeffs if obj.coeffs is not None else (1,) * len(ids)
        if all(v in bounds for v in ids) and _fits_int64(
                (c, bounds[v]) for c, v in zip(coeffs, ids)):
            return _generated_sum(list(zip(coeffs, ids)))
    return partial(eval_objective, obj)


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
    """Declared variables that a constraint or the objective involves, in document order."""
    return list(instance.useful_ids)


def named_error(error: EvalError, label: str, var_ids: Sequence[str],
                env: Mapping[str, int]) -> EvalError:
    """The same error, naming the constraint and its scope's assigned values."""
    at = " ".join(f"{v}={env[v]}" for v in var_ids if v in env)
    return type(error)(f"{label}: {error}" + (f" at {at}" if at else ""))


def _violated(instance: Instance, env: Dict[str, int], complete: bool) -> Tuple[str, ...]:
    """Labels of the constraints that env violates, in constraint order.

    complete: every useful declared variable holds an int, which proves the
    scope of every constraint but those naming an undeclared variable.
    Otherwise constraints whose scope is not fully assigned are skipped.
    """
    undeclared = instance.undeclared_scopes
    bad = []
    try:
        for position, posted in enumerate(instance.constraints):
            kind = posted.kind
            if complete:
                holds = check_constraint(kind, env, validate=position in undeclared)
            elif all(v in env for v in kind.var_ids):
                holds = check_constraint(kind, env, validate=False)
            else:
                continue
            if not holds:
                bad.append(posted.label(position))
    except EvalError as e:
        if position in undeclared:
            raise  # the scope proof failed: nothing was evaluated
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
    for vid, val in solution.items():
        var = instance.variable(vid)
        if var is None:
            raise UnknownVariable(vid)
        if isinstance(val, int) and var.domain is not None and not var.domain.contains(val):
            raise ValueOutsideDomain(f"{vid}={val} outside {var.domain.render()}")

    env = {vid: val for vid, val in solution.items() if isinstance(val, int)}
    missing = tuple(vid for vid in instance.useful_ids if vid not in env)
    complete = mode is CheckMode.TOTAL_REQUIRED
    if complete and missing:
        return Verdict(VerdictKind.INCOMPLETE, missing=missing)
    violated = _violated(instance, env, complete)
    if violated:
        return Verdict(VerdictKind.VIOLATED, violated=violated)
    if missing:
        return Verdict(VerdictKind.INCOMPLETE, missing=missing)

    if declared_cost is not None:
        if instance.objective is None:
            raise CostMismatch("cost declared but the instance has no objective")
        if all(v in env for v in instance.objective.var_ids):
            actual = eval_objective(instance.objective, env)
            if actual != declared_cost:
                raise CostMismatch(f"declared cost {declared_cost}, actual {actual}")
    return Verdict(VerdictKind.SATISFIED)
