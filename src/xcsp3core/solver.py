"""Exhaustive backtracking search over parsed instances.

The solver is a ground-truth oracle for desk-scale instances: depth-first
search over the variables in an order fixed before search starts. That
order is compiled into a plan: for each depth, the calls that run when
that depth's variable is set, in constraint order, each a (form,
arguments, position) triple exactly as it is generated. A constraint's
complete check runs at the depth that completes its scope, and its partial
check at the earlier depths that assign one of its variables. allDifferent
and sum are checked in stages instead, carrying state from depth to depth:
the stage at the completing depth gives the complete verdict from that
state, and a sum is bounded by the domain min/max of its unassigned terms
(see staged_checks). Partial checks only skip subtrees that hold no
solution; no domain is ever filtered. So counts, solution order and optima
are those of plain enumeration, easy to compare against a brute-force
filter. The semantics themselves are checker's: this module writes the
search's code from them and from the domain bounds.

The search is then one piece of generated code, built once per search:
a loop in which each depth's calls are written, in plan order, after the
line that assigns its variable. Writing each check's code for the model,
rather than calling a general one, follows Minion (Gent, Jefferson and
Miguel, ECAI 2006). Each call is written as the code of its form (_FORMS),
which goes on to the depth's next value where the check fails:
- "i", an intension's complete check: the code of its expression, written
  by expr's generator in its bounded mode (expr.Bounded.write) over the
  domain bounds. The check runs only once its variables are assigned from
  their domains, so the code reads them without a test and keeps only the
  int64 tests the bounds cannot rule out: its value and errors are those
  of the unbounded evaluator. A top comparison is tested in place, not
  stored as 0/1 first.
- "sum", a stage of a sum: the total t of the stage before it plus c * x,
  failing when t leaves the stage's cut-offs. A depth assigns one
  variable, so its coefficients are merged into one c. A sum objective
  whose bounds prove it stays in int64 is summed by "total" stages, the
  same sum without cut-offs, planned after each depth's constraint checks.
- "d" and "d.", a stage of an allDifferent without excepts none of whose
  operands can raise: one inline membership test per operand, of its
  value (a bare variable's, or the value of its expression's code,
  written as for "i") against the set of the values of the operands
  checked before it.
- "s", a partial check: a call of the kind's detector from checker's
  table, bound to the constraint and env. An allDifferent an operand of
  which may raise (a div by a domain holding 0, a range test that
  survives) has no stages: its operands must be evaluated, and raise, at
  the node and with the message where the reference scan would, and the
  detector and the complete check are that scan. One with excepts has no
  stages either.
- "c", any other kind's complete check from checker's table.
The leaf, which runs on each complete assignment that passes, makes calls
too, which never fail and name no error: the objective's cost is a
proved sum's last total ("last") or a call of eval_objective ("cost"),
and a search that keeps its solutions passes each to a call ("keep").
In the loop, written code reads a variable that a depth of its block
assigns from that depth's loop variable, and any other from env; code in
an if() branch's function reads env alone. Each depth holds its own copy
of the stages' state, with no trail (Schulte, "Comparing trailing and
copying for constraint programming", ICLP 1999), in locals of its block:
a stage reads the state the stage before it left in a local, a chain's
first stage in a block reads it from the chain's list (T or S, whose
slot 0 is the state before the chain: a total of 0, an empty set), and a
stage in any block but the last also stores its state in that list,
where a later block reads it. Every block but the last writes each
depth's value to env, where the later blocks read it; the last writes
env only where its code reads env, and a solution it records is env
with its own depths' values added. The callables, constants, state
lists, kinds and the constraint positions that name an evaluation error
are arguments of the factory that builds the code: every call passes
all its constants, in the order it holds them, also those its code
never reads (an expression's ids of variables read from loop variables,
the list of a stage that reads and stores only locals). As in expr's
generator, no id, label or other input text enters the source, and one
factory serves all code of the same forms, expression shapes, reads and
stage locals.
With partial_checks off, every constraint is one "c" call of its checker
and every cost a call of eval_objective, both with unbounded evaluators:
that is the reference path.

The loop (_loop_source) is one generator per block of at most
LOOP_DEPTHS consecutive depths, in which each depth is one nested for
over its domain's values, a range per interval, its calls' code inside.
The last block does the leaf inline, chosen when the search is built:
count a complete assignment, and stop after max_solutions, or keep the
best by its cost; its calls' code is written in, as a depth's is. An
inner block yields to descend, and an explicit stack of blocks drives the
search, so the number of variables is not bounded by Python's recursion
limit. A block's source depends only on its length, how many of its
depths are forced (restrict_to_decision), its leaf, whether it writes
env, and each depth's and the leaf's calls' forms, with the bounded shape
of each expression, which of its reads are of which loop variable, and
where each stage reads and keeps its state; a forced depth reruns its
calls' code on the value it chose, assigned again to its loop variable
and env, which rebuilds the state. Every call of a depth is written into its
block, so a block's code grows with its depths' calls: a depth that
completes thousands of constraints is compiled as one long block. At most
MAX_LOOPS factories are kept, the oldest dropped first, so a search of an
instance met again writes no source. The search visits at most
node_limit nodes and stops with LIMIT only when it needs one more.
The clock is read before the first node and then every CLOCK_NODES nodes;
the time limit counts from the start of building the search, so planning
and code generation count against it too. Both cost one comparison of the
node count per node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from .checker import (
    _CHECKERS,
    check_constraint,
    eval_objective,
    named_error,
)
from .errors import INT_MAX, INT_MIN, EvalError, UnforcedVariable
from .expr import _NAMESPACE as _EXPR_NAMESPACE
from .expr import Bounded, Expr, VarRef, generated
from .kinds import AllDifferent, ConstraintKind, Intension, ObjKind, Sense, Sum
from .model import CondOp, Domain, Instance, Instantiation, Variable


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


# -- generated checks -------------------------------------------------------------

CLOCK_NODES = 256   # nodes between two readings of the clock


# The code of each form, for call k: its parameters, which get k as a
# suffix, and its lines, str.format()ed with k, fail, the statement that
# runs when the check fails, x, the name of the value the call reads, and,
# for a stage, u, the local that keeps its state, and prev, the state
# before it. A form whose first parameter is x (_SOURCED) takes as its
# first argument where that value comes from: the id of the variable its
# depth assigns, read as that depth's loop variable, or an expression's
# bounded shape (expr.Bounded), whose code is written before the lines and
# names x. "i" is an intension's complete check, x there an expression
# true where the check fails (its top comparison negated in place), "s" a
# partial detector (True when violated) and "c" the complete check of kind
# a{k}. A stage (_STAGES) is one of a chain (staged_checks) whose states
# the search keeps in the list T or S, state i + 1 the one that stage i
# leaves and state 0 the one before the chain (a total of 0, an empty
# set): its lines read prev, the local of the stage before it in the same
# block or, at a block's first stage of the chain, the list; a stage in a
# block that is not the last stores its state in the list (_Link), where
# a later block reads it. A sum stage adds its variable's term c * x (the
# coefficients of a variable merged) to the total: "sum" fails outside
# lo..hi, "total" (an objective's) never fails. An allDifferent operand
# ("d"; "d." the last operand checked) is a membership test of its value
# against the set of the values of the operands checked before it. A call
# of a form in _RAISING, or whose expression may raise, runs in a try
# whose handler raises the EvalError again as named(error, n{k}), n{k} the
# constraint's position; a call without a position (the leaf's, and an
# objective's stages) lets its errors pass unnamed. The leaf's calls never
# fail: "last" is a proved sum objective's last total, "cost"
# eval_objective's call, each kept in value, and "keep" passes the
# solution, the dict built by the code in solution, to f{k}.
_FORMS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "i": (("x",), ("if {x}:", "    {fail}")),
    "s": (("f",), ("if f{k}():", "    {fail}")),
    "c": (("f", "a"), ("if not f{k}(a{k}, env):", "    {fail}")),
    "sum": (("x", "T", "i", "c", "lo", "hi"),
            ("{u} = {prev} + c{k} * {x}", "if {u} < lo{k} or {u} > hi{k}:", "    {fail}")),
    "total": (("x", "T", "i", "c"), ("{u} = {prev} + c{k} * {x}",)),
    "d": (("x", "S", "i"), ("if {x} in {prev}:", "    {fail}", "{u} = {{*{prev}, {x}}}")),
    "d.": (("x", "S", "i"), ("if {x} in {prev}:", "    {fail}")),
    "last": (("T",), ("value = {prev}",)),
    "cost": (("f",), ("value = f{k}(env)",)),
    "keep": (("f",), ("f{k}(Instantiation({solution}))",)),
}
_STAGES = frozenset({"sum", "total", "d", "d."})
_LINKED = _STAGES | {"last"}  # the forms that read a chain's state
_SOURCED = frozenset(form for form, (names, _) in _FORMS.items() if names[0] == "x")
_RAISING = frozenset({"s", "c"})
_READS_ENV = _RAISING | {"cost"}  # besides error handlers and if() branches
_NAMESPACE = {**_EXPR_NAMESPACE, "EvalError": EvalError}

# A call of generated code: form, arguments, and the constraint's position,
# which a form that names no error leaves unused.
_Call = Tuple[str, Tuple[object, ...], Optional[int]]
# Where the code of a stage or "last" (_LINKED) reads the state before it,
# and whether a stage stores the state it leaves in its list ("last" and
# "d." never do): "list" or the call (its suffix) whose local holds it.
_Link = Tuple[str, bool]


def _guarded(form: str, source: object, ci: Optional[int]) -> bool:
    """Whether a call's code names its errors: it has a position and may raise."""
    return ci is not None and (form in _RAISING or (type(source) is Bounded and source.raises))


def _written(calls: Sequence[_Call], local: Mapping[str, str],
             links: Sequence[Optional[_Link]]) -> Tuple[Tuple[object, ...], List[object], bool]:
    """What the code of calls (_code) depends on, its arguments, in the
    order of its parameters, and whether it reads env for more than the
    variables that local does not name (those of earlier blocks).

    The first is each call's form and, for an expression, its bounded shape
    key and which of its reads are of which loop variable, and a stage's
    link. A stage reads the variable of its own depth, always a loop
    variable, so its id is no argument; an expression takes all its
    constants, the ids of the variables it reads from locals too.
    """
    keys: List[object] = []
    out: List[object] = []
    reads_env = False
    for j, (form, args, ci) in enumerate(calls):
        source = args[0]
        link = links[j] if form in _LINKED else None
        if type(source) is Bounded:
            keys.append((form, source.key, source.reads(local), link))
            out += source.consts
            reads_env = reads_env or True in source.branched
        else:
            keys.append((form, link) if link else form)
        out += args[1:] if form in _SOURCED else args
        if _guarded(form, source, ci):
            out.append(ci)
            reads_env = True
        reads_env = reads_env or form in _READS_ENV
    return tuple(keys), out, reads_env


def _code(calls: Sequence[_Call], suffix: str, fail: str, local: Mapping[str, str],
          links: Sequence[Optional[_Link]], solution: str
          ) -> Tuple[List[str], List[str], List[str]]:
    """The parameters, lines and function definitions of calls, in order:
    call j's names get suffix + j, fail is what runs where one of them
    fails, a variable in local is read from the local named there (a
    stage's always is), call j of a form in _LINKED reads and stores the
    state of its chain as links[j] says, and "keep" builds the solution
    with the code solution. Each call takes every parameter of its form
    and, for an expression, one per constant (expr.Bounded.write), the
    same list whatever its link or reads."""
    params: List[str] = []
    code: List[str] = []
    functions: List[str] = []
    for j, (form, args, ci) in enumerate(calls):
        names, lines = _FORMS[form]
        k = f"{suffix}{j}"
        block: List[str] = []
        x = prev = None
        if form in _SOURCED:
            names, source = names[1:], args[0]
            if type(source) is Bounded:
                written, block, x, defined = source.write(k, local, form == "i")
                params += written
                functions += defined
            else:
                x = local[source]
        if form in _LINKED:
            link = links[j]
            state = f"{names[0]}{k}"
            prev = (f"u{link[0]}" if link[0] != "list"
                    else f"{state}[-1]" if form == "last" else f"{state}[i{k}]")
            if link[1]:
                lines += (f"{state}[i{k} + 1] = u{k}",)
        params += [f"{name}{k}" for name in names]
        block += [line.format(k=k, fail=fail, x=x, u=f"u{k}", prev=prev, solution=solution)
                  for line in lines]
        if _guarded(form, args[0], ci):
            params.append(f"n{k}")
            block = (["try:"] + [f"    {line}" for line in block]
                     + ["except EvalError as e:", f"    raise named(e, n{k}) from e"])
        code += block
    return params, code, functions


# -- generated search loop --------------------------------------------------------

LOOP_DEPTHS = 16    # depths per block; Python allows 20 statically nested blocks
# Loop factories kept, one per block shape. The shape holds each depth's
# forms and expression shapes, so the cap serves models searched again in
# one process (the fixtures make 22 shapes, 36 with one seed's perfbench
# search items); a new model mostly brings new shapes, compiled whatever
# the cap.
MAX_LOOPS = 64

# What a block runs where its last depth's value passes, by mode: the
# parameters it takes, the search state it keeps in locals (read from the
# search on entry, written back on every exit) and its lines, formatted
# with solution, the code of the dict of the complete assignment. "descend"
# yields to the next block; the other modes are the leaf, whose calls'
# code (_Search.leaf) is written after its first line: count (and stop at
# max_solutions; stop is None for no limit), or keep the best by the
# sense's comparison of the value that the objective's call sets.
_INNER: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]] = {
    "descend": ((), ("nodes", "test_at"),
                ("search.nodes, search.test_at = nodes, test_at",
                 "yield True",
                 "nodes, test_at = search.nodes, search.test_at")),
    "count": (("Instantiation", "Stop", "stop"), ("nodes", "test_at", "count"),
              ("count += 1",
               "if count == 1:",
               "    search.best = Instantiation({solution})",
               "if count == stop:",
               "    raise Stop()")),
    **{mode: (("Instantiation",), ("nodes", "test_at", "count", "best_cost"),
              ("count += 1",
               f"if best_cost is None or value {op} best_cost:",
               "    best_cost = value",
               "    search.best = Instantiation({solution})"))
       for mode, op in (("min", "<"), ("max", ">"))},
}
_LOOPS: Dict[Tuple[object, ...], Callable[..., Iterator[bool]]] = {}


def _loop_source(length: int, forced: int, mode: str, writes_env: bool,
                 leaf: Sequence[_Call], calls: Sequence[Sequence[_Call]],
                 local: Mapping[str, str], links: Sequence[Sequence[Optional[_Link]]],
                 leaf_links: Sequence[Optional[_Link]]) -> str:
    """The generator _make(search, env, checkpoint, unforced, named, <the
    mode's parameters>, <the leaf calls' parameters>, i0, r0, <depth 0's
    call parameters>, i1, ...) of one block of length depths, the last
    forced of them forced, depth d making calls[d] and the leaf making
    leaf, each call reading and keeping a chain's state as links[d] (or
    leaf_links) say; local names the loop variable of each depth's variable.
    Every block takes unforced and named, whether or not its code calls
    them.

    Depth d assigns variable i<d> each value v<d> of r<d> in turn, as one
    nested for: it tests the limits when the node count reaches test_at
    (see _Search._checkpoint), counts the node, writes env (writes_env) and
    runs its calls' code (_code), which goes on to the next value where one
    fails and reads the block's variables from their loop variables and
    each stage's state from the local of the stage before it. A forced
    depth tries every value first: a second that passes raises
    unforced(...); the one that passed is assigned again, to v<d> and env,
    and the same code runs again, failing into a no-op, which rebuilds the
    stages' state, before going deeper. With writes_env, a depth whose
    values run out drops its variable from env, where partial detectors
    would read it. The innermost code is the mode's (_INNER), with the leaf
    calls' code after its first line; a solution is env, holding the
    earlier blocks' variables, with the block's own added in depth order.
    The if() branches' functions of the calls' expressions are defined
    first, once. Every block is a generator, so that _search steps them
    all alike.
    """
    params, state, inner = _INNER[mode]
    names, fields = ", ".join(state), ", ".join(f"search.{name}" for name in state)
    solution = "{" + ", ".join(["**env", *(f"i{d}: v{d}" for d in range(length))]) + "}"
    leaf_params, leaf_code, functions = _code(leaf, "L", "continue", local, leaf_links,
                                              solution)
    head = ["search", "env", "checkpoint", "unforced", "named", *params, *leaf_params]
    body: List[Tuple[int, str]] = []
    for d in range(length):
        depth = 2 + d  # the indent of depth d's for
        is_forced = d >= length - forced
        args, code, defined = _code(calls[d], f"{d}_", "continue", local, links[d], solution)
        head += [f"i{d}", f"r{d}", *args]
        functions += defined
        if is_forced:
            body.append((depth, f"c{d} = None"))
        body += [(depth, f"for v{d} in r{d}:"),
                 (depth + 1, "if nodes == test_at:"),
                 (depth + 2, "test_at = checkpoint(nodes)"),
                 (depth + 1, "nodes += 1")]
        body += [(depth + 1, f"env[i{d}] = v{d}")] * writes_env
        body += [(depth + 1, line) for line in code]
        if is_forced:
            body += [(depth + 1, f"if c{d} is not None:"),
                     (depth + 2, f"raise unforced(i{d}, c{d}, v{d})"),
                     (depth + 1, f"c{d} = v{d}"),
                     (depth, f"if c{d} is not None:"),
                     (depth + 1, f"v{d} = c{d}"),
                     (depth + 1, f"env[i{d}] = v{d}")]
            body += [(depth + 1, line)
                     for line in _code(calls[d], f"{d}_", "pass", local, links[d], solution)[1]]
    inner = [line.format(solution=solution) for line in inner]
    body += [(2 + length, line) for line in (*inner[:1], *leaf_code, *inner[1:])]
    body += [(2 + d, f"env.pop(i{d}, None)") for d in reversed(range(length))] * writes_env
    return "\n".join(
        [f"def _make({', '.join(head)}):"]
        + [f"    {line}" for line in functions]
        + [f"    {names} = {fields}",
           "    try:"]
        + ["    " * indent + line for indent, line in body]
        # an exception ends the search, and the counts are read where it
        # stopped; a block closed at its yield (GeneratorExit) writes nothing
        + ["    except Exception:",
           f"        {fields} = {names}",
           "        raise",
           f"    {fields} = {names}"]
        + ([] if mode == "descend" else ["    yield from ()"]) + [""])


def _values(domain: Domain) -> Iterable[int]:
    """A domain's values, lazily: a range when it is one interval."""
    (lo, hi), *rest = domain.items
    return domain if rest else range(lo, hi + 1)


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
# The search writes each stage into its depth's code in the loop as the
# code of its form, in order; no stage form can raise. A stage fails
# (returns True) when it finds the constraint violated, and runs only after
# the stages before it, at its depth and the earlier ones, have passed
# under the current assignment. Before the last depth it fails only when no
# extension can satisfy the constraint, like partial_violated; the stages
# of the last depth together are the complete check: one fails exactly
# when check_constraint would return False. None means the constraint does
# not qualify, and the search falls back to its kind's complete check and
# detector.

Stage = Tuple[int, str, Tuple[object, ...]]


def _scope_depths(kind: ConstraintKind, depth_of: Mapping[str, int]) -> List[int]:
    """Depths that assign a variable of kind, the one completing its scope last."""
    return sorted({depth_of[v] for v in kind.var_ids})


# A term c * x of a sum: c, the id of x and the domain bounds (lo, hi) of x
_Term = Tuple[int, str, Tuple[int, int]]


def _proved_terms(operands: Sequence[Expr], coeffs: Sequence[int],
                  bounds: Mapping[str, Tuple[int, int]]) -> Optional[List[_Term]]:
    """The terms c * x of a sum, when every operand x is a bare variable
    and no product c * x or partial sum of them can leave int64 within the
    bounds of x; else None."""
    if any(type(op) is not VarRef for op in operands):
        return None
    terms = [(c, op.id, bounds[op.id]) for c, op in zip(coeffs, operands)]
    fits = sum(abs(c) * max(abs(lo), abs(hi)) for c, _, (lo, hi) in terms) <= INT_MAX
    return terms if fits else None


def _staged_all_different(kind: AllDifferent, depth_of: Mapping[str, int],
                          bounds: Mapping[str, Tuple[int, int]]) -> Optional[List[Stage]]:
    """Evaluate each operand once, at the depth where it becomes ready.

    Each operand is a bare variable or an expression's bounded shape
    (kinds.bounded_shape), whose code is written before the check, and each
    is a check of its own ("d" forms), in depth then position order: none
    can raise, so the verdicts are those of partial_violated and the
    complete check, and no order of evaluation can be seen. None when an
    operand may raise: then the detector and the complete check, which scan
    the operands in their own order, decide where it raises, and with
    excepts, where the detector fails at the depths stages would.
    """
    if kind.excepts:
        return None
    depths = _scope_depths(kind, depth_of)
    # each depth's fresh operands, a bare variable's id or a bounded shape,
    # in position order
    fresh: Dict[int, List[Union[str, Bounded]]] = {d: [] for d in depths}
    for op in kind.operands:
        if type(op) is VarRef:
            fresh[depth_of[op.id]].append(op.id)
            continue
        shape = kind.bounded_shape(op, bounds)
        if shape.raises:
            return None
        # an operand without variables is ready at the first check
        fresh[max(map(depth_of.__getitem__, shape.ids), default=depths[0])].append(shape)
    checks = [(d, source) for d in depths for source in fresh[d]]
    # sets[i]: the values of the operands checked before check i
    sets: List[Optional[FrozenSet[int]]] = [frozenset()] + [None] * (len(checks) - 1)
    return [(d, "d" + "." * (i == len(checks) - 1), (source, sets, i))
            for i, (d, source) in enumerate(checks)]


def _sum_stages(terms: Sequence[_Term], depth_of: Mapping[str, int],
                want: Optional[Tuple[int, int]] = None) -> Tuple[List[Stage], List[int]]:
    """Stages of a running total of terms c * x, and the totals they keep.

    One stage per depth that assigns a term's variable adds that
    variable's terms. With want (lo, hi), each is a "sum" stage, failing
    when the unassigned terms' bounds leave the total no way into lo..hi;
    without, a "total" stage that never fails. After the last stage,
    totals[-1] is the sum of every term.
    """
    depths = sorted({depth_of[vid] for _, vid, _ in terms})
    totals = [0] * (len(depths) + 1)  # totals[i + 1]: the terms of stages 0..i, summed
    stages: List[Stage] = []
    for i, d in enumerate(depths):
        here = [(c, vid) for c, vid, _ in terms if depth_of[vid] == d]
        args = (here[0][1], totals, i, sum(c for c, _ in here))
        if want is None:
            stages.append((d, "total", args))
            continue
        rest = [(c * lo, c * hi) for c, vid, (lo, hi) in terms if depth_of[vid] > d]
        rest_lo = sum(min(ends) for ends in rest)
        rest_hi = sum(max(ends) for ends in rest)
        stages.append((d, "sum", args + (want[0] - rest_hi, want[1] - rest_lo)))
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
    return _sum_stages(terms, depth_of, (want_lo, want_hi))[0]


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
        self.nodes = self.test_at = 0  # the limits are first tested before the first node
        self.count = 0
        self.solutions: List[Instantiation] = []
        self.best: Optional[Instantiation] = None
        self.best_cost: Optional[Union[int, Tuple[int, ...]]] = None
        # the time limit counts from here, so that it bounds building too
        self.deadline = (time.monotonic() + cfg.time_limit
                         if cfg.time_limit is not None else None)

        # an Instance names only variables with domains (see model.Instance)
        if cfg.restrict_to_decision and instance.decision is not None:
            decided = dict.fromkeys(instance.decision)
            branch = [instance.variable(d) for d in decided]
            forced = [instance.variable(v) for v in instance.useful_ids if v not in decided]
        else:
            branch = [var for var in instance.variables() if var.domain is not None]
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
        self.blocks = self._blocks()

    def _plan(self) -> None:
        """For each depth, the calls its variable triggers, in constraint order:
        (form, arguments, position), as _code writes them.

        A staged constraint is checked by its stages alone, the last of them
        at the depth completing its scope. Any other constraint's complete
        check is at that depth: an intension's bounded shape, written as
        code ("i"), or its kind's checker ("c"), and its kind's detector
        ("s") at the earlier depths of its scope. With partial_checks off, each
        constraint is one "c" call of its checker. The stages of a summed
        objective (see _cost) come after every constraint's checks. The
        leaf's calls, run on each complete assignment that passes, are the
        objective's (_cost), or a call that keeps the solution when
        keep_solutions is set, or none.
        """
        env, bounds, partial_checks = self.env, self.bounds, self.cfg.partial_checks
        depth_of = {v.id: d for d, v in enumerate(self.order)}
        plan: List[List[_Call]] = [[] for _ in self.order]
        for ci, kind in enumerate(self.kinds):
            if not kind.var_ids:
                continue
            stages = staged_checks(kind, depth_of, bounds) if partial_checks else None
            if stages is not None:
                for d, form, args in stages:
                    plan[d].append((form, args, ci))
                continue
            depths = _scope_depths(kind, depth_of)
            check, detector = _CHECKERS[type(kind)]
            if partial_checks and type(kind) is Intension:
                plan[depths[-1]].append(("i", (kind.bounded_shape(kind.function, bounds),), ci))
            else:
                plan[depths[-1]].append(("c", (check, kind), ci))
            if partial_checks and detector is not None:
                for d in depths[:-1]:
                    plan[d].append(("s", (partial(detector, kind, env),), ci))
        if self.objective is not None:
            self.leaf: Tuple[_Call, ...] = (self._cost(plan, depth_of),)
        elif self.cfg.keep_solutions:
            self.leaf = (("keep", (self.solutions.append,), None),)
        else:
            self.leaf = ()
        # a constraint's calls at one depth are consecutive, in position order
        self.plan = [tuple(calls) for calls in plan]

    def _cost(self, plan: List[List[_Call]], depth_of: Mapping[str, int]) -> _Call:
        """The leaf's call that sets value to the objective's cost.

        A sum whose terms the bounds prove to stay in int64 (see
        _proved_terms) is summed by "total" stages, which never fail, added
        to plan after each depth's checks with no position; the leaf reads
        their last total ("last"). Any other objective, an expression's
        included, and every objective with partial_checks off, is a call of
        eval_objective ("cost"). The call has no position, so an error of
        the objective passes unnamed.
        """
        obj = self.objective
        if self.cfg.partial_checks and obj.kind is ObjKind.SUM:
            coeffs = obj.coeffs if obj.coeffs is not None else (1,) * len(obj.operands)
            terms = _proved_terms(obj.operands, coeffs, self.bounds)
            if terms is not None:
                stages, totals = _sum_stages(terms, depth_of)
                for d, form, args in stages:
                    plan[d].append((form, args, None))
                return "last", (totals,), None
        return "cost", (partial(eval_objective, obj),), None

    # -- bookkeeping ---------------------------------------------------------

    def _checkpoint(self, nodes: int) -> int:
        """Stop with LIMIT if a limit is reached after nodes nodes; else the
        count at which to test again, -1 when never.

        The node limit is tested when the count reaches it, before one more
        node would be visited, and the clock at 0 nodes and every
        CLOCK_NODES nodes after; a time limit of 0 stops before a node.
        """
        limit = self.cfg.node_limit
        if limit is not None and nodes >= limit:
            raise _LimitReached()
        if self.deadline is None:
            return -1 if limit is None else limit
        if time.monotonic() >= self.deadline:
            raise _LimitReached()
        clock = nodes + CLOCK_NODES
        return clock if limit is None else min(clock, limit)

    def _named(self, error: EvalError, ci: int) -> EvalError:
        return named_error(error, self.instance.constraints[ci].label(ci),
                           self.kinds[ci].var_ids, self.env)

    def _unforced(self, vid: str, chosen: int, value: int) -> UnforcedVariable:
        """The error of a forced depth where both chosen and value extend."""
        at = " ".join(f"{v.id}={self.env[v.id]}" for v in self.order[:self.branch_len])
        return UnforcedVariable(f"variable {vid} is not determined by the decision "
                                f"variables (both {chosen} and {value} extend)"
                                + (f" at {at}" if at else ""))

    def _blocks(self) -> List[Callable[[], Iterator[bool]]]:
        """The search loop: generated blocks of at most LOOP_DEPTHS depths
        each, in depth order, each depth's calls written in, the last block
        doing the leaf and its calls (see _loop_source).

        A stage keeps the state it leaves in a local of its block, where
        the stage after it (or "last") reads it, and in a block but the
        last stores it in its list too, for later blocks; a chain's first
        stage in a block reads its list, at slot 0 for the chain's first.
        Every block takes unforced and named and every call all its
        constants, so a block's arguments follow from its calls alone.
        Every block but the last writes env, where later blocks read their
        variables; the last writes it only where its code reads env
        otherwise: a call of a checker, a detector or eval_objective, an
        error's handler, which names the values of its scope, an if()
        branch, or a forced depth, whose error names the decisions.
        """
        n = len(self.order)
        if self.objective is not None:
            mode = "min" if self.sense is Sense.MINIMIZE else "max"
            mode_args: Tuple[object, ...] = (Instantiation,)
        else:
            mode, mode_args = "count", (Instantiation, _Stop, self.cfg.max_solutions)
        depths = [(v.id, _values(v.domain), calls)
                  for v, calls in zip(self.order, self.plan)]
        blocks = []
        for start in range(0, n, LOOP_DEPTHS) if n else (0,):
            end = min(start + LOOP_DEPTHS, n)
            block = depths[start:end]
            local = {vid: f"v{d}" for d, (vid, _, _) in enumerate(block)}
            calls = [calls for _, _, calls in block]
            kept: Dict[Tuple[int, int], str] = {}  # (list, index) -> the call keeping it
            links: List[List[Optional[_Link]]] = []
            for d, depth in enumerate(calls):
                links.append([None] * len(depth))
                for j, (form, args, _) in enumerate(depth):
                    if form in _STAGES:
                        state, i = id(args[1]), args[2]
                        links[d][j] = (kept.get((state, i), "list"), end < n and form != "d.")
                        kept[state, i + 1] = f"{d}_{j}"
            leaf = self.leaf if end == n else ()
            leaf_links = [(kept.get((id(args[0]), len(args[0]) - 1), "list"), False)
                          if form == "last" else None for form, args, _ in leaf]
            written = [_written(depth, local, depth_links)
                       for depth, depth_links in zip(calls, links)]
            leaf_keys, leaf_args, leaf_env = _written(leaf, local, leaf_links)
            forced = max(0, end - max(start, self.branch_len))
            writes_env = (end < n or forced > 0 or leaf_env
                          or any(reads_env for _, _, reads_env in written))
            shape = (end - start, forced, mode if end == n else "descend", writes_env,
                     leaf_keys, tuple(keys for keys, _, _ in written))
            make = generated(_LOOPS, MAX_LOOPS, shape,
                             partial(_loop_source, *shape[:4], leaf, calls, local, links,
                                     leaf_links),
                             _NAMESPACE, "<search loop>")
            blocks.append(partial(make, self, self.env, self._checkpoint, self._unforced,
                                  self._named, *(mode_args if end == n else ()), *leaf_args,
                                  *[arg for (vid, values, _), (_, args, _) in zip(block, written)
                                    for arg in (vid, values, *args)]))
        return blocks

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
        """Depth-first over the generated blocks, kept on an explicit stack.

        A block that yields has assigned its last depth: the next block is
        started below it. A block that ends is popped, and the one above
        resumes at its last depth's next value.
        """
        blocks = self.blocks
        stack = [blocks[0]()]
        while stack:
            if next(stack[-1], False):
                stack.append(blocks[len(stack)]())
            else:
                stack.pop()


def solve(instance: Instance, config: Optional[SearchConfig] = None) -> SolveResult:
    return _Search(instance, config or SearchConfig()).run()


def count_solutions(instance: Instance,
                    config: Optional[SearchConfig] = None) -> SolveResult:
    cfg = replace(config or SearchConfig(), keep_solutions=False)
    return _Search(instance, cfg).run()
