"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb way (full enumeration,
explicit path walking) so that agreement with the fast path is meaningful.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from xcsp3core import kinds as K
from xcsp3core.checker import (
    CheckMode,
    Verdict,
    VerdictKind,
    check_constraint,
    ensure_scope_assigned,
    eval_objective,
)
from xcsp3core.errors import (
    CheckError,
    DivisionByZero,
    EvalError,
    NegativeExponent,
    Overflow,
    ParseError,
    UnboundVariable,
)
from xcsp3core.expr import (ARITIES, KEYWORDS, MAX_EXPR_DEPTH, Expr, IntConst, OpCall,
                            SetLiteral, VarRef)
from xcsp3core.model import (Condition, Instance, Instantiation, Interval, STAR, Star,
                             Value)


def defined_variables(instance: Instance):
    return [v for v in instance.variables() if v.domain is not None]


def naive_solutions(instance: Instance) -> List[Dict[str, int]]:
    """Filter the full Cartesian product of the domains through the checker."""
    vs = defined_variables(instance)
    names = [v.id for v in vs]
    domains = [list(v.domain.values()) for v in vs]
    out = []
    for combo in itertools.product(*domains):
        env = dict(zip(names, combo))
        if all(check_constraint(p.kind, env) for p in instance.constraints):
            out.append(env)
    return out


def naive_count(instance: Instance) -> int:
    return len(naive_solutions(instance))


def window_count(length: int, domain: Sequence[int], arity: int,
                 relation: Callable[..., bool]) -> int:
    """Sequences of length values from domain whose every window of arity
    consecutive values satisfies relation, counted by a transfer matrix
    over the last arity - 1 values: no sequence is built."""
    counts: Dict[Tuple[int, ...], int] = dict.fromkeys(
        itertools.product(domain, repeat=arity - 1), 1)
    for _ in range(length - arity + 1):
        after: Dict[Tuple[int, ...], int] = {}
        for last, n in counts.items():
            for v in domain:
                if relation(*last, v):
                    key = last[1:] + (v,)
                    after[key] = after.get(key, 0) + n
        counts = after
    return sum(counts.values())


# -- solution verification -----------------------------------------------------------
#
# check_solution as first written: nothing is kept between calls, every
# constraint's scope is proved assigned before its check, tables are
# scanned row by row, and the kinds that have a reference predicate (below)
# are judged by it. check_solution must give the same verdict, or raise
# the same class with the same message (it may prefix the constraint label
# and add the assignment).

def _reference_holds(kind, env: Dict[str, int]) -> bool:
    predicate = REFERENCE_PREDICATES.get(type(kind))
    if predicate is not None:
        return predicate(kind, env)
    if isinstance(kind, K.Extension) and kind.unary is None:
        values = [env[v] for v in kind.scope]
        hit = any(all(t is STAR or t == v for t, v in zip(row, values))
                  for row in kind.tuples)
        return hit if kind.positive else not hit
    return check_constraint(kind, env, validate=False)


def reference_check_solution(instance: Instance, solution: Instantiation,
                             mode: CheckMode = CheckMode.TOTAL_REQUIRED,
                             declared_cost: Optional[int] = None) -> Verdict:
    for vid, val in solution.items():
        var = instance.variable(vid)
        if var is None:
            raise CheckError(f"unknown variable {vid}")
        if isinstance(val, int) and var.domain is not None and not var.domain.contains(val):
            raise CheckError(f"{vid}={val} outside {var.domain.render()}")
    useful: Set[str] = set()
    for posted in instance.constraints:
        useful.update(posted.kind.var_ids)
    if instance.objective is not None:
        useful.update(instance.objective.var_ids)
    missing = tuple(v.id for v in instance.variables()
                    if v.id in useful and not isinstance(solution.get(v.id), int))
    env = {vid: val for vid, val in solution.items() if isinstance(val, int)}

    def violated(skip_unassigned: bool) -> Tuple[str, ...]:
        bad = []
        for position, posted in enumerate(instance.constraints):
            if skip_unassigned:
                if any(not isinstance(env.get(v), int) for v in posted.kind.var_ids):
                    continue
            else:
                ensure_scope_assigned(posted.kind, env)
            if not _reference_holds(posted.kind, env):
                bad.append(posted.label(position))
        return tuple(bad)

    if mode is CheckMode.TOTAL_REQUIRED:
        if missing:
            return Verdict(VerdictKind.INCOMPLETE, missing=missing)
        bad = violated(skip_unassigned=False)
        if bad:
            return Verdict(VerdictKind.VIOLATED, violated=bad)
    else:
        bad = violated(skip_unassigned=True)
        if bad:
            return Verdict(VerdictKind.VIOLATED, violated=bad)
        if missing:
            return Verdict(VerdictKind.INCOMPLETE, missing=missing)
    if declared_cost is not None:
        if instance.objective is None:
            raise CheckError("cost declared but the instance has no objective")
        if all(isinstance(env.get(v), int) for v in instance.objective.var_ids):
            actual = eval_objective(instance.objective, env)
            if actual != declared_cost:
                raise CheckError(f"declared cost {declared_cost}, actual {actual}")
    return Verdict(VerdictKind.SATISFIED)


# -- expressions ----------------------------------------------------------------------
#
# The reference tree-walker: one recursive call per node and one branch per
# operator, arithmetic done on unbounded ints and checked after each step.
# compile_expr must agree with it on every tree, value or exception class.

_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1


def _int64(value: int, context: str) -> int:
    if value < _INT_MIN or value > _INT_MAX:
        raise Overflow(f"{context}: {value} leaves the 64-bit integer range")
    return value


def _quotient(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero(f"div({a},{b})")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def reference_eval(e: Expr, env: Dict[str, int]) -> int:
    """Evaluate e under env by walking the tree; booleans come back as 0/1."""
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, VarRef):
        v = env.get(e.id)
        if not isinstance(v, int):
            raise UnboundVariable(e.id)
        return v
    if isinstance(e, SetLiteral):
        raise EvalError("set literal outside in()")

    op, raw_args = e.op, e.args
    if op == "if":
        # Only the selected branch is evaluated.
        cond = reference_eval(raw_args[0], env)
        return reference_eval(raw_args[1] if cond != 0 else raw_args[2], env)
    if op == "in":
        lhs = reference_eval(raw_args[0], env)
        return int(lhs in raw_args[1].values)

    args = [reference_eval(a, env) for a in raw_args]
    truths = [a != 0 for a in args]
    if op == "neg":
        return _int64(-args[0], op)
    if op == "abs":
        return _int64(abs(args[0]), op)
    if op == "sqr":
        return _int64(args[0] * args[0], op)
    if op == "add":
        total = 0
        for a in args:
            total = _int64(total + a, op)
        return total
    if op == "sub":
        return _int64(args[0] - args[1], op)
    if op == "mul":
        total = 1
        for a in args:
            total = _int64(total * a, op)
        return total
    if op == "div":
        return _int64(_quotient(args[0], args[1]), op)
    if op == "mod":
        if args[1] == 0:
            raise DivisionByZero(f"mod({args[0]},{args[1]})")
        return args[0] - args[1] * _quotient(args[0], args[1])
    if op == "pow":
        base, exponent = args
        if exponent < 0:
            raise NegativeExponent(f"pow({base},{exponent})")
        if abs(base) <= 1:
            return base ** exponent
        result = 1
        for _ in range(exponent):  # stops by Overflow within 64 steps
            result = _int64(result * base, op)
        return result
    if op == "dist":
        return _int64(abs(args[0] - args[1]), op)
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "lt":
        return int(args[0] < args[1])
    if op == "le":
        return int(args[0] <= args[1])
    if op == "ge":
        return int(args[0] >= args[1])
    if op == "gt":
        return int(args[0] > args[1])
    if op == "ne":
        return int(args[0] != args[1])
    if op == "eq":
        return int(all(a == args[0] for a in args[1:]))
    if op == "not":
        return int(not truths[0])
    if op == "and":
        return int(all(truths))
    if op == "or":
        return int(any(truths))
    if op == "xor":
        return int(sum(truths) % 2 == 1)
    if op == "iff":
        return int(all(t == truths[0] for t in truths))
    if op == "imp":
        return int(not truths[0] or truths[1])
    raise EvalError(f"unhandled operator {op!r}")


# -- reference predicates ---------------------------------------------------------------
#
# The kinds that read lists of operands, as the specification states them:
# each operand through reference_eval, in list order, and each product and
# partial sum checked for int64 as it is taken, as naive_cost does. Nothing
# here comes from checker.py; check_constraint must agree with each on
# every complete assignment of the scope, value or exception class.

_RELATIONS: Dict[str, Callable[[int, int], bool]] = {
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b, "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b, "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
}


def _slot(value, env: Dict[str, int]) -> int:
    """A value-or-variable slot: a coefficient, a length, a counted value."""
    return reference_eval(value, env) if isinstance(value, VarRef) else value


def _reference_condition(lhs: int, condition: Condition, env: Dict[str, int]) -> bool:
    op, operand = condition.op.value, condition.operand
    if op in ("in", "notin"):
        members = (range(operand.lo, operand.hi + 1) if isinstance(operand, Interval)
                   else operand.values)
        return (lhs in members) == (op == "in")
    return _RELATIONS[op](lhs, _slot(operand, env))


def _operands(kind, env: Dict[str, int]) -> List[int]:
    return [reference_eval(e, env) for e in kind.operands]


def _reference_sum(kind: K.Sum, env: Dict[str, int]) -> bool:
    total = 0
    for coeff, term in zip(kind.coeffs, kind.terms):
        product = _int64(_slot(coeff, env) * reference_eval(term, env), "sum term")
        total = _int64(total + product, "sum")
    return _reference_condition(total, kind.condition, env)


def _reference_count(kind: K.Count, env: Dict[str, int]) -> bool:
    counted = [_slot(v, env) for v in kind.values]
    n = 0
    for value in _operands(kind, env):
        if value in counted:
            n += 1
    return _reference_condition(n, kind.condition, env)


def _reference_nvalues(kind: K.NValues, env: Dict[str, int]) -> bool:
    distinct: List[int] = []
    for value in _operands(kind, env):
        if value not in distinct and value not in kind.excepts:
            distinct.append(value)
    return _reference_condition(len(distinct), kind.condition, env)


def _reference_all_different(kind: K.AllDifferent, env: Dict[str, int]) -> bool:
    """No two operands take the same value, unless that value is excepted."""
    values = _operands(kind, env)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j] and values[i] not in kind.excepts:
                return False
    return True


def _reference_all_equal(kind: K.AllEqual, env: Dict[str, int]) -> bool:
    values = _operands(kind, env)
    return all(v == values[0] for v in values)


def _reference_ordered(kind: K.Ordered, env: Dict[str, int]) -> bool:
    """Each x[i] + lengths[i] (or x[i]) is op x[i + 1], checked from the left."""
    holds = _RELATIONS[kind.op.value]
    values = [reference_eval(VarRef(vid), env) for vid in kind.vars]
    for i in range(len(values) - 1):
        lhs = values[i]
        if kind.lengths is not None:
            lhs = _int64(lhs + _slot(kind.lengths[i], env), "ordered")
        if not holds(lhs, values[i + 1]):
            return False
    return True


def _reference_minimum(kind: K.Minimum, env: Dict[str, int]) -> bool:
    return _reference_condition(min(_operands(kind, env)), kind.condition, env)


def _reference_maximum(kind: K.Maximum, env: Dict[str, int]) -> bool:
    return _reference_condition(max(_operands(kind, env)), kind.condition, env)


REFERENCE_PREDICATES: Dict[type, Callable[..., bool]] = {
    K.Sum: _reference_sum,
    K.Count: _reference_count,
    K.NValues: _reference_nvalues,
    K.AllDifferent: _reference_all_different,
    K.AllEqual: _reference_all_equal,
    K.Ordered: _reference_ordered,
    K.Minimum: _reference_minimum,
    K.Maximum: _reference_maximum,
}


# -- reference readers ----------------------------------------------------------------
#
# The character-at-a-time expression reader and the tuple-at-a-time tuple
# reader that the package's one-scan readers replaced. Those must agree
# with these on every text: the same value, or a ParseError of the same
# class with the same rule.

_REF_INT = re.compile(r"[+-]?[0-9]+")
_REF_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REF_INDEX = re.compile(r"\[[0-9]+\]")


def reference_int(token: str, path: Optional[str] = None, what: str = "integer") -> int:
    """Optional sign, ASCII digits, at most 19 significant digits, int64 range."""
    if not _REF_INT.fullmatch(token):
        raise ParseError(f"bad {what} token", path=path, rule="integer")
    significant = token.lstrip("+-").lstrip("0") or "0"
    value = int(significant) if len(significant) <= 19 else None
    if value is not None and token.startswith("-"):
        value = -value
    if value is None or not _INT_MIN <= value <= _INT_MAX:
        raise ParseError(f"{what} leaves the 64-bit integer range", path=path,
                         rule="integer-range")
    return value


class _ReferenceParser:
    def __init__(self, text: str, path: Optional[str] = None):
        self.text = text
        self.pos = 0
        self.path = path
        self.depth = 0

    def fail(self, message: str, offset: Optional[int] = None) -> ParseError:
        return ParseError(f"{message} (offset {self.pos if offset is None else offset})",
                          path=self.path, rule="expression-syntax")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.fail(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        node = self.parse_node()
        if isinstance(node, SetLiteral):
            raise self.fail("set literal outside in()")
        if self.pos != len(self.text):
            raise self.fail("trailing characters after expression")
        return node

    def parse_node(self) -> Expr:
        ch = self.peek()
        if ch == "":
            raise self.fail("unexpected end of expression")
        if ch in "+-" or ch.isdigit():
            return self.parse_int()
        if ch.isalpha():
            return self.parse_name()
        raise self.fail(f"unexpected character {ch!r}")

    def parse_int(self) -> IntConst:
        m = _REF_INT.match(self.text, self.pos)
        if not m:
            raise self.fail("malformed integer")
        self.pos = m.end()
        return IntConst(reference_int(m.group(), self.path, "integer literal"))

    def parse_name(self) -> Expr:
        start = self.pos
        m = _REF_IDENT.match(self.text, self.pos)
        if m is None:  # a letter outside A-Z and a-z
            raise self.fail("malformed identifier")
        name = m.group()
        self.pos = m.end()
        if self.peek() == "(":
            return self.parse_call(name, start)
        if name in ARITIES:
            raise self.fail(f"operator '{name}' used as a variable", start)
        if name in KEYWORDS:
            raise self.fail(f"reserved word '{name}' used as a variable", start)
        return VarRef(name + self.parse_indexing())

    def parse_indexing(self) -> str:
        out = []
        while self.peek() == "[":
            m = _REF_INDEX.match(self.text, self.pos)
            if not m:
                raise self.fail("array index must be an unsigned integer")
            self.pos = m.end()
            out.append(m.group())
        return "".join(out)

    def parse_call(self, name: str, start: int) -> Expr:
        if name != "set" and name not in ARITIES:
            raise self.fail(f"unknown operator '{name}'", start)
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise ParseError(f"expression too deep (offset {start})", path=self.path,
                             rule="expression-depth")
        args: List[Expr] = []
        if self.peek() == ")":
            self.pos += 1
        else:
            while True:
                args.append(self.parse_node())
                if isinstance(args[-1], SetLiteral) and not (name == "in" and len(args) == 2):
                    raise self.fail("set literal outside in()")
                ch = self.peek()
                if ch == ",":
                    self.pos += 1
                    continue
                if ch == ")":
                    self.pos += 1
                    break
                raise self.fail("expected ',' or ')'")
        self.depth -= 1
        if name == "set":
            values = []
            for a in args:
                if not isinstance(a, IntConst):
                    raise self.fail("set literals may only contain integers", start)
                values.append(a.value)
            return SetLiteral(tuple(values))
        lo, hi = ARITIES[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ParseError(f"operator '{name}' takes another number of arguments "
                             f"(offset {start})", path=self.path, rule="operator-arity")
        if name == "in" and not isinstance(args[1], SetLiteral):
            raise self.fail("second argument of in() must be a set literal", start)
        return OpCall(name, tuple(args))


def reference_parse_expr(text: str, path: Optional[str] = None) -> Expr:
    """Read an expression one character at a time, recursing once per call."""
    for i, ch in enumerate(text):
        if ch.isspace():
            raise ParseError(f"whitespace inside functional expression (offset {i})",
                             path=path, rule="expression-whitespace")
    if not text:
        raise ParseError("empty expression (offset 0)", path=path, rule="expression-syntax")
    return _ReferenceParser(text, path).parse()


def reference_read_tuples(text: str, path: str, parse_field: Callable[[str], object],
                          what: str = "tuple") -> List[Tuple[object, ...]]:
    """Read a ()-delimited tuple sequence one tuple at a time. Whitespace may
    separate tuples but never appear inside one."""
    out: List[Tuple[object, ...]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' in {what} sequence", path=path,
                             rule="tuple-syntax")
        j = text.find(")", i)
        if j < 0:
            raise ParseError(f"unterminated {what}", path=path, rule="tuple-syntax")
        inner = text[i + 1:j]
        for k, c in enumerate(inner):
            if c.isspace():
                raise ParseError(f"whitespace inside {what} (offset {i + 1 + k})",
                                 path=path, rule="tuple-whitespace")
        try:
            out.append(tuple(parse_field(f) for f in inner.split(",")))
        except ParseError as e:
            if e.path is None:
                e.path = path
            raise
        i = j + 1
    return out


def reference_table_field(token: str) -> Value:
    """One field of an integer table: * or an integer."""
    return STAR if token == "*" else reference_int(token, None, "tuple value")


# -- automata / decision diagrams ---------------------------------------------------

def automaton_accepts(transitions: Sequence[Tuple[str, int, str]], start: str,
                      finals: Iterable[str], word: Sequence[int]) -> bool:
    """Walk every nondeterministic path explicitly; accept if any path works."""
    finals = set(finals)

    def walk(state: str, rest: Sequence[int]) -> bool:
        if not rest:
            return state in finals
        return any(walk(t, rest[1:]) for (f, v, t) in transitions
                   if f == state and v == rest[0])

    return walk(start, list(word))


def accepted_words(transitions: Sequence[Tuple[str, int, str]], start: str,
                   finals: Iterable[str], length: int,
                   alphabet: Sequence[int]) -> Set[Tuple[int, ...]]:
    return {word for word in itertools.product(alphabet, repeat=length)
            if automaton_accepts(transitions, start, finals, word)}


def mdd_accepted(transitions: Sequence[Tuple[str, int, str]]) -> Set[Tuple[int, ...]]:
    """All label sequences along root-to-terminal paths."""
    sources = {f for f, _, _ in transitions}
    targets = {t for _, _, t in transitions}
    roots = sources - targets
    terminals = targets - sources
    assert len(roots) == 1 and len(terminals) == 1
    root, terminal = roots.pop(), terminals.pop()
    out: Set[Tuple[int, ...]] = set()

    def walk(node: str, prefix: Tuple[int, ...]) -> None:
        if node == terminal:
            out.add(prefix)
            return
        for f, v, t in transitions:
            if f == node:
                walk(t, prefix + (v,))

    walk(root, ())
    return out


# -- short tables -------------------------------------------------------------------

def expand_short_tuples(tuples: Sequence[Tuple[object, ...]],
                        domains: Sequence[Sequence[int]]) -> Set[Tuple[int, ...]]:
    """Replace every * with each value of the matching domain."""
    out: Set[Tuple[int, ...]] = set()
    for row in tuples:
        slots = [list(domains[k]) if isinstance(v, Star) else [v]
                 for k, v in enumerate(row)]
        out.update(itertools.product(*slots))
    return out


# -- random generators ---------------------------------------------------------------

def random_domain_text(rng: random.Random, max_size: int = 5) -> Tuple[str, List[int]]:
    size = rng.randint(1, max_size)
    lo = rng.randint(-3, 3)
    if rng.random() < 0.5:
        values = list(range(lo, lo + size))
        return f"{lo}..{lo + size - 1}" if size > 1 else str(lo), values
    values = sorted(rng.sample(range(lo, lo + 2 * max_size), size))
    return " ".join(map(str, values)), values


def _rand_operand(rng: random.Random, names: Sequence[str]) -> str:
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(names)
    if roll < 0.75:
        return f"add({rng.choice(names)},{rng.randint(-2, 2)})"
    return str(rng.randint(-4, 4))


def _rand_intension(rng: random.Random, names: Sequence[str]) -> str:
    op = rng.choice(["lt", "le", "gt", "ge", "eq", "ne"])
    body = f"{op}({_rand_operand(rng, names)},{_rand_operand(rng, names)})"
    if rng.random() < 0.3:
        other = rng.choice(["lt", "ne", "ge"])
        body = (f"or({body},{other}({rng.choice(names)},"
                f"{rng.randint(-2, 2)}))")
    return f"    <intension> {body} </intension>"


def _rand_extension(rng: random.Random, names: Sequence[str],
                    domains: Dict[str, List[int]]) -> str:
    arity = rng.randint(1, min(3, len(names)))
    scope = rng.sample(list(names), arity)
    if arity == 1:
        values = sorted(set(rng.choices(domains[scope[0]] + [-9, 9],
                                        k=rng.randint(1, 3))))
        body = " ".join(map(str, values))
        tag = "supports" if rng.random() < 0.7 else "conflicts"
        return (f"    <extension>\n      <list> {scope[0]} </list>\n"
                f"      <{tag}> {body} </{tag}>\n    </extension>")
    short = rng.random() < 0.3  # a short table: some cells are *, matching any value
    rows = {tuple("*" if short and rng.random() < 0.3 else str(rng.choice(domains[v]))
                  for v in scope)
            for _ in range(rng.randint(1, 6))}
    # in value order, which the parser requires of a table without *
    ordered = sorted(rows, key=lambda row: [(1, 0) if t == "*" else (0, int(t)) for t in row])
    body = "".join("(" + ",".join(row) + ")" for row in ordered)
    tag = "supports" if rng.random() < 0.7 else "conflicts"
    return (f"    <extension>\n      <list> {' '.join(scope)} </list>\n"
            f"      <{tag}> {body} </{tag}>\n    </extension>")


def _rand_sum(rng: random.Random, names: Sequence[str],
              domains: Dict[str, List[int]]) -> str:
    arity = rng.randint(1, len(names))
    scope = rng.sample(list(names), arity)
    coeffs = [rng.randint(-2, 3) for _ in scope]
    op = rng.choice(["lt", "le", "gt", "ge", "eq", "ne"])
    k = rng.randint(-6, 8)
    huge = rng.random() < 0.15
    if huge:
        # c*x - c*x cancels, so no partial sum leaves int64; but c is near
        # 2^63/max|x| (2^62 when that is 2), so the domain bounds cannot prove
        # it and the search must enumerate this sum instead of bounding it
        x = rng.choice(names)
        c = (2**63 - 1) // max(1, max(abs(v) for v in domains[x])) - rng.randint(0, 3)
        scope, coeffs = [x, x] + scope, [c, -c] + coeffs
    lines = [f"    <sum>", f"      <list> {' '.join(scope)} </list>"]
    if huge or rng.random() < 0.7:
        lines.append(f"      <coeffs> {' '.join(map(str, coeffs))} </coeffs>")
    lines.append(f"      <condition> ({op},{k}) </condition>")
    lines.append("    </sum>")
    return "\n".join(lines)


def _rand_count(rng: random.Random, names: Sequence[str],
                domains: Dict[str, List[int]]) -> str:
    arity = rng.randint(1, len(names))
    scope = rng.sample(list(names), arity)
    values = sorted({rng.choice(domains[v]) for v in scope})
    op = rng.choice(["le", "ge", "eq"])
    k = rng.randint(0, arity)
    return (f"    <count>\n      <list> {' '.join(scope)} </list>\n"
            f"      <values> {' '.join(map(str, values))} </values>\n"
            f"      <condition> ({op},{k}) </condition>\n    </count>")


def _rand_comparison(rng: random.Random, names: Sequence[str]) -> str:
    kind = rng.choice(["allDifferent", "allEqual", "ordered", "minimum",
                       "maximum", "nValues"])
    arity = rng.randint(2, len(names)) if len(names) >= 2 else 1
    scope = rng.sample(list(names), max(arity, 1))
    body = " ".join(scope)
    if kind == "allDifferent":
        if rng.random() < 0.5:
            body = " ".join(_rand_operand(rng, names) for _ in scope)
        if rng.random() < 0.3:
            excepts = sorted(set(rng.choices(range(-3, 4), k=rng.randint(1, 2))))
            return (f"    <allDifferent>\n      <list> {body} </list>\n"
                    f"      <except> {' '.join(map(str, excepts))} </except>\n"
                    f"    </allDifferent>")
    if kind in ("allDifferent", "allEqual"):
        return f"    <{kind}> {body} </{kind}>"
    if kind == "ordered":
        op = rng.choice(["lt", "le", "ge", "gt"])
        return (f"    <ordered>\n      <list> {body} </list>\n"
                f"      <operator> {op} </operator>\n    </ordered>")
    if kind == "nValues":
        op = rng.choice(["le", "ge", "eq"])
        k = rng.randint(1, len(scope))
        return (f"    <nValues>\n      <list> {body} </list>\n"
                f"      <condition> ({op},{k}) </condition>\n    </nValues>")
    op = rng.choice(["lt", "le", "gt", "ge", "eq", "ne"])
    k = rng.randint(-4, 6)
    return (f"    <{kind}>\n      <list> {body} </list>\n"
            f"      <condition> ({op},{k}) </condition>\n    </{kind}>")


def _random_model(rng: random.Random, max_vars: int,
                  max_values: int) -> Tuple[List[str], List[str], List[str]]:
    """Variable names, <var> lines and constraint lines of a small random CSP."""
    n = rng.randint(2, max_vars)
    names = [f"x{i}" for i in range(n)]
    domains: Dict[str, List[int]] = {}
    var_lines = []
    for name in names:
        text, values = random_domain_text(rng, max_values)
        domains[name] = values
        var_lines.append(f'    <var id="{name}"> {text} </var>')
    n_constraints = rng.randint(2, 4)
    makers = [
        lambda: _rand_intension(rng, names),
        lambda: _rand_extension(rng, names, domains),
        lambda: _rand_sum(rng, names, domains),
        lambda: _rand_count(rng, names, domains),
        lambda: _rand_comparison(rng, names),
    ]
    ctr_lines = [rng.choice(makers)() for _ in range(n_constraints)]
    return names, var_lines, ctr_lines


def _instance_xml(framework: str, var_lines: Sequence[str], ctr_lines: Sequence[str],
                  objective: str = "") -> str:
    return (
        f'<instance format="XCSP3" type="{framework}">\n'
        "  <variables>\n" + "\n".join(var_lines) + "\n  </variables>\n"
        "  <constraints>\n" + "\n".join(ctr_lines) + "\n  </constraints>\n"
        + objective + "</instance>\n")


def random_instance_xml(rng: random.Random, max_vars: int = 6,
                        max_values: int = 5) -> str:
    """A small CSP drawn from the core constraint menu."""
    _, var_lines, ctr_lines = _random_model(rng, max_vars, max_values)
    return _instance_xml("CSP", var_lines, ctr_lines)


def _rand_objective_expr(rng: random.Random, names: Sequence[str], depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names) if rng.random() < 0.8 else str(rng.randint(-3, 3))
    op = rng.choice(["add", "sub", "mul", "dist", "min", "max", "abs", "neg"])
    arity = 1 if op in ("abs", "neg") else 2
    args = ",".join(_rand_objective_expr(rng, names, depth - 1) for _ in range(arity))
    return f"{op}({args})"


def random_cop_xml(rng: random.Random, max_vars: int = 6, max_values: int = 5) -> str:
    """A small COP: random_instance_xml's constraint menu and a random objective.

    The objective is a sum, minimum or maximum over a list of variables (and
    sometimes a non-bare operand), with or without coefficients, or an
    expression; minimized or maximized.
    """
    names, var_lines, ctr_lines = _random_model(rng, max_vars, max_values)
    sense = rng.choice(["minimize", "maximize"])
    kind = rng.choice(["sum", "minimum", "maximum", "expression"])
    if kind == "expression":
        body = f"<{sense}> {_rand_objective_expr(rng, names)} </{sense}>"
    else:
        operands = [rng.choice(names) for _ in range(rng.randint(1, len(names)))]
        if rng.random() < 0.2:
            operands[0] = f"add({operands[0]},{rng.randint(-2, 2)})"
        body = f'<{sense} type="{kind}"><list> {" ".join(operands)} </list>'
        if rng.random() < 0.6:
            coeffs = [rng.randint(-3, 3) for _ in operands]
            body += f"<coeffs> {' '.join(map(str, coeffs))} </coeffs>"
        body += f"</{sense}>"
    objective = f"  <objectives>\n    {body}\n  </objectives>\n"
    return _instance_xml("COP", var_lines, ctr_lines, objective)


def _rand_division(rng: random.Random, names: Sequence[str]) -> str:
    dividend = rng.choice(list(names) + [str(rng.randint(-6, 6))])
    return f"{rng.choice(['div', 'mod'])}({dividend},{rng.choice(names)})"


def random_raising_all_different(rng: random.Random) -> Tuple[str, Dict[str, object]]:
    """A small CSP around one allDifferent that may raise, and search options.

    The allDifferent's operands are variables, constants, add()s and at
    least one div or mod by a variable, over domains in -2..3 that often
    hold 0; it may have excepts, and an intension may come before or after
    it. The options are SearchConfig keywords, var_order by its value:
    either order, restrict_to_decision over a decision annotation of a
    prefix of the variables, max_solutions 3 or none.
    """
    names = [f"x{i}" for i in range(rng.randint(2, 4))]
    var_lines = [f'    <var id="{name}"> '
                 f'{" ".join(map(str, sorted(rng.sample(range(-2, 4), rng.randint(1, 4)))))}'
                 " </var>" for name in names]
    operands = [_rand_division(rng, names)]
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        operands.append(rng.choice(names) if roll < 0.45
                        else _rand_division(rng, names) if roll < 0.7
                        else f"add({rng.choice(names)},{rng.randint(-2, 2)})" if roll < 0.9
                        else str(rng.randint(-2, 3)))
    rng.shuffle(operands)
    body = f"<list> {' '.join(operands)} </list>"
    if rng.random() < 0.3:
        excepts = rng.sample(range(-2, 4), rng.randint(1, 2))
        body += f"<except> {' '.join(map(str, excepts))} </except>"
    ctr_lines = [f'    <allDifferent id="c">{body}</allDifferent>']
    where = rng.choice(["none", "before", "after"])
    if where != "none":
        a, b = rng.sample(names, 2)
        line = f'    <intension id="i"> {rng.choice(["ne", "le"])}({a},{b}) </intension>'
        ctr_lines.insert(0 if where == "before" else 1, line)
    annotations = ""
    options: Dict[str, object] = {"var_order": rng.choice(["declaration", "smallest-domain"]),
                                  "max_solutions": rng.choice([None, 3])}
    if rng.random() < 0.3:
        decision = " ".join(names[:rng.randint(1, len(names) - 1)])
        annotations = f"  <annotations><decision> {decision} </decision></annotations>\n"
        options["restrict_to_decision"] = True
    return _instance_xml("CSP", var_lines, ctr_lines, annotations), options


def naive_cost(objective: K.Objective, env: Dict[str, int]) -> int:
    """The objective's value, from reference_eval and checked int64 arithmetic."""
    if objective.kind is K.ObjKind.EXPRESSION:
        return reference_eval(objective.expression, env)
    values = [reference_eval(e, env) for e in objective.operands]
    coeffs = objective.coeffs or [1] * len(values)
    weighted = [_int64(c * v, "objective term") for c, v in zip(coeffs, values)]
    if objective.kind is K.ObjKind.SUM:
        total = 0
        for w in weighted:
            total = _int64(total + w, "objective")
        return total
    if objective.kind is K.ObjKind.MINIMUM:
        return min(weighted)
    if objective.kind is K.ObjKind.MAXIMUM:
        return max(weighted)
    raise ValueError(f"no reference cost for a {objective.kind.value} objective")


def naive_optimum(instance: Instance) -> Optional[int]:
    """The best cost over naive_solutions, or None when there is no solution."""
    objective = instance.objective
    costs = [naive_cost(objective, env) for env in naive_solutions(instance)]
    if not costs:
        return None
    return min(costs) if objective.sense is K.Sense.MINIMIZE else max(costs)


def random_automaton(rng: random.Random) -> Tuple[
        List[Tuple[str, int, str]], str, List[str], List[int], int]:
    """transitions, start, finals, alphabet, word length."""
    n_states = rng.randint(2, 5)
    states = [f"q{i}" for i in range(n_states)]
    alphabet = list(range(rng.randint(2, 3)))
    transitions = set()
    for state in states:
        for value in alphabet:
            for _ in range(rng.choice([0, 1, 1, 2])):
                transitions.add((state, value, rng.choice(states)))
    finals = rng.sample(states, rng.randint(1, n_states))
    length = rng.randint(1, 6)
    return sorted(transitions), states[0], finals, alphabet, length


def random_mdd(rng: random.Random) -> Tuple[List[Tuple[str, int, str]], int, List[int]]:
    """Layered diagram with one root and one terminal: transitions, arity, alphabet."""
    length = rng.randint(1, 5)
    alphabet = list(range(rng.randint(2, 3)))
    levels: List[List[str]] = [["root"]]
    for i in range(1, length):
        levels.append([f"n{i}_{j}" for j in range(rng.randint(1, 3))])
    levels.append(["term"])
    transitions = set()
    for i in range(length):
        here, there = levels[i], levels[i + 1]
        for node in here:
            transitions.add((node, rng.choice(alphabet), rng.choice(there)))
        for node in there:
            if not any(t == node for (_, _, t) in transitions):
                transitions.add((rng.choice(here), rng.choice(alphabet), node))
        for node in here:
            for value in alphabet:
                if rng.random() < 0.3:
                    transitions.add((node, value, rng.choice(there)))
    return sorted(transitions), length, alphabet


def random_short_table(rng: random.Random) -> Tuple[
        List[List[object]], List[List[int]]]:
    """Starred tuples plus the domains they quantify over."""
    arity = rng.randint(3, 4)
    domains = []
    for _ in range(arity):
        size = rng.randint(2, 4)
        lo = rng.randint(0, 2)
        domains.append(list(range(lo, lo + size)))
    rows = []
    for _ in range(rng.randint(1, 5)):
        row: List[object] = []
        for k in range(arity):
            row.append(STAR if rng.random() < 0.3 else rng.choice(domains[k]))
        rows.append(row)
    return rows, domains
