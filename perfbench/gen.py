"""Seeded instance generators for the benchmark workloads.

Each generator takes a ``random.Random`` and returns XCSP3 text together
with the answer the operation must produce, computed by ``oracle`` from the
drawn parameters. The size mix is fixed; the seed draws names, value
offsets, the order and spelling of operands and constraints, and
coefficients, so that two seeds give different instances with the same mix
of sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from oracle import (CONDITION_OPS, QUEENS_COUNTS, Relation, chain_count,
                    median_weighted_sum, sum_cop)

_HEAD = '<instance format="XCSP3" type="{}">'


def _array_id(rng: random.Random) -> str:
    return rng.choice("abpqsvwxyz")


# -- search --------------------------------------------------------------------

@dataclass
class SearchItem:
    name: str
    xml: str
    count: int                      # solutions (feasible assignments for a COP)
    optimum: Optional[int] = None   # None for a CSP


# Sizes of the search mix. Queens: board size. Chains: length, domain size,
# and slack K of a+b <= c+K ("loose", many solutions) or None for
# c = (a+b) mod d ("tight", one continuation per prefix). COPs: variables,
# largest value, condition operator of the sum.
# Fifteen items: with an odd count whose tenth is not whole, the median
# and the 90th percentile fall inside one item's samples, not between two.
QUEENS_SIZES = (5, 6, 6, 7, 7)
CHAIN_SIZES = ((7, 4, 2), (6, 5, 2), (10, 6, None), (6, 4, 3), (12, 5, None))
COP_SIZES = ((5, 4, "le"), (4, 5, "ge"), (6, 3, "le"), (5, 5, "ge"), (4, 6, "le"))


def queens(rng: random.Random, n: int) -> SearchItem:
    """allDifferent over q, q+i and q-i: the n-queens model."""
    a = _array_id(rng)
    lo = rng.randrange(0, 6)
    rows = [f"{a}[{i}]" for i in range(n)]
    # sub(i,q[i]) negates sub(q[i],i), so one spelling serves a whole list
    up = rng.choice(("add({a}[{i}],{i})", "add({i},{a}[{i}])"))
    down = rng.choice(("sub({a}[{i}],{i})", "sub({i},{a}[{i}])"))
    up, down = ([form.format(a=a, i=i) for i in range(n)] for form in (up, down))
    # Operand and constraint order stay fixed: they decide how soon a
    # partial check meets a clash, so shuffling them would change the work.
    groups = [rows, up, down]
    if rng.random() < 0.5:
        groups[0] = [f"{a}[]"]
    body = "\n".join(f"    <allDifferent> {' '.join(g)} </allDifferent>" for g in groups)
    xml = (f"{_HEAD.format('CSP')}\n  <variables>\n"
           f"    <array id=\"{a}\" size=\"[{n}]\"> {lo + 1}..{lo + n} </array>\n"
           f"  </variables>\n  <constraints>\n{body}\n  </constraints>\n</instance>\n")
    return SearchItem(f"queens{n}", xml, QUEENS_COUNTS[n])


def chain(rng: random.Random, length: int, d: int, slack: Optional[int]) -> SearchItem:
    """A slide of one ternary intension over consecutive variables."""
    a = _array_id(rng)
    if slack is None:
        lo = 0
        tmpl = rng.choice((f"eq(mod(add(%0,%1),{d}),%2)",
                           f"eq(%2,mod(add(%1,%0),{d}))"))

        def relation(x: int, y: int, z: int) -> bool:
            return (x + y) % d == z
        name = f"chain{length}x{d}t"
    else:
        lo = rng.randrange(0, 5)
        k = slack + lo          # shifting every value by lo keeps the solutions
        tmpl = rng.choice((f"le(add(%0,%1),add(%2,{k}))",
                           f"ge(add(%2,{k}),add(%1,%0))",
                           f"le(sub(add(%0,%1),%2),{k})"))

        def relation(x: int, y: int, z: int) -> bool:
            return x + y <= z + k
        name = f"chain{length}x{d}l"
    domain = range(lo, lo + d)
    cells = rng.choice((f"{a}[]", " ".join(f"{a}[{i}]" for i in range(length))))
    xml = (f"{_HEAD.format('CSP')}\n  <variables>\n"
           f"    <array id=\"{a}\" size=\"[{length}]\"> {lo}..{lo + d - 1} </array>\n"
           f"  </variables>\n  <constraints>\n"
           f"    <slide>\n      <list> {cells} </list>\n"
           f"      <intension> {tmpl} </intension>\n    </slide>\n"
           f"  </constraints>\n</instance>\n")
    return SearchItem(name, xml, chain_count(length, domain, relation))


def sum_cop_item(rng: random.Random, k: int, hi: int, op: str) -> SearchItem:
    """One linear constraint; optimise a second sum."""
    a = _array_id(rng)
    coeffs = [rng.randint(1, 6) for _ in range(k)]
    obj = [rng.randint(1, 5) for _ in range(k)]
    maximize = op == "le"
    # The median weighted sum as the bound keeps about half of all
    # assignments feasible whatever the coefficients, so the number of
    # objective evaluations does not depend on the seed.
    domains = [range(hi + 1)] * k
    rhs = median_weighted_sum(domains, coeffs)
    count, best = sum_cop(domains, coeffs, op, rhs, obj, maximize)
    sense = "maximize" if maximize else "minimize"
    xml = (f"{_HEAD.format('COP')}\n  <variables>\n"
           f"    <array id=\"{a}\" size=\"[{k}]\"> 0..{hi} </array>\n"
           f"  </variables>\n  <constraints>\n"
           f"    <sum>\n      <list> {a}[] </list>\n"
           f"      <coeffs> {' '.join(map(str, coeffs))} </coeffs>\n"
           f"      <condition> ({op},{rhs}) </condition>\n    </sum>\n"
           f"  </constraints>\n  <objectives>\n"
           f"    <{sense} type=\"sum\">\n      <list> {a}[] </list>\n"
           f"      <coeffs> {' '.join(map(str, obj))} </coeffs>\n    </{sense}>\n"
           f"  </objectives>\n</instance>\n")
    return SearchItem(f"cop{k}x{hi}{op}", xml, count, best)


def search_items(rng: random.Random) -> List[SearchItem]:
    items = [queens(rng, n) for n in QUEENS_SIZES]
    items += [chain(rng, *size) for size in CHAIN_SIZES]
    items += [sum_cop_item(rng, *size) for size in COP_SIZES]
    return items


# -- parse ---------------------------------------------------------------------

@dataclass
class ParseDoc:
    name: str
    series: str
    size: int
    xml: str
    constraints: int                # flat constraints after expansion


# Three sizes per series, each twice the last, so that growth exponents can
# be fitted; five series make fifteen documents. "groups": many two-member
# groups, each with an id (the id prefix check compares every group id with
# every id). "group": one group with that many members. "slide": slide
# length. "table": rows in each of four arity-4 tables. "tokens": side of a
# square array constrained through compact tokens (rows, columns, blocks).
PARSE_SERIES = {
    "groups": (125, 250, 500),
    "group": (250, 500, 1000),
    "slide": (400, 800, 1600),
    "table": (500, 1000, 2000),
    "tokens": (8, 16, 32),
}
# A tokens document's size for the growth fit is its number of cells.


def _parse_doc(rng: random.Random, series: str, size: int) -> ParseDoc:
    x, m = "x", "m"
    cells = {"groups": 2 * size + 1, "group": size + 1, "slide": size}.get(series, 8) + 4
    out = [_HEAD.format("CSP"), "  <variables>",
           f"    <array id=\"{x}\" size=\"[{cells}]\"> 0..9 </array>",
           f"    <array id=\"{m}\" size=\"[6][6]\"> 0..9 </array>",
           "  </variables>", "  <constraints>"]
    # A fixed part of compact array tokens, present in every document.
    row, col = rng.randrange(6), rng.randrange(6)
    out += [f"    <allDifferent> {m}[{row}][] </allDifferent>",
            f"    <sum> <list> {m}[][{col}] </list> <condition> (le,40) </condition> </sum>",
            f"    <allDifferent> {m}[2..4][0..1] </allDifferent>",
            f"    <ordered> <list> {x}[0..3] </list> <operator> le </operator> </ordered>"]
    n = 4
    if series == "groups":
        order = list(range(size))
        rng.shuffle(order)
        for g in order:
            i = 2 * g
            op = rng.choice(("le", "ge", "ne"))
            out.append(f"    <group id=\"g{g:05d}\"> <intension> {op}(add(%0,%1),%2) </intension>"
                       f" <args> {x}[{i}] {x}[{i + 1}] {rng.randrange(10)} </args>"
                       f" <args> {x}[{i + 1}] {x}[{i + 2}] {rng.randrange(10)} </args> </group>")
        n += 2 * size
    elif series == "group":
        out.append("    <group id=\"big\"> <intension> ne(%0,add(%1,%2)) </intension>")
        out += [f"      <args> {x}[{i}] {x}[{i + 1}] {rng.randrange(10)} </args>"
                for i in range(size)]
        out.append("    </group>")
        n += size
    elif series == "slide":
        k = rng.randrange(1, 4)
        out.append(f"    <slide id=\"sl\"> <list> {x}[0..{size - 1}] </list>"
                   f" <intension> le(%0,add(%1,{k})) </intension> </slide>")
        n += size - 1
    elif series == "tokens":
        out.insert(4, f"    <array id=\"t\" size=\"[{size}][{size}]\"> 0..{size - 1} </array>")
        for i in range(size):
            out.append(f"    <allDifferent> t[{i}][] </allDifferent>")
            out.append(f"    <allDifferent> t[][{i}] </allDifferent>")
        for i in range(0, size, 4):
            lo = rng.randrange(size // 2 + 1)
            out.append(f"    <sum> <list> t[{i}..{i + 3}][{lo}..{lo + size // 2 - 1}] </list>"
                       f" <condition> (ge,{rng.randrange(size)}) </condition> </sum>")
        n += 2 * size + size // 4
    else:
        for t in range(4):
            rows = sorted(rng.sample(range(10 ** 4), size))
            tuples = " ".join("({},{},{},{})".format(*f"{r:04d}") for r in rows)
            scope = " ".join(f"{x}[{t + j}]" for j in range(4))
            kind = rng.choice(("supports", "conflicts"))
            out.append(f"    <extension id=\"t{t}\"> <list> {scope} </list>"
                       f" <{kind}> {tuples} </{kind}> </extension>")
        n += 4
    out += ["  </constraints>", "</instance>", ""]
    fit_size = size * size if series == "tokens" else size
    return ParseDoc(f"{series}{size}", series, fit_size, "\n".join(out), n)


def parse_docs(rng: random.Random) -> List[ParseDoc]:
    return [_parse_doc(rng, series, size)
            for series, sizes in PARSE_SERIES.items() for size in sizes]


# -- check ---------------------------------------------------------------------

@dataclass
class CheckInstance:
    name: str
    xml: str
    n_vars: int
    planted: List[int]
    relations: List[Relation]
    touching: Dict[int, List[int]]          # variable -> constraint positions
    obj_coeffs: Optional[List[int]] = None  # objective: sum over x[0..]

    def var_id(self, i: int) -> str:
        return f"x[{i}]"

    def cost(self, assignment: Sequence[int]) -> int:
        return sum(c * v for c, v in zip(self.obj_coeffs, assignment))


D = 10   # domain 0..D-1 of every check variable


# The kinds of check constraints, in the proportions every instance has;
# intension comes in five forms.
KIND_MIX = ("intension0", "intension1", "intension2", "intension3", "intension4",
            "positive", "negative", "sum", "allDifferent", "ordered", "count")


def _relation(rng: random.Random, kind: str, s: List[int], label: str,
              n_vars: int) -> Tuple[str, Relation]:
    """One random constraint of the kind, satisfied by the planted assignment s."""
    def pick(k: int) -> List[int]:
        return rng.sample(range(n_vars), k)

    def ids(scope: Sequence[int]) -> str:
        return " ".join(f"x[{i}]" for i in scope)

    if kind.startswith("intension"):
        i, j, k = pick(3)
        form = int(kind[-1])
        if form == 0:
            c = s[i] + s[j] + rng.randrange(4)
            return (f"<intension id=\"{label}\"> le(add(x[{i}],x[{j}]),{c}) </intension>",
                    Relation(label, (i, j), lambda v: v[0] + v[1] <= c))
        if form == 1:
            while s[j] == s[i]:
                j = rng.randrange(n_vars)
            return (f"<intension id=\"{label}\"> ne(x[{i}],x[{j}]) </intension>",
                    Relation(label, (i, j), lambda v: v[0] != v[1]))
        if form == 2:
            c = abs(s[i] - s[j])
            return (f"<intension id=\"{label}\"> eq(dist(x[{i}],x[{j}]),{c}) </intension>",
                    Relation(label, (i, j), lambda v: abs(v[0] - v[1]) == c))
        if form == 3:
            a, b = (s[i], rng.randrange(D)) if rng.random() < 0.5 else \
                (rng.randrange(D), s[j] + 1)
            return (f"<intension id=\"{label}\"> or(eq(x[{i}],{a}),lt(x[{j}],{b})) </intension>",
                    Relation(label, (i, j), lambda v: v[0] == a or v[1] < b))
        c = s[i] + s[j] - s[k]
        return (f"<intension id=\"{label}\"> eq(add(x[{i}],x[{j}]),add(x[{k}],{c})) </intension>",
                Relation(label, (i, j, k), lambda v: v[0] + v[1] == v[2] + c))
    if kind in ("positive", "negative"):
        arity = 3 if kind == "positive" else 2
        scope = pick(arity)
        point = tuple(s[i] for i in scope)
        table = {tuple(rng.randrange(D) for _ in scope) for _ in range(12)}
        if kind == "positive":
            table.add(point)
        else:
            table.discard(point)
        rows = sorted(table)
        text = " ".join("(" + ",".join(map(str, r)) + ")" for r in rows)
        tag = "supports" if kind == "positive" else "conflicts"
        inside = kind == "positive"
        return (f"<extension id=\"{label}\"> <list> {ids(scope)} </list> <{tag}> {text} </{tag}> </extension>",
                Relation(label, scope, lambda v: (tuple(v) in table) == inside))
    if kind == "sum":
        scope = pick(rng.randint(3, 6))
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3, 4, 5)) for _ in scope]
        total = sum(c * s[i] for c, i in zip(coeffs, scope))
        op = rng.choice(("le", "ge", "eq", "ne"))
        rhs = {"le": total + rng.randrange(3), "ge": total - rng.randrange(3),
               "eq": total, "ne": total + rng.choice((-1, 1))}[op]
        holds = CONDITION_OPS[op]
        return (f"<sum id=\"{label}\"> <list> {ids(scope)} </list> <coeffs> {' '.join(map(str, coeffs))} </coeffs>"
                f" <condition> ({op},{rhs}) </condition> </sum>",
                Relation(label, scope, lambda v: holds(sum(c * x for c, x in zip(coeffs, v)), rhs)))
    if kind == "allDifferent":
        width = rng.randint(3, 5)
        by_value: Dict[int, int] = {}
        for i in rng.sample(range(n_vars), min(n_vars, 40)):
            by_value.setdefault(s[i], i)
            if len(by_value) == width:
                break
        scope = list(by_value.values())
        return (f"<allDifferent id=\"{label}\"> {ids(scope)} </allDifferent>",
                Relation(label, scope, lambda v: len(set(v)) == len(v)))
    if kind == "ordered":
        scope = sorted(pick(rng.randint(3, 4)), key=lambda i: s[i])
        return (f"<ordered id=\"{label}\"> <list> {ids(scope)} </list> <operator> le </operator> </ordered>",
                Relation(label, scope, lambda v: all(a <= b for a, b in zip(v, v[1:]))))
    scope = pick(rng.randint(4, 6))
    values = sorted(rng.sample(range(D), 2))
    n = sum(1 for i in scope if s[i] in values)
    op = rng.choice(("le", "ge", "eq"))
    holds = CONDITION_OPS[op]
    return (f"<count id=\"{label}\"> <list> {ids(scope)} </list> <values> {' '.join(map(str, values))} </values>"
            f" <condition> ({op},{n}) </condition> </count>",
            Relation(label, scope, lambda v: holds(sum(1 for x in v if x in values), n)))


def check_instance(rng: random.Random, name: str, n_vars: int,
                   n_constraints: int, cop: bool) -> CheckInstance:
    """Mixed-kind constraints, all satisfied by one planted assignment."""
    s = [rng.randrange(D) for _ in range(n_vars)]
    lines: List[str] = []
    relations: List[Relation] = []
    kinds = [KIND_MIX[c % len(KIND_MIX)] for c in range(n_constraints)]
    rng.shuffle(kinds)
    for c, kind in enumerate(kinds):
        line, rel = _relation(rng, kind, s, f"c{c}", n_vars)
        lines.append("    " + line)
        relations.append(rel)
    touching: Dict[int, List[int]] = {i: [] for i in range(n_vars)}
    for pos, rel in enumerate(relations):
        for i in rel.scope:
            if pos not in touching[i]:
                touching[i].append(pos)
    # every variable must be useful, so that a dropped value is "missing"
    for i in [i for i, cs in touching.items() if not cs]:
        label = f"c{len(relations)}"
        lines.append(f"    <intension id=\"{label}\"> le(x[{i}],{s[i]}) </intension>")
        relations.append(Relation(label, (i,), lambda v, c=s[i]: v[0] <= c))
        touching[i].append(len(relations) - 1)
    obj_coeffs = [rng.randint(1, 9) for _ in range(n_vars)] if cop else None
    out = [_HEAD.format("COP" if cop else "CSP"), "  <variables>",
           f"    <array id=\"x\" size=\"[{n_vars}]\"> 0..{D - 1} </array>",
           "  </variables>", "  <constraints>", *lines, "  </constraints>"]
    if cop:
        out += ["  <objectives>", "    <minimize type=\"sum\">",
                "      <list> x[] </list>",
                f"      <coeffs> {' '.join(map(str, obj_coeffs))} </coeffs>",
                "    </minimize>", "  </objectives>"]
    out += ["</instance>", ""]
    return CheckInstance(name, "\n".join(out), n_vars, s, relations, touching,
                         obj_coeffs)


@dataclass
class Candidate:
    name: str
    instance: str                           # CheckInstance.name
    values: Dict[int, int]                  # variable index -> value
    partial: bool = False
    declared_cost: Optional[int] = None
    expect_violated: Tuple[str, ...] = ()
    expect_missing: Tuple[str, ...] = ()
    target: Optional[str] = None            # label the mutation was built to break


def mutation(rng: random.Random, inst: CheckInstance, tag: str) -> Candidate:
    """Change one variable so that a chosen constraint breaks."""
    s = inst.planted
    while True:
        target = rng.choice(inst.relations)
        var = rng.choice(target.scope)
        for value in rng.sample(range(D), D):
            if value == s[var]:
                continue
            mutated = s[:]
            mutated[var] = value
            if not target.holds(mutated):
                expected = tuple(inst.relations[p].label for p in inst.touching[var]
                                 if not inst.relations[p].holds(mutated))
                return Candidate(tag, inst.name, dict(enumerate(mutated)),
                                 expect_violated=expected, target=target.label)


def candidates(rng: random.Random, inst: CheckInstance, per_kind: int) -> List[Candidate]:
    """per_kind valid (half with a declared cost on COPs), 2 * per_kind - 1
    mutated and per_kind partial candidates."""
    s = inst.planted
    out: List[Candidate] = []
    for k in range(per_kind):
        cost = inst.cost(s) if inst.obj_coeffs is not None and k % 2 == 0 else None
        out.append(Candidate(f"{inst.name}/valid{k}", inst.name, dict(enumerate(s)),
                             declared_cost=cost))
    for k in range(2 * per_kind - 1):
        out.append(mutation(rng, inst, f"{inst.name}/mutant{k}"))
    for k in range(per_kind):
        dropped = sorted(rng.sample(range(inst.n_vars), rng.randint(1, 4)))
        values = {i: v for i, v in enumerate(s) if i not in dropped}
        out.append(Candidate(f"{inst.name}/partial{k}", inst.name, values, partial=True,
                             expect_missing=tuple(inst.var_id(i) for i in dropped)))
    return out


# Sizes of the check mix: (variables, constraints, has an objective).
CHECK_SIZES = ((400, 1500, True), (800, 3000, False), (1200, 4500, True))
CANDIDATES_PER_KIND = 4


def check_workload(rng: random.Random) -> Tuple[List[CheckInstance], List[Candidate]]:
    instances = [check_instance(rng, f"check{c}", n, c, cop)
                 for n, c, cop in CHECK_SIZES]
    cands = [c for inst in instances for c in candidates(rng, inst, CANDIDATES_PER_KIND)]
    return instances, cands


# -- cli -----------------------------------------------------------------------

@dataclass
class CliCall:
    name: str
    argv: List[str]
    exit_code: int
    stdout_lines: List[str] = field(default_factory=list)  # each must be printed
    canonical_constraints: Optional[int] = None            # for --canonical-out -


# Committed fixtures (tests/fixtures) and what the command line must answer
# for them. Counts are facts about the modelled problems: 3x3 magic squares
# (8), Langford pairings L(2,4) (2), 3x3 Latin squares with a fixed first row
# (12), three independent a+b=c triples over 0..3 (10^3), and an
# unsatisfiable network (0). Both Langford solution files satisfy the
# instance, and the cake optimum is 1700.
FIXTURES = (
    "cake_groups", "cake_intension", "cake_sums", "coins_83", "group_g",
    "group_g_expanded", "group_h", "group_h_expanded", "langford_2_04",
    "latin_expanded", "latin_group", "magic_square_3", "mdd_triples",
    "misc_core_1", "misc_core_2", "mixed_domains", "queens_8", "regular_word",
    "scheduling_small", "slide_c1", "slide_c1_expanded", "slide_c2",
    "slide_c2_expanded", "slide_c3", "slide_c3_expanded", "slide_c4",
    "slide_c4_expanded", "toy_network",
)
BAD_FIXTURES = ("bad_attr_ws", "bad_condition_ws", "bad_domain_order",
                "bad_expr_ws", "bad_interval_ws", "bad_tuple_ws")
FIXTURE_COUNTS = {"magic_square_3": 8, "langford_2_04": 2, "latin_group": 12,
                  "latin_expanded": 12, "group_g": 1000, "group_g_expanded": 1000,
                  "toy_network": 0}
FIXTURE_CHECKS = (("langford_2_04", "langford_a", "satisfied"),
                  ("langford_2_04", "langford_b", "satisfied"),
                  ("cake_intension", "cake_optimum", "satisfied, cost verified: 1700"),
                  ("cake_sums", "cake_optimum", "satisfied, cost verified: 1700"))
STATS_FIXTURES = ("queens_8", "scheduling_small", "misc_core_1", "slide_c4", "coins_83",
                  "magic_square_3")


def _instantiation(values: Dict[str, int], cost: Optional[int] = None) -> str:
    head = "<instantiation" + (f" cost=\"{cost}\"" if cost is not None else "") + ">"
    return (f"{head}\n  <list> {' '.join(values)} </list>\n"
            f"  <values> {' '.join(map(str, values.values()))} </values>\n</instantiation>\n")


def cli_calls(rng: random.Random, fixtures: str,
              write: Callable[[str, str], str]) -> List[CliCall]:
    """Seventy-five command lines: the fixtures, then small seeded instances.

    ``write(name, text)`` stores a generated file and returns its path.
    """
    def fx(name: str) -> str:
        return f"{fixtures}/{name}.xml"

    calls = [CliCall(f"validate/{f}", ["validate", fx(f)], 0) for f in FIXTURES]
    calls += [CliCall(f"validate/{f}", ["validate", fx(f"bad/{f}")], 2) for f in BAD_FIXTURES]
    for f, count in FIXTURE_COUNTS.items():
        calls.append(CliCall(f"count/{f}", ["solve", fx(f), "--count"],
                             0 if count else 20, [f"solutions={count}"]))
    for inst, sol, line in FIXTURE_CHECKS:
        calls.append(CliCall(f"check/{inst}/{sol}",
                             ["check", fx(inst), fx(f"solutions/{sol}")], 0, [line]))
    calls += [CliCall(f"stats/{f}", ["stats", fx(f)], 0) for f in STATS_FIXTURES]

    seeded = [queens(rng, 5), chain(rng, 6, 4, 2), chain(rng, 8, 5, None)]
    for k, item in enumerate(seeded):
        path = write(f"search{k}.xml", item.xml)
        flat = 3 if item.name.startswith("queens") else int(item.name[5:].split("x")[0]) - 2
        calls.append(CliCall(f"count/{item.name}", ["solve", path, "--count"], 0,
                             [f"solutions={item.count}"]))
        calls.append(CliCall(f"canonical/{item.name}",
                             ["validate", path, "--canonical-out", "-"], 0,
                             canonical_constraints=flat))
        calls.append(CliCall(f"stats/{item.name}", ["stats", path], 0,
                             [f"constraints={flat}"]))
    cop = sum_cop_item(rng, 4, 4, "le")
    path = write("cop.xml", cop.xml)
    calls.append(CliCall(f"solve/{cop.name}", ["solve", path], 0,
                         [f"<instantiation type=\"optimum\" cost=\"{cop.optimum}\">"]))
    calls.append(CliCall(f"stats/{cop.name}", ["stats", path], 0, ["constraints=1"]))

    inst = check_instance(rng, "small", 40, 80, True)
    path = write("check.xml", inst.xml)
    n = len(inst.relations)
    calls.append(CliCall("canonical/check", ["validate", path, "--canonical-out", "-"], 0,
                         [f"valid COP instance: {inst.n_vars} variables, {n} constraints"],
                         canonical_constraints=n))
    calls.append(CliCall("stats/check", ["stats", path], 0,
                         [f"variables={inst.n_vars}", f"constraints={n}"]))
    ids = [inst.var_id(i) for i in range(inst.n_vars)]
    for k, cand in enumerate(candidates(rng, inst, 3)):
        values = {ids[i]: v for i, v in cand.values.items()}
        if cand.partial:
            sol = write(f"partial{k}.xml", _instantiation(values))
            calls.append(CliCall(f"check/{cand.name}", ["check", path, sol, "--allow-partial"],
                                 11, ["incomplete: missing " + " ".join(cand.expect_missing)]))
        elif cand.expect_violated:
            sol = write(f"mutant{k}.xml", _instantiation(values))
            calls.append(CliCall(f"check/{cand.name}", ["check", path, sol], 10,
                                 ["violated: " + " ".join(cand.expect_violated)]))
        else:
            sol = write(f"valid{k}.xml", _instantiation(values, cand.declared_cost))
            line = ("satisfied" if cand.declared_cost is None
                    else f"satisfied, cost verified: {cand.declared_cost}")
            calls.append(CliCall(f"check/{cand.name}", ["check", path, sol], 0, [line]))
    return calls
