#!/usr/bin/env python3
"""Stress the search against the naive Cartesian filter on random instances.

Each instance is also counted with partial checks off: pruning must keep
the count and may only save nodes. The solutions that solve() keeps must
be the naive filter's, in its order. The verifier is audited on the same
instances: check_solution must accept every solution of the naive filter,
and on a few random total assignments report exactly the constraints that
check_constraint rejects. Random COPs (sum, minimum, maximum and expression
objectives) are solved with and without partial checks, and the status,
the optimum and the best solution's cost must match those computed from
the naive filter's solutions with the reference evaluator. Also
cross-checks regular/mdd membership against brute-force path enumeration.
Any disagreement prints the offending seed and exits nonzero.
"""

import argparse
import itertools
import random
import sys
import time
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package

import oracles  # noqa: E402  (test oracle helpers, deliberately outside the package)
from xcsp3core import kinds as K  # noqa: E402
from xcsp3core.checker import VerdictKind, check_constraint, check_solution  # noqa: E402
from xcsp3core.model import Instance, Instantiation  # noqa: E402
from xcsp3core.parser import parse_string  # noqa: E402
from xcsp3core.solver import SearchConfig, Status, count_solutions, solve  # noqa: E402


RANDOM_ASSIGNMENTS = 3  # total assignments per instance whose verdict is audited


def audit_verifier(inst: Instance, solutions, rng: random.Random) -> Tuple[int, int]:
    """Verdicts compared and disagreements: naive solutions, then random assignments."""
    compared = wrong = 0
    for env in solutions:
        compared += 1
        wrong += not check_solution(inst, Instantiation(env)).satisfied
    variables = oracles.defined_variables(inst)
    for _ in range(RANDOM_ASSIGNMENTS):
        env = {v.id: rng.choice(list(v.domain.values())) for v in variables}
        rejected = tuple(posted.label(k) for k, posted in enumerate(inst.constraints)
                         if not check_constraint(posted.kind, env))
        verdict = check_solution(inst, Instantiation(env))
        expected = VerdictKind.VIOLATED if rejected else VerdictKind.SATISFIED
        compared += 1
        wrong += (verdict.kind, verdict.violated) != (expected, rejected)
    return compared, wrong


def run_instances(n: int, base_seed: int, verbose: bool) -> int:
    failures = 0
    total_solutions = 0
    pruned_nodes = plain_nodes = 0
    verdicts = wrong_verdicts = 0
    kept = wrong_kept = 0
    started = time.monotonic()
    for k in range(n):
        seed = base_seed + k
        rng = random.Random(seed)
        xml = oracles.random_instance_xml(rng)
        inst = parse_string(xml)
        pruned = count_solutions(inst)
        plain = count_solutions(inst, SearchConfig(partial_checks=False))
        solutions = oracles.naive_solutions(inst)
        want = len(solutions)
        total_solutions += want
        found = [dict(s) for s in solve(inst).solutions]
        kept += len(found)
        if found != solutions:
            wrong_kept += 1
            print(f"DISAGREE seed={seed}: solve kept {len(found)} solutions, "
                  f"the naive filter finds {want}"
                  + (", in another order or with others" if len(found) == want else ""))
        compared, wrong = audit_verifier(inst, solutions, rng)
        verdicts += compared
        wrong_verdicts += wrong
        if wrong:
            print(f"DISAGREE seed={seed}: check_solution differs on {wrong} of "
                  f"{compared} verdicts")
        pruned_nodes += pruned.nodes
        plain_nodes += plain.nodes
        if not pruned.count == plain.count == want or pruned.nodes > plain.nodes:
            failures += 1
            print(f"DISAGREE seed={seed}: search={pruned.count} ({pruned.nodes} nodes) "
                  f"unpruned={plain.count} ({plain.nodes} nodes) naive={want}")
            if verbose:
                print(xml)
        elif verbose:
            print(f"seed={seed}: {pruned.count} solutions")
    elapsed = time.monotonic() - started
    ratio = pruned_nodes / plain_nodes if plain_nodes else 1.0
    print(f"instances: {n} checked, {failures} disagreements, "
          f"{total_solutions} solutions total, {elapsed:.1f}s")
    print(f"nodes: {pruned_nodes} pruned / {plain_nodes} unpruned = {ratio:.3f}")
    print(f"verdicts: {verdicts} compared, {wrong_verdicts} disagreements")
    print(f"kept solutions: {kept} compared in order, {wrong_kept} disagreements")
    return failures + wrong_verdicts + wrong_kept


def run_optima(n: int, base_seed: int, verbose: bool) -> int:
    failures = 0
    optima = 0
    started = time.monotonic()
    for k in range(n):
        seed = base_seed + k
        xml = oracles.random_cop_xml(random.Random(seed))
        inst = parse_string(xml)
        want = oracles.naive_optimum(inst)
        optima += want is not None
        expected = (Status.UNSATISFIABLE, None) if want is None else (Status.OPTIMUM, want)
        for cfg in (SearchConfig(), SearchConfig(partial_checks=False)):
            result = solve(inst, cfg)
            got = (result.status, result.best_cost)
            best_cost = (None if result.best is None
                         else oracles.naive_cost(inst.objective, dict(result.best)))
            if got != expected or best_cost != want:
                failures += 1
                print(f"DISAGREE seed={seed} partial_checks={cfg.partial_checks}: "
                      f"solve={got[0].value} {got[1]} (best costs {best_cost}) "
                      f"naive={expected[0].value} {want}")
                if verbose:
                    print(xml)
                break
    elapsed = time.monotonic() - started
    print(f"optima: {n} COPs checked, {failures} disagreements, "
          f"{optima} with a solution, {elapsed:.1f}s")
    return failures


def run_machines(n: int, base_seed: int) -> int:
    failures = 0
    started = time.monotonic()
    for k in range(n):
        seed = base_seed + k
        rng = random.Random(seed)
        if k % 2 == 0:
            transitions, start, finals, alphabet, length = oracles.random_automaton(rng)
            names = tuple(f"w{i}" for i in range(length))
            kind = K.Regular(scope=names, transitions=tuple(transitions),
                             start=start, finals=tuple(finals))
            def accepts(word):
                return oracles.automaton_accepts(transitions, start, finals, word)
        else:
            transitions, length, alphabet = oracles.random_mdd(rng)
            names = tuple(f"w{i}" for i in range(length))
            kind = K.Mdd(scope=names, transitions=tuple(transitions))
            wanted = oracles.mdd_accepted(transitions)
            def accepts(word):
                return word in wanted
        for word in itertools.product(alphabet, repeat=length):
            if check_constraint(kind, dict(zip(names, word))) != accepts(word):
                failures += 1
                print(f"DISAGREE seed={seed} word={word}")
                break
    elapsed = time.monotonic() - started
    print(f"machines: {n} checked, {failures} disagreements, {elapsed:.1f}s")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500,
                        help="random instances, and as many random COPs, to compare "
                             "(default 500)")
    parser.add_argument("--machines", type=int, default=500,
                        help="random automata/diagrams to compare (default 500)")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    failures = run_instances(args.instances, args.seed, args.verbose)
    failures += run_optima(args.instances, args.seed, args.verbose)
    failures += run_machines(args.machines, args.seed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
