"""The four workloads: set-up, one operation, and the check of its answer.

A workload's ``setup`` generates its inputs from the seed, parses what later
operations reuse and warms up. ``run(item, call)`` is one timed operation;
``call`` is ``Tracer.call`` in a traced operation and a plain call
otherwise. ``verify(item, answer)`` compares the answer with the one
``gen``/``oracle`` computed without the package, and returns a description
of the mismatch or None.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import xml.etree.ElementTree as ET
from typing import Any, Callable, Dict, List, Optional

import gen
from spans import untraced_call
import xcsp3core
from xcsp3core import cli
from xcsp3core.checker import CheckMode, VerdictKind
from xcsp3core.model import Instantiation
from xcsp3core.solver import SearchConfig, Status

# Generous limits: an operation that hits one counts as failed, not as slow.
SEARCH_LIMITS = SearchConfig(node_limit=2_000_000, time_limit=60.0)


class Workload:
    name = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: List[Any] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item: Any, call: Callable) -> Any:
        raise NotImplementedError

    def verify(self, item: Any, answer: Any) -> Optional[str]:
        raise NotImplementedError


class Search(Workload):
    """Count the solutions of a CSP or prove the optimum of a COP."""

    name = "search"

    def setup(self) -> None:
        self.items = gen.search_items(self.rng)
        self.parsed = {id(item): xcsp3core.parse_string(item.xml) for item in self.items}
        self.run(self.items[0], untraced_call)

    def run(self, item: gen.SearchItem, call: Callable) -> Any:
        instance = self.parsed[id(item)]
        if item.optimum is None:
            return call("solver.solve", xcsp3core.count_solutions, instance, SEARCH_LIMITS)
        return call("solver.solve", xcsp3core.solve, instance, SEARCH_LIMITS)

    def verify(self, item: gen.SearchItem, result: Any) -> Optional[str]:
        if result.status is Status.LIMIT:
            return f"stopped on a limit after {result.nodes} nodes"
        if result.count != item.count:
            return f"{result.count} solutions, expected {item.count}"
        if item.optimum is None:
            expected = Status.SATISFIABLE if item.count else Status.UNSATISFIABLE
            return None if result.status is expected else f"status {result.status}"
        if result.status is not Status.OPTIMUM or result.best_cost != item.optimum:
            return f"{result.status} {result.best_cost}, expected optimum {item.optimum}"
        return None


class Parse(Workload):
    """Parse, render canonically, reparse and compare large documents."""

    name = "parse"

    def setup(self) -> None:
        self.items = gen.parse_docs(self.rng)
        self.rendered: Dict[str, str] = {}
        self.run(self.items[0], untraced_call)

    def run(self, doc: gen.ParseDoc, call: Callable) -> Any:
        first = call("parser.parse", xcsp3core.parse_string, doc.xml)
        text = call("canonical.render", xcsp3core.render_instance, first)
        second = call("parser.parse", xcsp3core.parse_string, text)
        same = call("canonical.equivalent", xcsp3core.instances_equivalent, first, second)
        self.rendered.setdefault(doc.name, text)
        return len(first.constraints), len(second.constraints), same

    def verify(self, doc: gen.ParseDoc, answer: Any) -> Optional[str]:
        first, second, same = answer
        if first != doc.constraints or second != doc.constraints:
            return f"{first} then {second} constraints, expected {doc.constraints}"
        return None if same else "the canonical form reparses to another instance"


class Check(Workload):
    """Score planted, mutated and partial candidates with check_solution."""

    name = "check"

    def setup(self) -> None:
        instances, self.items = gen.check_workload(self.rng)
        self.parsed = {inst.name: xcsp3core.parse_string(inst.xml) for inst in instances}
        ids = {inst.name: [inst.var_id(i) for i in range(inst.n_vars)] for inst in instances}
        self.solutions = {
            cand.name: Instantiation({ids[cand.instance][i]: v for i, v in cand.values.items()})
            for cand in self.items}
        self.run(self.items[0], untraced_call)

    def run(self, cand: gen.Candidate, call: Callable) -> Any:
        mode = CheckMode.PARTIAL_ALLOWED if cand.partial else CheckMode.TOTAL_REQUIRED
        return call("checker.check_solution", xcsp3core.check_solution,
                    self.parsed[cand.instance], self.solutions[cand.name], mode,
                    declared_cost=cand.declared_cost)

    def verify(self, cand: gen.Candidate, verdict: Any) -> Optional[str]:
        if cand.partial:
            expected = (VerdictKind.INCOMPLETE, (), cand.expect_missing)
        elif cand.expect_violated:
            if cand.target not in verdict.violated:
                return f"mutation target {cand.target} not reported"
            expected = (VerdictKind.VIOLATED, cand.expect_violated, ())
        else:
            expected = (VerdictKind.SATISFIED, (), ())
        got = (verdict.kind, verdict.violated, verdict.missing)
        return None if got == expected else f"verdict {got}, expected {expected}"


class Cli(Workload):
    """Run the command line in process on fixtures and small seeded files."""

    name = "cli"

    def setup(self) -> None:
        out = os.path.join(self.root, ".bench_out", f"cli-{self.seed}")
        os.makedirs(out, exist_ok=True)

        def write(name: str, text: str) -> str:
            path = os.path.join(out, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path
        fixtures = os.path.join(self.root, "tests", "fixtures")
        self.items = gen.cli_calls(self.rng, fixtures, write)
        self.run(self.items[0], untraced_call)

    def run(self, item: gen.CliCall, call: Callable) -> Any:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = call("cli.main", cli.main, item.argv)
        return code, out.getvalue()

    def verify(self, item: gen.CliCall, answer: Any) -> Optional[str]:
        code, text = answer
        if code != item.exit_code:
            return f"exit code {code}, expected {item.exit_code}"
        lines = text.splitlines()
        for line in item.stdout_lines:
            if line not in lines:
                return f"missing output line {line!r}"
        if item.canonical_constraints is not None:
            start = text.find("<instance")
            try:
                section = ET.fromstring(text[start:]).find("constraints")
            except ET.ParseError as e:
                return f"canonical output is not XML: {e}"
            n = 0 if section is None else len(section)
            if n != item.canonical_constraints:
                return f"canonical form has {n} constraints, expected {item.canonical_constraints}"
        return None


WORKLOADS = {w.name: w for w in (Search, Parse, Check, Cli)}
