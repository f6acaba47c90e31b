"""Command line front end.

Subcommands: validate, check, solve, stats. Exit codes:
  0   success (valid instance / satisfied solution / solution found)
  2   the instance (or solution file) failed to parse or validate
  3   usage error
  4   evaluating the instance failed during check or solve (div by zero,
      overflow, ...)
  5   solve --restrict-to-decision met a variable the decision variables
      do not force
  10  candidate solution violated (or cost/domain/variable mismatch)
  11  candidate solution incomplete
  20  no solution exists (or zero solutions counted)
  21  search stopped on a node or time limit
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from .canonical import render_instance
from .checker import CheckMode, VerdictKind, check_solution
from .errors import CheckError, EvalError, ParseError, UnforcedVariable, XcspError
from .expr import read_int
from .kinds import ObjKind
from .model import Instance, Instantiation
from .parser import (ParserConfig, parse_file, read_int_values, read_text, read_var_ids,
                     read_xml)
from .solver import SearchConfig, Status, VarOrder, solve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_USAGE = 3
EXIT_EVAL = 4
EXIT_UNFORCED = 5
EXIT_VIOLATED = 10
EXIT_INCOMPLETE = 11
EXIT_UNSAT = 20
EXIT_LIMIT = 21


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@lru_cache(maxsize=1)
def _build_parser() -> _ArgumentParser:
    """The argument parser, built on the first main() call and then reused:
    each parse_args call starts from a fresh namespace, and the append
    action copies its default list, so no call sees an earlier one's
    arguments."""
    parser = _ArgumentParser(prog="xcsp3core",
                             description="Parse, check and solve XCSP3-core instances.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p: _ArgumentParser) -> None:
        p.add_argument("instance", help="instance XML file")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="lenient", action="store_false",
                          help="fail on anything outside the core (default)")
        mode.add_argument("--lenient", action="store_true",
                          help="skip unsupported constraints instead of failing")
        p.set_defaults(lenient=False)
        p.add_argument("--drop-class", action="append", default=[],
                       metavar="NAME", help="ignore constraints tagged with this class")

    p_validate = sub.add_parser("validate", help="parse and validate an instance")
    add_common(p_validate)
    p_validate.add_argument("--canonical-out", metavar="PATH",
                            help="write the canonical form here ('-' for stdout)")

    p_check = sub.add_parser("check", help="verify a candidate solution")
    add_common(p_check)
    p_check.add_argument("solution", nargs="?", default=None,
                         help="solution file (instantiation XML or values)")
    p_check.add_argument("--solution", dest="solution_opt", metavar="PATH",
                         help="alternative spelling of the solution file argument")
    p_check.add_argument("--vars", metavar="IDS",
                         help="variable ids for a bare value list")
    p_check.add_argument("--cost", type=int, default=None,
                         help="declared objective value to verify")
    p_check.add_argument("--allow-partial", action="store_true",
                         help="accept partial assignments when no checked "
                              "constraint is violated")

    p_solve = sub.add_parser("solve", help="search for solutions")
    add_common(p_solve)
    listing = p_solve.add_mutually_exclusive_group()
    listing.add_argument("--count", action="store_true",
                         help="count all solutions instead of printing one")
    listing.add_argument("--all", action="store_true",
                         help="print every solution")
    p_solve.add_argument("--optimize", action="store_true",
                         help="insist on optimization (reject CSP instances)")
    p_solve.add_argument("--max-solutions", type=int, default=None, metavar="N")
    p_solve.add_argument("--node-limit", type=int, default=None, metavar="N")
    p_solve.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p_solve.add_argument("--order", choices=[o.value for o in VarOrder],
                         default=VarOrder.DECLARATION.value)
    p_solve.add_argument("--restrict-to-decision", action="store_true",
                         help="branch only on the decision annotation")

    p_stats = sub.add_parser("stats", help="print instance statistics")
    add_common(p_stats)
    return parser


def _parser_config(args: argparse.Namespace) -> ParserConfig:
    return ParserConfig(strict=not args.lenient,
                        drop_classes=frozenset(args.drop_class))


def _load(args: argparse.Namespace) -> Instance:
    """The instance; what --lenient or --drop-class left out of it is
    named on stderr, so that no answer passes for the whole document's."""
    instance = parse_file(args.instance, _parser_config(args))
    if instance.removed:
        print(f"removed {len(instance.removed)} constraint elements: "
              + " ".join(instance.removed), file=sys.stderr)
    return instance


# -- solution files ---------------------------------------------------------------

def _read_solution(path: str, instance: Instance,
                   var_spec: Optional[str]) -> Tuple[Instantiation, Optional[int]]:
    text = read_text(path)
    arrays = instance.arrays_by_id
    if text.lstrip().startswith("<"):
        if var_spec is not None:
            raise _UsageError("--vars only applies to bare value lists")
        root = read_xml(text)
        if root.tag != "instantiation":
            raise ParseError(f"solution root must be <instantiation>, "
                             f"not <{root.tag}>", path=root.path, rule="solution")
        for key in root.attrs:
            if key not in ("type", "cost", "id", "note"):
                raise ParseError(f"unsupported attribute {key}= on <instantiation>",
                                 path=root.path, rule="solution")
        list_el = root.find("list")
        values_el = root.find("values")
        if list_el is None or values_el is None:
            raise ParseError("instantiation needs <list> and <values>",
                             path=root.path, rule="solution")
        for el in root.children:  # an ignored part would make the file ambiguous
            if el is not list_el and el is not values_el:
                raise ParseError(f"unexpected <{el.tag}> under <instantiation>",
                                 path=el.path, rule="solution")
            if el.attrs:
                raise ParseError(f"unsupported attribute {next(iter(el.attrs))}= on "
                                 f"<{el.tag}>", path=el.path, rule="solution")
        ids = read_var_ids(list_el.text, arrays, list_el.path)
        values = read_int_values(values_el.text, values_el.path, len(ids), "solution",
                                 allow_star=True)
        cost_text = root.attr("cost")
        cost = read_int(cost_text, root.path, "cost") if cost_text is not None else None
    else:
        if var_spec is not None:
            ids = read_var_ids(var_spec, arrays, "--vars")
        else:
            ids = [v.id for v in instance.variables() if v.domain is not None]
        values = read_int_values(text, path, len(ids), "solution", allow_star=True)
        cost = None
    if len(ids) != len(values):
        raise ParseError(f"{len(ids)} variables for {len(values)} values",
                         path=path, rule="solution")
    return Instantiation(zip(ids, values)), cost


def _print_instantiation(sol: Instantiation, kind: str,
                         cost: Optional[object] = None) -> None:
    ids = list(sol)
    # a lex optimum is a tuple, which no cost attribute can hold
    head = f'<instantiation type="{kind}"' + (
        f' cost="{cost}"' if isinstance(cost, int) else "") + ">"
    print(head)
    print("  <list> " + " ".join(ids) + " </list>")
    print("  <values> " + " ".join(str(sol[i]) for i in ids) + " </values>")
    print("</instantiation>")


# -- subcommands ------------------------------------------------------------------

def _kind_histogram(instance: Instance) -> dict:
    histogram: dict = {}
    for posted in instance.constraints:
        name = type(posted.kind).__name__
        histogram[name] = histogram.get(name, 0) + 1
    return histogram


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = _load(args)
    n_vars = sum(1 for _ in instance.variables())
    print(f"valid {instance.framework.value} instance: {n_vars} variables, "
          f"{len(instance.constraints)} constraints")
    histogram = _kind_histogram(instance)
    for name in sorted(histogram):
        print(f"kind.{name}={histogram[name]}")
    if instance.objective is not None:
        print(f"objective={instance.objective.sense.value}:"
              f"{instance.objective.kind.value}")
    if args.canonical_out:
        text = render_instance(instance)
        if args.canonical_out == "-":
            sys.stdout.write(text)
        else:
            with open(args.canonical_out, "w", encoding="utf-8") as fh:
                fh.write(text)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    if args.solution is not None and args.solution_opt is not None:
        raise _UsageError("give the solution file once, not twice")
    solution_path = args.solution if args.solution is not None else args.solution_opt
    if solution_path is None:
        raise _UsageError("check needs a solution file")
    instance = _load(args)
    solution, file_cost = _read_solution(solution_path, instance, args.vars)
    declared = args.cost if args.cost is not None else file_cost
    objective = instance.objective
    if declared is not None and objective is not None and objective.kind is ObjKind.LEX:
        raise ParseError("a lex objective's value is a tuple, which no declared cost "
                         "can state", path="--cost" if args.cost is not None
                         else solution_path, rule="cost-lex")
    mode = CheckMode.PARTIAL_ALLOWED if args.allow_partial else CheckMode.TOTAL_REQUIRED
    try:
        verdict = check_solution(instance, solution, mode, declared_cost=declared)
    except CheckError as e:
        print(f"rejected: {e}", file=sys.stderr)
        return EXIT_VIOLATED
    if verdict.kind is VerdictKind.SATISFIED:
        if declared is not None:
            print(f"satisfied, cost verified: {declared}")
        else:
            print("satisfied")
        return EXIT_OK
    if verdict.kind is VerdictKind.VIOLATED:
        print("violated: " + " ".join(verdict.violated))
        return EXIT_VIOLATED
    print("incomplete: missing " + " ".join(verdict.missing))
    return EXIT_INCOMPLETE


def _search_config(args: argparse.Namespace) -> SearchConfig:
    """The search options; a limit SearchConfig rejects is a usage error."""
    max_solutions = args.max_solutions
    if not args.count and not args.all and max_solutions is None:
        max_solutions = 1
    try:
        return SearchConfig(
            max_solutions=max_solutions,
            node_limit=args.node_limit,
            time_limit=args.time_limit,
            var_order=VarOrder(args.order),
            restrict_to_decision=args.restrict_to_decision,
            keep_solutions=not args.count,
        )
    except ValueError as e:
        raise _UsageError(str(e)) from e


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _search_config(args)
    instance = _load(args)
    is_cop = instance.objective is not None
    if args.optimize and not is_cop:
        raise _UsageError("--optimize needs an instance with an objective")
    result = solve(instance, config)
    if args.count:
        print(f"solutions={result.count}")
        print(f"nodes={result.nodes}")
        if result.status is Status.LIMIT:
            print("LIMIT")
            return EXIT_LIMIT
        return EXIT_OK if result.count else EXIT_UNSAT
    if result.status is Status.LIMIT:
        if is_cop and result.best is not None:
            _print_instantiation(result.best, "solution", result.best_cost)
        print("LIMIT")
        return EXIT_LIMIT
    if result.status is Status.UNSATISFIABLE:
        print("UNSATISFIABLE")
        return EXIT_UNSAT
    if is_cop:
        _print_instantiation(result.best, "optimum", result.best_cost)
    elif args.all:
        for sol in result.solutions:
            _print_instantiation(sol, "solution")
        print(f"solutions={result.count}")
    else:
        for sol in result.solutions[:1]:
            _print_instantiation(sol, "solution")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = _load(args)
    print(f"framework={instance.framework.value}")
    print(f"variables={sum(1 for _ in instance.variables())}")
    print(f"arrays={len(instance.arrays)}")
    sizes = [v.domain.size for v in instance.variables() if v.domain is not None]
    if sizes:
        print(f"domain.size.min={min(sizes)}")
        print(f"domain.size.max={max(sizes)}")
    print(f"constraints={len(instance.constraints)}")
    histogram = _kind_histogram(instance)
    for name in sorted(histogram):
        print(f"kind.{name}={histogram[name]}")
    arities: dict = {}
    for posted in instance.constraints:
        n = len(posted.kind.var_ids)
        arities[n] = arities.get(n, 0) + 1
    for n in sorted(arities):
        print(f"arity.{n}={arities[n]}")
    if instance.objective is not None:
        print(f"objective={instance.objective.sense.value}:"
              f"{instance.objective.kind.value}")
    if instance.decision is not None:
        print(f"decision={len(instance.decision)}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "stats": _cmd_stats,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EVAL
    except UnforcedVariable as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNFORCED
    except (OSError, XcspError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
