"""Parser, solution checker and exhaustive-search oracle for XCSP3-core."""

from . import errors
from .canonical import instances_equivalent, render_instance
from .checker import (
    CheckMode,
    Verdict,
    VerdictKind,
    check_constraint,
    check_solution,
    eval_objective,
    partial_violated,
    scope_of,
    useful_variables,
)
from .expr import compile_expr, eval_expr, free_vars, parse_expr, print_expr
from .kinds import Objective, ObjKind, Sense
from .model import (
    STAR,
    Condition,
    CondOp,
    Domain,
    Framework,
    Instance,
    Instantiation,
    PostedConstraint,
    VarArray,
    Variable,
)
from .parser import ParserConfig, parse_file, parse_string
from .solver import (
    SearchConfig,
    SolveResult,
    Status,
    VarOrder,
    count_solutions,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "instances_equivalent", "render_instance",
    "CheckMode", "Verdict", "VerdictKind", "check_constraint", "check_solution",
    "eval_objective", "partial_violated", "scope_of", "useful_variables",
    "compile_expr", "eval_expr", "free_vars", "parse_expr", "print_expr",
    "Objective", "ObjKind", "Sense",
    "STAR", "Condition", "CondOp", "Domain", "Framework", "Instance",
    "Instantiation", "PostedConstraint", "VarArray", "Variable",
    "ParserConfig", "parse_file", "parse_string",
    "SearchConfig", "SolveResult", "Status", "VarOrder",
    "count_solutions", "solve",
    "__version__",
]
