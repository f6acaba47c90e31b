"""Every module of the package and every script reads as Python 3.10, the
oldest version pyproject.toml allows, and so does every regular expression
the package compiles at import."""

import ast
import importlib
import re
from pathlib import Path

import pytest

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:  # Python 3.10
    import sre_parse

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src/xcsp3core").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def test_the_package_and_the_scripts_are_found():
    names = {path.name for path in MODULES}
    assert {"checker.py", "expr.py", "parser.py", "random_agreement.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_the_module_parses_as_python_3_10(path):
    """ast.parse with feature_version=(3, 10) rejects grammar newer than
    3.10, such as except*. This catches syntax only: a newer feature that
    a library takes at run time, such as an re pattern with an atomic group
    or a possessive quantifier (3.11), passes here, and the pattern tests
    below look for those two."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# the nodes of re's parse tree for syntax that Python 3.11 added
NEWER = frozenset({"ATOMIC_GROUP", "POSSESSIVE_REPEAT"})


def _newer_nodes(pattern, flags=0):
    """The names in NEWER of the nodes of pattern's parse tree."""
    found = set()
    stack = [sre_parse.parse(pattern, flags)]
    while stack:
        node = stack.pop()
        if isinstance(node, sre_parse.SubPattern):
            stack += node.data
        elif isinstance(node, (list, tuple)):
            stack += node
        elif getattr(node, "name", None) in NEWER:  # an opcode, an int named after its node
            found.add(node.name)
    return found


def _patterns():
    """Every module-level compiled pattern of the package, by module and name."""
    found = {}
    for path in sorted((ROOT / "src/xcsp3core").glob("*.py")):
        module = importlib.import_module(f"xcsp3core.{path.stem}")
        found.update((f"{path.stem}.{name}", value) for name, value in vars(module).items()
                     if isinstance(value, re.Pattern))
    return found


def test_every_pattern_of_the_package_reads_as_python_3_10():
    patterns = _patterns()
    assert {"expr.INT_RE", "expr.IDENT_RE", "parser._LEAF_RE", "parser._TABLE_TEXT_RE"} <= set(
        patterns)
    assert {name: _newer_nodes(p.pattern, p.flags) for name, p in patterns.items()
            if _newer_nodes(p.pattern, p.flags)} == {}


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="Python 3.10 cannot parse either")
def test_the_pattern_walk_finds_a_possessive_quantifier_and_an_atomic_group():
    assert _newer_nodes("a*+") == {"POSSESSIVE_REPEAT"}
    assert _newer_nodes("x(?>b)|c") == {"ATOMIC_GROUP"}
    assert _newer_nodes("(?:a(?>b))++") == NEWER
    assert _newer_nodes(r"(?<![^(),])([^(),]+)(?=[,)]|\Z)") == set()
