"""Every module of the package and every script reads as Python 3.10, the
oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

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
    or a possessive quantifier (3.11), still passes here."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
