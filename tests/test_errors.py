"""The error contract: few classes, and a rule on every parse failure.

A parse failure is told apart by its rule, not its class, so every
ParseError raised in the package names one, and errors.py defines only
classes that the package raises or catches. Whole documents mutated at
the character level fail with a ParseError and a rule, never anything
else.
"""

import ast
import random
import re
from pathlib import Path

import pytest

import xcsp3core
from conftest import FIXTURES
from xcsp3core.errors import ParseError
from xcsp3core.parser import parse_string

SOURCES = sorted(Path(xcsp3core.__file__).parent.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def _name(node):
    return node.id if isinstance(node, ast.Name) else None


def test_every_parse_error_raised_names_its_rule():
    unnamed = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _name(node.func) in ("ParseError", "UnknownElement")
                    and not any(k.arg == "rule" for k in node.keywords)):
                unnamed.append(f"{name}:{node.lineno}")
    assert unnamed == []


def test_every_error_class_is_raised_or_caught():
    trees = _trees()
    errors = dict(trees)["errors.py"]
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(_name(exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                used.update(_name(t) for t in types)
    assert sorted(defined - used) == []
    assert len(defined) == 11


# -- whole documents, mutated ----------------------------------------------------------

# What the mutations insert: the token characters of the format, characters
# that int() or str.isspace take but the format does not, and, anywhere
# in the document, its markup characters.
TOKEN_CHARS = " ()[],.%*x0123456789abcdeilnqrstv_-+\t\n\xa0١é"
MARKUP_CHARS = "<>/=\"'&"
# the text of an element that holds more than whitespace: domains, lists,
# conditions, expressions, tuples
_TEXT_RE = re.compile(r">\s*([^<\s][^<]*?)\s*<")
DOCUMENTS = sorted(FIXTURES.glob("*.xml"))


def mutant(rng, text):
    """text with one to three characters inserted, deleted, replaced or
    swapped with their neighbour, three edits in four inside element text."""
    for _ in range(rng.randint(1, 3)):
        spans = [m.span(1) for m in _TEXT_RE.finditer(text)]
        if spans and rng.random() < 0.75:
            lo, hi = rng.choice(spans)
            i, chars = rng.randrange(lo, hi), TOKEN_CHARS
        else:
            i, chars = rng.randrange(max(1, len(text))), TOKEN_CHARS + MARKUP_CHARS
        edit = rng.choice(("insert", "delete", "replace", "swap"))
        if edit == "insert":
            text = text[:i] + rng.choice(chars) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "replace":
            text = text[:i] + rng.choice(chars) + text[i + 1:]
        elif i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


@pytest.mark.parametrize("seed", range(4))
def test_mutated_documents_fail_with_a_rule(seed):
    rng = random.Random(seed)
    texts = [path.read_text(encoding="utf-8") for path in DOCUMENTS]
    failures = 0
    for _ in range(750):
        text = mutant(rng, rng.choice(texts))
        try:
            parse_string(text)
        except ParseError as e:
            assert e.rule, f"{e!s} without a rule, from {text!r}"
            failures += 1
    assert failures > 0
