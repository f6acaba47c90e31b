"""Whole documents for fuzzing the reader, and the outcome of reading one.

The documents are the fixtures and seeded mutants of them. tests/test_errors.py
fuzzes the reader with them, tests/test_expansion.py compares two ways of
expanding templates by outcome, and scripts/parse_digest.py prints a digest of
the outcomes to compare two checkouts.
"""

import re
from pathlib import Path

from xcsp3core.canonical import render_instance
from xcsp3core.errors import ParseError
from xcsp3core.parser import ParserConfig, parse_string

FIXTURES = Path(__file__).parent / "fixtures"

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


def outcome(text, strict=True):
    """The instance read from text, the paths the reader removed and its
    canonical form; or the error's class, rule, path and message."""
    try:
        instance = parse_string(text, ParserConfig(strict=strict))
    except ParseError as e:
        return type(e), e.rule, e.path, str(e)
    return instance, instance.removed, render_instance(instance)
