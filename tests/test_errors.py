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
from xcsp3core import cli
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


# One minimal document per rule that a constraint reader raises: the rule,
# the path of the element it names, and the constraint element itself.
_RULE_DECLARATIONS = "".join(f'<var id="{v}"> 0..2 </var>' for v in "abcd")
_CONSTRAINTS = "/instance/constraints/"
READER_RULES = [
    ("allDifferent-shape", "allDifferent",
     "<allDifferent><matrix> (a,b)(c,d) </matrix><list> a b </list></allDifferent>"),
    ("boolean-attribute", "noOverlap", '<noOverlap zeroIgnored="yes"><origins> a b </origins>'
                                       "<lengths> 1 1 </lengths></noOverlap>"),
    ("channel-lengths", "channel", "<channel><list> a b c </list><list> a b </list></channel>"),
    ("channel-shape", "channel",
     "<channel><list> a </list><list> b </list><list> c </list></channel>"),
    ("channel-value", "channel/value",
     "<channel><list> a b </list><value> a b </value></channel>"),
    ("circuit-size", "circuit/size", "<circuit><list> a b c </list><size> 1 2 </size></circuit>"),
    ("condition-operator", "sum/condition",
     "<sum><list> a b </list><condition> (lq,3) </condition></sum>"),
    ("condition-syntax", "sum/condition",
     "<sum><list> a b </list><condition> le,3 </condition></sum>"),
    ("constraint-tag", "knapsack", "<knapsack> a b </knapsack>"),
    ("cumulative-count", "cumulative", "<cumulative><origins> a b </origins><lengths> 1 </lengths>"
                                       "<heights> 1 1 </heights><condition> (le,2) </condition>"
                                       "</cumulative>"),
    ("element-index", "element/index",
     "<element><list> a b </list><index> c d </index><value> a </value></element>"),
    ("element-rhs", "element", "<element><list> a b </list><index> c </index></element>"),
    ("extension-shape", "extension/list",
     "<extension><list> </list><supports> (0) </supports></extension>"),
    ("extension-tables", "extension", "<extension><list> a b </list></extension>"),
    ("lengths-count", "ordered/lengths", "<ordered><list> a b c </list><lengths> 1 </lengths>"
                                         "<operator> le </operator></ordered>"),
    ("lex-shape", "lex", "<lex><list> a b </list><operator> le </operator></lex>"),
    ("lists-length", "lex",
     "<lex><list> a b </list><list> c </list><operator> le </operator></lex>"),
    ("mdd-shape", "mdd",
     "<mdd><list> a b </list><transitions> (r,0,s)(q,0,s)(s,1,t) </transitions></mdd>"),
    ("noOverlap-count", "noOverlap",
     "<noOverlap><origins> a b </origins><lengths> 1 </lengths></noOverlap>"),
    ("order-operator", "ordered/operator",
     "<ordered><list> a b </list><operator> lq </operator></ordered>"),
    ("regular-final", "regular/final", "<regular><list> a </list><transitions> (p,0,q) "
                                       "</transitions><start> p </start><final> </final>"
                                       "</regular>"),
    ("regular-start", "regular/start", "<regular><list> a </list><transitions> (p,0,q) "
                                       "</transitions><start> p q </start><final> q </final>"
                                       "</regular>"),
    ("start-index", "extension/list",
     '<extension><list startIndex="1"> a b </list><supports> (0,1) </supports></extension>'),
    ("table-order", "extension/supports",
     "<extension><list> a b </list><supports> (1,0)(0,1) </supports></extension>"),
    ("tuple-arity", "extension/supports",
     "<extension><list> a b </list><supports> (0,1,2) </supports></extension>"),
]


@pytest.mark.parametrize("rule,path,constraint", READER_RULES,
                         ids=[rule for rule, _, _ in READER_RULES])
def test_constraint_reader_rules(rule, path, constraint, tmp_path, capsys):
    document = tmp_path / "instance.xml"
    document.write_text(f'<instance format="XCSP3" type="CSP"><variables>{_RULE_DECLARATIONS}'
                        f"</variables><constraints>{constraint}</constraints></instance>")
    with pytest.raises(ParseError) as caught:
        parse_string(document.read_text())
    assert (caught.value.rule, caught.value.path) == (rule, _CONSTRAINTS + path)
    assert cli.main(["validate", str(document)]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"
