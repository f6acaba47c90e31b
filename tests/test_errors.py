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
from xcsp3core import kinds as K
from mutants import DOCUMENTS, FIXTURES, mutant
from test_kinds import CASES, document as kind_document
from xcsp3core.errors import ParseError, UnknownElement
from xcsp3core.expr import IntConst, OpCall, VarRef
from xcsp3core.model import Instance, PostedConstraint
from xcsp3core.parser import ParserConfig, _ConstraintReader, parse_string

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


# Tags that raise no {tag}-shape: their one child may be left out for the
# element's text (a <function> or <list>).
_NO_REQUIRED_CHILD = {"intension", "allEqual"}


def test_every_rule_is_named_by_a_test():
    # a rule written as a literal in src/ is named, quoted or as "[rule: ...]",
    # by some test: a new rule cannot land without one; so is each rule that a
    # constraint tag computes from its name, whose rows build the names
    rules = {node.value.value for _, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "rule"
             and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)}
    tests = " ".join(path.read_text(encoding="utf-8")
                     for path in Path(__file__).parent.glob("test_*.py"))
    assert len(rules) > 100
    assert sorted(rule for rule in rules if not any(
        f"{quote}{rule}{quote}" in tests or f"[rule: {rule}]" in tests for quote in "\"'")) == []
    tags = set(_ConstraintReader._TAGS)
    assert {tag for tag, _ in UNEXPECTED_CHILDREN} == tags
    shape_rows = {_KIND_CASES[name][1:_KIND_CASES[name].index(">")]
                  for name, _ in REQUIRED_CHILDREN}
    assert sorted(tag for tag in tags - _NO_REQUIRED_CHILD - shape_rows
                  if f'"{tag}-shape"' not in tests) == []


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
    assert len(defined) == 10


# -- whole documents, mutated (tests/mutants.py) ---------------------------------------

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
    ("circuit-shape", "circuit", "<circuit/>"),
    ("circuit-shape", "circuit", "<circuit><size> 2 </size></circuit>"),
    ("circuit-shape", "circuit/list", "<circuit><list> </list><size> 2 </size></circuit>"),
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
    ("identifier", "intension", '<intension id="1c"> lt(a,b) </intension>'),
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
    ("transition", "regular/transitions", "<regular><list> a </list><transitions> (p,0) "
                                          "</transitions><start> p </start><final> p </final>"
                                          "</regular>"),
    ("transition", "regular/transitions", "<regular><list> a </list><transitions> (p,0,) "
                                          "</transitions><start> p </start><final> p </final>"
                                          "</regular>"),
    ("tuple-arity", "extension/supports",
     "<extension><list> a b </list><supports> (0,1,2) </supports></extension>"),
    ("tuple-syntax", "extension/supports",
     "<extension><list> a b </list><supports> (0,1)(1,2 </supports></extension>"),
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


@pytest.mark.parametrize("path,constraint", [
    ("element/list",
     '<element><list startIndex="1"> a b </list><index> c </index><value> 1 </value></element>'),
    ("element/matrix", '<element><matrix startColIndex="2"> (a,b)(b,a) </matrix>'
                       "<index> c d </index><value> 1 </value></element>"),
    ("channel/list[2]", '<channel><list> a b </list><list startIndex="1"> c d </list></channel>'),
    ("circuit/list", '<circuit><list startIndex="-1"> a b c </list></circuit>'),
])
def test_each_child_with_a_start_index_takes_only_0(path, constraint):
    # the children of _START_INDEXES beyond extension's, which READER_RULES holds
    with pytest.raises(ParseError) as caught:
        parse_string(f'<instance format="XCSP3" type="CSP"><variables>{_RULE_DECLARATIONS}'
                     f"</variables><constraints>{constraint}</constraints></instance>")
    assert (caught.value.rule, caught.value.path) == ("start-index", _CONSTRAINTS + path)


# One minimal document per rule that the document, variable, alias, slide,
# objective and annotation readers raise, written from the format's
# description of each element: the rule, the path of the element it names,
# and the document. A rule raised at two sites has a row for each.
_X = '<var id="x"> 0..2 </var>'


def _document(variables=_X, constraints="", tail="", framework="CSP"):
    return (f'<instance format="XCSP3" type="{framework}"><variables>{variables}</variables>'
            f"<constraints>{constraints}</constraints>{tail}</instance>")


_SLIDE = '<var id="y"> 0..2 </var><var id="z"> 0..2 </var>' + _X
DOCUMENT_RULES = [
    ("alias-content", "/instance/variables/var[2]",
     _document(_X + '<var id="w" as="x"> 0..2 </var>')),
    ("alias-kind", "/instance/variables/array",
     _document(_X + '<array id="a" as="x" size="[2]"/>')),
    ("annotations-content", "/instance/annotations/decision[2]",
     _document(tail="<annotations><decision> x </decision><decision> x </decision>"
                    "</annotations>")),
    ("annotations-content", "/instance/annotations/varHeuristic",
     _document(tail="<annotations><varHeuristic> x </varHeuristic></annotations>")),
    ("array-content", "/instance/variables/array/var",
     _document('<array id="a" size="[2]"><var id="b"> 0 </var></array>')),
    ("instance-content", "/instance/solution", _document(tail="<solution> 0 </solution>")),
    ("mixed-content", "/instance/variables", _document(" x " + _X)),
    ("mixed-content", "/instance/variables", _document(_X + " 0..2 ")),
    ("objective-type", "/instance/objectives/minimize",
     _document(tail='<objectives><minimize type="product"> x </minimize></objectives>',
               framework="COP")),
    ("objectives-content", "/instance/objectives",
     _document(tail='<objectives combination="lexico"><minimize> x </minimize>'
                    "</objectives>", framework="COP")),
    ("objectives-content", "/instance/objectives/optimize",
     _document(tail="<objectives><optimize> x </optimize></objectives>", framework="COP")),
    ("root", "/instantiation", "<instantiation><list> x </list><values> 0 </values>"
                               "</instantiation>"),
    ("section-order", "/instance/variables",
     f'<instance format="XCSP3" type="CSP"><constraints/><variables>{_X}</variables>'
     "</instance>"),
    ("section-order", "/instance/variables[2]",
     f'<instance format="XCSP3" type="CSP"><variables>{_X}</variables><variables/>'
     "</instance>"),
    ("slide-collect", "/instance/constraints/slide/list",
     _document(_SLIDE, '<slide><list collect="0"> x y z </list>'
                       "<intension> lt(%0,%1) </intension></slide>")),
    ("slide-offset", "/instance/constraints/slide/list",
     _document(_SLIDE, '<slide><list offset="0"> x y z </list>'
                       "<intension> lt(%0,%1) </intension></slide>")),
    ("slide-params", "/instance/constraints/slide/intension",
     _document(_SLIDE, "<slide><list> x y z </list><intension> lt(x,y) </intension>"
                       "</slide>")),
    ("slide-shape", "/instance/constraints/slide",
     _document(_SLIDE, "<slide><intension> lt(%0,%1) </intension></slide>")),
    ("slide-shape", "/instance/constraints/slide",
     _document(_SLIDE, "<slide><list> x y </list><args> z </args>"
                       "<intension> lt(%0,%1) </intension></slide>")),
    ("identifier", "/instance/variables/var", _document("<var> 0..2 </var>")),
    ("identifier", "/instance/variables/var", _document('<var id="2x"> 0..2 </var>')),
    ("var-content", "/instance/variables/var",
     _document('<var id="x"><domain> 0 </domain></var>')),
    ("var-domain", "/instance/variables/var", _document('<var id="x">  </var>')),
    ("variable-type", "/instance/variables/var",
     _document('<var id="x" type="symbolic"> a b </var>')),
    ("variables-content", "/instance/variables/domain",
     _document(_X + '<domain for="x"> 0 </domain>')),
]


@pytest.mark.parametrize("rule,path,document", DOCUMENT_RULES,
                         ids=[f"{rule}-{k}" for k, (rule, _, _) in enumerate(DOCUMENT_RULES)])
def test_document_rules(rule, path, document, tmp_path, capsys):
    file = tmp_path / "instance.xml"
    file.write_text(document)
    with pytest.raises(ParseError) as caught:
        parse_string(document)
    assert (caught.value.rule, caught.value.path) == (rule, path)
    assert cli.main(["validate", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"


# The rules that a constraint tag computes from its name: {tag}-shape for a
# required child that is missing, and {tag}-content for a child the tag does
# not take. One row per required child of each tag, from test_kinds.CASES
# with that child removed, and one row per tag with a child that belongs to
# another element of the format.
_KIND_CASES = {name: constraint for name, constraint, _ in CASES}
REQUIRED_CHILDREN = [
    ("Extension", "list"),
    ("Regular", "list"), ("Regular", "transitions"), ("Regular", "start"), ("Regular", "final"),
    ("Mdd", "list"), ("Mdd", "transitions"),
    ("Ordered", "list"), ("Ordered", "operator"),
    ("Lex", "operator"),
    ("Sum", "list"), ("Sum", "condition"),
    ("Count", "list"), ("Count", "values"), ("Count", "condition"),
    ("NValues", "list"), ("NValues", "condition"),
    ("Cardinality", "list"), ("Cardinality", "values"), ("Cardinality", "occurs"),
    ("Minimum", "list"), ("Minimum", "condition"),
    ("Maximum", "list"), ("Maximum", "condition"),
    ("ElementVarList", "index"), ("ElementVarList", "list"),
    ("NoOverlap1", "origins"), ("NoOverlap1", "lengths"),
    ("Cumulative", "origins"), ("Cumulative", "lengths"), ("Cumulative", "heights"),
    ("Cumulative", "condition"),
    ("InstantiationCtr", "list"), ("InstantiationCtr", "values"),
]


@pytest.mark.parametrize("name,child", REQUIRED_CHILDREN,
                         ids=[f"{name}-{child}" for name, child in REQUIRED_CHILDREN])
def test_missing_required_child(name, child, tmp_path, capsys):
    constraint, removed = re.subn(rf"<{child}>[^<]*</{child}>", "", _KIND_CASES[name])
    assert removed == 1
    tag = constraint[1:constraint.index(">")]
    file = tmp_path / "instance.xml"
    file.write_text(kind_document(constraint))
    assert cli.main(["validate", str(file)]) == 2
    assert capsys.readouterr().err == (f"error: /instance/constraints/{tag}: <{tag}> needs a "
                                       f"<{child}> child [rule: {tag}-shape]\n")


UNEXPECTED_CHILDREN = [
    ("intension", "list"), ("extension", "values"), ("regular", "condition"),
    ("mdd", "start"), ("allDifferent", "values"), ("allEqual", "condition"),
    ("ordered", "condition"), ("lex", "lengths"), ("sum", "values"), ("count", "coeffs"),
    ("nValues", "values"), ("cardinality", "condition"), ("minimum", "index"),
    ("maximum", "index"), ("element", "coeffs"), ("channel", "index"),
    ("noOverlap", "heights"), ("cumulative", "ends"), ("circuit", "values"),
    ("instantiation", "condition"),
]


@pytest.mark.parametrize("tag,child", UNEXPECTED_CHILDREN,
                         ids=[tag for tag, _ in UNEXPECTED_CHILDREN])
def test_unexpected_child(tag, child, tmp_path, capsys):
    file = tmp_path / "instance.xml"
    file.write_text(kind_document(f"<{tag}><{child}> a </{child}></{tag}>"))
    with pytest.raises(UnknownElement) as caught:
        parse_string(file.read_text())
    assert (caught.value.rule, caught.value.path) == (f"{tag}-content",
                                                      f"/instance/constraints/{tag}/{child}")
    lenient = parse_string(file.read_text(), ParserConfig(strict=False))
    assert lenient.removed == (f"/instance/constraints/{tag}",)
    assert cli.main(["validate", str(file)]) == 2
    assert capsys.readouterr().err == (f"error: /instance/constraints/{tag}/{child}: unexpected "
                                       f"<{child}> under <{tag}> [rule: {tag}-content]\n")


# One row per raise site that no other test reaches, pinned by its message:
# the rule, the path of the element it names (None when it names none), the
# message and the document.
def _constraints(constraint):
    return _document(_RULE_DECLARATIONS, constraint)


_ARRAY = '<array id="y" size="[2]">{}</array>'
_COP = "<objectives>{}</objectives>"
_XY = _X + '<var id="y"> 0..2 </var>'
RAISE_SITES = [
    ("alias-size", "/instance/variables/array[2]",
     "alias 'z' of size [3] cannot take the cell domains of 'y': the sizes differ and the "
     "cells of 'y' differ in domain",
     _document(_ARRAY.format('<domain for="y[0]"> 0..1 </domain><domain for="others"> 5 '
                             "</domain>") + '<array id="z" as="y" size="[3]"/>')),
    ("allDifferent-shape", "/instance/constraints/allDifferent", "allDifferent without operands",
     _constraints("<allDifferent> </allDifferent>")),
    ("array-size", "/instance/variables/array", "array 'y' without size",
     _document('<array id="y"> 0..2 </array>')),
    ("element-index", "/instance/constraints/element/index",
     "matrix element needs two index variables",
     _constraints("<element><matrix> (a,b)(c,d) </matrix><index> a </index>"
                  "<value> b </value></element>")),
    ("expression-syntax", "/instance/constraints/intension",
     "set literals may only contain integers (offset 5)",
     _constraints("<intension> in(a,set(b)) </intension>")),
    ("expression-syntax", "/instance/constraints/intension",
     "second argument of in() must be a set literal (offset 0)",
     _constraints("<intension> in(a,b) </intension>")),
    ("for-others", "/instance/variables/array/domain", "others cannot be mixed with cell tokens",
     _document(_ARRAY.format('<domain for="y[0] others"> 0..2 </domain>'))),
    ("for-target", "/instance/variables/array/domain", "<domain> without for=",
     _document(_ARRAY.format("<domain> 0..2 </domain>"))),
    ("for-target", "/instance/variables/array/domain", "empty for= attribute",
     _document(_ARRAY.format('<domain for=""> 0..2 </domain>'))),
    ("group-shape", "/instance/constraints/group", "empty group", _constraints("<group/>")),
    ("group-shape", "/instance/constraints/group", "group template must come before <args>",
     _constraints("<group><args> a </args><intension> lt(%0,1) </intension></group>")),
    ("lists-length", "/instance/constraints/allDifferent", "allDifferent lists differ in length",
     _constraints("<allDifferent><list> a b </list><list> c </list></allDifferent>")),
    ("matrix-shape", "/instance/constraints/allDifferent/matrix", "matrix rows differ in length",
     _constraints("<allDifferent><matrix> (a,b)(c) </matrix></allDifferent>")),
    ("maximize-content", "/instance/objectives/maximize/condition",
     "unexpected <condition> under <maximize>",
     _document(tail=_COP.format('<maximize type="maximum"><list> x </list>'
                                "<condition> (le,1) </condition></maximize>"), framework="COP")),
    ("minimize-content", "/instance/objectives/minimize/values",
     "unexpected <values> under <minimize>",
     _document(tail=_COP.format('<minimize type="sum"><list> x </list><values> 1 </values>'
                                "</minimize>"), framework="COP")),
    ("noOverlap-count", "/instance/constraints/noOverlap", "2 origin tuples for 1 length tuples",
     _constraints("<noOverlap><origins> (a,b)(c,d) </origins><lengths> (1,1) </lengths>"
                  "</noOverlap>")),
    ("noOverlap-count", "/instance/constraints/noOverlap",
     "origin/length tuples differ in dimension",
     _constraints("<noOverlap><origins> (a,b)(c,d) </origins><lengths> (1,1)(1,1,1) "
                  "</lengths></noOverlap>")),
    ("objective-shape", "/instance/objectives/minimize",
     "expression objectives carry the expression as text",
     _document(tail=_COP.format("<minimize><list> x </list></minimize>"), framework="COP")),
    ("slide-circular", "/instance/constraints/slide", "circular slide requires offset 1",
     _document(_SLIDE, '<slide circular="true"><list offset="2"> x y z </list>'
                       "<intension> lt(%0,%1) </intension></slide>")),
    ("slide-length", "/instance/constraints/slide",
     "list of 2 variables cannot slide a window of 3",
     _document(_SLIDE, '<slide circular="true"><list> x y </list>'
                       "<intension> lt(%0,add(%1,%2)) </intension></slide>")),
    ("tuple-arity", "/instance/constraints/allDifferent/except",
     "except tuple arity differs from lists",
     _constraints("<allDifferent><list> a b </list><list> c d </list>"
                  "<except> (0,0,0) </except></allDifferent>")),
    ("unknown-variable", None, "decision annotation references undeclared variable 'q'",
     _document(tail="<annotations><decision> q </decision></annotations>")),
    # appended, so that the rows above keep their ids
    ("objective-shape", "/instance/objectives/minimize", "sum objective needs operands",
     _document(tail=_COP.format('<minimize type="sum"><list></list></minimize>'),
               framework="COP")),
    ("objective-shape", "/instance/objectives/maximize", "lex objectives take no coefficients",
     _document(_XY, tail=_COP.format('<maximize type="lex"><list>x y</list><coeffs>1 2</coeffs>'
                                     "</maximize>"), framework="COP")),
    ("objective-shape", "/instance/objectives/minimize",
     "coeffs length differs from operand count",
     _document(_XY, tail=_COP.format('<minimize type="sum"><list>x y</list><coeffs>1</coeffs>'
                                     "</minimize>"), framework="COP")),
]


@pytest.mark.parametrize("rule,path,message,document", RAISE_SITES,
                         ids=[f"{rule}-{k}" for k, (rule, *_) in enumerate(RAISE_SITES)])
def test_raise_sites(rule, path, message, document, tmp_path, capsys):
    file = tmp_path / "instance.xml"
    file.write_text(document)
    assert cli.main(["validate", str(file)]) == 2
    where = f"{path}: " if path else ""
    assert capsys.readouterr().err == f"error: {where}{message} [rule: {rule}]\n"


# An attribute that the reader does not read, on a constraint's child: the
# child's path below the constraint element, and the constraint.
CHILD_ATTRIBUTES = [
    ("sum/list", "foo", '<sum><list foo="1"> a b </list><condition> (le,1) </condition></sum>'),
    ("sum/condition", "bogus",
     '<sum><list> a b </list><condition bogus="y"> (le,1) </condition></sum>'),
    ("sum/list", "startIndex",
     '<sum><list startIndex="1"> a b </list><condition> (le,1) </condition></sum>'),
    ("ordered/list", "startIndex",
     '<ordered><list startIndex="1"> a b </list><operator> le </operator></ordered>'),
    ("allDifferent/list", "startIndex", '<allDifferent><list startIndex="1"> a b </list>'
                                        "</allDifferent>"),
    ("lex/list[1]", "startIndex", '<lex><list startIndex="1"> a b </list><list> c d </list>'
                                  "<operator> le </operator></lex>"),
    # honouring rank= would count other solutions
    ("element/index", "rank", '<element><list> a b c </list><index rank="first"> d </index>'
                              "<value> 1 </value></element>"),
    ("cardinality/occurs", "closed", '<cardinality><list> a b </list><values> 0 1 </values>'
                                     '<occurs closed="true"> 1 1 </occurs></cardinality>'),
]


@pytest.mark.parametrize("path,attribute,constraint", CHILD_ATTRIBUTES,
                         ids=[f"{path}@{attribute}" for path, attribute, _ in CHILD_ATTRIBUTES])
def test_an_attribute_of_a_constraint_child_that_is_not_read(path, attribute, constraint,
                                                             tmp_path, capsys):
    file = tmp_path / "instance.xml"
    file.write_text(_constraints(constraint))
    child = path.split("/")[1].partition("[")[0]
    message = (f"error: {_CONSTRAINTS}{path}: unsupported attribute {attribute}= on <{child}> "
               f"[rule: attribute]\n")
    with pytest.raises(UnknownElement) as caught:
        parse_string(file.read_text())
    assert f"error: {caught.value}\n" == message
    lenient = parse_string(file.read_text(), ParserConfig(strict=False))
    assert (lenient.constraints, lenient.removed) == ((), (_CONSTRAINTS + path.split("/")[0],))
    assert cli.main(["validate", str(file)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("path,document", [
    ("/instance/constraints/group/args",
     _constraints('<group><intension> lt(%0,1) </intension><args foo="1"> a </args></group>')),
    ("/instance/objectives/minimize/list",
     _document(_XY, tail=_COP.format('<minimize type="sum"><list foo="1"> x y </list>'
                                     "</minimize>"), framework="COP")),
], ids=["args", "objective-list"])
def test_an_attribute_of_a_group_or_objective_child_that_is_not_read(path, document, tmp_path,
                                                                     capsys):
    # lenient mode leaves out an <args>, as it does a constraint; an objective
    # cannot be left out, so there lenient mode fails too
    file = tmp_path / "instance.xml"
    file.write_text(document)
    child = path.rpartition("/")[2]
    message = f"error: {path}: unsupported attribute foo= on <{child}> [rule: attribute]\n"
    with pytest.raises(UnknownElement) as caught:
        parse_string(document)
    assert f"error: {caught.value}\n" == message
    if child == "args":
        lenient = parse_string(document, ParserConfig(strict=False))
        assert (lenient.constraints, lenient.removed) == ((), (path,))
    else:
        with pytest.raises(UnknownElement) as caught:
            parse_string(document, ParserConfig(strict=False))
        assert f"error: {caught.value}\n" == message
    assert cli.main(["validate", str(file)]) == 2
    assert capsys.readouterr().err == message


def test_the_attributes_a_constraint_child_may_carry():
    constraints = [
        '<extension><list startIndex="0"> a b </list><supports> (0,1) </supports></extension>',
        '<element><list startIndex="0"> a b </list><index> c </index><value> 1 </value>'
        "</element>",
        '<element><matrix startRowIndex="0" startColIndex="0"> (a,b)(b,a) </matrix>'
        "<index> c d </index><value> 1 </value></element>",
        '<channel><list startIndex="0"> a b </list></channel>',
        '<circuit><list startIndex="0"> a b c </list></circuit>',
        '<cardinality><list> a b </list><values closed="true"> 0 1 </values>'
        "<occurs> 1 1 </occurs></cardinality>",
        '<slide><list offset="1" collect="2" startIndex="0"> a b c </list>'
        "<intension> lt(%0,%1) </intension></slide>",
    ]
    for constraint in constraints:
        assert parse_string(_constraints(constraint)).constraints


# An unknown attribute on a group, a slide, a slide's <list> or a block fails
# the document in strict mode; lenient mode leaves out that group, slide or
# block, as it leaves out a constraint, and reads what stands beside it.
_BESIDE = "<intension> lt(a,b) </intension>"
STRUCTURES = [
    ("group", '<group foo="1"><intension> lt(%0,1) </intension><args> a </args></group>',
     "group"),
    ("slide", '<slide foo="1"><list> a b c </list><intension> lt(%0,%1) </intension></slide>',
     "slide"),
    ("slide/list", '<slide><list foo="1"> a b c </list><intension> lt(%0,%1) </intension>'
     "</slide>", "slide"),
    ("block", '<block foo="1"><intension> lt(a,c) </intension></block>', "block"),
]


@pytest.mark.parametrize("path,structure,left_out", STRUCTURES,
                         ids=[path for path, _, _ in STRUCTURES])
def test_lenient_mode_leaves_out_a_structure_with_an_unknown_attribute(path, structure,
                                                                       left_out):
    document = _constraints(structure + _BESIDE)
    with pytest.raises(UnknownElement) as caught:
        parse_string(document)
    assert (caught.value.rule, caught.value.path) == ("attribute", _CONSTRAINTS + path)
    lenient = parse_string(document, ParserConfig(strict=False))
    assert lenient.removed == (_CONSTRAINTS + left_out,)
    assert lenient.constraints == parse_string(_constraints(_BESIDE)).constraints
    # its id stays taken, as a left-out constraint's does
    taken = structure.replace(f"<{left_out}", f'<{left_out} id="k"', 1)
    later = '<intension id="{}"> lt(a,c) </intension>'
    assert parse_string(_constraints(taken + later.format("j")), ParserConfig(strict=False))
    with pytest.raises(ParseError) as caught:
        parse_string(_constraints(taken + later.format("k")), ParserConfig(strict=False))
    assert caught.value.rule == "duplicate-id"


def test_lenient_mode_leaves_out_one_args_and_keeps_the_member_ids():
    document = _constraints('<group id="g"><intension> lt(%0,1) </intension><args> a </args>'
                            '<args foo="1"> b </args><args> c </args></group>')
    lenient = parse_string(document, ParserConfig(strict=False))
    assert [p.id for p in lenient.constraints] == ["g[0]", "g[2]"]
    assert lenient.removed == (_CONSTRAINTS + "group/args[2]",)


# The elements that cannot be left out: an unknown attribute on one of them
# fails the document in both modes.
_DECIDED = _document(_XY, tail="<annotations><decision> x y </decision></annotations>")
_OBJECTIVE = _document(_XY, tail=_COP.format("<minimize> add(x,y) </minimize>"), framework="COP")
_CELLS = _document('<array id="y" size="[2]"><domain for="y[0]"> 0 </domain>'
                   '<domain for="others"> 1 </domain></array>', "<intension> lt(y[0],y[1]) "
                   "</intension>")
UNDROPPABLE = [
    ("/instance", _DECIDED.replace("<instance ", "<instance {} ")),
    ("/instance/variables", _DECIDED.replace("<variables>", "<variables {}>")),
    ("/instance/constraints", _DECIDED.replace("<constraints>", "<constraints {}>")),
    ("/instance/objectives", _OBJECTIVE.replace("<objectives>", "<objectives {}>")),
    ("/instance/annotations", _DECIDED.replace("<annotations>", "<annotations {}>")),
    ("/instance/annotations/decision", _DECIDED.replace("<decision>", "<decision {}>")),
    ("/instance/variables/array/domain[1]", _CELLS.replace('"y[0]"', '"y[0]" {}')),
]


@pytest.mark.parametrize("path,document", UNDROPPABLE, ids=[p for p, _ in UNDROPPABLE])
def test_an_unknown_attribute_where_nothing_can_be_left_out(path, document):
    for strict in (True, False):
        with pytest.raises(UnknownElement) as caught:
            parse_string(document.format('foo="1"'), ParserConfig(strict=strict))
        assert (caught.value.rule, caught.value.path) == ("attribute", path)
        assert str(caught.value) == f"{path}: unsupported attribute foo= on " \
            f"<{path.rpartition('/')[2].partition('[')[0]}> [rule: attribute]"
        # id, class and note are taken everywhere
        assert parse_string(document.format('note="n" class="c"'), ParserConfig(strict=strict))


# -- references, checked where an Instance is built ------------------------------------

# x is declared, a[1] has no domain and a[2] is no cell of a; ghost is nothing
_REFERENCED = _X + '<array id="a" size="[2]"><domain for="a[0]"> 0 1 </domain></array>'
_REFERENCE_DECLARATIONS = parse_string(_document(_REFERENCED)).declarations
REFERENCES = [(where, vid) for where in ("constraint", "objective", "decision")
              for vid in ("ghost", "a[2]", "a[1]")]


def _referring(where, vid):
    """The document and the hand-built Instance's parts (constraints,
    objective, decision) whose one bad reference is vid, made by where."""
    eq = K.Intension(OpCall("eq", (VarRef("x"), VarRef(vid) if where == "constraint"
                                   else IntConst(0))))
    constraints = (PostedConstraint(eq, id="c"),)
    objective = decision = None
    tail = ""
    if where == "objective":
        objective = K.Objective(K.Sense.MINIMIZE, K.ObjKind.EXPRESSION,
                                expression=OpCall("add", (VarRef("x"), VarRef(vid))))
        tail = _COP.format(f"<minimize> add(x,{vid}) </minimize>")
    if where == "decision":
        decision = ("x", vid)
        tail = f"<annotations><decision> x {vid} </decision></annotations>"
    constraint = f'<intension id="c"> eq(x,{vid if where == "constraint" else 0}) </intension>'
    document = _document(_REFERENCED, constraint, tail,
                         "COP" if objective is not None else "CSP")
    return document, (constraints, objective, decision)


@pytest.mark.parametrize("where,vid", REFERENCES)
def test_a_hand_built_instance_fails_as_its_document_does(where, vid):
    document, parts = _referring(where, vid)
    with pytest.raises(ParseError) as built:
        Instance(_REFERENCE_DECLARATIONS, *parts)
    rule = {"ghost": "unknown-variable", "a[2]": "index-range", "a[1]": "undefined-useful"}[vid]
    assert (type(built.value), built.value.rule) == (ParseError, rule)
    assert str(built.value).startswith("decision annotation" if where == "decision" else where)
    if (where, vid) == ("decision", "a[2]"):
        # the decision's token reader rejects this cell first, naming its element
        assert str(built.value) == ("decision annotation references 'a[2]', no cell of "
                                    "array a[2] [rule: index-range]")
        return
    with pytest.raises(ParseError) as parsed:
        parse_string(document)
    assert (type(parsed.value), str(parsed.value)) == (ParseError, str(built.value))


def test_references_are_checked_constraints_first_then_objective_then_decision():
    eq = PostedConstraint(K.Intension(OpCall("eq", (VarRef("x"), VarRef("ghost")))))
    objective = K.Objective(K.Sense.MINIMIZE, K.ObjKind.SUM, operands=(VarRef("a[1]"),))
    for parts, first in [(((eq,), objective, ("a[2]",)), "constraint #0"),
                         (((), objective, ("a[2]",)), "objective"),
                         (((), None, ("a[2]",)), "decision annotation")]:
        with pytest.raises(ParseError, match=f"^{re.escape(first)} "):
            Instance(_REFERENCE_DECLARATIONS, *parts)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.xml")), ids=lambda p: p.name)
def test_every_fixture_rebuilt_from_its_parts_equals_the_parsed_instance(path):
    parsed = parse_string(path.read_text(encoding="utf-8"))
    assert Instance(parsed.declarations, parsed.constraints, parsed.objective,
                    parsed.decision) == parsed
