"""Group and slide expansion: meta-constraints must equal their hand-expanded twins."""

import itertools
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from xcsp3core import kinds as K, parser
from xcsp3core.canonical import instances_equivalent
from xcsp3core.errors import ParseError
from xcsp3core.expr import VarRef
from xcsp3core.parser import ParserConfig, _ConstraintReader, parse_file, parse_string, read_xml

from conftest import fixture_path
from mutants import outcome

TWIN_PAIRS = [
    ("group_g.xml", "group_g_expanded.xml"),
    ("group_h.xml", "group_h_expanded.xml"),
    ("slide_c1.xml", "slide_c1_expanded.xml"),
    ("slide_c2.xml", "slide_c2_expanded.xml"),
    ("slide_c3.xml", "slide_c3_expanded.xml"),
    ("slide_c4.xml", "slide_c4_expanded.xml"),
    ("latin_group.xml", "latin_expanded.xml"),
]


@pytest.mark.parametrize("compact,expanded", TWIN_PAIRS)
def test_expansion_equals_hand_expansion(compact, expanded):
    a = parse_file(fixture_path(compact))
    b = parse_file(fixture_path(expanded))
    assert instances_equivalent(a, b)


def test_group_members_inherit_indexed_ids():
    inst = parse_file(fixture_path("group_g.xml"))
    assert [p.id for p in inst.constraints] == ["g[0]", "g[1]", "g[2]"]


def test_slide_members_inherit_indexed_ids():
    inst = parse_file(fixture_path("slide_c2.xml"))
    assert [p.id for p in inst.constraints] == [f"c2[{k}]" for k in range(4)]


def wrap(constraints, extra_vars=""):
    return (f'<instance format="XCSP3" type="CSP"><variables>'
            f'<array id="x" size="[6]"> 0..3 </array>{extra_vars}</variables>'
            f"<constraints>{constraints}</constraints></instance>")


def test_group_substitutes_by_parameter_number():
    text = wrap("<group><intension> eq(%1,%0) </intension>"
                "<args> x[0] 2 </args><args> x[1] x[2] </args></group>")
    inst = parse_string(text)
    kinds = [p.kind for p in inst.constraints]
    assert all(isinstance(k, K.Intension) for k in kinds)
    assert kinds[0].function == parse_string(
        wrap("<intension> eq(2,x[0]) </intension>")).constraints[0].kind.function


def test_group_arity_too_few_tokens():
    text = wrap("<group><intension> eq(%0,%1) </intension><args> x[0] </args></group>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "group-arity"


def test_group_arity_too_many_tokens():
    text = wrap("<group><intension> eq(%0,%1) </intension>"
                "<args> x[0] x[1] x[2] </args></group>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "group-arity"


def test_group_rest_forbidden_inside_expression():
    text = wrap("<group><intension> eq(add(%...),0) </intension>"
                "<args> x[0] x[1] </args></group>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "rest-placement"


def test_group_rest_collects_tail_arguments():
    text = wrap("<group><sum><list> %... </list><condition> (eq,%0) </condition></sum>"
                "<args> 6 x[0] x[1] x[2] </args></group>")
    inst = parse_string(text)
    kind = inst.constraints[0].kind
    assert isinstance(kind, K.Sum)
    assert len(kind.terms) == 3


def test_group_rest_requires_minimum_arity():
    text = wrap("<group><sum><list> %... </list><condition> (eq,%1) </condition></sum>"
                "<args> 6 </args></group>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "group-arity"


def test_group_template_must_be_constraint():
    text = wrap("<group><list> %0 </list><args> x[0] </args></group>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "group-template"


def test_group_needs_args():
    text = wrap("<group><intension> eq(%0,0) </intension></group>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "group-shape"


def test_slide_window_and_offset():
    text = wrap('<slide><list offset="2"> x[] </list>'
                "<intension> ne(%0,%1) </intension></slide>")
    inst = parse_string(text)
    assert len(inst.constraints) == 3
    from xcsp3core.expr import free_vars
    assert free_vars(inst.constraints[1].kind.function) == ["x[2]", "x[3]"]


def test_slide_template_not_core():
    text = wrap("<slide><list> x[] </list>"
                "<sum><list> %0 %1 </list><condition> (eq,3) </condition></sum></slide>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "slide-template"


def test_slide_rest_forbidden():
    text = wrap("<slide><list> x[] </list>"
                "<extension><list> %... </list><supports> (0,0) </supports>"
                "</extension></slide>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "rest-placement"


def test_slide_collect_must_match_template_arity():
    text = wrap('<slide><list collect="3"> x[] </list>'
                "<intension> ne(%0,%1) </intension></slide>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "slide-arity"


def test_slide_lists_must_agree_on_member_count():
    text = wrap('<slide><list collect="1"> x[0] x[1] x[2] </list>'
                '<list collect="1"> x[3] x[4] </list>'
                "<intension> ne(%0,%1) </intension></slide>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "slide-length"


def test_slide_list_shorter_than_window():
    text = wrap("<slide><list> x[0] </list>"
                "<intension> ne(%0,%1) </intension></slide>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "slide-length"


def test_circular_slide_wraps_around():
    text = wrap('<slide circular="true"><list> x[0] x[1] x[2] x[3] </list>'
                "<intension> ne(%0,%1) </intension></slide>")
    inst = parse_string(text)
    assert len(inst.constraints) == 4
    last = inst.constraints[-1].kind
    assert isinstance(last, K.Intension)
    # the final member pairs the last variable with the first
    from xcsp3core.expr import free_vars
    assert free_vars(last.function) == ["x[3]", "x[0]"]


def test_circular_slide_wider_window_starts_at_every_position():
    text = wrap('<slide circular="true"><list> x[0] x[1] x[2] x[3] x[4] </list>'
                "<intension> ne(add(%0,%1),%2) </intension></slide>")
    inst = parse_string(text)
    from xcsp3core.expr import free_vars
    assert [free_vars(p.kind.function) for p in inst.constraints] == [
        [f"x[{(i + t) % 5}]" for t in range(3)] for i in range(5)]


def test_circular_slide_takes_single_list():
    text = wrap('<slide circular="true"><list> x[0] x[1] </list>'
                "<list> x[2] x[3] </list><intension> ne(%0,%1) </intension></slide>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "slide-circular"


def test_slide_two_lists_with_collect():
    # pairs (x[i], x[i+1]) from the first list with one variable of the second
    text = ('<instance format="XCSP3" type="CSP"><variables>'
            '<array id="x" size="[5]"> 0..3 </array>'
            '<array id="y" size="[2]"> 0..3 </array></variables>'
            '<constraints><slide id="s">'
            '<list offset="2" collect="2"> x[] </list>'
            '<list> y[] </list>'
            "<intension> eq(add(%0,%1),%2) </intension>"
            "</slide></constraints></instance>")
    inst = parse_string(text)
    assert len(inst.constraints) == 2
    from xcsp3core.expr import free_vars
    assert free_vars(inst.constraints[0].kind.function) == ["x[0]", "x[1]", "y[0]"]
    assert free_vars(inst.constraints[1].kind.function) == ["x[2]", "x[3]", "y[1]"]


# -- templates read once --------------------------------------------------------------
#
# An intension template that reads with a variable for each %k operand is
# read once and each member built with its tokens' leaves in those places
# (_ConstraintReader._binding); any other template, and any member with a
# token that is no leaf, is expanded by substituting the text. The bound
# route must give what the text route gives: the same instance, or the
# same error.

def _outcome(text, strict=True, bound=True):
    """mutants.outcome of text; bound=False expands every template as text."""
    with mock.patch.object(_ConstraintReader, "_binding",
                           _ConstraintReader._binding if bound else lambda self, template: None):
        return outcome(text, strict)


def _group(template, members, attrs=' id="g"'):
    args = "".join(f"<args> {' '.join(tokens)} </args>" for tokens in members)
    return wrap(f"<group{attrs}>{template}{args}</group>", '<var id="y"> 0..3 </var>')


# Tokens of each kind: leaves, and the tokens that are no leaf and so send
# their member to the text route (a keyword, an integer of 19 characters
# or more, a compound, a %, and tokens that fail wherever they stand).
LEAF_TOKENS = ["x[0]", "x[5]", "y", "0", "-3", "+4", "007", "x[9]", "z", "x[1][0]", "x"]
OTHER_TOKENS = ["add", "others", "set", "1234567890123456789", "-123456789012345678901",
                "add(x[0],1)", "set(1,2)", "%0", "%", "3x", "x(", "x[0]y", "x[a]"]
# Templates that cannot be read with a variable for each %k operand (a
# parameter inside a token, or a variable where the grammar wants a set or
# an integer), each read as text instead.
UNREAD_TEMPLATES = ["eq(x[%0],1)", "eq(%0[1],1)", "eq(%1x,%0)", "in(x[0],set(%0))",
                    "in(x[0],%0)", "eq(%0,add(%1,%...))", "%0(x[0],1)", "eq(%0,%a)"]


@pytest.mark.parametrize("template", UNREAD_TEMPLATES)
def test_a_template_that_template_mode_cannot_read_is_expanded_as_text(template):
    text = _group(f"<intension> {template} </intension>", [["x[0]", "1"], ["set(1,2)", "2"]])
    reader = _ConstraintReader(ParserConfig(), {}, set())
    assert reader._binding(read_xml(f"<intension> {template} </intension>")) is None
    assert _outcome(text) == _outcome(text, bound=False)


@pytest.mark.parametrize("token", LEAF_TOKENS + OTHER_TOKENS)
def test_each_token_binds_as_its_text_reads(token):
    for template in ("ne(%0,add(%1,2))", "<function>in(%1,set(1,2))</function>"):
        text = _group(f"<intension> {template} </intension>",
                      [["x[1]", "x[2]"], [token, "x[3]"], ["x[4]", token]])
        assert _outcome(text) == _outcome(text, bound=False)


def test_members_share_the_parameter_free_subtrees_of_their_template():
    text = _group("<intension> ne(%0,add(y,1)) </intension>", [["x[0]"], ["x[1]"]])
    first, second = (p.kind.function for p in parse_string(text).constraints)
    assert first.args[1] is second.args[1]
    assert (first.args[0], second.args[0]) == (VarRef("x[0]"), VarRef("x[1]"))


_LEAF = st.sampled_from(["%0", "%1", "%2", "%3", "x[0]", "x[3]", "y", "5", "-2",
                         "x[%0]", "%0[1]", "%1x", "set(%0)", "add"])
_EXPR = st.recursive(_LEAF, lambda inner: st.one_of(
    st.builds(lambda op, args: f"{op}({','.join(args)})",
              st.sampled_from(["add", "sub", "ne", "eq", "le", "not", "abs", "if", "max", "mul"]),
              st.lists(inner, min_size=0, max_size=4)),
    st.builds(lambda e, s: f"in({e},{s})", inner, st.sampled_from(["set(1,2)", "%1", "set()"])),
), max_leaves=8)


@st.composite
def _documents(draw):
    expression = draw(_EXPR)
    template = draw(st.sampled_from([
        "<intension> {} </intension>", "<intension><function> {} </function></intension>",
        '<intension note="n" class="c"> {} </intension>', '<intension foo="1"> {} </intension>',
        "<intension><list> {} </list></intension>"])).format(expression)
    highest = max(map(int, re.findall(r"%([0-9]+)", expression)), default=-1)
    tokens = st.sampled_from(LEAF_TOKENS + OTHER_TOKENS)
    if draw(st.booleans()):
        width = highest + 1 + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
        members = draw(st.lists(st.lists(tokens, min_size=max(width, 0), max_size=max(width, 0)),
                                min_size=1, max_size=4))
        attrs = draw(st.sampled_from([' id="g"', "", ' class="c"']))
        return _group(template, members, attrs)
    lists = draw(st.sampled_from(["<list> x[] </list>", '<list offset="2"> x[] </list>',
                                  "<list> x[0] y x[2] </list>"]))
    circular = draw(st.sampled_from(["", ' circular="true"']))
    return wrap(f'<slide id="s"{circular}>{lists}{template}</slide>', '<var id="y"> 0..3 </var>')


@settings(max_examples=400, deadline=None)
@given(_documents(), st.booleans())
def test_bound_expansion_equals_text_expansion(text, strict):
    assert _outcome(text, strict) == _outcome(text, strict, bound=False)



# -- shapes and templates read once per document ---------------------------------------
#
# A flat expression whose shape (its text but for its operand leaves) was met
# earlier in the document is built from that shape's tree, an operand alone
# being the shape of one leaf (_ConstraintReader._read_expr); sibling groups
# that share a template read it once (_ConstraintReader._template). With the
# reuse turned off, every text is parsed and every template read afresh:
# every outcome must be the same either way.

def _parsed(self, text, path):
    if "%" in text:  # the reader's own parameter error
        return _read_expr(self, text, path)
    return parser.parse_expr(text, path)


def _template_afresh(self, template):
    self.templates.clear()
    return _template(self, template)


_read_expr, _template = _ConstraintReader._read_expr, _ConstraintReader._template


def _reused_outcome(text, strict=True, reuse=True):
    """mutants.outcome of text; reuse=False parses every expression and
    reads every template as if it were the first of its text."""
    if reuse:
        return outcome(text, strict)
    with mock.patch.object(_ConstraintReader, "_read_expr", _parsed), \
            mock.patch.object(_ConstraintReader, "_template", _template_afresh):
        return outcome(text, strict)


# A shape: an expression whose operand leaves are {} slots to fill, set
# literal members included; of the right arities but for mul's.
_ARITY = {"not": 1, "abs": 1, "sub": 2, "ne": 2, "le": 2, "add": 3, "max": 2, "if": 3, "mul": 1}


def _calls(inner):
    return st.sampled_from(sorted(_ARITY)).flatmap(lambda op: st.lists(
        inner, min_size=_ARITY[op], max_size=_ARITY[op]).map(
            lambda args: f"{op}({','.join(args)})"))


_SHAPE = st.recursive(st.just("{}"), lambda inner: st.one_of(
    _calls(inner),
    st.builds(lambda e, n: f"in({e},set({','.join(['{}'] * n)}))", inner, st.integers(0, 3)),
), max_leaves=6)
_DECLARED = ["x[0]", "x[5]", "y", "0", "-3", "+4", "007"]  # the leaves that read and resolve
_FILLER = st.sampled_from(_DECLARED * 6 + LEAF_TOKENS + OTHER_TOKENS
                          + ["set(1,2)", "set()", "in(y,set(1))"])
_HOLDERS = ["<intension> {} </intension>", "<intension><function> {} </function></intension>",
            "<allDifferent> {} x[1] </allDifferent>",
            "<sum><list> {} y </list><condition> (ge,0) </condition></sum>"]


@st.composite
def _flat_documents(draw):
    shapes = st.sampled_from(draw(st.lists(_SHAPE, min_size=1, max_size=3)))

    def text():
        shape = draw(shapes)
        n = shape.count("{}")
        return shape.format(*draw(st.lists(_FILLER, min_size=n, max_size=n)))
    constraints = [draw(st.sampled_from(_HOLDERS)).format(text())
                   for _ in range(draw(st.integers(2, 6)))]
    document = wrap("".join(constraints), '<var id="y"> 0..3 </var>')
    if draw(st.booleans()):  # an objective reads through the same memo
        document = document.replace('type="CSP"', 'type="COP"').replace(
            "</instance>", f"<objectives><minimize> {text()} </minimize></objectives></instance>")
    return document


@settings(max_examples=400, deadline=None)
@given(_flat_documents(), st.booleans())
def test_flat_expressions_of_one_shape_read_as_each_text_alone(text, strict):
    assert _reused_outcome(text, strict) == _reused_outcome(text, strict, reuse=False)


# Templates that differ only in their attributes or in where the expression
# stands share their text, so that a memo keyed by too little would mix them.
_TEMPLATE_TEXTS = ["ne(%0,add(%1,2))", "in(%0,set(1,%1))", "eq(x[%0],%1)", "eq(%0,%3)"]
_TEMPLATE_FORMS = ["<intension> {} </intension>", '<intension note="n"> {} </intension>',
                   '<intension foo="1"> {} </intension>', '<intension class="c"> {} </intension>',
                   "<intension><function> {} </function></intension>",
                   "<extension><list> %0 %1 </list><supports> (0,1)(1,2) </supports></extension>"]


@st.composite
def _sibling_groups(draw):
    text = st.sampled_from(_TEMPLATE_TEXTS[:draw(st.integers(1, len(_TEMPLATE_TEXTS)))])
    forms = st.sampled_from(_TEMPLATE_FORMS)
    templates = draw(st.lists(st.builds(str.format, forms, text), min_size=1, max_size=3))
    token = st.sampled_from(_DECLARED * 20 + LEAF_TOKENS + OTHER_TOKENS)
    groups = []
    for g in range(draw(st.integers(2, 5))):
        template = draw(st.sampled_from(templates))
        members = draw(st.lists(st.lists(token, min_size=2, max_size=2), min_size=1, max_size=2))
        args = "".join(f"<args> {' '.join(tokens)} </args>" for tokens in members)
        groups.append(f'<group id="g{g}">{template}{args}</group>')
    return wrap("".join(groups), '<var id="y"> 0..3 </var>')


@settings(max_examples=200, deadline=None)
@given(_sibling_groups(), st.booleans())
def test_sibling_groups_of_one_template_read_as_each_group_alone(text, strict):
    assert _reused_outcome(text, strict) == _reused_outcome(text, strict, reuse=False)


_SIBLING_PAIRS = list(itertools.permutations(
    [form.format("ne(%0,add(%1,2))") for form in _TEMPLATE_FORMS[:5]]
    + ["<intension><function> eq(%0,%1) </function></intension>"], 2))


@pytest.mark.parametrize("first,second", _SIBLING_PAIRS)
def test_sibling_templates_that_differ_outside_their_text(first, second):
    text = wrap(f'<group id="g0">{first}<args> x[0] y </args></group>'
                f'<group id="g1">{second}<args> y x[1] </args><args> 1 2 </args></group>',
                '<var id="y"> 0..3 </var>')
    for strict in (True, False):
        assert _reused_outcome(text, strict) == _reused_outcome(text, strict, reuse=False)


def test_a_repeated_shape_or_template_is_parsed_once():
    n = 50
    flat = wrap("".join(f"<intension> ne(x[{i % 6}],add(y,{i})) </intension>" for i in range(n)),
                '<var id="y"> 0..3 </var>')
    groups = wrap("".join(f'<group id="g{i:03d}"><intension> ne(%0,add(%1,1)) </intension>'
                          f"<args> x[{i % 6}] y </args></group>" for i in range(n)),
                  '<var id="y"> 0..3 </var>')
    for text in (flat, groups):
        with mock.patch("xcsp3core.parser.parse_expr", wraps=parser.parse_expr) as parse:
            instance = parse_string(text)
        assert len(instance.constraints) == n
        assert parse.call_count == 1
        assert instance == parse_string(text.replace("add(y,", "add(y,+"))  # one shape too


# _LEAF_RE cuts each operand leaf, whole, out of an expression's text: a run
# of characters other than ( , ) that names no call. The pattern stays within
# the syntax of every Python the package supports: no possessive quantifier
# and no atomic group, which re reads only from Python 3.11.
@pytest.mark.parametrize("text,leaves", [
    ("add(x[0],mul(y,3))", ["x[0]", "y", "3"]),
    ("in(x,set(1,-2))", ["x", "1", "-2"]),
    ("x[2][3]", ["x[2][3]"]),
    ("not(f(a)b)", ["a", "b"]),
    ("set()", []),
    ("add(,x,,)", ["x"]),
    ("ab(cd(", []),
])
def test_the_leaf_pattern_cuts_whole_runs(text, leaves):
    parts = parser._LEAF_RE.split(text)
    assert parts[1::2] == leaves
    assert "".join(parts) == text
    assert not re.search(r"[+*?}]\+|\(\?>", parser._LEAF_RE.pattern)
