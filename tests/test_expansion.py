"""Group and slide expansion: meta-constraints must equal their hand-expanded twins."""

import pytest

from xcsp3core import kinds as K
from xcsp3core.canonical import instances_equivalent
from xcsp3core.errors import ParseError
from xcsp3core.parser import parse_file, parse_string

from conftest import fixture_path

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
