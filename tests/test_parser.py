"""Instance-level parsing: sections, variables, aliases, strictness."""

import tracemalloc

import pytest

from xcsp3core.errors import ParseError, UnknownElement
from xcsp3core.kinds import Extension, Intension, Sum
from xcsp3core.model import Framework
from xcsp3core.parser import ParserConfig, parse_string


def wrap(variables, constraints, type_="CSP", objectives="", annotations=""):
    return (f'<instance format="XCSP3" type="{type_}">\n'
            f"<variables>{variables}</variables>\n"
            f"<constraints>{constraints}</constraints>\n"
            f"{objectives}{annotations}</instance>")


TRIVIAL = "<intension> eq(0,0) </intension>"


# -- instance envelope ---------------------------------------------------------------

def test_framework_attribute_checked():
    with pytest.raises(ParseError) as err:
        parse_string('<instance format="XCSP2" type="CSP">'
                     "<variables><var id=\"x\"> 0 </var></variables>"
                     "<constraints/></instance>")
    assert err.value.rule == "instance-format"
    with pytest.raises(ParseError) as err:
        parse_string('<instance format="XCSP3" type="WCSP">'
                     "<variables><var id=\"x\"> 0 </var></variables>"
                     "<constraints/></instance>")
    assert err.value.rule == "instance-type"


def test_csp_must_not_carry_objective():
    text = wrap('<var id="x"> 0 1 </var>', TRIVIAL,
                objectives="<objectives><minimize> x </minimize></objectives>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "instance-type"


def test_cop_needs_exactly_one_objective():
    base = '<var id="x"> 0 1 </var>'
    with pytest.raises(ParseError) as err:
        parse_string(wrap(base, TRIVIAL, type_="COP"))
    assert err.value.rule == "objective-count"
    both = ("<objectives><minimize> x </minimize>"
            "<maximize> x </maximize></objectives>")
    with pytest.raises(ParseError) as err:
        parse_string(wrap(base, TRIVIAL, type_="COP", objectives=both))
    assert err.value.rule == "objective-count"


def test_section_order_enforced():
    text = ('<instance format="XCSP3" type="CSP">'
            f"<constraints>{TRIVIAL}</constraints>"
            '<variables><var id="x"> 0 1 </var></variables></instance>')
    with pytest.raises(ParseError):
        parse_string(text)


def test_malformed_xml_reports_rule():
    with pytest.raises(ParseError) as err:
        parse_string("<instance format='XCSP3' type='CSP'><variables>")
    assert err.value.rule == "xml"


# -- variables -----------------------------------------------------------------------

def test_var_list_and_interval_domains():
    inst = parse_string(wrap('<var id="x"> 1 3..5 9 </var><var id="y"> 0..2 </var>',
                             "<intension> ne(x,y) </intension>"))
    assert [v.id for v in inst.variables()] == ["x", "y"]
    assert list(inst.variable("x").domain.values()) == [1, 3, 4, 5, 9]


def test_empty_var_rejected():
    # undefined variables only arise as array cells missed by for= groups
    with pytest.raises(ParseError):
        parse_string(wrap('<var id="x"> 0 1 </var><var id="u"/>', TRIVIAL))


def test_undefined_cell_allowed_when_unused():
    text = wrap('<array id="z" size="[3]">'
                '<domain for="z[0..1]"> 0 1 </domain></array>',
                "<intension> eq(z[0],0) </intension>")
    inst = parse_string(text)
    assert inst.variable("z[2]").domain is None


def test_undefined_useful_variable_rejected():
    text = wrap('<array id="z" size="[3]">'
                '<domain for="z[0..1]"> 0 1 </domain></array>',
                "<intension> eq(z[2],0) </intension>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "undefined-useful"


def test_arrays_flatten_row_major():
    inst = parse_string(wrap('<array id="x" size="[2][3]"> 0..4 </array>', TRIVIAL))
    arr = inst.arrays_by_id["x"]
    assert arr.size == (2, 3)
    assert arr.cell((1, 2)).id == "x[1][2]"
    assert [v.id for v in inst.variables()][:3] == ["x[0][0]", "x[0][1]", "x[0][2]"]


def test_array_size_must_be_positive():
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<array id="x" size="[0]"> 0 1 </array>', TRIVIAL))
    assert err.value.rule == "array-size"


def test_array_domain_groups():
    text = wrap('<array id="z" size="[10]">'
                '<domain for="z[0..4]"> 1..10 </domain>'
                '<domain for="z[6..9]"> 1..20 </domain>'
                "</array>", TRIVIAL)
    inst = parse_string(text)
    arr = inst.arrays_by_id["z"]
    assert arr.cell((0,)).domain.max_value == 10
    assert arr.cell((9,)).domain.max_value == 20
    assert arr.cell((5,)).domain is None


def test_array_domain_others():
    text = wrap('<array id="z" size="[4]">'
                '<domain for="z[0]"> 0 1 </domain>'
                '<domain for="others"> 5..8 </domain>'
                "</array>", TRIVIAL)
    inst = parse_string(text)
    arr = inst.arrays_by_id["z"]
    assert list(arr.cell((0,)).domain.values()) == [0, 1]
    assert arr.cell((3,)).domain.min_value == 5


def test_others_must_come_last():
    text = wrap('<array id="z" size="[4]">'
                '<domain for="others"> 5..8 </domain>'
                '<domain for="z[0]"> 0 1 </domain>'
                "</array>", TRIVIAL)
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "for-others"


def test_overlapping_for_groups_rejected():
    text = wrap('<array id="z" size="[4]">'
                '<domain for="z[0..2]"> 0 1 </domain>'
                '<domain for="z[2..3]"> 3 4 </domain>'
                "</array>", TRIVIAL)
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "for-overlap"


def test_for_tokens_select_row_major_cells():
    text = wrap('<array id="z" size="[2][3]">'
                '<domain for="z[1][] z[0][0]"> 0 1 </domain>'
                '<domain for="others"> 5..8 </domain>'
                "</array>", TRIVIAL)
    inst = parse_string(text)
    assert [v.id for v in inst.variables() if v.domain.max_value == 1] == [
        "z[0][0]", "z[1][0]", "z[1][1]", "z[1][2]"]


@pytest.mark.parametrize("token", [
    "y[0][0]",      # unknown array name
    "z[0]",         # wrong slot count
    "z[a][0]",      # bad slot
    "z[0][3]",      # index out of range
    "z[3..1][0]",   # empty range
])
def test_bad_for_token_rejected(token):
    text = wrap(f'<array id="z" size="[2][3]"><domain for="{token}"> 0 1 </domain>'
                "</array>", TRIVIAL)
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "for-target"
    assert err.value.path == "/instance/variables/array"


def test_duplicate_variable_id():
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<var id="x"> 0 </var><var id="x"> 1 </var>', TRIVIAL))
    assert err.value.rule == "duplicate-id"


# -- aliases -------------------------------------------------------------------------

def test_alias_copies_domain():
    inst = parse_string(wrap('<var id="x0"> 2 4 6 </var><var id="x2" as="x0"/>',
                             TRIVIAL))
    assert inst.variable("x2").domain == inst.variable("x0").domain


def test_alias_on_array_reuses_shape():
    text = wrap('<array id="a" size="[2]"> 0..3 </array>'
                '<array id="b" size="[2]" as="a"/>', TRIVIAL)
    inst = parse_string(text)
    assert inst.arrays_by_id["b"].cell((1,)).domain.max_value == 3


MIXED = ('<array id="x" size="[4]"><domain for="x[0..1]"> 0..1 </domain>'
         '<domain for="others"> 5..6 </domain></array>')


def test_alias_copies_cell_domains_index_by_index():
    inst = parse_string(wrap(MIXED + '<array id="y" as="x" size="[4]"/>', TRIVIAL))
    x, y = inst.arrays_by_id["x"], inst.arrays_by_id["y"]
    assert [c.domain for c in y.cells] == [c.domain for c in x.cells]
    assert [c.domain.max_value for c in y.cells] == [1, 1, 6, 6]


@pytest.mark.parametrize("target", [
    '<array id="x" size="[4]"> 0..3 </array>',
    '<array id="x" size="[4]"><domain for="x[0..1]"> 0..3 </domain>'
    '<domain for="others"> 0..3 </domain></array>',
])
@pytest.mark.parametrize("size", ["[4]", "[2][3]", "[1]"])
def test_alias_of_cells_sharing_one_domain_takes_any_size(target, size):
    inst = parse_string(wrap(f'{target}<array id="y" as="x" size="{size}"/>', TRIVIAL))
    y = inst.arrays_by_id["y"]
    assert y.size == tuple(int(n) for n in size[1:-1].split("]["))
    assert {c.domain.items for c in y.cells} == {((0, 3),)}


@pytest.mark.parametrize("size", ["[5]", "[2][2]"])
def test_alias_of_cells_differing_in_domain_needs_the_same_size(size):
    with pytest.raises(ParseError) as err:
        parse_string(wrap(MIXED + f'<array id="y" as="x" size="{size}"/>', TRIVIAL))
    assert (err.value.rule, err.value.path) == ("alias-size", "/instance/variables/array[2]")


def test_alias_errors():
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<var id="x" as="ghost"/>', TRIVIAL))
    assert err.value.rule == "alias-target"
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<var id="x" as="y"/><var id="y"> 0 1 </var>', TRIVIAL))
    assert err.value.rule == "alias-order"
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<var id="x"> 0 1 </var><var id="y" as="x"/>'
                          '<var id="z" as="y"/>', TRIVIAL))
    assert err.value.rule == "alias-chain"
    with pytest.raises(ParseError):
        # aliased elements must have no content of their own
        parse_string(wrap('<var id="x"> 0 1 </var><var id="y" as="x"> 2 </var>',
                          TRIVIAL))


def test_alias_forbidden_on_constraints():
    text = wrap('<var id="x"> 0 1 </var>',
                '<intension id="c"> eq(x,0) </intension>'
                '<intension as="c"/>')
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "alias-element"


# -- constraints section -------------------------------------------------------------

def test_unknown_constraint_strict_vs_lenient():
    text = wrap('<var id="x"> 0 1 </var>',
                "<regular8> x </regular8>" + TRIVIAL)
    with pytest.raises(UnknownElement):
        parse_string(text)
    inst = parse_string(text, ParserConfig(strict=False))
    assert len(inst.constraints) == 1
    assert isinstance(inst.constraints[0].kind, Intension)


@pytest.mark.parametrize("structure,rule", [
    ('<group id="g"><regular8> %0 </regular8><args> x </args><args> y </args></group>',
     "group-template"),
    ('<slide id="g"><list> x y </list><sum><list> %0 %1 </list>'
     "<condition> (eq,1) </condition></sum></slide>", "slide-template"),
], ids=["group", "slide"])
def test_lenient_skips_group_or_slide_with_non_core_template(structure, rule):
    text = wrap('<var id="x"> 0 1 </var><var id="y"> 0 1 </var>', structure + TRIVIAL)
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == rule
    inst = parse_string(text, ParserConfig(strict=False))
    assert len(inst.constraints) == 1
    assert isinstance(inst.constraints[0].kind, Intension)
    # the skipped structure keeps its id
    with pytest.raises(ParseError) as err:
        parse_string(text.replace("<intension>", '<intension id="g">'),
                     ParserConfig(strict=False))
    assert err.value.rule == "duplicate-id"


def test_drop_class_removes_tagged_constraints():
    text = wrap('<var id="x"> 0 1 </var>',
                '<intension class="redundant"> eq(x,0) </intension>' + TRIVIAL)
    inst = parse_string(text)
    assert len(inst.constraints) == 2
    inst = parse_string(text, ParserConfig(drop_classes=frozenset({"redundant"})))
    assert len(inst.constraints) == 1


def test_block_classes_accumulate():
    text = wrap('<var id="x"> 0 1 </var>',
                '<block class="clues"><block class="week1">'
                '<intension> eq(x,0) </intension>'
                "</block></block>")
    inst = parse_string(text)
    assert set(inst.constraints[0].classes) == {"clues", "week1"}


def test_constraint_references_validated():
    text = wrap('<var id="x"> 0 1 </var>', "<intension> eq(ghost,0) </intension>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "unknown-variable"


def test_duplicate_constraint_id():
    text = wrap('<var id="x"> 0 1 </var>',
                '<intension id="c"> eq(x,0) </intension>'
                '<intension id="c"> ne(x,1) </intension>')
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "duplicate-id"


def test_strict_id_prefix_rule_for_arrays():
    # an array id that prefixes another id breaks compact-token resolution
    text = wrap('<array id="x" size="[2]"> 0 1 </array><var id="x2"> 0 </var>',
                TRIVIAL)
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "id-prefix"
    assert parse_string(text, ParserConfig(strict=False)) is not None


def test_strict_id_prefix_rule_for_groups():
    # a group id that prefixes a constraint id would clash with member ids g[k]
    text = wrap('<var id="x"> 0 1 </var>',
                '<group id="g"><intension> eq(%0,0) </intension><args> x </args></group>'
                '<intension id="g1"> eq(x,1) </intension>')
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "id-prefix"
    assert parse_string(text, ParserConfig(strict=False)) is not None


def test_attribute_whitespace_rejected_everywhere():
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<var id=" x"> 0 1 </var>', TRIVIAL))
    assert err.value.rule == "attribute-whitespace"
    with pytest.raises(ParseError) as err:
        parse_string(wrap('<var id="x "> 0 1 </var>', TRIVIAL))
    assert err.value.rule == "attribute-whitespace"


def test_element_text_padding_tolerated():
    inst = parse_string(wrap('<var id="x">   0 1   </var>',
                             "<intension>\n   eq(x,0)\n  </intension>"))
    assert isinstance(inst.constraints[0].kind, Intension)


X3 = '<array id="x" size="[3]"> 0..9 </array>'
REPEATS = [
    (wrap(X3, "<instantiation><list> x[] </list><values> 1x5000000 </values>"
              "</instantiation>"), "instantiation-count"),
    (wrap(X3, "<sum><list> x[] </list><coeffs> 2 1x5000000 </coeffs>"
              "<condition> (le,9) </condition></sum>"), "coeffs-count"),
    (wrap(X3, TRIVIAL, type_="COP", objectives=(
        '<objectives><minimize type="sum"><list> x[] </list>'
        "<coeffs> 1x5000000 </coeffs></minimize></objectives>")), "objective-shape"),
]


@pytest.mark.parametrize("text,rule", REPEATS, ids=[r for _, r in REPEATS])
def test_repeat_past_its_slot_fails_before_expanding(text, rule):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_string(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.rule == rule
    assert peak < 5_000_000  # the 5,000,000 values alone would take 40 MB


# -- extension specifics -------------------------------------------------------------

def test_extension_tuples_and_stars():
    text = wrap('<var id="x"> 0 1 </var><var id="y"> 0 1 </var>',
                "<extension><list> x y </list>"
                "<supports> (0,*)(1,1) </supports></extension>")
    inst = parse_string(text)
    kind = inst.constraints[0].kind
    assert isinstance(kind, Extension) and kind.positive


def test_extension_table_order_checked_when_strict():
    text = wrap('<var id="x"> 0..3 </var><var id="y"> 0..3 </var>',
                "<extension><list> x y </list>"
                "<supports> (1,1)(0,0) </supports></extension>")
    with pytest.raises(ParseError):
        parse_string(text)
    assert parse_string(text, ParserConfig(strict=False)) is not None


def test_extension_arity_mismatch():
    text = wrap('<var id="x"> 0 1 </var><var id="y"> 0 1 </var>',
                "<extension><list> x y </list>"
                "<supports> (0,0,0) </supports></extension>")
    with pytest.raises(ParseError):
        parse_string(text)


def test_unary_extension_uses_domain_form():
    text = wrap('<var id="x"> 0..9 </var>',
                "<extension><list> x </list>"
                "<supports> 1 3..5 </supports></extension>")
    kind = parse_string(text).constraints[0].kind
    assert isinstance(kind, Extension)
    assert kind.unary is not None and kind.unary.contains(4)


# -- objectives and annotations ------------------------------------------------------

def test_sum_objective_with_bare_list():
    text = wrap('<var id="x"> 0..5 </var><var id="y"> 0..5 </var>', TRIVIAL,
                type_="COP",
                objectives="<objectives><minimize type=\"sum\"> x y "
                           "</minimize></objectives>")
    obj = parse_string(text).objective
    assert obj is not None and obj.coeffs is None and len(obj.operands) == 2


def test_objective_scope_validated():
    text = wrap('<var id="x"> 0..5 </var>', TRIVIAL, type_="COP",
                objectives="<objectives><minimize> ghost </minimize></objectives>")
    with pytest.raises(ParseError) as err:
        parse_string(text)
    assert err.value.rule == "unknown-variable"


def test_decision_annotation():
    text = wrap('<array id="x" size="[3]"> 0 1 </array>', TRIVIAL,
                annotations="<annotations><decision> x[] </decision></annotations>")
    inst = parse_string(text)
    assert inst.decision == ("x[0]", "x[1]", "x[2]")


def test_unknown_annotation_strict_vs_lenient():
    text = wrap('<var id="x"> 0 1 </var>', TRIVIAL,
                annotations="<annotations><viewer> x </viewer></annotations>")
    with pytest.raises(UnknownElement):
        parse_string(text)
    assert parse_string(text, ParserConfig(strict=False)).decision is None
