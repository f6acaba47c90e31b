"""Canonical flat form: deterministic output that reparses to the same instance."""

import os
import random
import subprocess
import sys
from pathlib import Path
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES
from test_kinds import CASES, DECLARATIONS
from xcsp3core.canonical import escape, instances_equivalent, quoteattr, render_instance
from xcsp3core.parser import parse_file, parse_string

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.xml"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_round_trips(name):
    inst = parse_file(FIXTURES / name)
    again = parse_string(render_instance(inst))
    assert instances_equivalent(inst, again)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_render_is_idempotent(name):
    inst = parse_file(FIXTURES / name)
    once = render_instance(inst)
    assert render_instance(parse_string(once)) == once


def test_rendered_form_is_flat():
    # groups and slides come out as their expanded members
    text = render_instance(parse_file(FIXTURES / "slide_c2.xml"))
    assert "<slide" not in text and "<group" not in text
    assert 'id="c2_0"' in text


def test_group_ids_export_with_underscores():
    text = render_instance(parse_file(FIXTURES / "group_g.xml"))
    for k in range(3):
        assert f'id="g_{k}"' in text


def test_equivalence_ignores_id_spelling():
    a = parse_file(FIXTURES / "group_g.xml")          # ids g[0], g[1], g[2]
    b = parse_file(FIXTURES / "group_g_expanded.xml")  # ids g_0, g_1, g_2
    assert instances_equivalent(a, b)
    assert [p.id for p in a.constraints] != [p.id for p in b.constraints]


def test_equivalence_sees_note_free_differences():
    a = parse_string('<instance format="XCSP3" type="CSP"><variables>'
                     '<var id="x"> 0 1 </var></variables><constraints>'
                     "<intension> eq(x,0) </intension></constraints></instance>")
    b = parse_string('<instance format="XCSP3" type="CSP"><variables>'
                     '<var id="x"> 0 1 </var></variables><constraints>'
                     "<intension> eq(x,1) </intension></constraints></instance>")
    assert not instances_equivalent(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_random_instances_round_trip(seed):
    rng = random.Random(seed)
    inst = parse_string(oracles.random_instance_xml(rng))
    again = parse_string(render_instance(inst))
    assert instances_equivalent(inst, again)


@given(st.text(alphabet="ab &<>\"'\n\r\t\u00e9;#"))
def test_escaping_matches_saxutils(text):
    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


def test_package_import_skips_urllib():
    # xml.sax.saxutils would pull in urllib.request, http and ssl
    code = ("import sys, xcsp3core, xcsp3core.cli; "
            "print('urllib.request' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


# -- the writer's bytes ------------------------------------------------------------
#
# The exact text render_instance gives for every kind case of test_kinds and for
# each special case of the layout: fields left at their default, unit sum
# coefficients, supports and conflicts, element targets, one <list> per list,
# attributes, and a lone <list> or <function> written as the element's text.

GOLDEN_VARIANTS = [
    '<intension id="c1" class="p q" note="a &lt; b &amp; &quot;c&quot;"> eq(a,b) '
    "</intension>",
    "<intension><function> in(a,set(1,2)) </function></intension>",
    '<group id="g" class="k"><intension> lt(%0,%1) </intension>'
    "<args> a b </args><args> c d </args></group>",
    "<extension><list> a b </list><conflicts> (0,0)(1,*) </conflicts></extension>",
    "<extension><list> a b </list><supports/></extension>",
    "<extension><list> a </list><supports> 0 2..3 </supports></extension>",
    "<extension><list> a </list><conflicts> 1 </conflicts></extension>",
    "<extension><list> a </list><supports/></extension>",
    "<allDifferent><list> a b add(c,1) </list><except> 0 2 </except></allDifferent>",
    "<allDifferent><list> a b </list><list> c d </list><except> (0,0)(1,2) </except>"
    "</allDifferent>",
    "<allEqual><list> a b </list></allEqual>",
    "<ordered><list> a b c </list><operator> gt </operator></ordered>",
    "<sum><list> a mul(b,2) 3 </list><condition> (in,{1,2}) </condition></sum>",
    "<sum><list> a b </list><coeffs> 1x2 </coeffs><condition> (notin,1..2) </condition>"
    "</sum>",
    "<sum><list> a b c </list><coeffs> 2x2 -1 </coeffs><condition> (eq,-3) </condition>"
    "</sum>",
    "<sum><list> a b </list><condition> (in,set(0,4)) </condition></sum>",
    "<nValues><list> a b c </list><except> 0 </except><condition> (ge,2) </condition>"
    "</nValues>",
    '<cardinality><list> a b </list><values closed="true"> 0 1 </values>'
    "<occurs> 1 c </occurs></cardinality>",
    "<element><list> a b </list><index> c </index><value> 2 </value></element>",
    "<element><list> a b </list><index> c </index><condition> (gt,d) </condition>"
    "</element>",
    "<element><list> 3 1 2 </list><index> b </index><condition> (le,2) </condition>"
    "</element>",
    "<element><matrix> (1,2)(3,4) </matrix><index> a b </index><value> c </value>"
    "</element>",
    "<element><matrix> m[][] </matrix><index> a b </index><value> c </value></element>",
    "<channel><list> a b c </list></channel>",
    '<noOverlap zeroIgnored="false"><origins> a b </origins><lengths> 1 c </lengths>'
    "</noOverlap>",
    '<noOverlap zeroIgnored="false"><origins> (a,b)(c,d) </origins>'
    "<lengths> (1,e)(0,2) </lengths></noOverlap>",
    '<noOverlap zeroIgnored="true"><origins> a b </origins><lengths> 1 2 </lengths>'
    "</noOverlap>",
    "<circuit> a b c </circuit>",
    "<circuit><list> a b c </list></circuit>",
    "<circuit><list> x[] </list><size> 2 </size></circuit>",
    "<instantiation><list> a b c d </list><values> 1x2 * 0 </values></instantiation>",
    "<regular><list> a b </list><transitions> (q,0,r)(r,1,s)(r,2,t) </transitions>"
    "<start> q </start><final> s t </final></regular>",
    "<lex><list> a b </list><list> c d </list><list> e a </list>"
    "<operator> ge </operator></lex>",
    "<minimum><list> a b </list><condition> (in,{}) </condition></minimum>",
]

GOLDEN_DECLARATIONS = DECLARATIONS + '<array id="m" size="[2][2]"> 0..3 </array>'

GOLDEN_TEXT = """\
<instance format="XCSP3" type="CSP">
  <variables>
    <var id="a">0..3</var>
    <var id="b">0..3</var>
    <var id="c">0..3</var>
    <var id="d">0..3</var>
    <var id="e">0..3</var>
    <array id="x" size="[3]">0..2</array>
    <array id="m" size="[2][2]">0..3</array>
  </variables>
  <constraints>
    <intension>eq(add(b,a),mul(b,2))</intension>
    <extension>
      <list>c a</list>
      <supports>(0,1)(1,*)</supports>
    </extension>
    <regular>
      <list>c b</list>
      <transitions>(a,0,d)(d,1,e)</transitions>
      <start>a</start>
      <final>e</final>
    </regular>
    <mdd>
      <list>c b</list>
      <transitions>(a,0,d)(a,1,d)(d,1,e)</transitions>
    </mdd>
    <allDifferent>c add(a,c) b</allDifferent>
    <allDifferent>
      <list>b a</list>
      <list>a c</list>
    </allDifferent>
    <allDifferent>
      <matrix>(b,a)(c,b)</matrix>
    </allDifferent>
    <allEqual>c b c</allEqual>
    <ordered>
      <list>b a c</list>
      <lengths>d 1</lengths>
      <operator>le</operator>
    </ordered>
    <lex>
      <list>b a</list>
      <list>c b</list>
      <operator>le</operator>
    </lex>
    <lex>
      <matrix>(b,a)(c,d)</matrix>
      <operator>lt</operator>
    </lex>
    <sum>
      <list>b a</list>
      <coeffs>e 2</coeffs>
      <condition>(le,a)</condition>
    </sum>
    <count>
      <list>b add(a,c)</list>
      <values>d 1</values>
      <condition>(ge,e)</condition>
    </count>
    <nValues>
      <list>c b c</list>
      <condition>(eq,a)</condition>
    </nValues>
    <cardinality>
      <list>b a</list>
      <values>c 1</values>
      <occurs>d 0..1</occurs>
    </cardinality>
    <minimum>
      <list>c mul(b,2)</list>
      <condition>(eq,a)</condition>
    </minimum>
    <maximum>
      <list>x[0] x[1] x[2]</list>
      <condition>(in,1..2)</condition>
    </maximum>
    <element>
      <list>c b</list>
      <index>a</index>
      <value>d</value>
    </element>
    <element>
      <list>3 1 2</list>
      <index>b</index>
      <value>a</value>
    </element>
    <element>
      <matrix>(b,a)(c,b)</matrix>
      <index>d e</index>
      <condition>(ne,a)</condition>
    </element>
    <channel>c a b</channel>
    <channel>
      <list>b a</list>
      <list>c d</list>
    </channel>
    <channel>
      <list>c b</list>
      <value>a</value>
    </channel>
    <noOverlap>
      <origins>b a</origins>
      <lengths>c 1</lengths>
    </noOverlap>
    <noOverlap>
      <origins>(b,a)(c,d)</origins>
      <lengths>(1,e)(2,a)</lengths>
    </noOverlap>
    <cumulative>
      <origins>b a</origins>
      <lengths>c 1</lengths>
      <heights>1 d</heights>
      <condition>(le,e)</condition>
    </cumulative>
    <circuit>
      <list>x[0] x[1] x[2]</list>
      <size>d</size>
    </circuit>
    <instantiation>
      <list>c a</list>
      <values>1 *</values>
    </instantiation>
    <intension id="c1" class="p q" note='a &lt; b &amp; "c"'>eq(a,b)</intension>
    <intension>in(a,set(1,2))</intension>
    <intension id="g_0" class="k">lt(a,b)</intension>
    <intension id="g_1" class="k">lt(c,d)</intension>
    <extension>
      <list>a b</list>
      <conflicts>(0,0)(1,*)</conflicts>
    </extension>
    <extension>
      <list>a b</list>
      <supports/>
    </extension>
    <extension>
      <list>a</list>
      <supports>0 2..3</supports>
    </extension>
    <extension>
      <list>a</list>
      <conflicts>1</conflicts>
    </extension>
    <extension>
      <list>a</list>
      <supports/>
    </extension>
    <allDifferent>
      <list>a b add(c,1)</list>
      <except>0 2</except>
    </allDifferent>
    <allDifferent>
      <list>a b</list>
      <list>c d</list>
      <except>(0,0)(1,2)</except>
    </allDifferent>
    <allEqual>a b</allEqual>
    <ordered>
      <list>a b c</list>
      <operator>gt</operator>
    </ordered>
    <sum>
      <list>a mul(b,2) 3</list>
      <condition>(in,{1,2})</condition>
    </sum>
    <sum>
      <list>a b</list>
      <condition>(notin,1..2)</condition>
    </sum>
    <sum>
      <list>a b c</list>
      <coeffs>2 2 -1</coeffs>
      <condition>(eq,-3)</condition>
    </sum>
    <sum>
      <list>a b</list>
      <condition>(in,{0,4})</condition>
    </sum>
    <nValues>
      <list>a b c</list>
      <except>0</except>
      <condition>(ge,2)</condition>
    </nValues>
    <cardinality>
      <list>a b</list>
      <values closed="true">0 1</values>
      <occurs>1 c</occurs>
    </cardinality>
    <element>
      <list>a b</list>
      <index>c</index>
      <value>2</value>
    </element>
    <element>
      <list>a b</list>
      <index>c</index>
      <condition>(gt,d)</condition>
    </element>
    <element>
      <list>3 1 2</list>
      <index>b</index>
      <condition>(le,2)</condition>
    </element>
    <element>
      <matrix>(1,2)(3,4)</matrix>
      <index>a b</index>
      <value>c</value>
    </element>
    <element>
      <matrix>(m[0][0],m[0][1])(m[1][0],m[1][1])</matrix>
      <index>a b</index>
      <value>c</value>
    </element>
    <channel>a b c</channel>
    <noOverlap zeroIgnored="false">
      <origins>a b</origins>
      <lengths>1 c</lengths>
    </noOverlap>
    <noOverlap zeroIgnored="false">
      <origins>(a,b)(c,d)</origins>
      <lengths>(1,e)(0,2)</lengths>
    </noOverlap>
    <noOverlap>
      <origins>a b</origins>
      <lengths>1 2</lengths>
    </noOverlap>
    <circuit>a b c</circuit>
    <circuit>a b c</circuit>
    <circuit>
      <list>x[0] x[1] x[2]</list>
      <size>2</size>
    </circuit>
    <instantiation>
      <list>a b c d</list>
      <values>1 1 * 0</values>
    </instantiation>
    <regular>
      <list>a b</list>
      <transitions>(q,0,r)(r,1,s)(r,2,t)</transitions>
      <start>q</start>
      <final>s t</final>
    </regular>
    <lex>
      <list>a b</list>
      <list>c d</list>
      <list>e a</list>
      <operator>ge</operator>
    </lex>
    <minimum>
      <list>a b</list>
      <condition>(in,{})</condition>
    </minimum>
  </constraints>
  <annotations>
    <decision>a x[0] x[1] x[2]</decision>
  </annotations>
</instance>
"""

# (objective element, the <objectives> section it renders to)
GOLDEN_OBJECTIVES = [
    ('<minimize> add(a,mul(b,2)) </minimize>',
     """\
  <objectives>
    <minimize>add(a,mul(b,2))</minimize>
  </objectives>
"""),
    ('<maximize type="sum"><list> a b c </list><coeffs> 2 1 -1 </coeffs></maximize>',
     """\
  <objectives>
    <maximize type="sum">
      <list>a b c</list>
      <coeffs>2 1 -1</coeffs>
    </maximize>
  </objectives>
"""),
    ('<maximize type="sum"><list> a b </list><coeffs> 1x2 </coeffs></maximize>',
     """\
  <objectives>
    <maximize type="sum">
      <list>a b</list>
      <coeffs>1 1</coeffs>
    </maximize>
  </objectives>
"""),
    ('<minimize type="minimum"> a b x[] </minimize>',
     """\
  <objectives>
    <minimize type="minimum">
      <list>a b x[0] x[1] x[2]</list>
    </minimize>
  </objectives>
"""),
    ('<maximize type="maximum"><list> a add(b,1) </list></maximize>',
     """\
  <objectives>
    <maximize type="maximum">
      <list>a add(b,1)</list>
    </maximize>
  </objectives>
"""),
    ('<minimize type="nValues"><list> x[] </list></minimize>',
     """\
  <objectives>
    <minimize type="nValues">
      <list>x[0] x[1] x[2]</list>
    </minimize>
  </objectives>
"""),
    ('<minimize type="lex"><list> c a </list></minimize>',
     """\
  <objectives>
    <minimize type="lex">
      <list>c a</list>
    </minimize>
  </objectives>
"""),
]


def golden_document(constraints="", type_="CSP", tail=""):
    return (f'<instance format="XCSP3" type="{type_}"><variables>{GOLDEN_DECLARATIONS}'
            f"</variables><constraints>{constraints}</constraints>{tail}</instance>")


def test_rendered_bytes_of_every_layout():
    constraints = "".join(c for _, c, _ in CASES) + "".join(GOLDEN_VARIANTS)
    decision = "<annotations><decision> a x[] </decision></annotations>"
    text = render_instance(parse_string(golden_document(constraints, tail=decision)))
    assert text == GOLDEN_TEXT


@pytest.mark.parametrize("element,section", GOLDEN_OBJECTIVES,
                         ids=["expression", "sum", "sum-unit", "minimum", "maximum",
                              "nValues", "lex"])
def test_rendered_bytes_of_every_objective_form(element, section):
    doc = golden_document(type_="COP", tail=f"<objectives>{element}</objectives>")
    text = render_instance(parse_string(doc))
    assert text[text.index("  <objectives>"):] == section + "</instance>\n"
