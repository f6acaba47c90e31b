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
