"""Command line behaviour: outputs and the exit code contract.

  0 ok / satisfied / solution found     10 violated (or rejected)
  2 invalid instance or solution file   11 incomplete
  3 usage error                         20 unsatisfiable / zero solutions
  4 evaluation error in check or solve  21 stopped on a limit
  5 a variable the decision does not force (solve --restrict-to-decision)
"""

import sys
import time
import tracemalloc

import pytest

from conftest import fixture_path
from xcsp3core.canonical import instances_equivalent, render_instance
from xcsp3core import parser
from xcsp3core.cli import entry, main
from xcsp3core.expr import MAX_EXPR_DEPTH
from xcsp3core.parser import MAX_VARIABLES, MAX_XML_DEPTH, parse_file, parse_string


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ---------------------------------------------------------------------


def test_validate_reports_summary(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("toy_network.xml"))
    assert code == 0
    assert "valid CSP instance: 3 variables, 3 constraints" in out
    assert "kind.Extension=3" in out


def test_the_console_script_exits_with_mains_code(capsys, monkeypatch):
    # entry, which pyproject.toml installs as the xcsp3core command, reads sys.argv
    monkeypatch.setattr(sys, "argv", ["xcsp3core", "validate", fixture_path("toy_network.xml")])
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 0
    assert "valid CSP instance" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["xcsp3core"])  # no command: the usage, exit 3
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 3
    assert "usage:" in capsys.readouterr().err


def test_validate_reports_objective(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("cake_sums.xml"))
    assert code == 0
    assert "valid COP instance" in out
    assert "objective=maximize:sum" in out


BAD_RULES = [
    ("bad_attr_ws.xml", "attribute-whitespace"),
    ("bad_condition_ws.xml", "condition-whitespace"),
    ("bad_expr_ws.xml", "expression-whitespace"),
    ("bad_tuple_ws.xml", "tuple-whitespace"),
    ("bad_interval_ws.xml", "interval-whitespace"),
    ("bad_domain_order.xml", "domain-order"),
]


@pytest.mark.parametrize("name,rule", BAD_RULES)
def test_validate_rejects_malformed_instances(capsys, name, rule):
    code, _, err = run(capsys, "validate", fixture_path(f"bad/{name}"))
    assert code == 2
    assert rule in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.xml")
    assert code == 2 and "error:" in err


def test_validate_rejects_an_instance_that_is_not_utf8(capsys, tmp_path):
    instance = tmp_path / "latin1.xml"
    instance.write_bytes(b'<instance format="XCSP3" type="CSP"><!-- caf\xe9 -->'
                         b'<variables><var id="x"> 0 1 </var></variables>'
                         b"<constraints><intension> eq(x,0) </intension></constraints>"
                         b"</instance>")
    code, _, err = run(capsys, "validate", str(instance))
    assert code == 2
    assert err == f"error: {instance}: not UTF-8 text (invalid continuation byte) " \
                  "[rule: encoding]\n"


def test_canonical_out_reparses_equivalent(capsys, tmp_path):
    target = tmp_path / "flat.xml"
    code, _, _ = run(capsys, "validate", fixture_path("latin_group.xml"),
                     "--canonical-out", str(target))
    assert code == 0
    original = parse_file(fixture_path("latin_group.xml"))
    assert instances_equivalent(original, parse_file(target))


def test_canonical_out_to_stdout(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("toy_network.xml"),
                       "--canonical-out", "-")
    assert code == 0
    assert '<instance format="XCSP3" type="CSP">' in out


def test_strict_and_lenient_are_exclusive(capsys):
    code, _, err = run(capsys, "validate", fixture_path("toy_network.xml"),
                       "--strict", "--lenient")
    assert code == 3


def test_lenient_skips_non_core_constraint(capsys, tmp_path):
    text = ('<instance format="XCSP3" type="CSP"><variables>'
            '<var id="x"> 0 1 </var></variables><constraints>'
            "<binPacking><list> x </list></binPacking>"
            "<intension> eq(x,0) </intension></constraints></instance>")
    path = tmp_path / "mixed.xml"
    path.write_text(text)
    strict_code, _, err = run(capsys, "validate", str(path))
    assert strict_code == 2 and "binPacking" in err
    lenient_code, out, _ = run(capsys, "validate", str(path), "--lenient")
    assert lenient_code == 0
    assert "1 constraints" in out


REMOVABLE = ('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
             '<var id="y"> 0..2 </var></variables><constraints>'
             '<knapsack><list> x y </list></knapsack>'
             '<group><regular8> %0 </regular8><args> x </args><args> y </args></group>'
             '<block class="extra"><intension> ne(x,y) </intension></block>'
             '<intension class="extra"> lt(x,y) </intension>'
             "<intension> le(x,y) </intension></constraints></instance>")


@pytest.mark.parametrize("options,removed", [
    (["--lenient"], []),
    (["--lenient", "--drop-class", "extra"], ["block", "intension[1]"]),
], ids=["lenient", "lenient-and-drop-class"])
@pytest.mark.parametrize("command", ["validate", "check", "solve", "stats"])
def test_what_lenient_parsing_removes_is_named_on_stderr(capsys, tmp_path, command, options,
                                                         removed):
    # an unknown tag, a group whose template is skipped and, by class, a
    # block and a constraint
    path = tmp_path / "removable.xml"
    path.write_text(REMOVABLE)
    solution = tmp_path / "solution.txt"
    solution.write_text("0 1")
    extra = {"check": [str(solution)], "solve": ["--count"]}.get(command, [])
    paths = [f"/instance/constraints/{tag}" for tag in ["knapsack", "group"] + removed]
    # the same command on the document without them prints the same
    kept = tmp_path / "kept.xml"
    kept_text = REMOVABLE.replace('<knapsack><list> x y </list></knapsack>', "").replace(
        '<group><regular8> %0 </regular8><args> x </args><args> y </args></group>', "")
    if removed:
        kept_text = kept_text.replace('<block class="extra"><intension> ne(x,y) </intension>'
                                      '</block><intension class="extra"> lt(x,y) </intension>',
                                      "")
    kept.write_text(kept_text)
    expected = run(capsys, command, str(kept), *extra, *options)
    assert expected[2] == ""
    code, out, err = run(capsys, command, str(path), *extra, *options)
    assert (code, out) == expected[:2]
    assert err == f"removed {len(paths)} constraint elements: {' '.join(paths)}\n"


def test_what_was_removed_takes_no_part_in_equality_or_rendering():
    lenient = parse_string(REMOVABLE, parser.ParserConfig(strict=False))
    kept = parse_string(REMOVABLE.replace('<knapsack><list> x y </list></knapsack>', "").replace(
        '<group><regular8> %0 </regular8><args> x </args><args> y </args></group>', ""))
    assert lenient.removed == ("/instance/constraints/knapsack", "/instance/constraints/group")
    assert kept.removed == ()
    assert lenient == kept and instances_equivalent(lenient, kept)
    assert render_instance(lenient) == render_instance(kept)


def test_a_group_member_that_lenient_parsing_removes_is_named_by_its_args(capsys, tmp_path):
    path = tmp_path / "member.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
                    '</variables><constraints><group><intension unknown="1"> ne(%0,1) '
                    "</intension><args> x </args><args> x </args></group></constraints>"
                    "</instance>")
    code, out, err = run(capsys, "solve", str(path), "--count", "--lenient")
    assert (code, out) == (0, "solutions=3\nnodes=3\n")
    assert err == ("removed 2 constraint elements: /instance/constraints/group/args[1] "
                   "/instance/constraints/group/args[2]\n")
    code, _, err = run(capsys, "solve", str(path), "--count")
    assert code == 2 and "[rule: attribute]" in err


# -- check ------------------------------------------------------------------------


def test_check_verifies_declared_cost(capsys):
    code, out, _ = run(capsys, "check", fixture_path("cake_intension.xml"),
                       fixture_path("solutions/cake_optimum.xml"))
    assert code == 0
    assert out.strip() == "satisfied, cost verified: 1700"


def test_check_solution_option_spelling(capsys):
    code, out, _ = run(capsys, "check", fixture_path("cake_intension.xml"),
                       "--solution", fixture_path("solutions/cake_optimum.xml"))
    assert code == 0 and "satisfied" in out


def test_check_rejects_double_solution(capsys):
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"),
                       fixture_path("solutions/cake_optimum.xml"),
                       "--solution", fixture_path("solutions/cake_optimum.xml"))
    assert code == 3 and "usage error" in err


def test_check_requires_a_solution(capsys):
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"))
    assert code == 3 and "usage error" in err


@pytest.mark.parametrize("name", ["langford_a.xml", "langford_b.xml"])
def test_check_langford_solutions(capsys, name):
    code, out, _ = run(capsys, "check", fixture_path("langford_2_04.xml"),
                       fixture_path(f"solutions/{name}"))
    assert code == 0 and out.strip() == "satisfied"


def test_check_violated_names_constraints(capsys, tmp_path):
    sol = tmp_path / "wrong.xml"
    sol.write_text("<instantiation><list> x[][] </list>"
                   "<values> 1 4 2 0 3 7 6 4 </values></instantiation>")
    code, out, _ = run(capsys, "check", fixture_path("langford_2_04.xml"), str(sol))
    assert code == 10
    assert out.startswith("violated:")


@pytest.mark.parametrize("capacity,code,verdict", [(3, 10, "violated: #0"), (4, 0, "satisfied")])
def test_check_cumulative_of_a_task_of_length_10_to_the_12(capsys, tmp_path, capacity, code,
                                                           verdict):
    # a time point per unit of length would not fit in memory
    inst = tmp_path / "long.xml"
    inst.write_text('<instance format="XCSP3" type="CSP"><variables>'
                    '<var id="a"> 0..5 </var><var id="b"> 0..5 </var></variables>'
                    "<constraints><cumulative><origins> a b </origins>"
                    f"<lengths> {10**12} {10**12} </lengths><heights> 2 2 </heights>"
                    f"<condition> (le,{capacity}) </condition></cumulative></constraints>"
                    "</instance>")
    sol = tmp_path / "sol.xml"
    sol.write_text("<instantiation><list> a b </list><values> 0 3 </values></instantiation>")
    start = time.perf_counter()
    assert run(capsys, "check", str(inst), str(sol))[:2] == (code, verdict + "\n")
    assert time.perf_counter() - start < 0.5


def test_check_incomplete_lists_missing(capsys, tmp_path):
    sol = tmp_path / "partial.xml"
    sol.write_text("<instantiation><list> b </list>"
                   "<values> 2 </values></instantiation>")
    code, out, _ = run(capsys, "check", fixture_path("cake_intension.xml"), str(sol))
    assert code == 11
    assert out.strip() == "incomplete: missing c"


def test_check_allow_partial_flags_visible_violation(capsys, tmp_path):
    sol = tmp_path / "partial.xml"
    sol.write_text("<instantiation><list> b </list>"
                   "<values> 9 </values></instantiation>")
    # b=9 already breaks the eggs constraint le(2*b, 6)
    code, out, _ = run(capsys, "check", fixture_path("cake_intension.xml"),
                       str(sol), "--allow-partial")
    assert code == 10 and out.startswith("violated:")


def test_check_bare_values_with_vars(capsys, tmp_path):
    sol = tmp_path / "values.txt"
    sol.write_text("2 2\n")
    code, out, _ = run(capsys, "check", fixture_path("cake_intension.xml"),
                       str(sol), "--vars", "b c")
    assert code == 0 and out.strip() == "satisfied"


def test_check_bare_values_default_order(capsys, tmp_path):
    sol = tmp_path / "values.txt"
    sol.write_text("0 1 1 0 0 1 0\n")
    code, out, _ = run(capsys, "check", fixture_path("regular_word.xml"), str(sol))
    assert code == 0 and out.strip() == "satisfied"


def test_check_cost_mismatch_is_rejected(capsys, tmp_path):
    sol = tmp_path / "sol.xml"
    sol.write_text("<instantiation><list> b c </list>"
                   "<values> 2 2 </values></instantiation>")
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"),
                       str(sol), "--cost", "1650")
    assert code == 10 and "rejected:" in err


def test_check_value_outside_domain_is_rejected(capsys, tmp_path):
    sol = tmp_path / "sol.xml"
    sol.write_text("<instantiation><list> b c </list>"
                   "<values> 2 500 </values></instantiation>")
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"), str(sol))
    assert code == 10 and "rejected:" in err


def test_check_unknown_variable_is_rejected(capsys, tmp_path):
    sol = tmp_path / "sol.xml"
    sol.write_text("<instantiation><list> b c zz </list>"
                   "<values> 2 2 0 </values></instantiation>")
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"), str(sol))
    assert (code, err) == (10, "rejected: unknown variable zz\n")


def test_check_rejects_a_solution_that_is_not_utf8(capsys, tmp_path):
    sol = tmp_path / "values.txt"
    sol.write_bytes(b"2 2\xff\n")
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"),
                       str(sol), "--vars", "b c")
    assert code == 2
    assert err == f"error: {sol}: not UTF-8 text (invalid start byte) [rule: encoding]\n"


def test_check_length_mismatch_is_invalid(capsys, tmp_path):
    sol = tmp_path / "sol.xml"
    sol.write_text("<instantiation><list> b c </list>"
                   "<values> 2 </values></instantiation>")
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"), str(sol))
    assert code == 2


def test_check_bad_cost_attribute_is_invalid(capsys, tmp_path):
    sol = tmp_path / "sol.xml"
    sol.write_text('<instantiation cost="abc"><list> b c </list>'
                   "<values> 2 2 </values></instantiation>")
    code, _, err = run(capsys, "check", fixture_path("cake_intension.xml"), str(sol))
    assert code == 2
    assert "/instantiation" in err and "[rule: integer]" in err


@pytest.mark.parametrize("text,options,code,message", [
    ("<instantiation><list> b c </list><values> 2 2 </values></instantiation>",
     ["--vars", "b c"], 3, "usage error: --vars only applies to bare value lists"),
    ("<solution><list> b c </list><values> 2 2 </values></solution>", [], 2,
     "error: /solution: solution root must be <instantiation>, not <solution> "
     "[rule: solution]"),
    ("<instantiation><list> b c </list></instantiation>", [], 2,
     "error: /instantiation: instantiation needs <list> and <values> [rule: solution]"),
    ("<instantiation><values> 2 2 </values></instantiation>", [], 2,
     "error: /instantiation: instantiation needs <list> and <values> [rule: solution]"),
    ("<instantiation><list> b c </list><values> 2 2 </values><extra/></instantiation>", [], 2,
     "error: /instantiation/extra: unexpected <extra> under <instantiation> [rule: solution]"),
    ("<instantiation><list> b c </list><list> b </list><values> 2 2 </values>"
     "</instantiation>", [], 2,
     "error: /instantiation/list[2]: unexpected <list> under <instantiation> [rule: solution]"),
    ('<instantiation foo="1"><list> b c </list><values> 2 2 </values></instantiation>', [], 2,
     "error: /instantiation: unsupported attribute foo= on <instantiation> [rule: solution]"),
    ('<instantiation><list> b c </list><values foo="1"> 2 2 </values></instantiation>', [], 2,
     "error: /instantiation/values: unsupported attribute foo= on <values> [rule: solution]"),
])
def test_check_rejects_a_malformed_xml_solution(capsys, tmp_path, text, options, code,
                                                message):
    sol = tmp_path / "sol.xml"
    sol.write_text(text)
    assert run(capsys, "check", fixture_path("cake_intension.xml"), str(sol),
               *options) == (code, "", message + "\n")


def test_check_rejects_a_solution_with_a_second_values(capsys, tmp_path):
    instance = tmp_path / "alldiff.xml"
    instance.write_text('<instance format="XCSP3" type="CSP"><variables><array id="x" '
                        'size="[3]"> 0..2 </array></variables><constraints><allDifferent> '
                        "x[] </allDifferent></constraints></instance>")
    sol = tmp_path / "sol.xml"
    sol.write_text("<instantiation><list> x[] </list><values> 0 1 2 </values>"
                   "<values> 0 0 0 </values></instantiation>")
    assert run(capsys, "check", str(instance), str(sol)) == (
        2, "", "error: /instantiation/values[2]: unexpected <values> under <instantiation> "
               "[rule: solution]\n")
    # the attributes that the solution files of the package and of solvers use pass
    sol.write_text('<instantiation type="solution" id="s" note="n"><list> x[] </list>'
                   "<values> 0 1 2 </values></instantiation>")
    assert run(capsys, "check", str(instance), str(sol))[0] == 0


# -- solve ------------------------------------------------------------------------


def test_solve_prints_one_solution(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("magic_square_3.xml"))
    assert code == 0
    assert out.count("<instantiation") == 1
    assert 'type="solution"' in out


def test_solve_emitted_solution_passes_check(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", fixture_path("magic_square_3.xml"))
    assert code == 0
    sol = tmp_path / "emitted.xml"
    sol.write_text(out)
    code, out2, _ = run(capsys, "check", fixture_path("magic_square_3.xml"), str(sol))
    assert code == 0 and out2.strip() == "satisfied"


def test_solve_count(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("magic_square_3.xml"), "--count")
    assert code == 0
    assert "solutions=8" in out


def test_solve_count_unsat_exit(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("toy_network.xml"), "--count")
    assert code == 20
    assert "solutions=0" in out


def test_solve_unsat_without_count(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("toy_network.xml"))
    assert code == 20
    assert out.strip() == "UNSATISFIABLE"


def test_solve_all_prints_every_solution(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("langford_2_04.xml"), "--all")
    assert code == 0
    assert out.count("<instantiation") == 2
    assert "solutions=2" in out


def test_solve_optimum_instantiation(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("cake_groups.xml"))
    assert code == 0
    assert 'type="optimum" cost="1700"' in out


def test_solve_optimize_rejects_plain_csp(capsys):
    code, _, err = run(capsys, "solve", fixture_path("toy_network.xml"), "--optimize")
    assert code == 3 and "usage error" in err


def test_solve_optimum_solution_passes_check(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", fixture_path("cake_sums.xml"))
    assert code == 0
    sol = tmp_path / "opt.xml"
    sol.write_text(out)
    code, out2, _ = run(capsys, "check", fixture_path("cake_sums.xml"), str(sol))
    assert code == 0
    assert out2.strip() == "satisfied, cost verified: 1700"


def test_solve_lex_optimum_passes_check(capsys, tmp_path):
    # a lex optimum is a tuple: it is printed without a cost attribute
    instance = tmp_path / "lex.xml"
    instance.write_text('<instance format="XCSP3" type="COP"><variables>'
                        '<var id="x"> 0..2 </var><var id="y"> 0..2 </var></variables>'
                        "<constraints><intension> ne(x,y) </intension></constraints>"
                        '<objectives><minimize type="lex"> x y </minimize></objectives>'
                        "</instance>")
    code, out, _ = run(capsys, "solve", str(instance))
    assert code == 0
    assert '<instantiation type="optimum">' in out and "cost=" not in out
    sol = tmp_path / "opt.xml"
    sol.write_text(out)
    code, out2, _ = run(capsys, "check", str(instance), str(sol))
    assert code == 0 and out2.strip() == "satisfied"


LEX_COP = ('<instance format="XCSP3" type="COP"><variables>'
           '<var id="x"> 0..2 </var><var id="y"> 0..2 </var></variables>'
           "<constraints><intension> ne(x,y) </intension></constraints>"
           '<objectives><minimize type="lex"> x y </minimize></objectives>'
           "</instance>")


@pytest.mark.parametrize("cost_in", ["option", "attribute"])
def test_check_cost_against_a_lex_objective_is_invalid(capsys, tmp_path, cost_in):
    # a lex value is a tuple: an integer cost could never match it
    instance, sol = tmp_path / "lex.xml", tmp_path / "sol.xml"
    instance.write_text(LEX_COP)
    attribute = ' cost="0"' if cost_in == "attribute" else ""
    sol.write_text(f"<instantiation{attribute}><list> x y </list>"
                   "<values> 0 1 </values></instantiation>")
    argv = ["check", str(instance), str(sol)] + (["--cost", "0"] if cost_in == "option" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and "[rule: cost-lex]" in err


def test_search_error_names_the_constraint_and_its_assignment(capsys, tmp_path):
    path = tmp_path / "div.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables>'
                    '<var id="x"> 0..2 </var><var id="y"> 0..9 </var></variables>'
                    '<constraints><intension id="c1"> eq(div(6,x),y) </intension>'
                    "</constraints></instance>")
    code, out, err = run(capsys, "solve", str(path), "--count")
    assert code == 4 and out == ""
    assert err.strip() == "error: c1: div(6,0) at x=0 y=0"


def test_search_error_in_a_constraint_without_variables_names_it(capsys, tmp_path):
    # such a constraint is settled once, before the first node
    path = tmp_path / "div.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
                    "</variables><constraints><intension> le(x,2) </intension>"
                    "<intension> eq(div(1,0),0) </intension></constraints></instance>")
    assert run(capsys, "solve", str(path)) == (4, "", "error: #1: div(1,0)\n")


def test_restrict_to_decision_rejects_a_decision_cell_without_a_domain(capsys, tmp_path):
    path = tmp_path / "decision.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables><array id="x" size="[2]">'
                    '<domain for="x[0]"> 0..1 </domain></array></variables><constraints>'
                    "<intension> le(x[0],1) </intension></constraints>"
                    "<annotations><decision> x[1] </decision></annotations></instance>")
    # the reader rejects it, so plain solve and validate fail alike
    error = "error: decision annotation involves undefined variable 'x[1]' [rule: undefined-useful]\n"
    assert run(capsys, "solve", str(path), "--restrict-to-decision") == (2, "", error)
    assert run(capsys, "solve", str(path)) == (2, "", error)
    assert run(capsys, "validate", str(path)) == (2, "", error)


DIV_CSP = ('<instance format="XCSP3" type="CSP"><variables>'
           '<var id="x"> 0..2 </var><var id="y"> 0..9 </var><var id="z"> 0 1 </var>'
           '</variables><constraints><intension> eq(z,0) </intension>'
           "<intension{}> eq(div(6,x),y) </intension></constraints></instance>")


@pytest.mark.parametrize("ident,label", [(' id="c1"', "c1"), ("", "#1")])
@pytest.mark.parametrize("partial", [False, True])
def test_check_error_names_the_constraint_and_its_assignment(capsys, tmp_path, ident,
                                                             label, partial):
    instance, sol = tmp_path / "div.xml", tmp_path / "sol.xml"
    instance.write_text(DIV_CSP.format(ident))
    sol.write_text("<instantiation><list> x y z </list>"
                   "<values> 0 0 1 </values></instantiation>")
    code, out, err = run(capsys, "check", str(instance), str(sol),
                         *(["--allow-partial"] if partial else []))
    assert code == 4 and out == ""
    assert err.strip() == f"error: {label}: div(6,0) at x=0 y=0"


SCHEDULING_CSP = ('<instance format="XCSP3" type="CSP"><variables>'
                  '<var id="a"> 0 9223372036854775807 </var><var id="b"> 0 1 </var>'
                  "</variables><constraints>{}</constraints></instance>")


@pytest.mark.parametrize("constraint,label,values", [
    ('<noOverlap id="n"><origins> a b </origins><lengths> 5 1 </lengths></noOverlap>', "n",
     "9223372036854775807 0"),
    ("<noOverlap><origins> (a,b)(b,a) </origins><lengths> (5,1)(1,1) </lengths></noOverlap>",
     "#0", "9223372036854775807 0"),
    ('<cumulative id="c"><origins> a b </origins><lengths> 1 1 </lengths>'
     "<heights> 4611686018427387904 4611686018427387904 </heights>"
     "<condition> (le,9) </condition></cumulative>", "c", "0 0"),
])
def test_check_exits_4_where_a_scheduling_sum_leaves_int64(capsys, tmp_path, constraint,
                                                          label, values):
    instance, sol = tmp_path / "tasks.xml", tmp_path / "sol.xml"
    instance.write_text(SCHEDULING_CSP.format(constraint))
    sol.write_text(f"<instantiation><list> a b </list><values> {values} </values></instantiation>")
    code, out, err = run(capsys, "check", str(instance), str(sol))
    context, total = ("cumulative", 2**63) if label == "c" else ("noOverlap", 2**63 + 4)
    assert (code, out) == (4, "")
    assert err.strip() == (f"error: {label}: {context}: {total} leaves the 64-bit integer range"
                           f" at a={values.split()[0]} b={values.split()[1]}")


def test_solve_count_on_five_thousand_cells(capsys, tmp_path):
    # the search keeps its own stack: one Python frame per variable would overflow
    path = tmp_path / "wide.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables>'
                    '<array id="x" size="[5000]"> 0 </array></variables>'
                    "<constraints><intension> eq(x[0],x[4999]) </intension></constraints>"
                    "</instance>")
    code, out, _ = run(capsys, "solve", str(path), "--count")
    assert code == 0 and "solutions=1\n" in out


def test_coins_83_is_proved_unsatisfiable_by_sum_bounds(capsys):
    # the least weighted sum of the coins is 88, above 83
    code, out, _ = run(capsys, "solve", fixture_path("coins_83.xml"), "--count")
    assert code == 20 and "solutions=0" in out
    nodes = int(out.split("nodes=")[1].split()[0])
    assert nodes <= 100


def test_solve_node_limit(capsys, tmp_path):
    big = tmp_path / "big.xml"
    big.write_text('<instance format="XCSP3" type="CSP"><variables>'
                   '<array id="x" size="[6]"> 0..9 </array></variables>'
                   "<constraints><allDifferent> x[] </allDifferent></constraints>"
                   "</instance>")
    code, out, _ = run(capsys, "solve", str(big), "--count", "--node-limit", "300")
    assert code == 21
    assert "LIMIT" in out


def test_solve_node_limit_is_exact(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("queens_8.xml"), "--count",
                       "--node-limit", "10")
    assert code == 21
    assert out.splitlines() == ["solutions=0", "nodes=10", "LIMIT"]


def test_a_cop_stopped_by_a_limit_prints_its_best_solution(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("cake_sums.xml"), "--node-limit", "100")
    assert code == 21
    assert out.splitlines() == ['<instantiation type="solution" cost="1350">',
                                "  <list> b c </list>", "  <values> 0 3 </values>",
                                "</instantiation>", "LIMIT"]


@pytest.mark.parametrize("option,value,message", [
    ("--max-solutions", "0", "max_solutions must be at least 1, not 0"),
    ("--max-solutions", "-3", "max_solutions must be at least 1, not -3"),
    ("--node-limit", "-1", "node_limit must be at least 0, not -1"),
    ("--time-limit", "-0.5", "time_limit must be at least 0 seconds, not -0.5"),
    ("--time-limit", "nan", "time_limit must be at least 0 seconds, not nan"),
])
def test_solve_rejects_a_limit_out_of_range(capsys, option, value, message):
    code, out, err = run(capsys, "solve", fixture_path("queens_8.xml"), option, value)
    assert code == 3
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("flags", [["--count", "--all"], ["--all", "--count"]])
def test_solve_rejects_count_with_all(capsys, flags):
    code, out, err = run(capsys, "solve", fixture_path("queens_8.xml"), *flags)
    assert code == 3
    assert out == ""
    assert err.startswith("usage error: argument ")
    assert "not allowed with argument" in err


def test_solve_counts_with_a_solution_cap(capsys):
    code, out, _ = run(capsys, "solve", fixture_path("queens_8.xml"), "--count",
                       "--max-solutions", "5")
    assert code == 0
    assert out.splitlines()[0] == "solutions=5"


def test_solve_accepts_the_least_limits(capsys):
    path = fixture_path("queens_8.xml")
    code, out, _ = run(capsys, "solve", path, "--count", "--node-limit", "0")
    assert code == 21 and "nodes=0\n" in out
    code, out, _ = run(capsys, "solve", path, "--max-solutions", "1", "--time-limit", "0")
    assert code in (0, 21)


UNFORCED = ('<instance format="XCSP3" type="CSP"><variables>'
            '<var id="x"> 0..4 </var><var id="y"> 0..9 </var></variables>'
            "<constraints><intension> le(y,x) </intension></constraints>"
            "<annotations><decision> x </decision></annotations></instance>")


def test_restrict_to_decision_checks_only_the_assignments_reached(capsys, tmp_path):
    # y is forced at x=0, the first solution, and free at x=1, which only
    # counting reaches
    path = tmp_path / "unforced.xml"
    path.write_text(UNFORCED)
    code, out, _ = run(capsys, "solve", str(path), "--restrict-to-decision")
    assert code == 0 and "<values> 0 0 </values>" in out
    code, out, err = run(capsys, "solve", str(path), "--restrict-to-decision", "--count")
    assert code == 5 and out == ""
    assert err == ("error: variable y is not determined by the decision variables "
                   "(both 0 and 1 extend) at x=1\n")


def test_solve_restrict_to_decision(capsys, tmp_path):
    path = tmp_path / "decided.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables>'
                    '<var id="x"> 0..4 </var><var id="y"> 0..9 </var></variables>'
                    "<constraints><intension> eq(y,add(x,1)) </intension>"
                    "</constraints><annotations><decision> x </decision>"
                    "</annotations></instance>")
    code, out, _ = run(capsys, "solve", str(path), "--count",
                       "--restrict-to-decision")
    assert code == 0 and "solutions=5" in out


def nested(depth):
    """An instance whose one expression nests depth operator calls."""
    inner = "neg(" * (depth - 1) + "x" + ")" * (depth - 1)
    return ('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
            f"</variables><constraints><intension> ge({inner},0) </intension>"
            "</constraints></instance>")


ZERO = "<instantiation><list> x </list><values> 0 </values></instantiation>"


def test_expression_at_the_depth_limit_is_read_checked_and_solved(capsys, tmp_path):
    path, sol = tmp_path / "deep.xml", tmp_path / "zero.xml"
    path.write_text(nested(MAX_EXPR_DEPTH))
    sol.write_text(ZERO)
    code, out, _ = run(capsys, "validate", str(path), "--canonical-out", "-")
    assert code == 0 and "neg(" * (MAX_EXPR_DEPTH - 1) + "x" in out
    assert run(capsys, "check", str(path), str(sol))[:2] == (0, "satisfied\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and "<values> 0 </values>" in out


@pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH + 1, 3000])
@pytest.mark.parametrize("command", ["validate", "check", "solve"])
def test_expression_past_the_depth_limit_is_invalid(capsys, tmp_path, depth, command):
    path, sol = tmp_path / "deep.xml", tmp_path / "zero.xml"
    path.write_text(nested(depth))
    sol.write_text(ZERO)
    argv = [command, str(path)] + ([str(sol)] if command == "check" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and "[rule: expression-depth]" in err


def nested_blocks(depth):
    """A document whose elements nest depth levels, the root counting as one."""
    blocks = depth - 3  # <instance>, <constraints> and the <intension> inside
    return ('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
            "</variables><constraints>" + "<block>" * blocks
            + "<intension> ge(x,0) </intension>" + "</block>" * blocks
            + "</constraints></instance>")


def test_elements_at_the_nesting_limit_are_valid(capsys, tmp_path):
    path = tmp_path / "deep.xml"
    path.write_text(nested_blocks(MAX_XML_DEPTH))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "1 constraints" in out


@pytest.mark.parametrize("depth", [MAX_XML_DEPTH + 1, 2000])
def test_elements_past_the_nesting_limit_are_invalid(capsys, tmp_path, depth):
    path = tmp_path / "deep.xml"
    path.write_text(nested_blocks(depth))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "[rule: nesting-depth]" in err


def _validate_variables(capsys, tmp_path, declarations):
    """validate's exit code, stdout, stderr and tracemalloc peak on a document
    declaring only the given variables."""
    path = tmp_path / "huge.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables>'
                    f"{declarations}</variables><constraints/></instance>")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "validate", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


@pytest.mark.parametrize("size", ["[9223372036854775807]", "[3037000500][3037000500]",
                                  f"[{MAX_VARIABLES + 1}]", f"[{MAX_VARIABLES}][2]"])
def test_arrays_past_the_cell_limit_are_invalid(capsys, tmp_path, size):
    # rejected from the size attribute alone, before any cell is built
    code, out, err, peak = _validate_variables(
        capsys, tmp_path, f'<array id="a" size="{size}"> 0..1 </array>')
    assert code == 2 and out == ""
    assert "[rule: array-size]" in err and str(MAX_VARIABLES) in err
    assert peak < 10_000_000


@pytest.mark.parametrize("tail", ['<array id="c" size="[2]"> 0..1 </array>',
                                  '<var id="c"> 0..1 </var>',
                                  '<array id="c" as="a" size="[2]"/>'])
def test_the_cell_limit_holds_for_the_whole_document(capsys, tmp_path, tail):
    # two arrays at half the limit each leave room for no further variable:
    # the document is rejected before either array is built
    half = f"[{MAX_VARIABLES // 2}]"
    code, out, err, peak = _validate_variables(
        capsys, tmp_path, f'<array id="a" size="{half}"> 0..1 </array>'
                          f'<array id="b" size="{half}"> 0..1 </array>{tail}')
    assert code == 2 and out == ""
    assert "'c'" in err and "[rule: array-size]" in err and str(MAX_VARIABLES) in err
    assert peak < 10_000_000


def test_many_huge_arrays_fail_at_the_first_past_the_limit(capsys, tmp_path):
    arrays = "".join(f'<array id="a{i}" size="[1000000]"> 0..1 </array>' for i in range(50))
    code, _, err, peak = _validate_variables(capsys, tmp_path, arrays)
    assert code == 2 and "'a1'" in err and "[rule: array-size]" in err
    assert peak < 10_000_000


@pytest.mark.parametrize("declared, code", [(10, 0), (11, 2)])
def test_the_cell_limit_counts_arrays_aliases_and_vars(capsys, tmp_path, monkeypatch,
                                                       declared, code):
    monkeypatch.setattr(parser, "MAX_VARIABLES", 10)
    declarations = ('<array id="a" size="[2][2]"> 0..1 </array>'
                    '<array id="b" as="a" size="[2][2]"/><var id="x"> 0..1 </var>'
                    + "".join(f'<var id="y{i}"> 0..1 </var>' for i in range(declared - 9)))
    got, out, err, _ = _validate_variables(capsys, tmp_path, declarations)
    assert got == code
    assert (f"{declared} variables" in out) if code == 0 else "[rule: array-size]" in err


def test_an_array_under_the_cell_limit_is_valid(capsys, tmp_path):
    path = tmp_path / "wide.xml"
    path.write_text('<instance format="XCSP3" type="CSP"><variables>'
                    '<array id="a" size="[10][1000]"> 0..1 </array></variables>'
                    "<constraints/></instance>")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "10000 variables" in out


@pytest.mark.parametrize("text", ["<instantiation><list> x[] </list>"
                                  "<values> 1x5000000 </values></instantiation>",
                                  "1x5000000"])
def test_solution_repeat_past_the_list_fails_before_expanding(capsys, tmp_path, text):
    instance = tmp_path / "three.xml"
    instance.write_text('<instance format="XCSP3" type="CSP"><variables>'
                        '<array id="x" size="[3]"> 0..9 </array></variables>'
                        "<constraints><allDifferent> x[] </allDifferent></constraints>"
                        "</instance>")
    sol = tmp_path / "sol.txt"
    sol.write_text(text)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "check", str(instance), str(sol))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "[rule: solution]" in err
    assert peak < 5_000_000


# -- stats ------------------------------------------------------------------------


def test_stats_keys(capsys):
    code, out, _ = run(capsys, "stats", fixture_path("cake_intension.xml"))
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["framework"] == "COP"
    assert lines["variables"] == "2"
    assert lines["arrays"] == "0"
    assert lines["domain.size.min"] == "101"
    assert lines["domain.size.max"] == "101"
    assert lines["constraints"] == "5"
    assert lines["kind.Intension"] == "5"
    assert lines["objective"] == "maximize:expression"
    assert lines["arity.1"] == "2"
    assert lines["arity.2"] == "3"


def test_stats_decision_annotation(capsys):
    code, out, _ = run(capsys, "stats", fixture_path("misc_core_2.xml"))
    assert code == 0
    assert any(line.startswith("decision=") for line in out.splitlines())


# -- top level --------------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 3


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate", "x.xml")
    assert code == 3


CLASSED = ('<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2 </var>'
           '</variables><constraints><intension class="a"> ne(x,0) </intension>'
           '<intension class="b"> ne(x,1) </intension><intension> ge(x,0) </intension>'
           "</constraints></instance>")


def test_one_parser_serves_calls_in_turn(capsys, tmp_path):
    # the parser is built once per process; no call sees an earlier one's arguments
    path = tmp_path / "classed.xml"
    path.write_text(CLASSED)
    code, out, _ = run(capsys, "validate", str(path), "--drop-class", "a", "--drop-class", "b")
    assert code == 0 and "1 constraints" in out
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "3 constraints" in out
    code, out, _ = run(capsys, "validate", str(path), "--drop-class", "b")
    assert code == 0 and "2 constraints" in out
    code, _, err = run(capsys, "solve", str(path), "--node-limit", "many")
    assert code == 3 and "usage error" in err
    code, out, _ = run(capsys, "solve", str(path), "--count")
    assert code == 0 and "solutions=1" in out
    assert run(capsys, )[0] == 3
    assert run(capsys, )[0] == 3


NINES = "9" * 5000  # past the 4,300 digits that int() converts


def small_document(constraint, domain="0..3", size="[2]"):
    return ('<instance format="XCSP3" type="CSP"><variables>'
            f'<var id="x"> {domain} </var><var id="y"> 0..3 </var>'
            f'<array id="a" size="{size}"> 0..3 </array></variables>'
            f"<constraints>{constraint}</constraints></instance>")


@pytest.mark.parametrize("text", [
    small_document(f"<intension> eq(x,{NINES}) </intension>"),
    small_document(f"<intension> eq(x,-{NINES}) </intension>"),
    small_document("<intension> eq(x,1) </intension>", domain=f"0..{NINES}"),
    small_document("<extension><list> x y </list>"
                   f"<supports> (1,{NINES}) </supports></extension>"),
    small_document("<intension> eq(x,1) </intension>", size=f"[{NINES}]"),
    small_document(f"<group><intension> eq(%{NINES},1) </intension>"
                   "<args> x </args></group>"),
], ids=["expression", "negative-expression", "domain", "tuple", "size", "parameter"])
def test_integer_of_thousands_of_digits_is_out_of_range(capsys, tmp_path, text):
    path = tmp_path / "huge.xml"
    path.write_text(text)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "[rule: integer-range]" in err


def test_leading_zeros_do_not_count_as_digits(capsys, tmp_path):
    path = tmp_path / "zeros.xml"
    path.write_text(small_document(f"<intension> eq(x,{'0' * 5000}1) </intension>"))
    code, out, _ = run(capsys, "validate", str(path), "--canonical-out", "-")
    assert code == 0 and "eq(x,1)" in out


@pytest.mark.parametrize("constraint", [
    "<intension> eq(x,set(1)) </intension>",
    "<intension> set(1) </intension>",
    "<intension> add(set(1,2),x) </intension>",
    "<intension> in(set(1),set(2)) </intension>",
    "<allEqual> x set(1) </allEqual>",
])
def test_set_literal_outside_in_is_invalid(capsys, tmp_path, constraint):
    path = tmp_path / "set.xml"
    path.write_text(small_document(constraint))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "[rule: expression-syntax]" in err
