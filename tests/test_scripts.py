"""The scripts run from a fresh checkout, with no PYTHONPATH set."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    [ROOT / "scripts/random_agreement.py", "--instances", "20", "--machines", "20"],
    [ROOT / "scripts/fixture_report.py", ROOT / "tests/fixtures"],
    [ROOT / "scripts/parse_digest.py", "--mutants", "20"],
    [ROOT / "scripts/parse_digest.py", "--mutants", "20", "--round-trip"],
])
def test_script_runs_without_pythonpath(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # run from elsewhere, so that nothing is found through the working directory
    out = subprocess.run([sys.executable, *map(str, argv)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_fixture_report_totals_the_searches():
    out = subprocess.run([sys.executable, str(ROOT / "scripts/fixture_report.py"),
                          str(ROOT / "tests/fixtures"), "--solve", "--node-limit", "500"],
                         capture_output=True, text=True, timeout=300)
    *rows, total, shapes = out.stdout.splitlines()
    assert len(rows) == len(list((ROOT / "tests/fixtures").glob("*.xml")))
    nodes = [int(re.search(r"nodes=([0-9,]+),", row).group(1).replace(",", ""))
             for row in rows]
    assert re.fullmatch(rf"total: {len(rows)} fixtures, nodes={sum(nodes):,}, "
                        r"[0-9]+\.[0-9]{2}s, ([0-9,]+|-) nodes/s", total), total
    # the loop shapes the fixtures' searches compiled, within the cache
    count = int(re.fullmatch(r"loop shapes=([0-9]+)", shapes).group(1))
    assert 0 < count <= 22


def test_fixture_report_times_each_parse():
    out = subprocess.run([sys.executable, str(ROOT / "scripts/fixture_report.py"),
                          str(ROOT / "tests/fixtures")], capture_output=True, text=True,
                         timeout=300)
    rows = out.stdout.splitlines()
    assert len(rows) == len(list((ROOT / "tests/fixtures").glob("*.xml")))
    assert all(" ms parse " in row for row in rows)
    # the most constraints one variable completes in declaration order:
    # misc_core_1's q[3] completes 8 of its 14, toy_network's z 2
    # of its 3 tables, and coins_83's sum has one variable that completes it
    widest = {row.split()[0]: int(re.search(r" ([0-9]+) widest ", row).group(1))
              for row in rows}
    assert (widest["misc_core_1.xml"], widest["toy_network.xml"], widest["coins_83.xml"]) \
        == (8, 2, 1)


def test_parse_digest_prints_each_outcome_and_their_digest():
    def run(*args):
        out = subprocess.run([sys.executable, str(ROOT / "scripts/parse_digest.py"),
                              "--mutants", "30", "--seed", "3", *args],
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()

    *lines, total = run("--show")
    fixtures = ROOT / "tests/fixtures"
    documents = len(list(fixtures.glob("*.xml"))) + len(list(fixtures.glob("bad/*.xml"))) + 30
    assert len(lines) == 2 * documents
    parsed = sum(line.split(" ", 2)[2].startswith("removed=") for line in lines)
    assert parsed >= 2 * len(list(fixtures.glob("*.xml")))  # every fixture parses
    assert re.fullmatch(rf"documents={documents} outcomes={2 * documents} parsed={parsed} "
                        rf"failed={2 * documents - parsed} sha256=[0-9a-f]{{64}}", total), total
    assert run() == [total]  # the same documents give the same digest

    # each parsed document's canonical form is reparsed, its outcome digested
    # after the document's; the first line and the counts stay as they were
    *with_reparses, round_trip = run("--show", "--round-trip")
    assert [line for line in with_reparses if " reparsed " not in line] == lines
    assert sum(" reparsed removed=" in line for line in with_reparses) == parsed
    counts = rf"failed={2 * documents - parsed} reparsed={parsed} same={parsed} sha256="
    assert re.search(counts, round_trip), round_trip
    assert round_trip.split(" sha256=")[1] != total.split(" sha256=")[1]


def _run_line(attempted, failed, p50, share):
    """A line as perfbench/run.py --trace 0 prints it last."""
    return "note on the line before\n" + json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"latency_p50_ms": {"value": p50, "unit": "ms"},
                    "correct_share": {"value": share, "unit": "share"}}}) + "\n"


def test_bench_record_summarizes_runs_in_the_baseline_layout():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_record
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    lines = {7: _run_line(100, 0, 4.0, 1.0), 8: _run_line(120, 2, 6.0, 0.98),
             9: _run_line(110, 0, 5.0, 1.0), 10: _run_line(90, 0, 8.0, 1.0)}
    runs = [(seed, bench_record.run_result(text)) for seed, text in lines.items()]
    entry = bench_record.summarize(runs)
    assert entry == {
        "seeds": [7, 8, 9, 10], "attempted": [100, 120, 110, 90], "failed": 2,
        # quartiles of 4 5 6 8 (inclusive): 4.75 and 6.5, over the median 5.5
        "median": {"latency_p50_ms": 5.5, "correct_share": 1.0},
        "iqr_share": {"latency_p50_ms": round(1.75 / 5.5, 4), "correct_share": 0.005}}
    baseline = json.loads((ROOT / "perfbench/baseline.json").read_text())["end_to_end"]["check"]
    assert entry.keys() == baseline.keys()
    assert bench_record.summarize(runs[:1])["iqr_share"] == {"latency_p50_ms": 0.0,
                                                            "correct_share": 0.0}
    record = bench_record.record({"check": runs}, 20, "abc1234", "a host")
    assert record["end_to_end"]["check"] == entry and record["run_seconds"] == 20
