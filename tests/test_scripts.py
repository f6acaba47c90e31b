"""The scripts run from a fresh checkout, with no PYTHONPATH set."""

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
    *rows, total = out.stdout.splitlines()
    assert len(rows) == len(list((ROOT / "tests/fixtures").glob("*.xml")))
    nodes = [int(re.search(r"nodes=([0-9,]+),", row).group(1).replace(",", ""))
             for row in rows]
    assert re.fullmatch(rf"total: {len(rows)} fixtures, nodes={sum(nodes):,}, "
                        r"[0-9]+\.[0-9]{2}s, ([0-9,]+|-) nodes/s", total), total


def test_fixture_report_times_each_parse():
    out = subprocess.run([sys.executable, str(ROOT / "scripts/fixture_report.py"),
                          str(ROOT / "tests/fixtures")], capture_output=True, text=True,
                         timeout=300)
    rows = out.stdout.splitlines()
    assert len(rows) == len(list((ROOT / "tests/fixtures").glob("*.xml")))
    assert all(" ms parse " in row for row in rows)
