"""Smoke tests for the command-line scripts under scripts/, run as subprocesses."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import check_revenue_run

from dcecon import reference

ROOT = Path(__file__).resolve().parent.parent
# the lines of `scripts/output_digests.py --quick` under a first line stamping the
# platform they were made on (see digest_stamp); a change that alters output on
# purpose regenerates the lines and lists each changed one in CHANGES.md
DIGEST_BASELINE = ROOT / "tests" / "data" / "output_digests_quick.txt"


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})


def test_reproduce_tables_prints_all_four_tables():
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    for title in ("cost minimization", "revenue maximization", "linear cost",
                  "profit from reference objectives"):
        assert title in proc.stdout
    # the 1997 and 2002 published profit rows are the documented deviations
    assert proc.stdout.count("known deviation") == 2
    revenue = proc.stdout.split("revenue maximization")[1].splitlines()
    assert revenue[1].split() == ["year", "alpha", "beta", "computed", "run", "reference", "diff"]


def test_derive_revenue_inits_prints_starts_that_reproduce_the_rows():
    proc = run_script("derive_revenue_inits.py")
    assert proc.returncode == 0, proc.stderr
    starts = {int(year): (float(alpha), float(beta)) for year, alpha, beta
              in re.findall(r"^    (\d+): \(([^,]+), ([^)]+)\),", proc.stdout, re.MULTILINE)}
    assert sorted(starts) == list(reference.YEARS)
    for year, start in starts.items():
        check_revenue_run(year, start)


def test_trace_revenue_surface_writes_trajectory_and_grid(tmp_path):
    proc = run_script("trace_revenue_surface.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    steps = int(re.search(r"after (\d+) steps", proc.stdout).group(1))
    trajectory = (tmp_path / "revenue_max_2012.csv").read_text().splitlines()
    assert trajectory[0] == "iteration,alpha,beta,objective"
    assert len(trajectory) == steps + 2
    surface = (tmp_path / "revenue_surface_2012.csv").read_text().splitlines()
    assert surface[0] == "alpha,beta,revenue"
    assert len(surface) == 60 * 60 + 1


def test_code_lines_lists_every_module_with_totals():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "file", "code"]
    modules = sorted(path.name for path in (ROOT / "src" / "dcecon").glob("*.py"))
    assert [row[0] for row in rows] == modules
    counts = [(int(file), int(code)) for _, file, code in rows]
    assert all(0 < code <= file for file, code in counts)
    assert total == ["total", str(sum(f for f, _ in counts)), str(sum(c for _, c in counts))]
    assert int(total[1]) == sum(len((ROOT / "src" / "dcecon" / name).read_text().splitlines())
                                for name in modules)


def digest_stamp():
    """The platform line the digest baseline starts with; other platforms may round differently."""
    return (f"# {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {np.__version__}")


@pytest.fixture(scope="module")
def quick_digests():
    proc = run_script("output_digests.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_output_digests_covers_every_subcommand(quick_digests):
    lines = quick_digests
    line = re.compile(r"^[0-3] out=[0-9a-f]{64} err=[0-9a-f]{64} trace=(-|[0-9a-f]{64}) (\S+)")
    matches = [line.match(text) for text in lines]
    assert all(matches), [text for text, m in zip(lines, matches) if not m]
    commands = {m.group(2) for m in matches}
    assert commands == {"cost-min", "revenue-max", "profit", "revenue-max-closed",
                        "cost-min-closed", "profit-max-closed", "sfa", "fit", "hhi"}
    assert {text[0] for text in lines} == {"0", "1", "2", "3"}
    assert any("--format csv" in text for text in lines)
    assert any(m.group(1) != "-" for m in matches)


def test_output_digests_match_baseline(quick_digests):
    stamp, *baseline = DIGEST_BASELINE.read_text().splitlines()
    if stamp != digest_stamp():
        pytest.skip(f"baseline made on {stamp[2:]!r}, this is {digest_stamp()[2:]!r}")
    changed = [f"{old}\n  now {new}" for old, new in zip(baseline, quick_digests) if old != new]
    assert len(quick_digests) == len(baseline)
    assert not changed, "\n".join(changed)
