"""Every demo script and README's library example run to completion from a
checkout."""

import os
import re
import subprocess
import sys

import pytest

from conftest import REPO, SRC

DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(cwd),
        timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


def test_molding_study_comparison_table(tmp_path):
    proc = run_python([str(REPO / "demos" / "molding_study.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == [
        "candidate caps on a 30 x 30 um membrane at 100 bar",
        "  material        t_um    w_max_nm   sigma_MPa   safety",
        "  lto            4.50       18.73       136.8     14.6",
        "  nitride_pecvd  2.50       29.53       443.4     20.3",
    ]


def test_readme_library_quick_start_runs(tmp_path):
    # a public name the example imports cannot be deleted unnoticed
    section = (REPO / "README.md").read_text().split("\n## Library quick start\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python(["-c", example], tmp_path)
    assert proc.returncode == 0, proc.stderr
    values = proc.stdout.split()
    assert len(values) == 3
    for value in values:
        assert float(value) > 0.0
