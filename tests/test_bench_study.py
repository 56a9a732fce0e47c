"""The benchmark's design-study workload passes its own correctness gate.

``perfbench/child.py study <seed>`` runs the study the ``design_study``
workload times and prints its result as JSON; ``perfbench/checks.py``
judges that result against closed forms that do not import zeropack.
Run here in a fresh interpreter, as the harness runs it, so a change that
makes a design or calibration call fail the gate fails tier 1 too. The
run is traced, as ``--trace 1`` runs it, and its work counts are pinned."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO, load_perfbench

# 8 cavities x 3 minimum caps, 8 equivalent thicknesses, 1 full fit and
# 8 leave-one-out fits
STUDY_CALLS = 8 * 3 + 8 + 1 + 8


# the study's work under the harness's tracer, the same on every seed:
# 8 cold and 64 warm plate solves, 9 fits, 3 solves per minimum cap and
# none per equivalent thickness
TRACE_COUNTS = {
    "mechanics.solve_calls": 72,
    "mechanics.cold_solves": 8,
    "release.calibrate_calls": 9,
    "design.solves_per_min_cap": 3.0,
    "design.solves_per_equivalent": 0.0,
}


@pytest.mark.parametrize("seed", [1, 401])
def test_design_study_passes_the_harness_gate(seed, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    trace = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, "perfbench/child.py", "study", str(seed), str(trace)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    verdicts = load_perfbench("checks").check_study(json.loads(run.stdout))
    assert len(verdicts) == STUDY_CALLS
    assert [v for v in verdicts if v is not None] == []
    metrics = json.loads(trace.read_text())
    assert {name: metrics[name] for name in TRACE_COUNTS} == TRACE_COUNTS
