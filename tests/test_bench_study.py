"""The benchmark's design-study workload passes its own correctness gate.

``perfbench/child.py study <seed>`` runs the study the ``design_study``
workload times and prints its result as JSON; ``perfbench/checks.py``
judges that result against closed forms that do not import zeropack.
Run here in a fresh interpreter, as the harness runs it, so a change that
makes a design or calibration call fail the gate fails tier 1 too."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO, load_perfbench

# 8 cavities x 3 minimum caps, 8 equivalent thicknesses, 1 full fit and
# 8 leave-one-out fits
STUDY_CALLS = 8 * 3 + 8 + 1 + 8


@pytest.mark.parametrize("seed", [1, 401])
def test_design_study_passes_the_harness_gate(seed):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    run = subprocess.run(
        [sys.executable, "perfbench/child.py", "study", str(seed)],
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
