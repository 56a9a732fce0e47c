"""The benchmark's traced run, in process.

``perfbench/run.py --trace 1`` runs the CLI under ``perfbench/tracer.py``,
which swaps the layer functions of ``TARGETS`` for timing wrappers. The
harness then requires the traced output to equal the untraced one and
the work counts to repeat. Tier 1 ran only untraced code, so a change
could pass it and still fail the benchmark on its traced run; these
tests run the ``reference`` and ``seal_sweep`` command lines of
``perfbench/run.py`` under the tracer and pin the counts. The share of
``run_recipe`` time the layers explain is timing, and is not asserted
here.
"""

import importlib

import pytest

from conftest import REFERENCE_RECIPE, load_perfbench
from zeropack import cli

tracer_mod = load_perfbench("tracer")

# the command lines of perfbench/run.py's WORKLOADS
WORKLOADS = {
    "reference": ["simulate", str(REFERENCE_RECIPE), "--format", "tabular"],
    "seal_sweep": [
        "sweep", str(REFERENCE_RECIPE), "--param", "stack.clog_deposition",
        "--values", "1.5um,1.875um,2.5um", "--workers", "2", "--format", "tabular",
    ],
}

# per workload: one release, no coverage query, one row per value, one
# plate solve per row, and the three clogging functions once per row for
# the reference's one hole size
COUNTS = {
    "reference": {
        "release.ttr_calls": 1,
        "geometry.coverage_calls": 0,
        "pipeline.run_recipe_calls": 1,
        "mechanics.solve_calls": 1,
        "clogging.calls": 3,
    },
    "seal_sweep": {
        "release.ttr_calls": 1,
        "geometry.coverage_calls": 0,
        "pipeline.run_recipe_calls": 3,
        "mechanics.solve_calls": 3,
        "clogging.calls": 9,
    },
}


def _run(argv, capsys):
    code = cli.main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_the_untraced_output_and_counts(workload, monkeypatch, capsys):
    argv = WORKLOADS[workload]
    plain = _run(argv, capsys)
    # every attribute the tracer replaces is put back after the test
    for _, module, attr in tracer_mod.TARGETS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert _run(argv, capsys) == plain
    metrics = tracer.metrics()
    assert {name: metrics[name] for name in COUNTS[workload]} == COUNTS[workload]
