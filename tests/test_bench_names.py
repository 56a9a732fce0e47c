"""The benchmark harness under ``perfbench/`` finds zeropack functions by
module attribute: its tracer wraps each ``(module, attr)`` of ``TARGETS``,
and its child process calls a few ``zeropack.cli`` names and, for the
design study, names of ``design``, ``release`` and ``recipe``. A renamed
or removed function would break ``perfbench/run.py`` only once it runs,
so every name it uses must resolve."""

import importlib

import pytest

from conftest import load_perfbench

TARGETS = load_perfbench("tracer").TARGETS


@pytest.mark.parametrize("span, module, attr", TARGETS)
def test_tracer_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", ["load_recipe", "main", "param_kind", "parse_quantity"])
def test_cli_names_called_by_the_harness_resolve(attr):
    cli = importlib.import_module("zeropack.cli")
    assert callable(getattr(cli, attr))


@pytest.mark.parametrize(
    "module, attr",
    [
        ("zeropack.design", "min_cap_thickness"),
        ("zeropack.design", "equivalent_thickness"),
        ("zeropack.design", "DesignConstraints"),
        ("zeropack.release", "calibrate_etch"),
        ("zeropack.release", "bundled_observations"),
        ("zeropack.recipe", "load_recipe"),
    ],
)
def test_study_names_called_by_the_harness_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_study_reads_the_default_etch_params():
    params = importlib.import_module("zeropack.release").DEFAULT_ETCH_PARAMS
    for field in ("intrinsic_rate", "aperture_factor", "channel_factor"):
        assert isinstance(getattr(params, field), float)
