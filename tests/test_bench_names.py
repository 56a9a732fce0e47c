"""The benchmark harness under ``perfbench/`` finds zeropack functions by
module attribute: its tracer wraps each ``(module, attr)`` of ``TARGETS``
and its child process calls a few ``zeropack.cli`` names. A renamed or
removed function would break ``perfbench/run.py --trace 1`` at start-up,
so every name it uses must resolve."""

import importlib
import importlib.util

import pytest

from conftest import REPO


def _load_tracer():
    # loaded from its path so that perfbench/ never joins sys.path
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("span, module, attr", TARGETS)
def test_tracer_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", ["load_recipe", "main", "param_kind", "parse_quantity"])
def test_cli_names_called_by_the_harness_resolve(attr):
    cli = importlib.import_module("zeropack.cli")
    assert callable(getattr(cli, attr))
