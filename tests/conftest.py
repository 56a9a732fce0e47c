import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile(
    "default",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

REPO = Path(__file__).resolve().parents[1]
REFERENCE_RECIPE = REPO / "recipes" / "reference.recipe"


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded from its path so that
    perfbench/ never joins sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def materials():
    from zeropack.geometry import standard_materials

    return standard_materials()


@pytest.fixture(scope="session")
def reference_recipe():
    from zeropack.recipe import load_recipe

    return load_recipe(REFERENCE_RECIPE)


@pytest.fixture(scope="session")
def reference_report(reference_recipe):
    from zeropack.pipeline import run_recipe

    return run_recipe(reference_recipe)


# small, quick-to-release package used by pipeline and CLI tests
FAST_RECIPE = """\
[stack]
sacrificial_thickness = 1.1um
cap_thickness = 2um
clog_deposition = 2.5um
footprint = 6um x 6um

[holes]
hole = circle diameter=2um

[release]
probe_time = 2min

[molding]
pressure = 10MPa
max_deflection = 100nm
safety_factor = 1
grid_n = 32
"""


@pytest.fixture(scope="session")
def fast_recipe():
    from zeropack.recipe import parse_recipe

    return parse_recipe(FAST_RECIPE)
