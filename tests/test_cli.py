import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FAST_RECIPE, REFERENCE_RECIPE, REPO, SRC
from zeropack import mechanics
from zeropack import release as release_mod
from zeropack.cli import main
from zeropack.pipeline import parse_tabular_report


@pytest.fixture()
def fast_recipe_file(tmp_path):
    path = tmp_path / "fast.recipe"
    path.write_text(FAST_RECIPE)
    return path


@pytest.fixture()
def obs_file(tmp_path):
    path = tmp_path / "underetch.csv"
    path.write_text(
        "circle, 2, 0, 1.1, 2, 0.40\n"
        "circle, 4, 0, 1.1, 2, 1.15\n"
        "circle, 9, 0, 1.1, 2, 2.10\n"
        "circle, 2, 0, 3.3, 2, 0.13\n"
        "circle, 9, 0, 3.3, 2, 1.60\n"
    )
    return path


class TestSimulate:
    def test_passing_run_exits_zero(self, fast_recipe_file, capsys):
        assert main(["simulate", str(fast_recipe_file)]) == 0
        out = capsys.readouterr().out
        assert "release time" in out

    def test_tabular_to_file(self, fast_recipe_file, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code = main(
            ["simulate", str(fast_recipe_file), "--format", "tabular", "--out", str(out_file)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        parsed = parse_tabular_report(out_file.read_text())
        assert parsed["passed"][1] == 1.0

    def test_constraint_failure_exits_one(self, tmp_path):
        text = FAST_RECIPE.replace("max_deflection = 100nm", "max_deflection = 0.001nm")
        path = tmp_path / "fail.recipe"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.recipe")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_recipe_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.recipe"
        path.write_text("[stack]\nwat\n")
        assert main(["simulate", str(path)]) == 2

    def test_release_too_slow_exits_three(self, tmp_path, capsys):
        text = FAST_RECIPE.replace("probe_time = 2min", "max_time = 1min")
        path = tmp_path / "slow.recipe"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 3
        assert "model error: release:" in capsys.readouterr().err

    def test_reference_tabular_is_byte_identical(self, tmp_path):
        out_file = tmp_path / "reference.csv"
        code = main(
            ["simulate", str(REFERENCE_RECIPE), "--format", "tabular", "--out", str(out_file)]
        )
        assert code == 0
        expected = (REPO / "perfbench" / "expected" / "reference.csv").read_bytes()
        assert out_file.read_bytes() == expected

    def test_non_finite_quantity_exits_two(self, tmp_path, capsys):
        text = FAST_RECIPE.replace("probe_time = 2min", "probe_time = 1e400min")
        path = tmp_path / "inf.recipe"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_huge_probe_time_is_bounded_work(self, tmp_path, capsys, monkeypatch):
        # the front is evaluated in closed form, so its cost does not grow
        # with the probed time
        spent = []
        front = release_mod._front

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return front(*args)
            finally:
                spent.append(time.perf_counter() - t0)

        monkeypatch.setattr(release_mod, "_front", timed)
        text = FAST_RECIPE.replace("probe_time = 2min", "probe_time = 1e9min")
        path = tmp_path / "long.recipe"
        path.write_text(text)
        assert main(["simulate", str(path), "--format", "tabular"]) == 0
        probe = parse_tabular_report(capsys.readouterr().out)["probe_underetch"][1]
        assert math.isfinite(probe) and probe > 0.0
        assert sum(spent) < 0.1

    def test_etch_front_overflow_exits_two(self, tmp_path, capsys):
        text = FAST_RECIPE.replace(
            "probe_time = 2min", "probe_time = 1e300min\nintrinsic_rate = 1e300um/min"
        )
        path = tmp_path / "overflow.recipe"
        path.write_text(text)
        assert main(["simulate", str(path), "--format", "tabular"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "etch front overflows" in err

    def test_plate_solver_failure_exits_three(self, fast_recipe_file, monkeypatch, capsys):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        mechanics._unit_solution.cache_clear()  # force a cold solve
        assert main(["simulate", str(fast_recipe_file)]) == 3
        assert "model error: molding: plate system cannot be solved" in capsys.readouterr().err

    def test_uncloggable_exits_three(self, tmp_path, capsys):
        text = FAST_RECIPE.replace(
            "hole = circle diameter=2um", "hole = circle diameter=2um\nhole = circle diameter=4um"
        ).replace("[release]\nprobe_time = 2min", "[clogging]\nmax_deposition = 2um")
        path = tmp_path / "clog.recipe"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 3
        assert "clogging:" in capsys.readouterr().err


class TestSweep:
    def test_labels_echo_the_given_units(self, fast_recipe_file, capsys):
        code = main(
            [
                "sweep",
                str(fast_recipe_file),
                "--param",
                "holes.diameter",
                "--values",
                "2um,2.5um",
                "--format",
                "tabular",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("value,release_time_min")
        assert lines[1].split(",")[0] == "2um"
        assert lines[2].split(",")[0] == "2.5um"

    def test_bad_param_exits_two(self, fast_recipe_file, capsys):
        code = main(
            ["sweep", str(fast_recipe_file), "--param", "holes.radius", "--values", "2um"]
        )
        assert code == 2

    def test_bad_value_unit_exits_two(self, fast_recipe_file):
        code = main(
            ["sweep", str(fast_recipe_file), "--param", "holes.diameter", "--values", "2min"]
        )
        assert code == 2

    def test_non_finite_value_exits_two(self, fast_recipe_file, capsys):
        code = main(
            ["sweep", str(fast_recipe_file), "--param", "holes.diameter", "--values", "1e400um"]
        )
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, message",
        [
            ("holes[3].diameter", "hole index 3 out of range"),
            ("holes.width", "circle holes have no 'width' dimension"),
        ],
    )
    def test_setter_errors_name_the_value(self, fast_recipe_file, capsys, path, message):
        # like a range error, an error of the setter itself names the
        # swept value as the user wrote it
        code = main(["sweep", str(fast_recipe_file), "--param", path, "--values", "1um"])
        assert code == 2
        assert capsys.readouterr().err == f"zeropack: input error: {path} = 1um: {message}\n"

    def test_workers_give_identical_output(self, fast_recipe_file, capsys):
        args = [
            "sweep",
            str(fast_recipe_file),
            "--param",
            "holes.diameter",
            "--values",
            "2um,2.5um,3um",
            "--format",
            "tabular",
        ]
        main(args)
        serial = capsys.readouterr().out
        main(args + ["--workers", "3"])
        threaded = capsys.readouterr().out
        assert serial == threaded


# (sweep path, sweep value, the same value as a recipe line, message)
OUT_OF_RANGE = [
    (
        "clogging.chamber_pressure",
        "-1mbar",
        FAST_RECIPE + "\n[clogging]\nchamber_pressure = -1mbar\n",
        "chamber_pressure must be >= 0",
    ),
    (
        "molding.max_deflection",
        "-1nm",
        FAST_RECIPE.replace("max_deflection = 100nm", "max_deflection = -1nm"),
        "max_deflection must be > 0",
    ),
    (
        "molding.safety_factor",
        "0.5",
        FAST_RECIPE.replace("safety_factor = 1", "safety_factor = 0.5"),
        "safety_factor must be >= 1",
    ),
    (
        "release.max_time",
        "0min",
        FAST_RECIPE.replace("probe_time = 2min", "probe_time = 2min\nmax_time = 0min"),
        "max_time must be > 0",
    ),
    (
        "release.probe_time",
        "-1min",
        FAST_RECIPE.replace("probe_time = 2min", "probe_time = -1min"),
        "probe_time must be >= 0",
    ),
    (
        "clogging.max_deposition",
        "-1um",
        FAST_RECIPE + "\n[clogging]\nmax_deposition = -1um\n",
        "max_deposition must be >= 0",
    ),
]


class TestOutOfRangeValues:
    @pytest.mark.parametrize(
        "path, value, text, message", OUT_OF_RANGE, ids=[case[0] for case in OUT_OF_RANGE]
    )
    def test_recipe_line_exits_two(self, tmp_path, capsys, path, value, text, message):
        recipe = tmp_path / "bad.recipe"
        recipe.write_text(text)
        assert main(["simulate", str(recipe)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, text, message", OUT_OF_RANGE, ids=[case[0] for case in OUT_OF_RANGE]
    )
    def test_sweep_value_exits_two(self, fast_recipe_file, capsys, path, value, text, message):
        code = main(["sweep", str(fast_recipe_file), "--param", path, f"--values={value}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the rejected value is named as the user wrote it, not in SI
        assert f"{path} = {value}: " in err and message in err


class TestResourceBounds:
    # each value would build a raster or a plate system far beyond the
    # bounds; it must be rejected before any of that work starts
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("grid_n = 32", "grid_n = 100000", "grid_n must lie in [16, 256]"),
            ("probe_time = 2min", "coverage_pitch = 1nm", "coverage_pitch"),
            ("diameter=2um", "diameter=1nm", "coverage_pitch"),
        ],
        ids=["grid_n", "coverage_pitch", "hole"],
    )
    def test_recipe_line_exits_two_at_once(self, tmp_path, capsys, old, new, message):
        recipe = tmp_path / "huge.recipe"
        recipe.write_text(FAST_RECIPE.replace(old, new))
        start = time.perf_counter()
        assert main(["simulate", str(recipe)]) == 2
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["release.coverage_pitch", "holes.diameter"])
    def test_sweep_value_exits_two_at_once(self, capsys, path):
        start = time.perf_counter()
        code = main(["sweep", str(REFERENCE_RECIPE), "--param", path, "--values", "1nm"])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{path} = 1nm: " in err and "raster" in err


class TestCalibrate:
    def test_text_output(self, obs_file, capsys):
        assert main(["calibrate-etch", str(obs_file)]) == 0
        out = capsys.readouterr().out
        assert "intrinsic rate" in out
        assert "residual" in out

    def test_tabular_output(self, obs_file, capsys):
        assert main(["calibrate-etch", str(obs_file), "--format", "tabular"]) == 0
        parsed = parse_tabular_report(capsys.readouterr().out)
        assert parsed["intrinsic_rate"][0] == "um/min"
        assert parsed["n_observations"][1] == 5.0

    def test_under_determined_exits_two(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("circle, 2, 0, 1.1, 2, 0.4\ncircle, 4, 0, 1.1, 2, 1.1\n")
        assert main(["calibrate-etch", str(path)]) == 2


class TestCheckMolding:
    def test_pass_and_dump(self, fast_recipe_file, tmp_path, capsys):
        dump = tmp_path / "field.csv"
        code = main(["check-molding", str(fast_recipe_file), "--dump-field", str(dump)])
        assert code == 0
        assert "molding deflection" in capsys.readouterr().out
        assert dump.read_text().splitlines()[0] == "# x_um,y_um,w_nm"

    def test_tabular(self, fast_recipe_file, capsys):
        assert main(["check-molding", str(fast_recipe_file), "--format", "tabular"]) == 0
        parsed = parse_tabular_report(capsys.readouterr().out)
        assert parsed["passed"][1] == 1.0

    def test_cells_match_simulate(self, fast_recipe_file, capsys):
        # both commands run the one molding stage of the pipeline
        assert main(["check-molding", str(fast_recipe_file), "--format", "tabular"]) == 0
        molding = capsys.readouterr().out.splitlines()
        assert main(["simulate", str(fast_recipe_file), "--format", "tabular"]) == 0
        simulate = capsys.readouterr().out.splitlines()
        shared = ("molding_deflection,", "molding_stress,", "check_deflection,", "check_stress,")
        picked = [line for line in molding if line.startswith(shared)]
        assert len(picked) == 4
        assert picked == [line for line in simulate if line.startswith(shared)]

    def test_failing_limit_exits_one(self, tmp_path):
        text = FAST_RECIPE.replace("max_deflection = 100nm", "max_deflection = 0.001nm")
        path = tmp_path / "fail.recipe"
        path.write_text(text)
        assert main(["check-molding", str(path)]) == 1


def test_module_entry_point(fast_recipe_file):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "zeropack", "simulate", str(fast_recipe_file)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(Path(fast_recipe_file).parent),
    )
    assert proc.returncode == 0
    assert "release time" in proc.stdout


def test_import_loads_no_scipy():
    # scipy is needed only to calibrate; simulate must not pay its import
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, zeropack, zeropack.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# recipe edits that printed nan or inf, or escaped as a traceback:
# (id, command, recipe text, exit status, start of the error message)
MATERIALS = "[materials]\n"
HOSTILE = [
    (
        "pressure-simulate",
        "simulate",
        FAST_RECIPE.replace("pressure = 10MPa", "pressure = 1e300MPa"),
        3,
        "model error: molding: ",
    ),
    (
        "pressure-check-molding",
        "check-molding",
        FAST_RECIPE.replace("pressure = 10MPa", "pressure = 1e300MPa"),
        3,
        "model error: molding: ",
    ),
    (
        "youngs-modulus-simulate",
        "simulate",
        MATERIALS + "sio2_sputter.youngs_modulus = 1e-300GPa\n" + FAST_RECIPE,
        3,
        "model error: molding: ",
    ),
    (
        "youngs-modulus-check-molding",
        "check-molding",
        MATERIALS + "sio2_sputter.youngs_modulus = 1e-300GPa\n" + FAST_RECIPE,
        3,
        "model error: molding: ",
    ),
    (
        "selectivity-loss",
        "simulate",
        MATERIALS + "sio2_sputter.selectivity_loss = 1e305um/min\n" + FAST_RECIPE,
        3,
        "model error: structural_loss ",
    ),
    (
        "cap-thickness",
        "simulate",
        FAST_RECIPE.replace("cap_thickness = 2um", "cap_thickness = 1e300um"),
        3,
        "model error: molding: ",
    ),
    (
        "clog-deposition",
        "simulate",
        FAST_RECIPE.replace("clog_deposition = 2.5um", "clog_deposition = 1e300um"),
        3,
        "model error: molding: ",
    ),
    (
        "huge-hole",
        "simulate",
        FAST_RECIPE.replace("6um x 6um", "1e300um x 1e300um").replace(
            "diameter=2um", "diameter=1e300um"
        ),
        2,
        "input error: line 8: ",
    ),
    (
        "tiny-hole",
        "simulate",
        FAST_RECIPE.replace("diameter=2um", "diameter=1e-170um").replace(
            "probe_time = 2min", "coverage_pitch = 0.5um"
        ),
        2,
        "input error: line 8: ",
    ),
]


def assert_clean_exit(code, out, err):
    """Exit status in the contract, no nan or inf printed, and an error
    reported on one line of its own."""
    assert code in (0, 1, 2, 3)
    assert "nan" not in out and "inf" not in out
    assert "Traceback" not in err
    if code >= 2:
        assert out == ""
        assert err.splitlines()[-1].startswith(("zeropack: input error: ", "zeropack: model error: "))


class TestHostileInput:
    @pytest.mark.parametrize(
        "command, text, status, message",
        [case[1:] for case in HOSTILE],
        ids=[case[0] for case in HOSTILE],
    )
    def test_recipe_exits_with_its_status(self, tmp_path, capsys, command, text, status, message):
        recipe = tmp_path / "hostile.recipe"
        recipe.write_text(text)
        code = main([command, str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert code == status
        assert_clean_exit(code, out, err)
        assert err.splitlines()[-1].startswith(f"zeropack: {message}")

    @pytest.mark.parametrize(
        "args",
        [["simulate", "{recipe}", "--out", "{file}/x.csv"], ["simulate", "{file}/x.recipe"]],
        ids=["out-below-a-file", "recipe-below-a-file"],
    )
    def test_path_below_a_regular_file_exits_two(self, fast_recipe_file, tmp_path, capsys, args):
        plain = tmp_path / "plain"
        plain.write_text("")
        code = main([a.format(recipe=fast_recipe_file, file=plain) for a in args])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        assert "Not a directory" in err

    def test_never_releasing_layout_stops_growing_its_windows(self, tmp_path, capsys, monkeypatch):
        # the release estimate doubles its window time from 1 min up to
        # max_time, never further, and the raster confirms the verdict
        text = FAST_RECIPE.replace(
            "probe_time = 2min", "intrinsic_rate = 1e-300um/min\nmax_time = 1e300min"
        )
        recipe = tmp_path / "never.recipe"
        recipe.write_text(text)
        front = release_mod._front
        fronts = 0

        def counted(*args):
            nonlocal fronts
            fronts += 1
            return front(*args)

        monkeypatch.setattr(release_mod, "_front", counted)
        code = main(["simulate", str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert code == 3
        assert_clean_exit(code, out, err)
        assert "not fully released after 1e+300 min" in err
        # one front per window time from 1 min to 1e300 min, and one for
        # the raster query at max_time
        assert fronts <= math.ceil(math.log2(1e300)) + 2


class TestStderr:
    # a warning prints as one line of its own, like an error, without
    # Python's file name, line number and source line
    def run(self, tmp_path, old, new):
        recipe = tmp_path / "edited.recipe"
        recipe.write_text(REFERENCE_RECIPE.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "zeropack", "simulate", str(recipe), "--format", "tabular"],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_front_overflow_prints_the_error_alone(self, tmp_path):
        proc = self.run(tmp_path, "sacrificial_thickness = 5um", "sacrificial_thickness = 1e300um")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "zeropack: input error: etch front overflows: etch rate or time is too large"
        ]

    def test_thin_plate_warning_is_one_line(self, tmp_path):
        proc = self.run(tmp_path, "cap_thickness = 2um", "cap_thickness = 5um")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "zeropack: warning: thickness 7.5 um exceeds a fifth of the span; "
            "thin-plate theory is marginal"
        ]


def _grid_units():
    from zeropack.recipe import _FIELDS, _MATERIAL_FIELD_KINDS

    unit = {"length": "um", "time": "min", "pressure": "MPa", "rate": "um/min"}
    paths = {path: kind for path, (kind, _) in _FIELDS.items()}
    for material in ("asi", "sio2_sputter"):  # the roles of FAST_RECIPE
        for prop, kind in _MATERIAL_FIELD_KINDS.items():
            paths[f"materials.{material}.{prop}"] = kind
    return {path: unit.get(kind, "") for path, kind in sorted(paths.items())}


GRID_UNITS = _grid_units()


def with_line(path, value):
    """FAST_RECIPE with ``path`` set by a recipe line, replacing its own."""
    section, key = path.split(".", 1)
    lines = FAST_RECIPE.splitlines()
    for i, line in enumerate(lines):
        if line.partition("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    return f"[{section}]\n{key} = {value}\n\n" + FAST_RECIPE


class TestExtremeValueGrid:
    # each numeric recipe key at each end of the float range: whatever
    # the outcome, it is an exit status of the contract
    @pytest.mark.parametrize("magnitude", ["1e-300", "1e300"])
    @pytest.mark.parametrize("path", sorted(GRID_UNITS))
    def test_exits_in_the_contract(self, tmp_path, capsys, path, magnitude):
        recipe = tmp_path / "extreme.recipe"
        recipe.write_text(with_line(path, magnitude + GRID_UNITS[path]))
        code = main(["simulate", str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert_clean_exit(code, out, err)
