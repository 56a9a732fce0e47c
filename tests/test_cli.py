import contextlib
import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FAST_RECIPE, REFERENCE_RECIPE, REPO, SRC, load_perfbench
from oracles import closed_form_underetch
from zeropack import cli, mechanics
from zeropack import release as release_mod
from zeropack.cli import main
from zeropack.geometry import Hole, PackageStack, Rect
from zeropack.pipeline import parse_tabular_report
from zeropack.units import MINUTE, UM


# The seed's tables print the release time of a bisection that stopped up
# to 0.06 s short of the raster's release time; every other cell is as
# printed today, and the benchmark gate takes both.
SEED_RELEASE_TIME, RELEASE_TIME = "96.4502", "96.4511"


def assert_seed_table(out: str, name: str) -> None:
    """``out`` is the seed's ``perfbench/expected/<name>.csv`` with the
    release time and cap loss read off the arrival times, and passes the
    benchmark's own check against that file."""
    expected = (REPO / "perfbench" / "expected" / f"{name}.csv").read_text()
    assert out == expected.replace(SEED_RELEASE_TIME, RELEASE_TIME)
    assert load_perfbench("checks").check_report(out, expected) is None


BUNDLED_DATA = SRC / "zeropack" / "data" / "sf6_underetch.csv"
# three observations of two distinct points, too few for three constants
REPEATED_POINT = (
    "circle, 2.0, 0, 1.1, 40, 20.0\n"
    "circle, 4.0, 0, 1.1, 40, 30.0\n"
    "circle, 4.0, 0, 1.1, 40, 30.0\n"
)


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

    def test_probe_rows_print_the_closed_form_front(self, fast_recipe_file, capsys):
        # FAST_RECIPE probes its one 2 um circle in 1.1 um of sacrificial
        # film 2 min into the etch, with the default etch constants
        assert main(["simulate", str(fast_recipe_file), "--format", "tabular"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        probe = {field: (unit, value) for field, unit, value in rows if field.startswith("probe")}
        stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, Rect(6 * UM, 6 * UM))
        params = release_mod.DEFAULT_ETCH_PARAMS
        u = closed_form_underetch(Hole.circle(2 * UM), stack, params, 2 * MINUTE)
        assert probe == {"probe_time": ("min", "2"), "probe_underetch": ("um", f"{u / UM:.6g}")}

    def test_default_max_deposition_is_ten_um(self, tmp_path, capsys):
        # polysilicon does not seal a 2 um hole within the default cap on
        # the deposition, so with no max_deposition line the cap decides
        path = tmp_path / "polysi.recipe"
        path.write_text("[materials]\nsealing = polysi_lpcvd\n\n" + FAST_RECIPE)
        assert "max_deposition" not in path.read_text()
        assert main(["simulate", str(path)]) == 3
        assert capsys.readouterr().err == (
            "zeropack: model error: clogging: "
            "hole of 2 um does not seal within 10 um of deposition\n"
        )

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

    def test_empty_hole_line_exits_two_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.recipe"
        holes = "hole = circle diameter=2um\n"
        path.write_text(FAST_RECIPE.replace(holes, holes + "hole =\n"))
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "zeropack: input error: line 9: expected 'key = value', got 'hole ='\n"
        )

    def test_release_too_slow_exits_three(self, tmp_path, capsys):
        text = FAST_RECIPE.replace("probe_time = 2min", "max_time = 1min")
        path = tmp_path / "slow.recipe"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 3
        assert "model error: release:" in capsys.readouterr().err

    def test_reference_release_just_past_max_time_exits_three(self, tmp_path, capsys):
        # the reference releases at 96.45106 min; a cap below it is a verdict
        path = tmp_path / "capped.recipe"
        text = REFERENCE_RECIPE.read_text().replace("max_time = 240min", "max_time = 96.44min")
        path.write_text(text)
        assert main(["simulate", str(path), "--format", "tabular"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "zeropack: model error: release: footprint not fully released after 96.44 min"
        ]

    def test_reference_tabular_matches_the_seed_table(self, tmp_path):
        out_file = tmp_path / "reference.csv"
        code = main(
            ["simulate", str(REFERENCE_RECIPE), "--format", "tabular", "--out", str(out_file)]
        )
        assert code == 0
        assert_seed_table(out_file.read_bytes().decode(), "reference")

    def test_reference_text_bytes(self, capsys):
        assert main(["simulate", str(REFERENCE_RECIPE)]) == 0
        assert capsys.readouterr().out == (
            "release time             96.451 min\n"
            "cap loss to release      96.451 nm\n"
            "governing clog           1.8750 um (36/36 holes sealed by the deposition)\n"
            "worst open aperture       0.000 nm\n"
            "residue per hole         79.987 nm over 9.00 um\n"
            "cavity pressure       5.000e-07 mbar\n"
            "molding deflection       18.734 nm\n"
            "molding stress          136.846 MPa\n"
            "checks               sealed pass, deflection pass, stress pass\n"
        )

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
        mechanics._unit_peaks.cache_clear()  # force a cold solve
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

    def test_seal_sweep_tabular_matches_the_seed_table(self, capsys):
        code = main(
            [
                "sweep",
                str(REFERENCE_RECIPE),
                "--param",
                "stack.clog_deposition",
                "--values",
                "1.5um,1.875um,2.5um",
                "--workers",
                "2",
                "--format",
                "tabular",
            ]
        )
        assert code == 0
        assert_seed_table(capsys.readouterr().out, "seal_sweep")

    def test_empty_values_is_an_input_error(self, fast_recipe_file, capsys):
        args = ["sweep", str(fast_recipe_file), "--param", "holes.diameter", "--values", ","]
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        message = "zeropack: input error: --values must list at least one quantity"
        assert err.splitlines() == [message]

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

    def test_failed_row_names_its_value(self, capsys):
        # the 600min row releases; the 1min row does not, and its error
        # names the value as the user wrote it before the stage
        code = main(
            [
                "sweep",
                str(REFERENCE_RECIPE),
                "--param",
                "release.max_time",
                "--values",
                "600min,1min",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "zeropack: model error: release.max_time = 1min: release: "
            "footprint not fully released after 1 min\n"
        )

    def test_front_overflow_names_its_row_and_stage(self, tmp_path, capsys):
        # the 1min row's probe front is finite; the 1e300min row's
        # overflows, an input error that names the value and the stage
        text = FAST_RECIPE.replace(
            "probe_time = 2min", "probe_time = 2min\nintrinsic_rate = 1e300um/min"
        )
        path = tmp_path / "overflow.recipe"
        path.write_text(text)
        code = main(
            ["sweep", str(path), "--param", "release.probe_time", "--values", "1min,1e300min"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "zeropack: input error: release.probe_time = 1e300min: release: "
            "etch front overflows: etch rate or time is too large"
        )

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

    def test_bundled_text_bytes(self, capsys):
        assert main(["calibrate-etch", str(BUNDLED_DATA)]) == 0
        assert capsys.readouterr().out == (
            "fitted on 8 observations\n"
            "intrinsic rate       1.7528 um/min\n"
            "aperture factor     21.0416 um\n"
            "channel factor       0.3215\n"
            "residual norm        0.0622 um\n"
        )

    def test_bundled_tabular_bytes(self, capsys):
        assert main(["calibrate-etch", str(BUNDLED_DATA), "--format", "tabular"]) == 0
        assert capsys.readouterr().out == (
            "field,units,value\n"
            "intrinsic_rate,um/min,1.75282\n"
            "aperture_factor,um,21.0416\n"
            "channel_factor,-,0.321514\n"
            "residual,um,0.0621771\n"
            "n_observations,-,8\n"
        )

    def test_all_zero_underetch_exits_two(self, tmp_path, capsys):
        # no etch was seen, so no rate, aperture or channel factor fits it
        path = tmp_path / "zero.csv"
        path.write_text("".join(f"circle, {d}, 0, 1.1, 2, 0\n" for d in (2, 4, 6)))
        code = main(["calibrate-etch", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        assert err.splitlines() == [
            "zeropack: input error: every underetch is 0, so the data cannot fix the etch constants"
        ]

    @pytest.mark.parametrize(
        "text",
        ["circle, 2, 0, 1.1, 2, 0.4\ncircle, 4, 0, 1.1, 2, 1.1\n", REPEATED_POINT],
        ids=["two-rows", "repeated-point"],
    )
    def test_under_determined_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "under.csv"
        path.write_text(text)
        assert main(["calibrate-etch", str(path)]) == 2

    # the bundled data plus one extreme row: most once printed numpy
    # warnings, and some scipy's own message, before or as the error
    @pytest.mark.parametrize(
        "row, message",
        [
            ("circle,4,0,1.1,2,1e300", "the scaled Jacobian of the residuals is not finite"),
            # a non-finite value is rejected where the file is read, at its line
            ("circle,4,0,1.1,2,nan", "{where}: underetch must be finite"),
            ("circle,4,0,1.1,2,inf", "{where}: underetch must be finite"),
            ("circle,4,0,1.1,1e-300,1.0", "the scaled Jacobian of the residuals is not finite"),
            ("circle,4,0,1.1,1e300,1.0", "the scaled Jacobian of the residuals is not finite"),
            ("circle,4,0,1.1,inf,1.0", "{where}: time must be finite"),
            ("circle,4,0,1.1,1e308,1.0", "{where}: time must be finite"),  # inf in seconds
            ("circle,4,0,1e300,2,1.0", "etch front overflows"),
            ("circle,4,0,inf,2,1.0", "{where}: film thickness must be finite"),
            # each value is finite, but the fit's seed rate would not be
            ("square,3,0,1,1e-300,1e300", "{where}: underetch / time must be finite"),
            ("circle,4,0,1.1,0,1.0", "{where}: time must be > 0"),
            ("circle,4,0,1.1,2,-1.0", "{where}: underetch must be >= 0"),
            ("circle,4,0,0,2,1.0", "{where}: film thickness must be > 0"),
        ],
        ids=[
            "u-1e300", "u-nan", "u-inf", "t-1e-300", "t-1e300", "t-inf", "t-1e308", "h-1e300", "h-inf",
            "u-over-t", "t-0", "u-negative", "h-0",
        ],
    )
    def test_hostile_observation_prints_one_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "hostile.csv"
        bundled = BUNDLED_DATA.read_text()
        path.write_text(f"{bundled}{row}\n")
        code = main(["calibrate-etch", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        assert len(err.splitlines()) == 1
        where = f"{path}:{len(bundled.splitlines()) + 1}"
        assert err.startswith(f"zeropack: input error: {message.format(where=where)}")


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

    def test_reference_text_bytes(self, capsys):
        assert main(["check-molding", str(REFERENCE_RECIPE)]) == 0
        assert capsys.readouterr().out == (
            "cap thickness          4.5000 um\n"
            "molding deflection     18.734 nm (pass)\n"
            "molding stress        136.846 MPa (pass)\n"
        )

    def test_reference_tabular_bytes(self, capsys):
        assert main(["check-molding", str(REFERENCE_RECIPE), "--format", "tabular"]) == 0
        assert capsys.readouterr().out == (
            "field,units,value\n"
            "molding_deflection,nm,18.7337\n"
            "molding_stress,MPa,136.846\n"
            "check_deflection,-,1\n"
            "check_stress,-,1\n"
            "passed,-,1\n"
        )

    def test_reference_dump_field_bytes(self, tmp_path):
        dump = tmp_path / "field.csv"
        assert main(["check-molding", str(REFERENCE_RECIPE), "--dump-field", str(dump)]) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
            "624c4e57a9171ff411b6606d902b8bbffde52d26a880fdb1654f572f27cb8f8f"
        )

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


# zeropack does not use scipy, and sweeps run no threads: importing the
# CLI, which every command pays, must load neither
@pytest.mark.parametrize("package", ["scipy", "concurrent"])
def test_import_loads_no_scipy(package):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, zeropack, zeropack.cli\n"
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_calibration_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys\n"
        "from zeropack.release import bundled_observations, calibrate_etch\n"
        "calibrate_etch(bundled_observations())\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
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
    # a closure rate that overflows to inf read as a hole sealed by no
    # deposition, and the search for its seal never ended
    (
        "closure-per-side",
        "simulate",
        "[clogging]\nclosure_per_side = 1e308\n\n" + FAST_RECIPE,
        2,
        "input error: clogging: closure rate overflows: "
        "closure_per_side or sticking ratio is too large",
    ),
    (
        "reference-sticking",
        "simulate",
        "[clogging]\nreference_sticking = 1e-320\n\n" + FAST_RECIPE,
        2,
        "input error: clogging: closure rate overflows: "
        "closure_per_side or sticking ratio is too large",
    ),
    # knee_ratio * cap_thickness underflowed to 0 and was divided by
    (
        "knee-ratio",
        "simulate",
        "[clogging]\nknee_ratio = 1e-320\n\n" + FAST_RECIPE,
        2,
        "input error: clogging: knee aperture underflows: "
        "knee_ratio or cap thickness is too small",
    ),
    # keys that older recipes may still carry
    (
        "sacrificial-role",
        "simulate",
        MATERIALS + "sacrificial = asi\n" + FAST_RECIPE,
        2,
        "input error: line 2: unknown key 'sacrificial' in [materials]",
    ),
    (
        "etch-rate",
        "simulate",
        MATERIALS + "asi.etch_rate = 3um/min\n" + FAST_RECIPE,
        2,
        "input error: line 2: asi.etch_rate: unknown material property 'etch_rate'",
    ),
    # an override no stage reads: the report was the same without it
    (
        "role-less-material",
        "simulate",
        MATERIALS + "lto.youngs_modulus = 1GPa\n" + FAST_RECIPE,
        2,
        "input error: line 2: lto.youngs_modulus: material 'lto' fills no role "
        "(structural is 'sio2_sputter', sealing is 'sio2_sputter')",
    ),
    # an override of a property that no stage reads of its material's role
    (
        "sealing-material-youngs-modulus",
        "simulate",
        MATERIALS + "sealing = lto\nlto.youngs_modulus = 1GPa\n" + FAST_RECIPE,
        2,
        "input error: line 3: lto.youngs_modulus: no stage reads youngs_modulus of "
        "'lto': the structural material is 'sio2_sputter'",
    ),
    (
        "structural-material-sticking",
        "simulate",
        MATERIALS + "sealing = lto\nsio2_sputter.sticking_coefficient = 0.9\n" + FAST_RECIPE,
        2,
        "input error: line 3: sio2_sputter.sticking_coefficient: no stage reads "
        "sticking_coefficient of 'sio2_sputter': the sealing material is 'lto'",
    ),
]


class WallClockExpired(BaseException):
    """Raised by :func:`wall_clock_limit`; a ``BaseException``, so that
    ``cli.main`` cannot report it as an exit status."""


@contextlib.contextmanager
def wall_clock_limit(seconds=5.0):
    """Interrupt the block with :class:`WallClockExpired` after
    ``seconds`` of wall time, so that a hang fails instead of stalling."""

    def expire(signum, frame):
        raise WallClockExpired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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
        with wall_clock_limit():
            code = main([command, str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert code == status
        assert_clean_exit(code, out, err)
        assert err.splitlines()[-1].startswith(f"zeropack: {message}")

    @pytest.mark.parametrize(
        "path, values, message",
        [
            ("clogging.closure_per_side", "0.8,1e308", "closure rate overflows: "),
            ("clogging.reference_sticking", "0.26,1e-320", "closure rate overflows: "),
            ("clogging.knee_ratio", "2,1e-320", "knee aperture underflows: "),
        ],
        ids=["closure-per-side", "reference-sticking", "knee-ratio"],
    )
    def test_sweep_row_exits_with_its_stage(self, fast_recipe_file, capsys, path, values, message):
        with wall_clock_limit():
            code = main(["sweep", str(fast_recipe_file), "--param", path, "--values", values])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        bad = values.split(",")[1]
        assert err.splitlines()[-1].startswith(
            f"zeropack: input error: {path} = {bad}: clogging: {message}"
        )

    @pytest.mark.parametrize(
        "roles, path, value, reason",
        [
            (
                "",
                "materials.lto.youngs_modulus",
                "1GPa",
                "material 'lto' fills no role (structural is 'sio2_sputter', sealing is "
                "'sio2_sputter')",
            ),
            (
                "sealing = lto\n",
                "materials.lto.youngs_modulus",
                "1GPa",
                "no stage reads youngs_modulus of 'lto': the structural material is "
                "'sio2_sputter'",
            ),
            (
                "sealing = lto\n",
                "materials.sio2_sputter.sticking_coefficient",
                "0.9",
                "no stage reads sticking_coefficient of 'sio2_sputter': the sealing "
                "material is 'lto'",
            ),
        ],
        ids=["role-less-material", "sealing-material-youngs-modulus", "structural-material-sticking"],
    )
    def test_sweep_of_a_property_no_stage_reads_exits_two(
        self, tmp_path, capsys, roles, path, value, reason
    ):
        recipe = tmp_path / "roles.recipe"
        recipe.write_text(MATERIALS + roles + FAST_RECIPE)
        code = main(["sweep", str(recipe), "--param", path, "--values", value])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        assert err.splitlines() == [f"zeropack: input error: {path} = {value}: {reason}"]

    @pytest.mark.parametrize("command", ["simulate", "check-molding"])
    def test_rigidity_underflow_is_a_model_error(self, tmp_path, capsys, command):
        # the cap's t^3 underflows to 0, so the load has no q / D to scale by
        recipe = tmp_path / "tiny.recipe"
        recipe.write_text(
            FAST_RECIPE.replace("cap_thickness = 2um", "cap_thickness = 1e-105um").replace(
                "clog_deposition = 2.5um", "clog_deposition = 1e-105um"
            )
        )
        code = main([command, str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert code == 3
        assert_clean_exit(code, out, err)
        assert err.splitlines() == [
            "zeropack: model error: molding: plate deflection or stress is not finite"
        ]

    @pytest.mark.parametrize(
        "source, reason",
        [
            ("one.csv", "under-determined: 1 distinct observations for 3 free parameters"),
            # three rows, but two of them measure the same point
            ("repeat.csv", "under-determined: 2 distinct observations for 3 free parameters"),
            ("bad.csv", "{path}:2: not UTF-8 text (invalid start byte)"),
            (".", "{path}: Is a directory"),
            ("nowhere.csv", "{path}: No such file or directory"),
        ],
        ids=["under-determined", "repeated-point", "not-utf8", "directory", "missing"],
    )
    def test_calibrate_from_error_names_its_recipe_line(self, tmp_path, capsys, source, reason):
        # a file the fit cannot use, read or decode: the error names the
        # recipe line that asked for the fit
        (tmp_path / "one.csv").write_text("circle, 2, 0, 1.1, 2, 0.4\n")
        (tmp_path / "repeat.csv").write_text(REPEATED_POINT)
        (tmp_path / "bad.csv").write_bytes(b"circle, 2, 0, 1.1, 2, 0.4\n\xff")
        recipe = tmp_path / "calibrated.recipe"
        recipe.write_text(
            FAST_RECIPE.replace("[release]\n", f"[release]\ncalibrate_from = {source}\n")
        )
        code = main(["simulate", str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        reason = reason.format(path=tmp_path / source)
        assert err.splitlines() == [f"zeropack: input error: line 11: calibrate_from: {reason}"]

    @pytest.mark.parametrize(
        "command, text",
        [("simulate", FAST_RECIPE), ("calibrate-etch", BUNDLED_DATA.read_text())],
        ids=["recipe", "data-file"],
    )
    def test_file_not_utf8_names_its_line(self, tmp_path, capsys, command, text):
        # one trailing 0xff byte, which no UTF-8 text holds
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode() + b"\xff")
        code = main([command, str(path), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        line = text.count("\n") + 1
        assert err.splitlines() == [
            f"zeropack: input error: {path}:{line}: not UTF-8 text (invalid start byte)"
        ]

    def test_internal_fault_exits_seventy(self, fast_recipe_file, capsys, monkeypatch):
        # an exception no handler names is a fault in zeropack itself
        def broken(recipe):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_recipe", broken)
        code = main(["simulate", str(fast_recipe_file)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_SOFTWARE == 70
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines() == ["zeropack: internal error: RuntimeError: boom"]

    def test_unnamed_value_error_exits_seventy(self, fast_recipe_file, capsys, monkeypatch):
        # input errors are InputErrors; a bare ValueError is a fault
        def broken(args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "_cmd_simulate", broken)
        code = main(["simulate", str(fast_recipe_file)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_SOFTWARE
        assert out == ""
        assert err.splitlines() == ["zeropack: internal error: ValueError: boom"]

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
        # max_time, never further
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
        # one front per window time from 1 min to 1e300 min
        assert fronts <= math.ceil(math.log2(1e300)) + 1


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
        # every arrival time overflows to inf, past the 240 min cap
        proc = self.run(tmp_path, "sacrificial_thickness = 5um", "sacrificial_thickness = 1e300um")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "zeropack: model error: release: footprint not fully released after 240 min"
        ]

    def test_thin_plate_warning_is_one_line(self, tmp_path):
        proc = self.run(tmp_path, "cap_thickness = 2um", "cap_thickness = 5um")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "zeropack: warning: thickness 7.5 um exceeds a fifth of the span; "
            "thin-plate theory is marginal"
        ]


def _grid_units():
    from zeropack.recipe import _FIELDS, _MATERIAL_FIELDS

    unit = {"length": "um", "time": "min", "pressure": "MPa", "rate": "um/min"}
    paths = {path: kind for path, (kind, _) in _FIELDS.items()}
    # sio2_sputter fills both roles of FAST_RECIPE, asi neither
    for material in ("asi", "sio2_sputter"):
        for prop, (kind, _) in _MATERIAL_FIELDS.items():
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
    # each numeric recipe key at each end of the float range, subnormal
    # and largest finite magnitudes included: whatever the outcome, it is
    # an exit status of the contract, reached in bounded time
    @pytest.mark.parametrize("magnitude", ["1e-320", "1e-300", "1e300", "1e308"])
    @pytest.mark.parametrize("path", sorted(GRID_UNITS))
    def test_exits_in_the_contract(self, tmp_path, capsys, path, magnitude):
        recipe = tmp_path / "extreme.recipe"
        recipe.write_text(with_line(path, magnitude + GRID_UNITS[path]))
        with wall_clock_limit():
            code = main(["simulate", str(recipe), "--format", "tabular"])
        out, err = capsys.readouterr()
        assert_clean_exit(code, out, err)


# A new value for every key a recipe can set, each of which changes the
# reference report or its exit status: a key that changes neither is a
# setting no stage reads. The limits take values that fail their check.
NEW_VALUES = {
    "stack.sacrificial_thickness": "4um",
    "stack.cap_thickness": "3um",
    "stack.clog_deposition": "3um",
    "release.intrinsic_rate": "1um/min",
    "release.aperture_factor": "30um",
    "release.channel_factor": "0.5",
    "release.max_time": "60min",
    "release.coverage_pitch": "0.25um",
    "release.probe_time": "2min",
    "clogging.closure_per_side": "0.9",
    "clogging.reference_sticking": "0.3",
    "clogging.knee_ratio": "1.8",
    "clogging.floor_attenuation": "0.3",
    "clogging.residue_fraction": "0.1",
    "clogging.residue_spread": "2",
    "clogging.max_deposition": "1um",
    "clogging.chamber_pressure": "1e-6mbar",
    "molding.pressure": "5MPa",
    "molding.max_deflection": "10nm",
    "molding.safety_factor": "20",
    "molding.grid_n": "64",
    # sio2_sputter fills both roles of the reference recipe
    "materials.sio2_sputter.selectivity_loss": "2nm/min",
    "materials.sio2_sputter.sticking_coefficient": "0.3",
    "materials.sio2_sputter.youngs_modulus": "80GPa",
    "materials.sio2_sputter.poisson_ratio": "0.25",
    "materials.sio2_sputter.failure_stress": "200MPa",
    # lto has sio2_sputter's constants for every property the cap reads
    "materials.structural": "nitride_pecvd",
    "materials.sealing": "lto",
}
# a new value of each material property
NEW_PROPS = {
    path.rsplit(".", 1)[1]: value
    for path, value in NEW_VALUES.items()
    if path.startswith("materials.sio2_sputter.")
}


def settable_keys():
    """Every key a recipe can set: the numeric fields, each property of a
    material that fills a role by default, and the role keys."""
    from zeropack.recipe import _FIELDS, _MATERIAL_FIELDS, _material_roles

    roles = _material_roles({})
    return {
        *_FIELDS,
        *(f"materials.{name}.{prop}" for name in roles.values() for prop in _MATERIAL_FIELDS),
        *(f"materials.{role}" for role in roles),
    }


def reference_with(path, value):
    """The reference recipe with ``path`` set to ``value`` by a line of
    its section, which the recipe has, replacing the key's own line where
    it has one."""
    section, key = path.split(".", 1)
    lines = REFERENCE_RECIPE.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.partition("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def simulate(tmp_path, capsys, text):
    """Exit status and tabular report of ``zeropack simulate`` on ``text``."""
    recipe = tmp_path / "edited.recipe"
    recipe.write_text(text)
    code = main(["simulate", str(recipe), "--format", "tabular"])
    return code, capsys.readouterr().out


class TestEverySettingIsRead:
    def test_table_covers_every_settable_key(self):
        assert set(NEW_VALUES) == settable_keys()

    @pytest.mark.parametrize("path", sorted(NEW_VALUES))
    def test_new_value_changes_the_report(self, tmp_path, capsys, path):
        before = simulate(tmp_path, capsys, REFERENCE_RECIPE.read_text())
        after = simulate(tmp_path, capsys, reference_with(path, NEW_VALUES[path]))
        assert before[0] == 0
        # the new value is one the recipe takes, so no input error stands
        # in for a change
        assert after[0] in (0, 1, 3)
        assert after != before

    @pytest.mark.parametrize(
        "path",
        sorted(f"materials.{name}.{prop}" for name in ("lto", "sio2_sputter") for prop in NEW_PROPS),
    )
    def test_split_roles_read_each_property_of_one_material(self, tmp_path, capsys, path):
        # lto seals a sio2_sputter cap: the sealing role reads lto's
        # sticking coefficient, the structural role the rest of sio2_sputter
        name, prop = path.split(".")[1:]
        split = reference_with("materials.sealing", "lto")
        override = f"{name}.{prop} = {NEW_PROPS[prop]}"
        edited = split.replace("[materials]\n", f"[materials]\n{override}\n")
        before = simulate(tmp_path, capsys, split)
        code, out = simulate(tmp_path, capsys, edited)
        if name == ("lto" if prop == "sticking_coefficient" else "sio2_sputter"):
            assert code in (0, 1, 3)
            assert (code, out) != before
        else:
            assert (code, out) == (2, "")

    def test_removed_sweep_param_exits_two(self, fast_recipe_file, capsys):
        args = ["--param", "materials.asi.etch_rate", "--values", "0.1um/min,3um/min"]
        code = main(["sweep", str(fast_recipe_file), *args])
        out, err = capsys.readouterr()
        assert code == 2
        assert_clean_exit(code, out, err)
        assert err.splitlines() == ["zeropack: input error: unknown material property 'etch_rate'"]


class TestNegativeZeroReadsAsZero:
    @pytest.mark.parametrize(
        "path, value, rows",
        [
            ("molding.pressure", "-0MPa", ["molding_deflection,nm,0", "molding_stress,MPa,0"]),
            ("clogging.chamber_pressure", "-0mbar", ["cavity_pressure,mbar,0"]),
        ],
        ids=["molding-pressure", "chamber-pressure"],
    )
    def test_report_prints_no_negative_zero(self, tmp_path, capsys, path, value, rows):
        code, out = simulate(tmp_path, capsys, reference_with(path, value))
        assert code in (0, 1)
        assert set(rows) <= set(out.splitlines())

    def test_probe_label_has_no_sign(self, tmp_path, capsys):
        recipe = tmp_path / "probe.recipe"
        recipe.write_text(reference_with("release.probe_time", "-0s"))
        assert main(["simulate", str(recipe)]) == 0
        assert "underetch at 0 min " in capsys.readouterr().out

    def test_sweep_rows_of_either_zero_share_one_release(self, capsys, monkeypatch):
        calls = []
        time_to_release = release_mod.time_to_release

        def counted(*args, **kwargs):
            calls.append(args)
            return time_to_release(*args, **kwargs)

        monkeypatch.setattr(release_mod, "time_to_release", counted)
        path = "materials.sio2_sputter.selectivity_loss"
        args = ["--param", path, "--values=-0um/min,0um/min", "--format", "tabular"]
        assert main(["sweep", str(REFERENCE_RECIPE), *args]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[2] for row in rows] == ["0", "0"]
        assert len(calls) == 1
