import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FAST_RECIPE, REFERENCE_RECIPE, REPO, SRC
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
        assert f"{path} = " in err and message in err


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
