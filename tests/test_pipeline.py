import dataclasses
import functools
import math

import pytest

from conftest import FAST_RECIPE
from zeropack import clogging as clog_mod
from zeropack import mechanics
from zeropack import release as release_mod
from zeropack.clogging import aperture_after, residue_estimate, thickness_to_clog
from zeropack.errors import RecipeError, ReleaseTooSlowError, UncloggableError
from zeropack.mechanics import PlateSpec, solve_plate
from zeropack.pipeline import (
    SWEEP_COLUMNS,
    TABULAR_HEADER,
    emit_report,
    emit_sweep,
    parse_tabular_report,
    run_recipe,
    set_param,
    sweep,
)
from zeropack.recipe import _FIELDS, _MATERIAL_FIELDS, parse_recipe
from zeropack.release import time_to_release, underetch
from zeropack.units import GPA, MBAR, MINUTE, MPA, NM, UM


# Two or three in-range values of every sweepable path of FAST_RECIPE;
# each value but the max_deposition ones gives its own report. The release
# inputs among them each change the release, so a sweep that took one
# row's release for another's would fail the row equality test. The
# footprint, the one release input that no path sets, is the same on
# every row of a sweep.
SWEEP_VALUES = {
    "stack.sacrificial_thickness": [0.8 * UM, 1.1 * UM, 1.5 * UM],
    "stack.cap_thickness": [1.5 * UM, 2 * UM],
    "stack.clog_deposition": [2 * UM, 2.5 * UM],
    "release.intrinsic_rate": [0.5 * UM / MINUTE, 1 * UM / MINUTE],
    "release.aperture_factor": [10 * UM, 30 * UM],
    "release.channel_factor": [0.2, 0.5],
    # a cap only: the fast recipe releases by either, at the same time
    "release.max_time": [120 * MINUTE, 16.4 * MINUTE],
    "release.coverage_pitch": [0.05 * UM, 0.1 * UM, 0.2 * UM],
    "release.probe_time": [1 * MINUTE, 3 * MINUTE],
    "clogging.closure_per_side": [0.3, 0.5],
    "clogging.reference_sticking": [0.2, 0.5],
    "clogging.knee_ratio": [0.5, 1.0],
    "clogging.floor_attenuation": [0.2, 0.5],
    "clogging.residue_fraction": [0.01, 0.05],
    "clogging.residue_spread": [0.5, 1.0],
    "clogging.max_deposition": [5 * UM, 10 * UM],
    "clogging.chamber_pressure": [1e-6 * MBAR, 1e-5 * MBAR],
    "molding.pressure": [5 * MPA, 10 * MPA],
    "molding.max_deflection": [0.01 * NM, 100 * NM],
    "molding.safety_factor": [1.0, 1000.0],
    "molding.grid_n": [16, 32],
    "holes.diameter": [2 * UM, 2.5 * UM],
    "holes[0].diameter": [2 * UM, 2.5 * UM],
    # the structural film
    "materials.sio2_sputter.selectivity_loss": [0.0, 0.5 * NM / MINUTE, 1 * NM / MINUTE],
    # the rest of the structural film, which the release does not read;
    # the stress check fails at the lower failure stress
    "materials.sio2_sputter.youngs_modulus": [60 * GPA, 70 * GPA, 80 * GPA],
    "materials.sio2_sputter.poisson_ratio": [0.17, 0.25],
    "materials.sio2_sputter.failure_stress": [1 * MPA, 2 * GPA],
}
# a deposition or time cap that the seal or the release stays under
# leaves every result as it is
REPORT_UNCHANGED = {"clogging.max_deposition", "release.max_time"}

# the clogging model reads a hole through its minimum dimension only: a
# circle, a square and a rectangle of one width, then a wider circle
MIXED_HOLES = (
    "hole = circle diameter=1.5um x=-1.5um y=-1.5um\n"
    "hole = square side=1.5um x=1.5um y=-1.5um\n"
    "hole = rectangle width=1.5um length=4um x=-1.5um y=1.5um\n"
    "hole = circle diameter=2.5um x=1.5um y=1.5um"
)


def _counting(fn, calls):
    """``fn``, appending its name to ``calls`` on every call."""

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


@pytest.fixture()
def release_calls(monkeypatch):
    """The arguments of every ``time_to_release`` call the test makes."""
    calls = []
    time_to_release = release_mod.time_to_release

    def counted_time_to_release(*args, **kwargs):
        calls.append(args)
        return time_to_release(*args, **kwargs)

    monkeypatch.setattr(release_mod, "time_to_release", counted_time_to_release)
    return calls


@pytest.fixture(scope="module")
def fast_report(fast_recipe):
    return run_recipe(fast_recipe)


class TestRunRecipe:
    def test_reference_package_passes_all_checks(self, reference_report):
        assert reference_report.passed
        assert reference_report.checks == {
            "sealed": True,
            "deflection": True,
            "stress": True,
        }

    def test_reference_residue_and_cavity(self, reference_report):
        assert max(reference_report.residue_thickness) == pytest.approx(80 * NM, rel=0.5)
        assert reference_report.cavity_pressure == pytest.approx(5e-7 * MBAR)

    def test_cavity_inherits_chamber_pressure(self, fast_recipe, fast_report):
        assert fast_report.cavity_pressure == fast_recipe.chamber_pressure

    def test_governing_is_max_over_holes(self, fast_report):
        assert fast_report.governing_clog == max(fast_report.clog_thickness)

    def test_composes_from_individual_stages(self, fast_recipe, fast_report):
        r = fast_recipe
        structural = r.material("structural")
        sealing = r.material("sealing")
        t_rel, loss = time_to_release(
            r.stack.cavity_footprint,
            r.holes,
            r.stack,
            r.etch,
            structural,
            max_time=r.etch_max_time,
            grid_pitch=r.coverage_pitch,
        )
        assert fast_report.release_time == t_rel
        assert fast_report.structural_loss == loss
        hole = r.holes[0]
        assert fast_report.clog_thickness[0] == thickness_to_clog(
            hole, r.stack.cap_thickness, sealing, r.clog, max_deposition=r.max_deposition
        )
        assert fast_report.remaining_aperture[0] == aperture_after(
            hole, r.stack.cap_thickness, r.stack.clog_deposition, sealing, r.clog
        )
        assert fast_report.residue_thickness[0] == residue_estimate(
            hole, r.stack.cap_thickness, r.stack.clog_deposition, sealing, r.clog
        )[0]
        # the plate solve sees the structural cap plus the sealing film
        plate = PlateSpec(
            r.stack.cavity_footprint.width,
            r.stack.cavity_footprint.length,
            r.stack.cap_thickness + r.stack.clog_deposition,
            structural,
            r.molding.pressure,
        )
        sol = solve_plate(plate, r.molding.grid_n)
        assert fast_report.molding_deflection == sol.w_max
        assert fast_report.molding_stress == sol.sigma_max

    def test_probe_underetch_reported(self, fast_recipe, fast_report):
        r = fast_recipe
        expected = underetch(r.holes[0], r.stack, r.etch, 2 * MINUTE)
        assert fast_report.probe_time == 2 * MINUTE
        assert fast_report.probe_underetch == expected

    def test_zero_molding_pressure(self, fast_recipe):
        recipe = set_param(fast_recipe, "molding.pressure", 0.0)
        report = run_recipe(recipe)
        assert report.molding_deflection == 0.0
        assert report.molding_stress == 0.0
        assert report.checks["deflection"] and report.checks["stress"]

    def test_deterministic_repeat_runs(self, fast_recipe):
        a = emit_report(run_recipe(fast_recipe), "tabular")
        b = emit_report(run_recipe(fast_recipe), "tabular")
        assert a == b

    @pytest.mark.parametrize("cap", [240.0, 120.0, 100.0, 97.0, 96.46])
    def test_max_time_only_caps_the_reference_release(self, reference_recipe, cap):
        report = run_recipe(set_param(reference_recipe, "release.max_time", cap * MINUTE))
        assert report.release_time == 5787.063445527196
        assert report.release_time / MINUTE == 96.45105742545326

    def test_clogging_runs_once_per_hole_size(self, monkeypatch):
        recipe = parse_recipe(FAST_RECIPE.replace("hole = circle diameter=2um", MIXED_HOLES))
        assert len(recipe.holes) == 4
        calls = []
        for name in ("thickness_to_clog", "residue_estimate"):
            monkeypatch.setattr(clog_mod, name, _counting(getattr(clog_mod, name), calls))
        report = run_recipe(recipe)
        # once per size (aperture_after is called by thickness_to_clog as
        # well; tests/test_bench_trace.py counts the pipeline's calls only)
        assert calls == ["thickness_to_clog"] * 2 + ["residue_estimate"] * 2
        sealing, cap = recipe.material("sealing"), recipe.stack.cap_thickness
        deposited = recipe.stack.clog_deposition
        for i, hole in enumerate(recipe.holes):
            assert report.clog_thickness[i] == thickness_to_clog(
                hole, cap, sealing, recipe.clog, max_deposition=recipe.max_deposition
            )
            assert report.remaining_aperture[i] == aperture_after(
                hole, cap, deposited, sealing, recipe.clog
            )
            residue = residue_estimate(hole, cap, deposited, sealing, recipe.clog)
            assert (report.residue_thickness[i], report.residue_footprint[i]) == residue

    def test_first_hole_size_that_cannot_seal_names_the_error(self):
        # the 4 um hole fails first, as it did when every hole ran in turn
        holes = (
            "hole = circle diameter=1.5um\nhole = circle diameter=4um x=1um\n"
            "hole = square side=1.5um x=-1um\nhole = circle diameter=6um y=1um"
        )
        text = FAST_RECIPE.replace("hole = circle diameter=2um", holes).replace(
            "[release]", "[clogging]\nmax_deposition = 2um\n\n[release]"
        )
        recipe = parse_recipe(text)
        with pytest.raises(UncloggableError) as direct:
            for hole in recipe.holes:
                thickness_to_clog(
                    hole, recipe.stack.cap_thickness, recipe.material("sealing"), recipe.clog,
                    max_deposition=recipe.max_deposition,
                )
        message = "clogging: hole of 4 um does not seal within 2 um of deposition"
        assert f"clogging: {direct.value}" == message
        with pytest.raises(UncloggableError) as piped:
            run_recipe(recipe)
        assert str(piped.value) == message

    def test_stage_errors_carry_stage_label(self, fast_recipe):
        recipe = set_param(fast_recipe, "release.max_time", 0.5 * MINUTE)
        with pytest.raises(ReleaseTooSlowError, match="^release:"):
            run_recipe(recipe)

    def test_failed_deflection_check(self, fast_recipe):
        recipe = set_param(fast_recipe, "molding.max_deflection", 0.001 * NM)
        report = run_recipe(recipe)
        assert not report.checks["deflection"]
        assert not report.passed

    def test_unsealed_check(self, fast_recipe):
        recipe = set_param(fast_recipe, "stack.clog_deposition", 0.5 * UM)
        report = run_recipe(recipe)
        assert not report.checks["sealed"]
        assert max(report.remaining_aperture) > 0.0


class TestEmitReport:
    def test_tabular_header_is_fixed(self, fast_report):
        assert emit_report(fast_report, "tabular").splitlines()[0] == TABULAR_HEADER
        assert TABULAR_HEADER == "field,units,value"

    def test_tabular_round_trip_is_a_fixed_point(self, fast_report):
        text = emit_report(fast_report, "tabular")
        parsed = parse_tabular_report(text)
        rebuilt = [TABULAR_HEADER] + [
            f"{field},{units},{value:.6g}" for field, (units, value) in parsed.items()
        ]
        assert "\n".join(rebuilt) + "\n" == text

    def test_tabular_values_match_report(self, fast_report):
        parsed = parse_tabular_report(emit_report(fast_report, "tabular"))
        assert parsed["release_time"][0] == "min"
        assert parsed["release_time"][1] == pytest.approx(
            fast_report.release_time / MINUTE, rel=1e-5
        )
        assert parsed["molding_deflection"][1] == pytest.approx(
            fast_report.molding_deflection / NM, rel=1e-5
        )
        assert parsed["passed"][1] == 1.0

    def test_text_format_mentions_checks(self, fast_report):
        text = emit_report(fast_report, "text")
        assert "release time" in text
        assert "sealed pass" in text

    def test_unknown_format_rejected(self, fast_report):
        with pytest.raises(ValueError):
            emit_report(fast_report, "json")

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_tabular_report("nope\n")


class TestSetParam:
    def test_stack_and_molding_paths(self, fast_recipe):
        r = set_param(fast_recipe, "stack.cap_thickness", 3 * UM)
        assert r.stack.cap_thickness == 3 * UM
        r = set_param(fast_recipe, "molding.pressure", 5 * MPA)
        assert r.molding.pressure == 5 * MPA

    def test_all_holes_resized(self, fast_recipe):
        r = set_param(fast_recipe, "holes.diameter", 3 * UM)
        assert all(h.width == 3 * UM for h in r.holes)

    def test_indexed_hole(self, fast_recipe):
        r = set_param(fast_recipe, "holes[0].diameter", 2.5 * UM)
        assert r.holes[0].width == 2.5 * UM

    def test_release_and_clogging_paths(self, fast_recipe):
        r = set_param(fast_recipe, "release.channel_factor", 0.7)
        assert r.etch.channel_factor == 0.7
        r = set_param(fast_recipe, "clogging.chamber_pressure", 1e-6 * MBAR)
        assert r.chamber_pressure == 1e-6 * MBAR

    def test_original_recipe_unchanged(self, fast_recipe):
        before = fast_recipe.holes[0].width
        set_param(fast_recipe, "holes.diameter", 3 * UM)
        assert fast_recipe.holes[0].width == before
        r = set_param(fast_recipe, "materials.sio2_sputter.youngs_modulus", 80 * GPA)
        assert r.materials["sio2_sputter"].youngs_modulus == 80 * GPA
        assert fast_recipe.materials["sio2_sputter"].youngs_modulus == 70 * GPA

    @pytest.mark.parametrize(
        "path",
        [
            "stack.footprint",
            "holes.radius",
            "nonsense",
            "molding.grid_n",  # a field, but 1 um is no grid size
            "release.calibrate_from",
            "materials.lto.name",
            "holes[9].diameter",
        ],
    )
    def test_bad_paths_rejected(self, fast_recipe, path):
        with pytest.raises(RecipeError):
            set_param(fast_recipe, path, 1 * UM)

    def test_grid_n_takes_an_int_only(self, fast_recipe):
        assert set_param(fast_recipe, "molding.grid_n", 64).molding.grid_n == 64
        with pytest.raises(RecipeError, match="grid_n must be an int"):
            set_param(fast_recipe, "molding.grid_n", 64.0)

    def test_wrong_shape_dimension_rejected(self, fast_recipe):
        with pytest.raises(RecipeError, match="no 'side' dimension"):
            set_param(fast_recipe, "holes.side", 1 * UM)

    def test_invalid_value_rejected(self, fast_recipe):
        with pytest.raises(RecipeError):
            set_param(fast_recipe, "stack.cap_thickness", -1 * UM)

    @pytest.mark.parametrize(
        "path",
        [
            *(path for path, (kind, _) in _FIELDS.items() if kind != "count"),
            *(f"materials.sio2_sputter.{prop}" for prop in _MATERIAL_FIELDS),
            "holes.diameter",
            "holes[0].diameter",
        ],
    )
    def test_negative_zero_is_rejected_or_stored_as_zero(self, fast_recipe, path):
        # a stored -0.0 would print as -0 in a report
        try:
            r = set_param(fast_recipe, path, -0.0)
        except RecipeError:
            return
        if path.startswith("materials."):
            _, name, prop = path.split(".")
            stored = getattr(r.materials[name], prop)
        else:
            stored = r
            for attr in _FIELDS[path][1].split("."):
                stored = getattr(stored, attr)
        assert math.copysign(1.0, stored) == 1.0


class TestSweep:
    def test_single_value_equals_run_recipe(self, fast_recipe):
        rows = sweep(fast_recipe, "holes.diameter", [2 * UM])
        assert rows[0][0] == "2e-06"
        assert rows[0][1] == run_recipe(fast_recipe)

    def test_rows_depend_only_on_their_value(self, fast_recipe):
        values = [2 * UM, 2.5 * UM, 3 * UM]
        rows = dict(sweep(fast_recipe, "holes.diameter", values))
        permuted = dict(sweep(fast_recipe, "holes.diameter", values[::-1]))
        assert set(rows) == set(permuted)
        for label in rows:
            assert rows[label] == permuted[label]

    def test_repeated_sweeps_match_byte_for_byte(self, fast_recipe):
        # a sweep starts with no shared release, so a second one in the
        # same process reads nothing the first one stored
        values = [2 * UM, 2.5 * UM, 3 * UM, 3.5 * UM]
        first = emit_sweep(sweep(fast_recipe, "holes.diameter", values), "tabular")
        again = emit_sweep(sweep(fast_recipe, "holes.diameter", values), "tabular")
        assert first == again

    @pytest.mark.parametrize(
        "path, values, solves",
        [
            ("stack.clog_deposition", [(1.5 + 0.25 * i) * UM for i in range(4)], 1),
            ("molding.grid_n", [16, 32, 16], 2),
        ],
        ids=["clog_deposition", "grid_n"],
    )
    def test_sweep_solves_each_plate_geometry_once(
        self, fast_recipe, monkeypatch, path, values, solves
    ):
        solved = []
        unit_peaks = mechanics._unit_peaks.__wrapped__

        def counted_unit_peaks(*key):
            solved.append(key)
            return unit_peaks(*key)

        monkeypatch.setattr(
            mechanics, "_unit_peaks", functools.lru_cache(maxsize=128)(counted_unit_peaks)
        )
        rows = sweep(fast_recipe, path, values)
        assert len(rows) == len(values)
        assert len(solved) == solves

    @pytest.mark.parametrize(
        "path, values, releases",
        [
            ("stack.clog_deposition", [(1.5 + 0.25 * i) * UM for i in range(4)], 1),
            ("holes.diameter", [2 * UM, 3 * UM, 2 * UM], 2),
            ("molding.grid_n", [16, 32], 1),
            ("materials.sio2_sputter.youngs_modulus", [60 * GPA, 70 * GPA, 80 * GPA], 1),
            ("materials.sio2_sputter.poisson_ratio", [0.17, 0.2, 0.25], 1),
            ("materials.sio2_sputter.failure_stress", [1 * MPA, 1 * GPA, 2 * GPA], 1),
            # set_param stores -0.0 as 0.0, so the rows share one release
            ("materials.sio2_sputter.selectivity_loss", [0.0, -0.0, 0.0], 1),
        ],
        ids=[
            "clog_deposition",
            "hole_diameter",
            "grid_n",
            "youngs_modulus",
            "poisson_ratio",
            "failure_stress",
            "selectivity_loss",
        ],
    )
    def test_sweep_runs_each_distinct_release_once(
        self, fast_recipe, release_calls, path, values, releases
    ):
        rows = sweep(fast_recipe, path, values)
        assert len(rows) == len(values)
        assert len(release_calls) == releases

    def test_no_release_is_kept_past_a_sweep(self, fast_recipe, release_calls):
        sweep(fast_recipe, "stack.clog_deposition", [2.5 * UM])
        with pytest.raises(ReleaseTooSlowError):
            sweep(fast_recipe, "release.max_time", [60 * MINUTE, 0.5 * MINUTE])
        release_calls.clear()
        run_recipe(fast_recipe)
        run_recipe(fast_recipe)
        assert len(release_calls) == 2

    @pytest.mark.parametrize("path", [*_FIELDS, *sorted(SWEEP_VALUES.keys() - _FIELDS.keys())])
    def test_rows_equal_run_recipe_on_each_row(self, fast_recipe, path):
        values = SWEEP_VALUES[path]
        rows = sweep(fast_recipe, path, values)
        alone = [run_recipe(set_param(fast_recipe, path, v)) for v in values]
        assert [report for _, report in rows] == alone
        # byte for byte too: == takes -0.0 for 0.0
        for (_, report), expected in zip(rows, alone):
            assert emit_report(report, "tabular") == emit_report(expected, "tabular")
        if path not in REPORT_UNCHANGED:
            assert len({emit_report(r, "tabular") for r in alone}) == len(values)

    def test_failed_row_names_its_value(self, fast_recipe):
        with pytest.raises(ReleaseTooSlowError, match=r"^release\.max_time = 30: release: "):
            sweep(fast_recipe, "release.max_time", [60 * MINUTE, 0.5 * MINUTE])

    def test_custom_labels(self, fast_recipe):
        rows = sweep(fast_recipe, "holes.diameter", [2 * UM], labels=["2um"])
        assert rows[0][0] == "2um"

    def test_label_count_must_match(self, fast_recipe):
        with pytest.raises(ValueError):
            sweep(fast_recipe, "holes.diameter", [2 * UM], labels=["a", "b"])

    def test_header_row_and_empty_sweep(self):
        out = emit_sweep([], "tabular")
        assert out == ",".join(SWEEP_COLUMNS) + "\n"

    def test_sweep_rows_have_all_columns(self, fast_recipe):
        out = emit_sweep(sweep(fast_recipe, "holes.diameter", [2 * UM]), "tabular")
        lines = out.splitlines()
        assert lines[0].split(",") == list(SWEEP_COLUMNS)
        assert len(lines[1].split(",")) == len(SWEEP_COLUMNS)

    def test_text_table_aligns(self, fast_recipe):
        out = emit_sweep(sweep(fast_recipe, "holes.diameter", [2 * UM]), "text")
        assert out.splitlines()[0].startswith("value")


def test_report_is_frozen(fast_report):
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast_report.release_time = 0.0
