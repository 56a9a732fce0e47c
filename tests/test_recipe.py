import re

import pytest

from zeropack.clogging import ClogParams
from zeropack.errors import RecipeError
from zeropack.pipeline import param_kind, set_param
from zeropack.recipe import (
    _FIELDS,
    DEFAULT_CHAMBER_PRESSURE,
    DEFAULT_MOLDING_PRESSURE,
    load_recipe,
    parse_quantity,
    parse_recipe,
)
from zeropack.release import DEFAULT_ETCH_PARAMS, bundled_observations, calibrate_etch
from zeropack.units import BAR, GPA, MBAR, MINUTE, MPA, NM, UM

MINIMAL = """\
[stack]
sacrificial_thickness = 5um
cap_thickness = 2um
clog_deposition = 2.5um
footprint = 30um x 30um

[holes]
hole = circle diameter=1.5um
"""


class TestParseQuantity:
    def test_lengths(self):
        assert parse_quantity("1.5um", "length", "t") == 1.5e-6
        assert parse_quantity("140nm", "length", "t") == pytest.approx(140e-9)
        assert parse_quantity("-2.5um", "length", "t") == -2.5 * UM

    def test_scientific_notation_with_unit(self):
        assert parse_quantity("5e-7mbar", "pressure", "t") == pytest.approx(5e-7 * MBAR)

    def test_pressures_and_times(self):
        assert parse_quantity("100bar", "pressure", "t") == pytest.approx(100 * BAR)
        assert parse_quantity("10MPa", "pressure", "t") == 10 * MPA
        assert parse_quantity("2GPa", "pressure", "t") == 2 * GPA
        assert parse_quantity("2min", "time", "t") == 120.0
        assert parse_quantity("30s", "time", "t") == 30.0

    def test_rates_and_closure(self):
        assert parse_quantity("1.5um/min", "rate", "t") == pytest.approx(1.5 * UM / MINUTE)
        assert parse_quantity("1nm/min", "rate", "t") == pytest.approx(1 * NM / MINUTE)
        assert parse_quantity("0.8um/um", "closure", "t") == pytest.approx(0.8)
        assert parse_quantity("0.8", "closure", "t") == 0.8

    def test_dimensionless(self):
        assert parse_quantity("0.26", "none", "t") == 0.26
        with pytest.raises(RecipeError, match="dimensionless"):
            parse_quantity("0.26um", "none", "t")

    def test_missing_unit(self):
        with pytest.raises(RecipeError, match="missing unit"):
            parse_quantity("1.5", "length", "t")

    def test_unknown_unit(self):
        with pytest.raises(RecipeError, match="unknown unit"):
            parse_quantity("1.5parsec", "length", "t")

    def test_dimension_mismatch(self):
        with pytest.raises(RecipeError, match="dimension mismatch"):
            parse_quantity("2min", "length", "t")
        with pytest.raises(RecipeError, match="dimension mismatch"):
            parse_quantity("3MPa", "time", "t")

    def test_non_finite_rejected(self):
        with pytest.raises(RecipeError, match="not finite"):
            parse_quantity("1e400min", "time", "t")
        with pytest.raises(RecipeError, match="not finite"):
            parse_quantity("1e400", "none", "t")
        # finite as written, infinite once scaled to SI
        with pytest.raises(RecipeError, match="not finite"):
            parse_quantity("1e308GPa", "pressure", "t")

    def test_garbage(self):
        with pytest.raises(RecipeError, match="cannot parse"):
            parse_quantity("abc", "length", "t")


class TestMinimalRecipe:
    def test_defaults(self):
        r = parse_recipe(MINIMAL)
        assert r.etch == DEFAULT_ETCH_PARAMS
        assert r.clog == ClogParams()
        assert r.chamber_pressure == DEFAULT_CHAMBER_PRESSURE
        assert r.molding.pressure == DEFAULT_MOLDING_PRESSURE
        assert r.molding.max_deflection is None
        assert r.molding.safety_factor == 1.0
        assert r.sacrificial == "asi"
        assert r.structural == "sio2_sputter"
        assert r.sealing == "sio2_sputter"

    def test_hole_dimension_stored_in_si(self):
        r = parse_recipe(MINIMAL)
        assert r.holes[0].width == 1.5e-6

    def test_stack_quantities(self):
        r = parse_recipe(MINIMAL)
        assert r.stack.sacrificial_thickness == 5 * UM
        assert r.stack.cavity_footprint.width == 30 * UM


class TestSections:
    def test_duplicate_section_reports_both_lines(self):
        text = MINIMAL + "\n[stack]\ncap_thickness = 2um\n"
        with pytest.raises(RecipeError, match=r"duplicate \[stack\] section \(lines 1 and 10\)"):
            parse_recipe(text)

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL.replace(
            "cap_thickness = 2um", "cap_thickness = 2um\ncap_thickness = 3um"
        )
        with pytest.raises(RecipeError, match="duplicate key 'cap_thickness'"):
            parse_recipe(text)

    def test_unknown_section(self):
        with pytest.raises(RecipeError, match=r"unknown section \[venting\]"):
            parse_recipe(MINIMAL + "\n[venting]\n")

    def test_unknown_key(self):
        text = MINIMAL.replace(
            "cap_thickness = 2um", "cap_thickness = 2um\nwafer_size = 100mm"
        )
        with pytest.raises(RecipeError, match="unknown key 'wafer_size'"):
            parse_recipe(text)

    def test_entry_before_section(self):
        with pytest.raises(RecipeError, match="before any"):
            parse_recipe("cap_thickness = 2um\n" + MINIMAL)

    def test_syntax_error_with_line_number(self):
        with pytest.raises(RecipeError, match="line 2"):
            parse_recipe("[stack]\nnot a key value line\n")

    def test_missing_required_section(self):
        with pytest.raises(RecipeError, match=r"\[stack\]"):
            parse_recipe("[holes]\nhole = circle diameter=1um\n")
        with pytest.raises(RecipeError, match=r"\[holes\]"):
            parse_recipe(MINIMAL.split("[holes]")[0])

    def test_missing_required_key(self):
        with pytest.raises(RecipeError, match="missing required key 'footprint'"):
            parse_recipe(MINIMAL.replace("footprint = 30um x 30um\n", ""))

    def test_comments_everywhere(self):
        text = "# top\n" + MINIMAL.replace(
            "cap_thickness = 2um", "cap_thickness = 2um  # inline"
        )
        assert parse_recipe(text).stack.cap_thickness == 2e-6


class TestHoleEntries:
    def test_all_shapes(self):
        text = MINIMAL + (
            "hole = square side=5.394um x=2um y=-3um\n"
            "hole = rectangle width=4.13um length=7.046um\n"
        )
        r = parse_recipe(text)
        assert [h.shape for h in r.holes] == ["circle", "square", "rectangle"]
        assert r.holes[1].center == (2e-6, -3e-6)

    def test_no_holes_rejected(self):
        with pytest.raises(RecipeError, match="at least one hole"):
            parse_recipe(MINIMAL.replace("hole = circle diameter=1.5um\n", ""))

    @pytest.mark.parametrize(
        "line,match",
        [
            ("hole = hexagon side=1um", "unknown hole shape"),
            ("hole = circle", "needs diameter"),
            ("hole = circle diameter=1um spin=3um", "bad hole attribute"),
            ("hole = circle diameter=1um diameter=2um", "duplicate hole attribute"),
            ("hole = circle diameter=-1um", "positive"),
            ("hole = rectangle width=2um", "needs length"),
        ],
    )
    def test_malformed_holes(self, line, match):
        with pytest.raises(RecipeError, match=match):
            parse_recipe(MINIMAL + line + "\n")

    def test_hole_outside_footprint_rejected(self):
        with pytest.raises(RecipeError, match="outside"):
            parse_recipe(MINIMAL + "hole = circle diameter=1um x=16um y=0um\n")

    def test_footprint_syntax(self):
        with pytest.raises(RecipeError, match="footprint"):
            parse_recipe(MINIMAL.replace("30um x 30um", "30um by 30um"))


class TestMaterialsSection:
    def test_role_assignment_and_override(self):
        text = (
            "[materials]\n"
            "structural = lto\n"
            "lto.youngs_modulus = 80GPa\n"
            "sio2_sputter.sticking_coefficient = 0.3\n" + MINIMAL
        )
        r = parse_recipe(text)
        assert r.structural == "lto"
        assert r.material("structural").youngs_modulus == 80 * GPA
        assert r.materials["sio2_sputter"].sticking_coefficient == 0.3

    def test_unknown_material(self):
        with pytest.raises(RecipeError, match="unknown material"):
            parse_recipe("[materials]\nunobtainium.etch_rate = 1um/min\n" + MINIMAL)

    def test_unknown_property(self):
        with pytest.raises(RecipeError, match="unknown material property"):
            parse_recipe("[materials]\nlto.hardness = 9\n" + MINIMAL)

    def test_undefined_role_target(self):
        with pytest.raises(RecipeError, match="not defined"):
            parse_recipe("[materials]\nsealing = unobtainium\n" + MINIMAL)

    def test_override_validation(self):
        with pytest.raises(RecipeError, match="sticking"):
            parse_recipe("[materials]\nlto.sticking_coefficient = 7\n" + MINIMAL)


class TestReleaseSection:
    def test_explicit_params(self):
        text = MINIMAL + (
            "\n[release]\nintrinsic_rate = 2um/min\naperture_factor = 30um\n"
            "channel_factor = 0.5\nmax_time = 60min\nprobe_time = 2min\n"
        )
        r = parse_recipe(text)
        assert r.etch.intrinsic_rate == pytest.approx(2 * UM / MINUTE)
        assert r.etch.aperture_factor == 30 * UM
        assert r.etch.channel_factor == 0.5
        assert r.etch_max_time == 3600.0
        assert r.probe_time == 120.0

    def test_partial_params_fall_back_to_defaults(self):
        r = parse_recipe(MINIMAL + "\n[release]\nchannel_factor = 0.5\n")
        assert r.etch.channel_factor == 0.5
        assert r.etch.intrinsic_rate == DEFAULT_ETCH_PARAMS.intrinsic_rate

    def test_calibrate_from_file(self, tmp_path):
        data = tmp_path / "underetch.csv"
        lines = [
            f"circle, {o.hole.width / UM}, 0, {o.sacrificial_thickness / UM}, "
            f"{o.time / MINUTE}, {o.underetch / UM}"
            for o in bundled_observations()
        ]
        data.write_text("\n".join(lines) + "\n")
        recipe_file = tmp_path / "test.recipe"
        recipe_file.write_text(MINIMAL + "\n[release]\ncalibrate_from = underetch.csv\n")
        r = load_recipe(recipe_file)
        direct = calibrate_etch(bundled_observations()).params
        assert r.etch.intrinsic_rate == pytest.approx(direct.intrinsic_rate, rel=1e-9)

    def test_calibrate_from_conflicts_with_explicit(self, tmp_path):
        text = MINIMAL + "\n[release]\ncalibrate_from = x.csv\nintrinsic_rate = 2um/min\n"
        with pytest.raises(RecipeError, match="cannot be combined"):
            parse_recipe(text, base_dir=tmp_path)

    def test_calibrate_from_missing_file(self, tmp_path):
        text = MINIMAL + "\n[release]\ncalibrate_from = nowhere.csv\n"
        with pytest.raises(RecipeError, match="not found"):
            parse_recipe(text, base_dir=tmp_path)


class TestCloggingAndMolding:
    def test_clogging_overrides(self):
        text = MINIMAL + (
            "\n[clogging]\nclosure_per_side = 0.9um/um\nknee_ratio = 1.8\n"
            "chamber_pressure = 1e-6mbar\nmax_deposition = 6um\n"
        )
        r = parse_recipe(text)
        assert r.clog.closure_per_side == pytest.approx(0.9)
        assert r.clog.knee_ratio == 1.8
        assert r.chamber_pressure == pytest.approx(1e-6 * MBAR)
        assert r.max_deposition == 6 * UM

    def test_molding_settings(self):
        text = MINIMAL + (
            "\n[molding]\npressure = 100bar\nmax_deflection = 25nm\n"
            "safety_factor = 2\ngrid_n = 64\n"
        )
        r = parse_recipe(text)
        assert r.molding.pressure == pytest.approx(100 * BAR)
        assert r.molding.max_deflection == 25 * NM
        assert r.molding.safety_factor == 2.0
        assert r.molding.grid_n == 64

    def test_bad_safety_factor(self):
        with pytest.raises(RecipeError, match="safety_factor"):
            parse_recipe(MINIMAL + "\n[molding]\nsafety_factor = 0.5\n")

    def test_bad_grid_n(self):
        with pytest.raises(RecipeError, match="grid_n"):
            parse_recipe(MINIMAL + "\n[molding]\ngrid_n = coarse\n")

    def test_bad_clog_param(self):
        with pytest.raises(RecipeError, match="closure_per_side"):
            parse_recipe(MINIMAL + "\n[clogging]\nclosure_per_side = 0\n")


def test_reference_recipe_parses(reference_recipe):
    assert len(reference_recipe.holes) == 36
    assert reference_recipe.stack.cap_thickness == 2e-6
    assert reference_recipe.molding.max_deflection == 25 * NM
    assert reference_recipe.chamber_pressure == pytest.approx(5e-7 * MBAR)


# every numeric field of the table: (an in-range value, an out-of-range
# value or None where the range is checked only by the stage using it)
FIELD_VALUES = {
    "stack.sacrificial_thickness": ("3um", "0um"),
    "stack.cap_thickness": ("2.5um", "-1um"),
    "stack.clog_deposition": ("3um", "0nm"),
    "release.intrinsic_rate": ("2um/min", "0um/min"),
    "release.aperture_factor": ("30um", "-1um"),
    "release.channel_factor": ("0.5", "-0.1"),
    "release.max_time": ("60min", None),
    "release.coverage_pitch": ("0.2um", None),
    "release.probe_time": ("2min", None),
    "clogging.closure_per_side": ("0.9um/um", "0"),
    "clogging.reference_sticking": ("0.3", "1.5"),
    "clogging.knee_ratio": ("1.8", "0"),
    "clogging.floor_attenuation": ("0.3", "1"),
    "clogging.residue_fraction": ("0.1", "-0.1"),
    "clogging.residue_spread": ("2", "-1"),
    "clogging.max_deposition": ("6um", None),
    "clogging.chamber_pressure": ("1e-6mbar", "-1mbar"),
    "molding.pressure": ("50bar", "-1MPa"),
    "molding.max_deflection": ("25nm", "-1nm"),
    "molding.safety_factor": ("2", "0.5"),
}


def with_line(path, token):
    """MINIMAL with ``path`` written as a recipe line."""
    section, key = path.split(".")
    if section == "stack":
        return re.sub(rf"^{key} = .*$", f"{key} = {token}", MINIMAL, flags=re.M)
    return MINIMAL + f"\n[{section}]\n{key} = {token}\n"


def swept(path, token):
    """MINIMAL with ``path`` set the way ``zeropack sweep`` sets it."""
    value = parse_quantity(token, param_kind(path), f"--values entry {token!r}")
    return set_param(parse_recipe(MINIMAL), path, value)


class TestRecipeLinesAndSweepsAgree:
    def test_table_covers_every_field(self):
        assert set(FIELD_VALUES) == set(_FIELDS)

    @pytest.mark.parametrize("path", sorted(FIELD_VALUES))
    def test_recipe_line_equals_set_param(self, path):
        token = FIELD_VALUES[path][0]
        parsed = parse_recipe(with_line(path, token))
        assert parsed != parse_recipe(MINIMAL)
        assert parsed == swept(path, token)

    @pytest.mark.parametrize(
        "path", sorted(path for path, (_, bad) in FIELD_VALUES.items() if bad is not None)
    )
    def test_out_of_range_rejected_on_both_routes(self, path):
        bad = FIELD_VALUES[path][1]
        with pytest.raises(RecipeError):
            parse_recipe(with_line(path, bad))
        with pytest.raises(RecipeError):
            swept(path, bad)

    @pytest.mark.parametrize(
        "hole, path, token, resized",
        [
            ("circle diameter=1.5um", "holes.diameter", "2um", "circle diameter=2um"),
            ("square side=1.5um x=1um", "holes[0].side", "2um", "square side=2um x=1um"),
            (
                "rectangle width=1um length=3um",
                "holes.length",
                "4um",
                "rectangle width=1um length=4um",
            ),
            (
                "rectangle width=1um length=3um",
                "holes.width",
                "5um",
                "rectangle width=5um length=3um",
            ),
        ],
    )
    def test_hole_dimension_equals_hole_line(self, hole, path, token, resized):
        base = MINIMAL.replace("circle diameter=1.5um", hole)
        value = parse_quantity(token, param_kind(path), token)
        assert set_param(parse_recipe(base), path, value) == parse_recipe(
            MINIMAL.replace("circle diameter=1.5um", resized)
        )

    def test_line_number_and_key_prefix_range_errors(self):
        text = MINIMAL + "\n[molding]\npressure = 10MPa\nsafety_factor = 0.5\n"
        with pytest.raises(RecipeError, match="^line 12: safety_factor: safety_factor must be >= 1$"):
            parse_recipe(text)
