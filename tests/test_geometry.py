import math

import numpy as np
import pytest

from zeropack.geometry import (
    Hole,
    Material,
    PackageStack,
    Rect,
    aspect_ratio,
    default_coverage_pitch,
    hole_area,
    hole_min_dimension,
    release_coverage,
    standard_materials,
    validate_hole_layout,
)
from zeropack.units import GPA, UM


class TestHole:
    def test_square_area_matches_published_open_area(self):
        # 5.394 um is the square side backing the 29.1 um^2 test openings
        assert hole_area(Hole.square(5.394 * UM)) == pytest.approx(29.1 * UM**2, rel=1e-3)

    def test_circle_area_analytic(self):
        assert hole_area(Hole.circle(2 * UM)) == pytest.approx(math.pi * UM**2, rel=1e-12)

    def test_rectangle_area_equal_to_square_comparison(self):
        assert hole_area(Hole.rectangle(4.13 * UM, 7.046 * UM)) == pytest.approx(
            29.1 * UM**2, rel=1e-3
        )

    def test_min_dimension(self):
        assert hole_min_dimension(Hole.circle(1.5 * UM)) == 1.5 * UM
        assert hole_min_dimension(Hole.square(5.394 * UM)) == 5.394 * UM
        assert hole_min_dimension(Hole.rectangle(4.13 * UM, 7.046 * UM)) == 4.13 * UM

    def test_rectangle_normalizes_width_le_length(self):
        h = Hole.rectangle(7.046 * UM, 4.13 * UM)
        assert (h.width, h.length) == (4.13 * UM, 7.046 * UM)

    def test_invalid_holes_rejected(self):
        with pytest.raises(ValueError):
            Hole.circle(0.0)
        with pytest.raises(ValueError):
            Hole.square(-1 * UM)
        with pytest.raises(ValueError):
            Hole("triangle", 1 * UM, 1 * UM)
        with pytest.raises(ValueError):
            Hole("rectangle", 2 * UM, 1 * UM)
        with pytest.raises(ValueError, match="circle holes have a single dimension"):
            Hole("circle", 1 * UM, 2 * UM)
        with pytest.raises(ValueError, match="rectangle dimensions must be strictly positive"):
            Rect(0.0, 1 * UM)


class TestAspectRatio:
    @pytest.mark.parametrize(
        "diameter,cap,expected",
        [(1.5, 2.0, 0.75), (3.0, 2.0, 1.5), (2.0, 2.0, 1.0)],
    )
    def test_diameter_over_height(self, diameter, cap, expected):
        assert aspect_ratio(Hole.circle(diameter * UM), cap * UM) == pytest.approx(expected)

    def test_requires_positive_cap(self):
        with pytest.raises(ValueError):
            aspect_ratio(Hole.circle(1 * UM), 0.0)


class TestStackAndMaterials:
    def test_stack_requires_positive_thicknesses(self):
        fp = Rect(30 * UM, 30 * UM)
        with pytest.raises(ValueError):
            PackageStack(0.0, 2 * UM, 2.5 * UM, fp)

    def test_layout_validation(self):
        fp = Rect(10 * UM, 10 * UM)
        validate_hole_layout(fp, [Hole.circle(1 * UM, (4 * UM, -4 * UM))])
        with pytest.raises(ValueError, match="outside"):
            validate_hole_layout(fp, [Hole.circle(1 * UM, (6 * UM, 0.0))])

    def test_library_has_expected_films(self, materials):
        assert set(materials) == {
            "asi",
            "sio2_sputter",
            "lto",
            "nitride_pecvd",
            "polysi_lpcvd",
        }
        assert materials["sio2_sputter"].sticking_coefficient == 0.26
        assert materials["polysi_lpcvd"].sticking_coefficient < 0.01
        assert materials["nitride_pecvd"].youngs_modulus == 250 * GPA

    def test_material_invariants(self):
        with pytest.raises(ValueError):
            Material("bad", sticking_coefficient=0.0)
        with pytest.raises(ValueError):
            Material("bad", poisson_ratio=0.5)
        with pytest.raises(ValueError):
            Material("bad", selectivity_loss=-1.0)


class TestReleaseCoverage:
    def test_no_dilation_gives_open_area_fraction(self):
        fp = Rect(10 * UM, 10 * UM)
        cov = release_coverage(fp, [Hole.square(2 * UM)], [0.0], 0.25 * UM)
        assert cov == pytest.approx(0.04, rel=1e-6)
        cov = release_coverage(fp, [Hole.circle(2 * UM)], [0.0], 0.1 * UM)
        assert cov == pytest.approx(math.pi / 100.0, rel=2e-3)

    def test_full_cover_is_exactly_one(self):
        fp = Rect(2 * UM, 2 * UM)
        # the front must reach past the footprint corners
        assert release_coverage(fp, [Hole.circle(3 * UM)], [0.0], 0.2 * UM) == 1.0
        assert release_coverage(fp, [Hole.circle(1 * UM)], [2 * UM], 0.2 * UM) == 1.0

    def test_empty_hole_list_covers_nothing(self):
        assert release_coverage(Rect(5 * UM, 5 * UM), [], [], 0.5 * UM) == 0.0

    def test_two_hole_layout_matches_fine_grid(self):
        # deliberately coarse 10 um pitch against a 10x finer grid
        fp = Rect(20 * UM, 20 * UM)
        holes = [Hole.circle(2 * UM, (-5 * UM, 0.0)), Hole.circle(2 * UM, (5 * UM, 0.0))]
        u = [5 * UM, 5 * UM]
        coarse = release_coverage(fp, holes, u, 10 * UM)
        fine = release_coverage(fp, holes, u, 1 * UM)
        assert coarse == pytest.approx(fine, abs=0.01)

    def test_partial_cover_stays_below_one(self):
        fp = Rect(2 * UM, 2 * UM)
        # inscribed circle misses the footprint corners
        assert release_coverage(fp, [Hole.circle(2 * UM)], [0.0], 0.05 * UM) < 1.0

    def test_input_validation(self):
        fp = Rect(5 * UM, 5 * UM)
        with pytest.raises(ValueError):
            release_coverage(fp, [Hole.circle(1 * UM)], [], 0.5 * UM)
        with pytest.raises(ValueError):
            release_coverage(fp, [Hole.circle(1 * UM)], [0.0], 0.0)
        with pytest.raises(ValueError):
            release_coverage(fp, [Hole.circle(1 * UM)], [-1.0 * UM], 0.5 * UM)

    def test_default_pitch_is_eighth_of_smallest_hole(self):
        holes = [Hole.circle(2 * UM), Hole.square(1.6 * UM)]
        assert default_coverage_pitch(holes) == pytest.approx(0.2 * UM)
        with pytest.raises(ValueError, match="at least one hole required"):
            default_coverage_pitch([])

    def test_monotone_in_underetch(self):
        fp = Rect(12 * UM, 8 * UM)
        holes = [Hole.circle(2 * UM, (-3 * UM, 1 * UM)), Hole.square(1.5 * UM, (3 * UM, -2 * UM))]
        pitch = 0.2 * UM
        values = [
            release_coverage(fp, holes, [u, 0.5 * u], pitch)
            for u in np.linspace(0.0, 8 * UM, 12)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
