import math
from dataclasses import replace

import pytest

from oracles import residue_quadrature
from zeropack.clogging import (
    ClogParams,
    aperture_after,
    closure_rate,
    flux_attenuation,
    residue_estimate,
    thickness_to_clog,
)
from zeropack.errors import UncloggableError
from zeropack.geometry import Hole
from zeropack.units import NM, UM

PARAMS = ClogParams()
SQUARE = Hole.square(math.sqrt(29.1) * UM)
RECT = Hole.rectangle(4.13 * UM, 7.046 * UM)
PRODUCTION = Hole.circle(1.5 * UM)
CAP = 2 * UM


@pytest.fixture(scope="module")
def sio2(materials):
    return materials["sio2_sputter"]


@pytest.fixture(scope="module")
def polysi(materials):
    return materials["polysi_lpcvd"]


class TestFluxAttenuation:
    def test_saturates_at_knee(self):
        assert flux_attenuation(PARAMS.knee_ratio, PARAMS) == 1.0
        assert flux_attenuation(5.0, PARAMS) == 1.0

    def test_floored_for_deep_holes(self):
        assert flux_attenuation(0.0, PARAMS) == PARAMS.floor_attenuation

    def test_monotone(self):
        ratios = [0.0, 0.3, 0.8, 1.5, 2.0, 4.0]
        vals = [flux_attenuation(r, PARAMS) for r in ratios]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            flux_attenuation(-0.1, PARAMS)


class TestClosureRate:
    def test_wide_hole_closes_at_full_rate(self, sio2):
        # 1.6 um of opening per um deposited, back-solved from the
        # 5.394 -> 1.4 um square closure over 2.5 um of film
        rate = closure_rate(SQUARE.width, CAP, sio2, PARAMS)
        assert rate == pytest.approx(1.6, rel=1e-12)

    def test_narrow_regime_covers_measured_clogging_rate(self, sio2):
        # deep-hole rates span the 330 nm-per-um measurement on
        # production holes (0.66 um/um across the diameter)
        rates = [closure_rate(r * CAP, CAP, sio2, PARAMS) for r in (1e-3, 0.5, 1.99)]
        assert rates[0] < 0.66 < rates[-1]
        assert 0.33 <= closure_rate(0.5 * CAP, CAP, sio2, PARAMS) <= 0.75

    def test_low_sticking_cap_material_is_far_slower(self, sio2, polysi):
        fast = closure_rate(SQUARE.width, CAP, sio2, PARAMS)
        slow = closure_rate(SQUARE.width, CAP, polysi, PARAMS)
        assert fast / slow >= 26.0

    def test_exactly_linear_in_sticking(self, sio2):
        base = closure_rate(3 * UM, CAP, sio2, PARAMS)
        for factor in (0.25, 0.5, 2.0):
            scaled = replace(sio2, sticking_coefficient=sio2.sticking_coefficient * factor)
            assert closure_rate(3 * UM, CAP, scaled, PARAMS) == pytest.approx(
                factor * base, rel=1e-12
            )

    def test_sealed_hole_has_zero_rate(self, sio2):
        assert closure_rate(0.0, CAP, sio2, PARAMS) == 0.0

    def test_deeper_hole_closes_no_faster(self, sio2):
        shallow = closure_rate(2 * UM, 1 * UM, sio2, PARAMS)
        deep = closure_rate(2 * UM, 4 * UM, sio2, PARAMS)
        assert deep <= shallow

    def test_validation(self, sio2):
        with pytest.raises(ValueError):
            closure_rate(-1.0, CAP, sio2, PARAMS)
        with pytest.raises(ValueError):
            closure_rate(1 * UM, 0.0, sio2, PARAMS)


class TestApertureAfter:
    def test_square_remaining_matches_measurement(self, sio2):
        remaining = aperture_after(SQUARE, CAP, 2.5 * UM, sio2, PARAMS)
        assert remaining == pytest.approx(1.4 * UM, rel=0.3)

    def test_equal_area_rectangle_nearly_seals(self, sio2):
        remaining = aperture_after(RECT, CAP, 2.5 * UM, sio2, PARAMS)
        assert remaining == pytest.approx(140 * NM, rel=0.3)

    def test_rectangle_seals_an_order_of_magnitude_tighter(self, sio2):
        sq = aperture_after(SQUARE, CAP, 2.5 * UM, sio2, PARAMS)
        rc = aperture_after(RECT, CAP, 2.5 * UM, sio2, PARAMS)
        assert sq / rc > 5.0

    def test_zero_deposition_is_identity(self, sio2):
        assert aperture_after(SQUARE, CAP, 0.0, sio2, PARAMS) == SQUARE.width
        assert aperture_after(RECT, CAP, 0.0, sio2, PARAMS) == RECT.width

    def test_clamps_at_zero(self, sio2):
        assert aperture_after(PRODUCTION, CAP, 9 * UM, sio2, PARAMS) == 0.0
        assert aperture_after(PRODUCTION, CAP, 2.5 * UM, sio2, PARAMS) == 0.0
        assert aperture_after(PRODUCTION, CAP, 0.5 * UM, sio2, PARAMS) > 0.0

    def test_negative_deposition_rejected(self, sio2):
        with pytest.raises(ValueError):
            aperture_after(SQUARE, CAP, -1.0, sio2, PARAMS)


class TestThicknessToClog:
    def test_sub_unity_aspect_ratio_seals_within_two_microns(self, sio2):
        t = thickness_to_clog(PRODUCTION, CAP, sio2, PARAMS)
        assert t <= 2 * UM

    def test_ratio_three_halves_needs_more_than_two_microns(self, sio2):
        t = thickness_to_clog(Hole.circle(3 * UM), CAP, sio2, PARAMS)
        assert 2 * UM < t <= 3 * UM

    def test_matches_linear_closed_form(self, sio2):
        t = thickness_to_clog(PRODUCTION, CAP, sio2, PARAMS)
        closed = PRODUCTION.width / closure_rate(PRODUCTION.width, CAP, sio2, PARAMS)
        assert abs(t - closed) <= math.ulp(closed)

    def test_aperture_is_exactly_zero_at_result(self, sio2):
        t = thickness_to_clog(Hole.circle(3 * UM), CAP, sio2, PARAMS)
        assert aperture_after(Hole.circle(3 * UM), CAP, t, sio2, PARAMS) == 0.0
        assert aperture_after(Hole.circle(3 * UM), CAP, 2 * t, sio2, PARAMS) == 0.0

    def test_monotone_in_initial_aperture(self, sio2):
        ts = [
            thickness_to_clog(Hole.circle(d * UM), CAP, sio2, PARAMS)
            for d in (0.5, 1.5, 3.0, 5.0)
        ]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_slot_seals_before_equal_area_square(self, sio2):
        assert thickness_to_clog(RECT, CAP, sio2, PARAMS) <= thickness_to_clog(
            SQUARE, CAP, sio2, PARAMS
        )

    def test_low_sticking_material_is_uncloggable_within_budget(self, polysi):
        with pytest.raises(UncloggableError):
            thickness_to_clog(PRODUCTION, CAP, polysi, PARAMS)


class TestResidue:
    def test_reference_hole_residue_and_footprint(self, sio2):
        residue, footprint = residue_estimate(PRODUCTION, CAP, 2.5 * UM, sio2, PARAMS)
        assert residue == pytest.approx(80 * NM, rel=0.5)
        assert 8 * UM <= footprint <= 10 * UM

    def test_zero_deposition_gives_nothing(self, sio2):
        assert residue_estimate(PRODUCTION, CAP, 0.0, sio2, PARAMS) == (0.0, 0.0)

    def test_residue_constant_after_sealing(self, sio2):
        seal = thickness_to_clog(PRODUCTION, CAP, sio2, PARAMS)
        r_seal = residue_estimate(PRODUCTION, CAP, seal, sio2, PARAMS)[0]
        r_35 = residue_estimate(PRODUCTION, CAP, 3.5 * UM, sio2, PARAMS)[0]
        r_90 = residue_estimate(PRODUCTION, CAP, 9.0 * UM, sio2, PARAMS)[0]
        assert r_35 == r_90
        assert r_seal == pytest.approx(r_35, rel=1e-6)

    def test_flux_bound(self, sio2):
        for dep in (0.5, 1.0, 2.5, 6.0):
            residue, _ = residue_estimate(PRODUCTION, CAP, dep * UM, sio2, PARAMS)
            assert residue <= PARAMS.residue_fraction * dep * UM

    @pytest.mark.parametrize(
        "hole,dep_um",
        [(PRODUCTION, 2.5), (SQUARE, 2.5), (SQUARE, 1.0), (RECT, 4.0), (PRODUCTION, 0.7)],
    )
    def test_matches_quadrature_oracle(self, sio2, hole, dep_um):
        residue, _ = residue_estimate(hole, CAP, dep_um * UM, sio2, PARAMS)
        oracle = residue_quadrature(hole, CAP, dep_um * UM, sio2, PARAMS)
        assert residue == pytest.approx(oracle, rel=1e-5, abs=1e-15)

    def test_negative_deposition_rejected(self, sio2):
        with pytest.raises(ValueError):
            residue_estimate(PRODUCTION, CAP, -0.1, sio2, PARAMS)


def test_params_validation():
    with pytest.raises(ValueError):
        ClogParams(closure_per_side=0.0)
    with pytest.raises(ValueError):
        ClogParams(reference_sticking=1.5)
    with pytest.raises(ValueError):
        ClogParams(floor_attenuation=1.0)
    with pytest.raises(ValueError):
        ClogParams(knee_ratio=-1.0)
