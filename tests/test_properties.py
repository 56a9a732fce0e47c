"""Property suites for the model invariants.

The core families (coverage monotonicity/refinement, etch-front
monotonicity, closure linearity in the sticking coefficient) run at 1000
sampled cases each; the remaining invariants run at the default profile.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_release_coverage, dense_release_time

from zeropack.clogging import (
    ClogParams,
    aperture_after,
    closure_rate,
    residue_estimate,
    thickness_to_clog,
)
from zeropack.geometry import (
    Hole,
    PackageStack,
    Rect,
    hole_min_dimension,
    release_coverage,
    standard_materials,
)
from zeropack.errors import ReleaseTooSlowError
from zeropack.release import EtchParams, etch_rate, time_to_release, underetch
from zeropack.units import MINUTE, UM

SIO2 = standard_materials()["sio2_sputter"]

UM_F = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def layouts(draw, max_holes=3):
    """A footprint with holes inside it and per-hole underetch distances."""
    fw = draw(st.floats(min_value=6.0, max_value=25.0)) * UM
    fl = draw(st.floats(min_value=6.0, max_value=25.0)) * UM
    cx = draw(st.floats(min_value=-5.0, max_value=5.0)) * UM
    cy = draw(st.floats(min_value=-5.0, max_value=5.0)) * UM
    footprint = Rect(fw, fl, (cx, cy))
    n = draw(st.integers(min_value=1, max_value=max_holes))
    holes, dists = [], []
    for _ in range(n):
        shape = draw(st.sampled_from(["circle", "square", "rectangle"]))
        d1 = draw(st.floats(min_value=1.5, max_value=6.0)) * UM
        hx = cx + draw(st.floats(min_value=-0.5, max_value=0.5)) * fw
        hy = cy + draw(st.floats(min_value=-0.5, max_value=0.5)) * fl
        if shape == "circle":
            holes.append(Hole.circle(d1, (hx, hy)))
        elif shape == "square":
            holes.append(Hole.square(d1, (hx, hy)))
        else:
            ratio = draw(st.floats(min_value=1.0, max_value=2.5))
            holes.append(Hole.rectangle(d1, ratio * d1, (hx, hy)))
        dists.append(draw(UM_F) * UM)
    return footprint, holes, dists


@st.composite
def spread_layouts(draw, max_holes=4):
    """Mixed-shape layouts on a footprint anywhere in the plane, with
    underetch from zero to past full release (one footprint diagonal)."""
    fw = draw(st.floats(min_value=4.0, max_value=15.0)) * UM
    fl = draw(st.floats(min_value=4.0, max_value=15.0)) * UM
    cx = draw(st.floats(min_value=-500.0, max_value=500.0)) * UM
    cy = draw(st.floats(min_value=-500.0, max_value=500.0)) * UM
    footprint = Rect(fw, fl, (cx, cy))
    scale = draw(st.floats(min_value=0.0, max_value=1.2)) * math.hypot(fw, fl)
    holes, dists = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=max_holes))):
        shape = draw(st.sampled_from(["circle", "square", "rectangle"]))
        d1 = draw(st.floats(min_value=1.0, max_value=4.0)) * UM
        center = (
            cx + draw(st.floats(min_value=-0.5, max_value=0.5)) * fw,
            cy + draw(st.floats(min_value=-0.5, max_value=0.5)) * fl,
        )
        if shape == "circle":
            holes.append(Hole.circle(d1, center))
        elif shape == "square":
            holes.append(Hole.square(d1, center))
        else:
            ratio = draw(st.floats(min_value=1.0, max_value=3.0))
            holes.append(Hole.rectangle(d1, ratio * d1, center))
        dists.append(draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)) * scale)
    pitch = min(hole_min_dimension(h) for h in holes) / draw(st.sampled_from([3.0, 4.0, 8.0]))
    return footprint, holes, dists, pitch


def zero_or(lo: float, hi: float):
    """Either exactly zero or a meaningfully positive factor (strict
    monotonicity claims are about present terms, not denormals)."""
    return st.one_of(st.just(0.0), st.floats(min_value=lo, max_value=hi))


@st.composite
def etch_settings(draw):
    params = EtchParams(
        intrinsic_rate=draw(st.floats(min_value=0.2, max_value=5.0)) * UM / MINUTE,
        aperture_factor=draw(zero_or(0.01, 50.0)) * UM,
        channel_factor=draw(zero_or(0.01, 8.0)),
    )
    h_s = draw(st.floats(min_value=0.5, max_value=6.0)) * UM
    stack = PackageStack(h_s, 2 * UM, 2.5 * UM, Rect(40 * UM, 40 * UM))
    hole = Hole.circle(draw(st.floats(min_value=1.0, max_value=9.0)) * UM)
    return hole, stack, params


@st.composite
def clog_settings(draw):
    params = ClogParams(
        closure_per_side=draw(st.floats(min_value=0.2, max_value=2.0)),
        knee_ratio=draw(st.floats(min_value=0.5, max_value=4.0)),
        floor_attenuation=draw(st.floats(min_value=0.0, max_value=0.8)),
    )
    hole = Hole.circle(draw(st.floats(min_value=0.3, max_value=8.0)) * UM)
    cap = draw(st.floats(min_value=0.5, max_value=5.0)) * UM
    return hole, cap, params


class TestCoverageProperties:
    @settings(max_examples=1000)
    @given(layout=layouts(), which=st.integers(min_value=0, max_value=2))
    def test_monotone_in_underetch(self, layout, which):
        footprint, holes, dists = layout
        pitch = min(hole_min_dimension(h) for h in holes) / 4.0
        base = release_coverage(footprint, holes, dists, pitch)
        grown = list(dists)
        grown[which % len(holes)] += 1.5 * UM
        assert release_coverage(footprint, holes, grown, pitch) >= base

    @settings(max_examples=1000)
    @given(
        layout=layouts(),
        tx=st.floats(min_value=-20.0, max_value=20.0),
        ty=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_rigid_translation_invariance(self, layout, tx, ty):
        footprint, holes, dists = layout
        pitch = min(hole_min_dimension(h) for h in holes) / 4.0
        base = release_coverage(footprint, holes, dists, pitch)
        moved_fp = Rect(
            footprint.width,
            footprint.length,
            (footprint.center[0] + tx * UM, footprint.center[1] + ty * UM),
        )
        moved_holes = [
            Hole(h.shape, h.width, h.length, (h.center[0] + tx * UM, h.center[1] + ty * UM))
            for h in holes
        ]
        moved = release_coverage(moved_fp, moved_holes, dists, pitch)
        # identical up to rounding of the shifted coordinates
        assert moved == pytest.approx(base, abs=1e-12)

    @settings(max_examples=1000)
    @given(layout=layouts())
    def test_refinement_stability(self, layout):
        footprint, holes, dists = layout
        pitch = min(hole_min_dimension(h) for h in holes) / 4.0
        coarse = release_coverage(footprint, holes, dists, pitch)
        fine = release_coverage(footprint, holes, dists, pitch / 2.0)
        assert abs(coarse - fine) < 0.01


class TestCoverageOracle:
    @given(case=spread_layouts())
    def test_equals_dense_rasterisation_bit_for_bit(self, case):
        assert release_coverage(*case) == dense_release_coverage(*case)

    @settings(max_examples=60)
    @given(case=spread_layouts())
    def test_release_predicate_equals_dense_threshold(self, case):
        footprint, holes, dists, pitch = case

        def agree(extra):
            grown = [d + extra for d in dists]
            released = dense_release_coverage(footprint, holes, grown, pitch) >= 1.0
            assert (release_coverage(footprint, holes, grown, pitch) >= 1.0) == released
            return released

        agree(0.0)
        # bracket the common front growth at which the layout releases,
        # where the predicate's answer is hardest to get right
        lo, hi = 0.0, math.hypot(footprint.width, footprint.length)
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if agree(mid):
                hi = mid
            else:
                lo = mid
        assert agree(hi)


@st.composite
def release_cases(draw):
    """1 to 6 mixed-shape holes on a raster of 8 to 32 cells along its
    longer side, etch constants whose transport terms may be 0, a time
    cap some layouts do not release by, and now and then a hole covering
    the whole footprint."""
    fw = draw(st.floats(min_value=6.0, max_value=15.0)) * UM
    fl = draw(st.floats(min_value=6.0, max_value=15.0)) * UM
    cx = draw(st.floats(min_value=-50.0, max_value=50.0)) * UM
    cy = draw(st.floats(min_value=-50.0, max_value=50.0)) * UM
    footprint = Rect(fw, fl, (cx, cy))
    holes = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        shape = draw(st.sampled_from(["circle", "square", "rectangle"]))
        d1 = draw(st.floats(min_value=0.5, max_value=3.0)) * UM
        center = (
            cx + draw(st.floats(min_value=-0.5, max_value=0.5)) * fw,
            cy + draw(st.floats(min_value=-0.5, max_value=0.5)) * fl,
        )
        if shape == "circle":
            holes.append(Hole.circle(d1, center))
        elif shape == "square":
            holes.append(Hole.square(d1, center))
        else:
            ratio = draw(st.floats(min_value=1.0, max_value=3.0))
            holes.append(Hole.rectangle(d1, ratio * d1, center))
    if draw(st.integers(min_value=0, max_value=9)) == 3:
        holes.append(Hole.square(2.0 * max(fw, fl), (cx, cy)))
    params = EtchParams(
        intrinsic_rate=draw(st.floats(min_value=0.2, max_value=5.0)) * UM / MINUTE,
        aperture_factor=draw(zero_or(0.01, 50.0)) * UM,
        channel_factor=draw(zero_or(0.01, 8.0)),
    )
    stack = PackageStack(
        draw(st.floats(min_value=0.5, max_value=6.0)) * UM, 2 * UM, 2.5 * UM, footprint
    )
    pitch = max(fw, fl) / draw(st.integers(min_value=8, max_value=32))
    max_time = draw(st.sampled_from([240.0, 20.0, 3.0, 0.5])) * MINUTE
    return footprint, holes, stack, params, pitch, max_time


class TestReleaseTime:
    @given(case=release_cases())
    def test_equals_dense_release_time_bit_for_bit(self, case):
        footprint, holes, stack, params, pitch, max_time = case
        expected = dense_release_time(footprint, holes, stack, params, pitch)
        try:
            t, _ = time_to_release(
                footprint, holes, stack, params, SIO2, max_time=max_time, grid_pitch=pitch
            )
        except ReleaseTooSlowError:
            t = None
        assert t == (expected if expected <= max_time else None)


class TestEtchProperties:
    @settings(max_examples=1000)
    @given(setting=etch_settings(), u1=UM_F, u2=UM_F)
    def test_rate_bounded_and_monotone(self, setting, u1, u2):
        hole, stack, params = setting
        lo, hi = sorted((u1 * UM, u2 * UM))
        r_lo = etch_rate(hole, stack, params, lo)
        r_hi = etch_rate(hole, stack, params, hi)
        assert 0.0 < r_hi <= r_lo <= params.intrinsic_rate
        if params.channel_factor > 0.0 and hi - lo > 1e-3 * UM:
            assert r_hi < r_lo

    @settings(max_examples=1000)
    @given(
        setting=etch_settings(),
        ta=st.floats(min_value=0.0, max_value=8.0),
        tb=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_underetch_monotone_in_time(self, setting, ta, tb):
        hole, stack, params = setting
        lo, hi = sorted((ta * MINUTE, tb * MINUTE))
        assert underetch(hole, stack, params, hi) >= underetch(hole, stack, params, lo)

    @given(setting=etch_settings(), scale=st.floats(min_value=1.01, max_value=4.0))
    def test_larger_opening_etches_faster(self, setting, scale):
        hole, stack, params = setting
        assume(params.aperture_factor > 0.0)
        bigger = Hole.circle(hole.width * scale)
        assert etch_rate(bigger, stack, params, 1 * UM) > etch_rate(hole, stack, params, 1 * UM)


class TestClosureProperties:
    @settings(max_examples=1000)
    @given(
        setting=clog_settings(),
        s_base=st.floats(min_value=0.01, max_value=1.0),
        factor=st.floats(min_value=1e-3, max_value=20.0),
    )
    def test_linear_in_sticking_coefficient(self, setting, s_base, factor):
        hole, cap, params = setting
        assume(s_base * factor <= 1.0)
        mat = replace(SIO2, sticking_coefficient=s_base)
        scaled = replace(mat, sticking_coefficient=s_base * factor)
        base = closure_rate(hole.width, cap, mat, params)
        assert closure_rate(hole.width, cap, scaled, params) == pytest.approx(
            factor * base, rel=1e-12
        )

    @settings(max_examples=1000)
    @given(
        setting=clog_settings(),
        dep=st.floats(min_value=0.0, max_value=8.0),
        extra=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_aperture_nonincreasing_in_deposition(self, setting, dep, extra):
        hole, cap, params = setting
        a1 = aperture_after(hole, cap, dep * UM, SIO2, params)
        a2 = aperture_after(hole, cap, (dep + extra) * UM, SIO2, params)
        assert a2 <= a1 <= hole.width

    @given(
        setting=clog_settings(),
        scale=st.floats(min_value=1.01, max_value=3.0),
        dep=st.floats(min_value=0.0, max_value=6.0),
    )
    def test_aperture_nondecreasing_in_initial_size(self, setting, scale, dep):
        hole, cap, params = setting
        bigger = Hole.circle(hole.width * scale)
        assert aperture_after(bigger, cap, dep * UM, SIO2, params) >= aperture_after(
            hole, cap, dep * UM, SIO2, params
        )

    @given(setting=clog_settings(), extra=st.floats(min_value=0.0, max_value=5.0))
    def test_sealed_exactly_beyond_clog_thickness(self, setting, extra):
        hole, cap, params = setting
        seal = thickness_to_clog(hole, cap, SIO2, params, max_deposition=50 * UM)
        assert aperture_after(hole, cap, seal + extra * UM, SIO2, params) == 0.0

    @given(setting=clog_settings())
    def test_clog_thickness_is_the_first_sealed_float(self, setting):
        # a0 / rate lands an ulp either side of the seal about one time in
        # eight; the result is the smallest float that closes the hole
        hole, cap, params = setting
        seal = thickness_to_clog(hole, cap, SIO2, params, max_deposition=50 * UM)
        assert aperture_after(hole, cap, seal, SIO2, params) == 0.0
        assert aperture_after(hole, cap, math.nextafter(seal, 0.0), SIO2, params) > 0.0
        closed = hole.width / closure_rate(hole.width, cap, SIO2, params)
        assert abs(seal - closed) <= math.ulp(closed)

    @given(setting=clog_settings(), depth_scale=st.floats(min_value=1.05, max_value=4.0))
    def test_deeper_holes_close_no_faster(self, setting, depth_scale):
        hole, cap, params = setting
        shallow = closure_rate(hole.width, cap, SIO2, params)
        deep = closure_rate(hole.width, cap * depth_scale, SIO2, params)
        assert deep <= shallow

    @given(setting=clog_settings(), dep=st.floats(min_value=0.0, max_value=8.0))
    def test_residue_flux_bound(self, setting, dep):
        hole, cap, params = setting
        residue, _ = residue_estimate(hole, cap, dep * UM, SIO2, params)
        assert 0.0 <= residue <= params.residue_fraction * dep * UM + 1e-18

    @given(setting=clog_settings(), extra=st.floats(min_value=0.0, max_value=5.0))
    def test_residue_constant_after_sealing(self, setting, extra):
        hole, cap, params = setting
        seal = thickness_to_clog(hole, cap, SIO2, params, max_deposition=50 * UM)
        at_seal = residue_estimate(hole, cap, seal, SIO2, params)[0]
        later = residue_estimate(hole, cap, seal + extra * UM, SIO2, params)[0]
        assert later == pytest.approx(at_seal, rel=1e-9, abs=1e-18)

    @given(
        area_um2=st.floats(min_value=1.0, max_value=40.0),
        elongation=st.floats(min_value=1.05, max_value=4.0),
        cap_um=st.floats(min_value=0.5, max_value=4.0),
    )
    def test_slots_seal_before_equal_area_squares(self, area_um2, elongation, cap_um):
        side = math.sqrt(area_um2) * UM
        square = Hole.square(side)
        width = side / math.sqrt(elongation)
        rect = Hole.rectangle(width, area_um2 * UM * UM / width)
        params = ClogParams()
        t_rect = thickness_to_clog(rect, cap_um * UM, SIO2, params, max_deposition=60 * UM)
        t_square = thickness_to_clog(square, cap_um * UM, SIO2, params, max_deposition=60 * UM)
        assert t_rect <= t_square
