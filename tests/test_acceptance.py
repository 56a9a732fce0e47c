"""Acceptance suite: one test per headline requirement.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and then asserts every check at its stated tolerance. Criterion 8's
1000-case invariant suites live in test_properties.py; the determinism
half is asserted here.
"""

import math
import time
from dataclasses import replace

import pytest

from oracles import ritz_clamped_square
from zeropack.clogging import (
    ClogParams,
    aperture_after,
    residue_estimate,
    thickness_to_clog,
)
from zeropack.design import (
    THICKNESS_STEP,
    DesignConstraints,
    equivalent_thickness,
    min_cap_thickness,
)
from zeropack.geometry import Hole, PackageStack, Rect, release_coverage, standard_materials
from zeropack.mechanics import DEFAULT_GRID_N, PlateSpec, flexural_rigidity, solve_plate
from zeropack.pipeline import emit_report, emit_sweep, run_recipe, sweep
from zeropack.release import bundled_observations, calibrate_etch, underetch
from zeropack.units import MINUTE, MPA, NM, UM

MATERIALS = standard_materials()
SIO2 = MATERIALS["sio2_sputter"]
LTO = MATERIALS["lto"]
NITRIDE = MATERIALS["nitride_pecvd"]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_underetch_ratio_calibration():
    """Thin/thick 2-minute underetch ratios: 3.0 +-20% at 2 um holes,
    1.3 +-20% at 9 um, strictly decreasing with diameter; under 1 s."""
    start = time.perf_counter()
    params = calibrate_etch(bundled_observations()).params
    ratios = {}
    for d in (2, 4, 6, 9):
        hole = Hole.circle(d * UM)
        thin = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, Rect(30 * UM, 30 * UM))
        thick = PackageStack(3.3 * UM, 2 * UM, 2.5 * UM, Rect(30 * UM, 30 * UM))
        ratios[d] = underetch(hole, thin, params, 2 * MINUTE) / underetch(
            hole, thick, params, 2 * MINUTE
        )
    elapsed = time.perf_counter() - start
    ok_small = abs(ratios[2] - 3.0) <= 0.2 * 3.0
    ok_large = abs(ratios[9] - 1.3) <= 0.2 * 1.3
    ok_mono = ratios[2] > ratios[4] > ratios[6] > ratios[9]
    ok_time = elapsed < 1.0
    report(
        1,
        ok_small and ok_large and ok_mono and ok_time,
        f"ratios 2um={ratios[2]:.3f} (3.0+-20%), 9um={ratios[9]:.3f} (1.3+-20%), "
        f"decreasing={ok_mono}, {elapsed:.2f} s",
    )
    assert ok_small, f"2 um ratio {ratios[2]:.3f} outside 3.0 +- 20%"
    assert ok_large, f"9 um ratio {ratios[9]:.3f} outside 1.3 +- 20%"
    assert ok_mono, f"ratios not strictly decreasing: {ratios}"
    assert ok_time, f"calibration took {elapsed:.2f} s (limit 1 s)"


def test_criterion_2_clogging_thresholds():
    """Seal thickness <= 2 um at aspect ratio 0.75 and in (2, 3] um at
    ratio 1.5; under 1 s."""
    start = time.perf_counter()
    params = ClogParams()
    t_075 = thickness_to_clog(Hole.circle(1.5 * UM), 2 * UM, SIO2, params)
    t_150 = thickness_to_clog(Hole.circle(3.0 * UM), 2 * UM, SIO2, params)
    elapsed = time.perf_counter() - start
    ok_a = t_075 <= 2 * UM
    ok_b = 2 * UM < t_150 <= 3 * UM
    ok_time = elapsed < 1.0
    report(
        2,
        ok_a and ok_b and ok_time,
        f"ratio 0.75 seals at {t_075 / UM:.3f} um (<=2), "
        f"ratio 1.5 at {t_150 / UM:.3f} um (in (2,3]), {elapsed:.3f} s",
    )
    assert ok_a and ok_b and ok_time


def test_criterion_3_shape_effect():
    """Equal-area square and slot: remaining apertures 1.4 um and 140 nm
    (+-30%) after 2.5 um of sealing film, and near-identical release
    coverage at equal etch time."""
    params = ClogParams()
    square = Hole.square(math.sqrt(29.1) * UM)
    rect = Hole.rectangle(4.13 * UM, 7.046 * UM)
    a_sq = aperture_after(square, 2 * UM, 2.5 * UM, SIO2, params)
    a_rc = aperture_after(rect, 2 * UM, 2.5 * UM, SIO2, params)
    ok_sq = abs(a_sq - 1.4 * UM) <= 0.3 * 1.4 * UM
    ok_rc = abs(a_rc - 140 * NM) <= 0.3 * 140 * NM

    etch = calibrate_etch(bundled_observations()).params
    footprint = Rect(30 * UM, 30 * UM)
    stack = PackageStack(1.1 * UM, 2 * UM, 2.5 * UM, footprint)
    pitch = 0.25 * UM
    u_sq = underetch(square, stack, etch, 16 * MINUTE)
    u_rc = underetch(rect, stack, etch, 16 * MINUTE)
    cov_sq = release_coverage(footprint, [square], [u_sq], pitch)
    cov_rc = release_coverage(footprint, [rect], [u_rc], pitch)
    ok_cov = abs(cov_sq - cov_rc) < 0.05
    report(
        3,
        ok_sq and ok_rc and ok_cov,
        f"square {a_sq / UM:.3f} um (1.4+-30%), slot {a_rc / NM:.0f} nm (140+-30%), "
        f"coverage delta {abs(cov_sq - cov_rc):.4f} (<0.05)",
    )
    assert ok_sq, f"square remaining {a_sq / UM:.3f} um outside 1.4 +- 30%"
    assert ok_rc, f"slot remaining {a_rc / NM:.0f} nm outside 140 +- 30%"
    assert ok_cov, f"equal-area coverages differ by {abs(cov_sq - cov_rc):.4f}"


def test_criterion_4_residue(reference_recipe, reference_report):
    """Reference package: cavity residue 80 nm +-50%, footprint within
    [8, 10] um +-1 um, and residue exactly constant after sealing."""
    residue = max(reference_report.residue_thickness)
    footprint = max(reference_report.residue_footprint)
    ok_res = abs(residue - 80 * NM) <= 0.5 * 80 * NM
    ok_fp = 7 * UM <= footprint <= 11 * UM

    r = reference_recipe
    hole = r.holes[0]
    seal = thickness_to_clog(hole, r.stack.cap_thickness, SIO2, r.clog)
    r_seal = residue_estimate(hole, r.stack.cap_thickness, seal, SIO2, r.clog)[0]
    r_more = residue_estimate(hole, r.stack.cap_thickness, seal + 4 * UM, SIO2, r.clog)[0]
    ok_const = r_seal == r_more
    report(
        4,
        ok_res and ok_fp and ok_const,
        f"residue {residue / NM:.1f} nm (80+-50%), footprint {footprint / UM:.1f} um "
        f"([8,10]+-1), constant after sealing={ok_const}",
    )
    assert ok_res and ok_fp and ok_const


def test_criterion_5_molding_deflections():
    """Cap deflections under 10 MPa molding: 25 nm +-50% for 4.5 um LTO,
    36 nm +-50% for 2.5 um nitride, ratio in [1.1, 2.0]; under 5 s at
    grid 128."""
    start = time.perf_counter()
    w_lto = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, LTO, 10 * MPA), 128).w_max
    w_nit = solve_plate(PlateSpec(30 * UM, 30 * UM, 2.5 * UM, NITRIDE, 10 * MPA), 128).w_max
    elapsed = time.perf_counter() - start
    ok_lto = abs(w_lto - 25 * NM) <= 0.5 * 25 * NM
    ok_nit = abs(w_nit - 36 * NM) <= 0.5 * 36 * NM
    ok_ratio = 1.1 <= w_nit / w_lto <= 2.0
    ok_time = elapsed < 5.0
    report(
        5,
        ok_lto and ok_nit and ok_ratio and ok_time,
        f"LTO {w_lto / NM:.1f} nm (25+-50%), nitride {w_nit / NM:.1f} nm (36+-50%), "
        f"ratio {w_nit / w_lto:.2f} in [1.1,2.0], {elapsed:.2f} s",
    )
    assert ok_lto and ok_nit and ok_ratio and ok_time


def test_criterion_6_plate_solver_oracle():
    """Square clamped plate against the classical series coefficients
    (and the independent Rayleigh-Ritz oracle): w within 1%, stress
    within 2%, grid-halving under 1%, exact load linearity, cubic
    rigidity scaling within 0.1%, full square symmetry."""
    import numpy as np

    spec = PlateSpec(30 * UM, 30 * UM, 3 * UM, LTO, 10 * MPA)
    sol = solve_plate(spec, 128)
    d = flexural_rigidity(LTO, spec.thickness)
    w_coef = sol.w_max * d / (spec.pressure * spec.side_a**4)
    s_coef = sol.sigma_max / (spec.pressure * (spec.side_a / spec.thickness) ** 2)
    ok_w = abs(w_coef - 0.00126) / 0.00126 < 0.01
    ok_s = abs(s_coef - 0.308) / 0.308 < 0.02

    alpha, beta = ritz_clamped_square(8)
    ok_oracle = abs(alpha - 0.00126) / 0.00126 < 0.01 and abs(6 * beta) == pytest.approx(
        0.308, rel=0.02
    )

    w64 = solve_plate(spec, 64).w_max
    ok_conv = abs(w64 - sol.w_max) / sol.w_max < 0.01

    s2 = solve_plate(PlateSpec(30 * UM, 30 * UM, 3 * UM, LTO, 20 * MPA), 128)
    ok_lin = s2.w_max == 2 * sol.w_max and np.array_equal(s2.deflection, 2 * sol.deflection)

    s_thick = solve_plate(PlateSpec(30 * UM, 30 * UM, 6 * UM, LTO, 10 * MPA), 128)
    ok_rigidity = abs(s_thick.w_max - sol.w_max / 8) / (sol.w_max / 8) < 0.001

    w = sol.deflection
    sym_err = max(
        np.abs(w - img).max()
        for img in (w.T, w[::-1, :], w[:, ::-1], w[::-1, ::-1], w.T[::-1, :], w.T[:, ::-1])
    ) / sol.w_max
    ok_sym = sym_err < 1e-6

    ok = ok_w and ok_s and ok_oracle and ok_conv and ok_lin and ok_rigidity and ok_sym
    report(
        6,
        ok,
        f"w coef {w_coef:.6f} (0.00126 +-1%), sigma coef {s_coef:.4f} (0.308 +-2%), "
        f"conv {abs(w64 - sol.w_max) / sol.w_max:.2%}, linear={ok_lin}, "
        f"t^3 scaling={ok_rigidity}, symmetry {sym_err:.1e}",
    )
    assert ok_w and ok_s and ok_oracle and ok_conv and ok_lin and ok_rigidity and ok_sym


@pytest.mark.filterwarnings("ignore:thickness")
def test_criterion_7_thickness_optimizer():
    """Minimum LTO cap for the 25 nm molding limit: ~4.5 um +-50%, equal
    to a 10 nm scan, minimal within 50 nm; equivalent thickness matches
    the cube-root law within 0.5% at equal Poisson ratio."""
    constraints = DesignConstraints(
        pressure=10 * MPA,
        side_a=30 * UM,
        side_b=30 * UM,
        max_deflection=25 * NM,
        safety_factor=1.0,
    )
    t = min_cap_thickness(LTO, constraints)
    ok_target = abs(t - 4.5 * UM) <= 0.5 * 4.5 * UM

    k = 0
    while True:
        t_scan = constraints.thickness_min + k * THICKNESS_STEP
        sol = solve_plate(PlateSpec(30 * UM, 30 * UM, t_scan, LTO, 10 * MPA), DEFAULT_GRID_N)
        if sol.w_max <= constraints.max_deflection and sol.sigma_max <= LTO.failure_stress:
            break
        k += 1
    ok_scan = t == t_scan

    thin = solve_plate(PlateSpec(30 * UM, 30 * UM, t - 50 * NM, LTO, 10 * MPA), DEFAULT_GRID_N)
    ok_margin = thin.w_max > constraints.max_deflection or thin.sigma_max > LTO.failure_stress

    nit = replace(NITRIDE, poisson_ratio=LTO.poisson_ratio)
    t_eq = equivalent_thickness(LTO, 4.5 * UM, nit, constraints)
    closed = 4.5 * UM * (LTO.youngs_modulus / nit.youngs_modulus) ** (1 / 3)
    ok_closed = abs(t_eq - closed) / closed < 0.005

    report(
        7,
        ok_target and ok_scan and ok_margin and ok_closed,
        f"min thickness {t / UM:.2f} um (4.5+-50%), scan match={ok_scan}, "
        f"t-50nm violates={ok_margin}, cube-root law err "
        f"{abs(t_eq - closed) / closed:.2%} (<0.5%)",
    )
    assert ok_target and ok_scan and ok_margin and ok_closed


def test_criterion_8_determinism(fast_recipe):
    """Byte-identical tabular output across repeated runs and across
    repeated sweeps (the 1000-case invariant suites run in
    test_properties.py)."""
    first = emit_report(run_recipe(fast_recipe), "tabular")
    second = emit_report(run_recipe(fast_recipe), "tabular")
    ok_repeat = first == second

    values = [2 * UM, 2.5 * UM, 3 * UM, 3.5 * UM]
    outputs = [
        emit_sweep(sweep(fast_recipe, "holes.diameter", values), "tabular") for _ in range(3)
    ]
    ok_sweeps = all(out == outputs[0] for out in outputs)
    report(
        8,
        ok_repeat and ok_sweeps,
        f"repeat runs byte-identical={ok_repeat}, "
        f"repeat sweeps byte-identical={ok_sweeps} "
        "(1000-case property suites in test_properties.py)",
    )
    assert ok_repeat and ok_sweeps
