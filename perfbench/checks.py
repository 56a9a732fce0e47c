"""Correctness checks on workload outputs, independent of the program.

Nothing here imports ``zeropack``: the CLI outputs are compared with the
tables the seed printed, and the design study is checked against the
classical clamped-plate coefficients and closed-form identities.
"""

from __future__ import annotations

import math
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

# Tabular fields may drift within this relative tolerance. Replacing the
# RK4 front with its exact first integral moves results in the 6th
# significant digit (about 1e-5 relative); a release time off by a single
# 0.01 min step, or any wrong model constant, moves them by far more.
REL_TOL = 1e-4
ABS_TOL = 1e-9

# Timoshenko & Woinowsky-Krieger, Theory of Plates and Shells, table 35:
# rectangular plate clamped on all edges under uniform load q, a the
# shorter side. b/a -> (alpha, beta) with w_max = alpha q a^4 / D at the
# centre and |M| = beta q a^2 at the middle of the longer edges. On a
# clamped edge w_yy = 0, so the edge moment does not depend on Poisson's
# ratio and sigma_max = 6 beta q a^2 / t^2 for any material.
CLAMPED_PLATE = {
    1.0: (0.00126, 0.0513),
    1.1: (0.00150, 0.0581),
    1.2: (0.00172, 0.0639),
    1.3: (0.00191, 0.0687),
    1.4: (0.00207, 0.0726),
    1.5: (0.00220, 0.0757),
    1.6: (0.00230, 0.0780),
    1.7: (0.00238, 0.0799),
    1.8: (0.00245, 0.0812),
    1.9: (0.00249, 0.0822),
    2.0: (0.00254, 0.0829),
}

# A minimum cap is checked by its closed-form utilisation, the larger of
# deflection over its limit and stress over its limit, at the returned
# thickness. It must lie in [1 - UTIL_TOL, 1 + UTIL_TOL]: the table has 3
# significant digits, the grid-128 finite-difference solve is within 1 %
# of it in deflection and 2 % in stress, and the 10 nm thickness lattice
# lowers the utilisation by at most 3 * 10 nm / 1.5 um = 2 %.
UTIL_TOL = 0.04
# Equal deflection on one plate geometry means equal flexural rigidity,
# so the equivalent thickness has an exact closed form; the root finder
# stops at xtol = 1e-13 m.
EQUIVALENT_TOL = 1e-6
# Frozen etch constants of the seed (um/min, um, -): a full fit on the
# bundled data must reproduce them, as well as the program's own
# DEFAULT_ETCH_PARAMS to 6 significant digits.
SEED_ETCH = (1.75282, 21.0416, 0.321514)
ETCH_UNITS = (1e-6 / 60.0, 1e-6, 1.0)


def plate_closed_form(side_a, side_b, material, pressure, thickness):
    """Peak deflection and peak bending stress of a clamped rectangle."""
    a, b = sorted((side_a, side_b))
    alpha, beta = CLAMPED_PLATE[round(b / a, 6)]
    rigidity = (
        material["youngs_modulus"]
        * thickness**3
        / (12.0 * (1.0 - material["poisson_ratio"] ** 2))
    )
    return alpha * pressure * a**4 / rigidity, 6.0 * beta * pressure * a**2 / thickness**2


def required_thickness(cavity, material):
    """Closed-form thinnest cap meeting both molding limits."""
    w_unit, s_unit = plate_closed_form(
        cavity["side_a"], cavity["side_b"], material, cavity["pressure"], 1.0
    )
    t_deflection = (w_unit / cavity["max_deflection"]) ** (1.0 / 3.0)
    t_stress = math.sqrt(
        s_unit * cavity["safety_factor"] / material["failure_stress"]
    )
    return max(t_deflection, t_stress)


def utilisation(cavity, material, thickness):
    w, sigma = plate_closed_form(
        cavity["side_a"], cavity["side_b"], material, cavity["pressure"], thickness
    )
    stress_limit = material["failure_stress"] / cavity["safety_factor"]
    return max(w / cavity["max_deflection"], sigma / stress_limit)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _cells_match(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g == w:
            continue
        try:
            if not _close(float(g), float(w)):
                return False
        except ValueError:
            return False
    return True


def check_report(text: str, expected: str) -> str | None:
    """Compare a ``field,units,value`` report or a sweep table with the
    seed's, cell by cell: names, units and labels exactly, numbers within
    ``REL_TOL``. Returns ``None`` when it matches, else the first mismatch."""
    got = text.splitlines()
    want = expected.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, expected {len(want)}"
    for g, w in zip(got, want):
        if not _cells_match(g.split(","), w.split(",")):
            return f"line {g!r}, expected {w!r}"
    return None


def check_study(result: dict) -> list[str | None]:
    """One entry per design or calibration call: ``None`` if it passed,
    else why it failed."""
    verdicts = []
    materials = result["materials"]
    for cavity, caps in zip(result["cavities"], result["min_caps"]):
        for name, cap in caps.items():
            if isinstance(cap, str):
                verdicts.append(f"min_cap {name}: {cap}")
                continue
            u = utilisation(cavity, materials[name], cap)
            verdicts.append(
                None if abs(u - 1.0) <= UTIL_TOL else f"min_cap {name}: utilisation {u:.4f}"
            )
    for eq in result["equivalents"]:
        if isinstance(eq["thickness"], str):
            verdicts.append(f"equivalent: {eq['thickness']}")
            continue
        ma, mb = materials[eq["from"]], materials[eq["to"]]
        want = eq["from_thickness"] * (
            ma["youngs_modulus"]
            * (1.0 - mb["poisson_ratio"] ** 2)
            / (mb["youngs_modulus"] * (1.0 - ma["poisson_ratio"] ** 2))
        ) ** (1.0 / 3.0)
        ok = math.isclose(eq["thickness"], want, rel_tol=EQUIVALENT_TOL)
        verdicts.append(None if ok else f"equivalent {eq['thickness']!r} != {want!r}")
    for fit in result["fits"]:
        params = fit["params"]
        if isinstance(params, str):
            verdicts.append(f"calibration: {params}")
        elif fit["left_out"] is None:
            verdicts.append(_check_full_fit(params, result["default_etch"]))
        else:
            ok = all(math.isfinite(p) and p >= 0.0 for p in params) and params[0] > 0.0
            verdicts.append(None if ok else f"jackknife fit {params!r}")
    return verdicts


def _check_full_fit(params, default):
    for p, d, seed, unit in zip(params, default, SEED_ETCH, ETCH_UNITS):
        if f"{p / unit:.6g}" != f"{d / unit:.6g}":
            return f"full fit {p / unit:.6g} != DEFAULT_ETCH_PARAMS {d / unit:.6g}"
        if not _close(p / unit, seed):
            return f"full fit {p / unit:.6g} != seed constant {seed}"
    return None
