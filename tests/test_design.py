import gc
import math
import tracemalloc
import warnings
from dataclasses import replace

import pytest

from zeropack import design, mechanics
from zeropack.design import (
    THICKNESS_STEP,
    DesignConstraints,
    equivalent_thickness,
    min_cap_thickness,
)
from zeropack.errors import DesignError
from zeropack.mechanics import DEFAULT_GRID_N, PlateSpec, solve_plate
from zeropack.units import MPA, NM, UM

pytestmark = pytest.mark.filterwarnings("ignore:thickness")


@pytest.fixture(scope="module")
def lto(materials):
    return materials["lto"]


@pytest.fixture(scope="module")
def nitride(materials):
    return materials["nitride_pecvd"]


def molding_constraints(**overrides):
    base = dict(
        pressure=10 * MPA,
        side_a=30 * UM,
        side_b=30 * UM,
        max_deflection=25 * NM,
        safety_factor=1.0,
    )
    base.update(overrides)
    return DesignConstraints(**base)


def scan_oracle(material, constraints):
    """Exhaustive 10 nm sweep using the plate solver directly: the first
    feasible lattice point up to ``thickness_max``, else ``thickness_max``
    itself when it is feasible, else ``None``."""

    def feasible(t):
        sol = solve_plate(
            PlateSpec(constraints.side_a, constraints.side_b, t, material, constraints.pressure),
            DEFAULT_GRID_N,
        )
        return (
            sol.w_max <= constraints.max_deflection
            and sol.sigma_max <= material.failure_stress / constraints.safety_factor
        )

    k = 0
    while (t := constraints.thickness_min + k * THICKNESS_STEP) <= constraints.thickness_max:
        if feasible(t):
            return t
        k += 1
    return constraints.thickness_max if feasible(constraints.thickness_max) else None


# (material, side of a square in um, pressure in MPa, lattice point k,
# limit): at_limit sets that limit to the plate's own peak at the k-th
# lattice thickness; the first two step down onto it
BOUNDARY_CASES = [
    ("sio2_sputter", 65.7155, 3.206, 227, "deflection"),
    ("sio2_sputter", 51.1385, 2.455, 55, "stress"),
    ("lto", 30.0, 10.0, 400, "deflection"),
    ("lto", 30.0, 10.0, 400, "stress"),
]


def at_limit(materials, name, side_um, pressure_mpa, k, limit, ulps):
    """A material and constraints whose deflection or stress limit is the
    peak of the plate at ``thickness_min + k * THICKNESS_STEP``, moved
    ``ulps`` (-1, 0 or 1) units in the last place; the other limit is
    off (no deflection limit, or the material's own failure stress)."""
    material = materials[name]
    c = molding_constraints(
        side_a=side_um * UM, side_b=side_um * UM, pressure=pressure_mpa * MPA
    )
    t = c.thickness_min + k * THICKNESS_STEP
    sol = solve_plate(PlateSpec(c.side_a, c.side_b, t, material, c.pressure), DEFAULT_GRID_N)
    peak = sol.w_max if limit == "deflection" else sol.sigma_max
    value = peak if ulps == 0 else math.nextafter(peak, math.inf * ulps)
    if limit == "deflection":
        return material, replace(c, max_deflection=value)
    return replace(material, failure_stress=value), replace(c, max_deflection=math.inf)


class TestMinCapThickness:
    def test_reference_target(self, lto):
        t = min_cap_thickness(lto, molding_constraints())
        assert t == pytest.approx(4.5 * UM, rel=0.5)

    def test_matches_grid_scan_exactly(self, lto):
        c = molding_constraints()
        assert min_cap_thickness(lto, c) == scan_oracle(lto, c)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("case", BOUNDARY_CASES, ids=lambda case: f"{case[0]}-{case[4]}")
    def test_matches_grid_scan_exactly_at_a_limit(self, materials, case, ulps):
        material, c = at_limit(materials, *case, ulps)
        assert min_cap_thickness(material, c) == scan_oracle(material, c)

    @pytest.mark.parametrize("case", BOUNDARY_CASES[:2], ids=lambda case: case[4])
    def test_steps_down_onto_a_limit(self, materials, monkeypatch, case):
        # the limit met exactly at lattice point k: the thickness that the
        # scaling reads off the solve at thickness_max rounds to just above
        # it, so the search enters at k + 1 and steps down to k
        material, c = at_limit(materials, *case, 0)
        solved = []

        def recorded(spec, grid_n):
            solved.append(spec.thickness)
            return solve_plate(spec, grid_n)

        monkeypatch.setattr(design, "solve_plate", recorded)
        k = case[3]
        t = min_cap_thickness(material, c)
        assert t == c.thickness_min + k * THICKNESS_STEP == scan_oracle(material, c)
        assert solved[1] == c.thickness_min + (k + 1) * THICKNESS_STEP

    def test_minimality_margin(self, lto):
        c = molding_constraints()
        t = min_cap_thickness(lto, c)
        thin = t - 50 * NM
        sol = solve_plate(PlateSpec(c.side_a, c.side_b, thin, lto, c.pressure), DEFAULT_GRID_N)
        violated = (
            sol.w_max > c.max_deflection
            or sol.sigma_max > lto.failure_stress / c.safety_factor
        )
        assert violated

    def test_result_satisfies_both_constraints(self, lto):
        c = molding_constraints()
        t = min_cap_thickness(lto, c)
        sol = solve_plate(PlateSpec(c.side_a, c.side_b, t, lto, c.pressure), DEFAULT_GRID_N)
        assert sol.w_max <= c.max_deflection
        assert sol.sigma_max <= lto.failure_stress / c.safety_factor

    def test_unconstrained_returns_lower_bound(self, lto):
        free = replace(lto, failure_stress=1e14)
        c = molding_constraints(max_deflection=float("inf"), thickness_min=0.5 * UM)
        assert min_cap_thickness(free, c) == 0.5 * UM

    def test_monotone_in_pressure(self, lto):
        t_lo = min_cap_thickness(lto, molding_constraints(pressure=5 * MPA))
        t_hi = min_cap_thickness(lto, molding_constraints(pressure=10 * MPA))
        assert t_hi >= t_lo

    def test_monotone_in_deflection_limit(self, lto):
        t_tight = min_cap_thickness(lto, molding_constraints(max_deflection=15 * NM))
        t_loose = min_cap_thickness(lto, molding_constraints(max_deflection=40 * NM))
        assert t_tight >= t_loose

    def test_infeasible_reports_violations(self, lto):
        # each failed check at thickness_max, in the order the checks run
        brittle = replace(lto, failure_stress=100 * MPA)
        cases = [
            (lto, dict(max_deflection=0.01 * NM), "deflection 13.7 nm > limit 0.01 nm"),
            (brittle, dict(max_deflection=float("inf")), "stress 1.11e+08 Pa > limit 1e+08 Pa"),
            (
                brittle,
                dict(max_deflection=0.01 * NM, safety_factor=2.0),
                "deflection 13.7 nm > limit 0.01 nm; stress 1.11e+08 Pa > limit 5e+07 Pa",
            ),
        ]
        for material, overrides, failed in cases:
            c = molding_constraints(thickness_max=5 * UM, **overrides)
            with pytest.raises(DesignError) as info:
                min_cap_thickness(material, c)
            assert str(info.value) == f"no feasible thickness up to 5 um: {failed}"

    def test_stress_constraint_can_govern(self, lto):
        brittle = replace(lto, failure_stress=150 * MPA)
        c = molding_constraints(max_deflection=float("inf"))
        t = min_cap_thickness(brittle, c)
        sol = solve_plate(PlateSpec(c.side_a, c.side_b, t, brittle, c.pressure), DEFAULT_GRID_N)
        assert sol.sigma_max <= brittle.failure_stress
        thin = solve_plate(
            PlateSpec(c.side_a, c.side_b, t - THICKNESS_STEP, brittle, c.pressure),
            DEFAULT_GRID_N,
        )
        assert thin.sigma_max > brittle.failure_stress

    @pytest.mark.parametrize(
        "t_max_um, t_limit_um, pressure",
        [
            # off the lattice, between 5.50 and 5.51 um
            (5.505, 5.502, 10 * MPA),
            # on the lattice, but 0.5 um + 90 * 10 nm rounds to above 1.4 um
            (1.4, 1.395, 1 * MPA),
        ],
    )
    def test_never_exceeds_thickness_max(self, lto, t_max_um, t_limit_um, pressure):
        # the deflection limit is met only above the last lattice point
        # below thickness_max
        plate = PlateSpec(30 * UM, 30 * UM, t_limit_um * UM, lto, pressure)
        limit = solve_plate(plate, DEFAULT_GRID_N).w_max
        c = molding_constraints(
            pressure=pressure, max_deflection=limit, thickness_max=t_max_um * UM
        )
        assert scan_oracle(lto, c) == c.thickness_max
        assert min_cap_thickness(lto, c) == c.thickness_max

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            molding_constraints(pressure=0.0)
        with pytest.raises(ValueError):
            molding_constraints(max_deflection=0.0)
        with pytest.raises(ValueError):
            molding_constraints(safety_factor=0.5)
        with pytest.raises(ValueError, match="membrane sides must be > 0"):
            molding_constraints(side_a=0.0)
        with pytest.raises(ValueError):
            DesignConstraints(
                pressure=1 * MPA,
                side_a=30 * UM,
                side_b=30 * UM,
                max_deflection=25 * NM,
                thickness_min=5 * UM,
                thickness_max=2 * UM,
            )


class TestEquivalentThickness:
    def test_nitride_matching_reference(self, lto, nitride):
        t = equivalent_thickness(lto, 4.5 * UM, nitride, molding_constraints())
        assert t == pytest.approx(2.5 * UM, rel=0.4)

    def test_identity(self, lto):
        assert equivalent_thickness(lto, 4.5 * UM, lto, molding_constraints()) == 4.5 * UM

    def test_matches_cube_root_closed_form_with_equal_poisson(self, lto, nitride):
        nit = replace(nitride, poisson_ratio=lto.poisson_ratio)
        t = equivalent_thickness(lto, 4.5 * UM, nit, molding_constraints())
        closed = 4.5 * UM * (lto.youngs_modulus / nit.youngs_modulus) ** (1.0 / 3.0)
        assert t == pytest.approx(closed, rel=1e-12)

    def test_general_rigidity_matching(self, lto, nitride):
        t = equivalent_thickness(lto, 4.5 * UM, nitride, molding_constraints())
        closed = 4.5 * UM * (
            (lto.youngs_modulus / (1 - lto.poisson_ratio**2))
            / (nitride.youngs_modulus / (1 - nitride.poisson_ratio**2))
        ) ** (1.0 / 3.0)
        assert t == pytest.approx(closed, rel=1e-12)

    def test_involution(self, lto, nitride):
        c = molding_constraints()
        t_b = equivalent_thickness(lto, 4.5 * UM, nitride, c)
        t_back = equivalent_thickness(nitride, t_b, lto, c)
        assert t_back == pytest.approx(4.5 * UM, rel=0.01)

    def test_stress_margin_mode(self, lto, nitride):
        # stress is material-independent here, so matching the margin
        # reduces to t_b = t_a sqrt(failure_a / failure_b)
        t = equivalent_thickness(
            lto, 4.5 * UM, nitride, molding_constraints(), match="stress"
        )
        closed = 4.5 * UM * (lto.failure_stress / nitride.failure_stress) ** 0.5
        assert t == pytest.approx(closed, rel=1e-12)

    def test_out_of_bounds_rejected(self, lto, nitride):
        c = molding_constraints(thickness_min=4 * UM, thickness_max=10 * UM)
        with pytest.raises(DesignError, match="outside"):
            equivalent_thickness(lto, 4.5 * UM, nitride, c)
        # the same material maps a thickness to itself, inside the bounds only
        with pytest.raises(DesignError, match="outside"):
            equivalent_thickness(lto, 3 * UM, lto, c)

    def test_bad_mode_rejected(self, lto, nitride):
        with pytest.raises(ValueError):
            equivalent_thickness(lto, 4.5 * UM, nitride, molding_constraints(), match="mass")

    def test_non_positive_thickness_rejected(self, lto, nitride):
        with pytest.raises(ValueError, match="thickness_a must be > 0"):
            equivalent_thickness(lto, 0.0, nitride, molding_constraints())


def test_min_cap_on_fresh_geometry_is_one_cold_solve(lto, monkeypatch):
    syntheses = []
    synthesise = mechanics._clamped_biharmonic_unit_load

    def counted(*args):
        syntheses.append(args)
        return synthesise(*args)

    monkeypatch.setattr(mechanics, "_clamped_biharmonic_unit_load", counted)
    mechanics._unit_peaks.cache_clear()
    c = molding_constraints(side_a=37.3 * UM, side_b=41.9 * UM)
    t = min_cap_thickness(lto, c)
    assert len(syntheses) == 1
    assert t == scan_oracle(lto, c)


def test_min_cap_keeps_no_field_per_geometry(lto):
    # after a warm-up geometry, 8 more keep two floats each in the plate
    # layer and no array: less than one (DEFAULT_GRID_N + 1)^2 field in all
    field_bytes = (DEFAULT_GRID_N + 1) ** 2 * 8
    sides = [(31.7 + 2.3 * k, 44.9 - 1.9 * k) for k in range(9)]
    tracemalloc.start()
    try:
        min_cap_thickness(lto, molding_constraints(side_a=sides[0][0] * UM, side_b=sides[0][1] * UM))
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for a, b in sides[1:]:
            min_cap_thickness(lto, molding_constraints(side_a=a * UM, side_b=b * UM))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < field_bytes


def test_warm_geometry_solve_counts(lto, nitride, monkeypatch):
    # both limits follow from one solve through the exact thickness
    # scaling; the lattice settle adds at most two more
    c = molding_constraints()
    min_cap_thickness(lto, c)
    calls = []

    def counting(spec, grid_n):
        calls.append(spec.thickness)
        return solve_plate(spec, grid_n)

    monkeypatch.setattr(design, "solve_plate", counting)
    for material in (lto, nitride, replace(lto, failure_stress=150 * MPA)):
        calls.clear()
        assert min_cap_thickness(material, c) == scan_oracle(material, c)
        assert len(calls) <= 3
    calls.clear()
    equivalent_thickness(lto, 4.5 * UM, nitride, c)
    equivalent_thickness(lto, 4.5 * UM, nitride, c, match="stress")
    assert calls == []


@pytest.mark.parametrize("match", ["deflection", "stress"])
def test_equivalent_thickness_solves_no_plate(lto, nitride, monkeypatch, match):
    # both matches are closed forms of the materials' constants, so even a
    # thickness past a fifth of the span builds no plate and warns of none
    def unexpected(*args):
        raise AssertionError("equivalent_thickness solved a plate")

    monkeypatch.setattr(design, "solve_plate", unexpected)
    monkeypatch.setattr(mechanics, "solve_plate", unexpected)
    c = molding_constraints(thickness_max=20 * UM)
    thick = 8 * UM
    assert thick > c.side_a / 5.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = equivalent_thickness(lto, thick, nitride, c, match=match)
    assert caught == []
    assert c.thickness_min < t < c.thickness_max


def test_one_peak_read_per_geometry(lto, nitride):
    # every solve reads its stress from the edge moment of the unit field,
    # read once per geometry whatever the material's Poisson ratio
    mechanics._unit_peaks.cache_clear()
    c = molding_constraints(side_a=36.1 * UM, side_b=43.7 * UM)
    materials = (lto, nitride, replace(lto, failure_stress=150 * MPA))
    for material in materials:
        min_cap_thickness(material, c)
    equivalent_thickness(lto, 4.5 * UM, nitride, c)
    assert len({m.poisson_ratio for m in materials}) == 2
    assert mechanics._unit_peaks.cache_info().misses == 1
