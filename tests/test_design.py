import pytest

from zeropack.design import (
    THICKNESS_STEP,
    VERIFY_GRID_N,
    DesignConstraints,
    equivalent_thickness,
    min_cap_thickness,
)
from zeropack.errors import DesignError
from zeropack.mechanics import PlateSpec, _unit_solution, solve_plate
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
    """Exhaustive 10 nm sweep using the plate solver directly."""
    t = constraints.thickness_min
    k = 0
    while True:
        t = constraints.thickness_min + k * THICKNESS_STEP
        sol = solve_plate(
            PlateSpec(constraints.side_a, constraints.side_b, t, material, constraints.pressure),
            VERIFY_GRID_N,
        )
        ok = (
            sol.w_max <= constraints.max_deflection
            and sol.sigma_max <= material.failure_stress / constraints.safety_factor
        )
        if ok:
            return t
        k += 1


class TestMinCapThickness:
    def test_reference_target(self, lto):
        t = min_cap_thickness(lto, molding_constraints())
        assert t == pytest.approx(4.5 * UM, rel=0.5)

    def test_matches_grid_scan_exactly(self, lto):
        c = molding_constraints()
        assert min_cap_thickness(lto, c) == scan_oracle(lto, c)

    def test_minimality_margin(self, lto):
        c = molding_constraints()
        t = min_cap_thickness(lto, c)
        thin = t - 50 * NM
        sol = solve_plate(PlateSpec(c.side_a, c.side_b, thin, lto, c.pressure), VERIFY_GRID_N)
        violated = (
            sol.w_max > c.max_deflection
            or sol.sigma_max > lto.failure_stress / c.safety_factor
        )
        assert violated

    def test_result_satisfies_both_constraints(self, lto):
        c = molding_constraints()
        t = min_cap_thickness(lto, c)
        sol = solve_plate(PlateSpec(c.side_a, c.side_b, t, lto, c.pressure), VERIFY_GRID_N)
        assert sol.w_max <= c.max_deflection
        assert sol.sigma_max <= lto.failure_stress / c.safety_factor

    def test_unconstrained_returns_lower_bound(self, lto):
        free = lto.with_overrides(failure_stress=1e14)
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
        c = molding_constraints(max_deflection=0.01 * NM, thickness_max=5 * UM)
        with pytest.raises(DesignError, match="deflection"):
            min_cap_thickness(lto, c)

    def test_stress_constraint_can_govern(self, lto):
        brittle = lto.with_overrides(failure_stress=150 * MPA)
        c = molding_constraints(max_deflection=float("inf"))
        t = min_cap_thickness(brittle, c)
        sol = solve_plate(PlateSpec(c.side_a, c.side_b, t, brittle, c.pressure), VERIFY_GRID_N)
        assert sol.sigma_max <= brittle.failure_stress
        thin = solve_plate(
            PlateSpec(c.side_a, c.side_b, t - THICKNESS_STEP, brittle, c.pressure),
            VERIFY_GRID_N,
        )
        assert thin.sigma_max > brittle.failure_stress

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            molding_constraints(pressure=0.0)
        with pytest.raises(ValueError):
            molding_constraints(max_deflection=0.0)
        with pytest.raises(ValueError):
            molding_constraints(safety_factor=0.5)
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
        nit = nitride.with_overrides(poisson_ratio=lto.poisson_ratio)
        t = equivalent_thickness(lto, 4.5 * UM, nit, molding_constraints())
        closed = 4.5 * UM * (lto.youngs_modulus / nit.youngs_modulus) ** (1.0 / 3.0)
        assert t == pytest.approx(closed, rel=0.005)

    def test_general_rigidity_matching(self, lto, nitride):
        t = equivalent_thickness(lto, 4.5 * UM, nitride, molding_constraints())
        closed = 4.5 * UM * (
            (lto.youngs_modulus / (1 - lto.poisson_ratio**2))
            / (nitride.youngs_modulus / (1 - nitride.poisson_ratio**2))
        ) ** (1.0 / 3.0)
        assert t == pytest.approx(closed, rel=0.005)

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
        assert t == pytest.approx(closed, rel=0.005)

    def test_out_of_bounds_rejected(self, lto, nitride):
        c = molding_constraints(thickness_min=4 * UM, thickness_max=10 * UM)
        with pytest.raises(DesignError, match="outside"):
            equivalent_thickness(lto, 4.5 * UM, nitride, c)

    def test_bad_mode_rejected(self, lto, nitride):
        with pytest.raises(ValueError):
            equivalent_thickness(lto, 4.5 * UM, nitride, molding_constraints(), match="mass")


def test_min_cap_on_fresh_geometry_is_one_cold_solve(lto):
    # sides no other test uses, so the plate cache starts cold for them
    c = molding_constraints(side_a=37.3 * UM, side_b=41.9 * UM)
    misses = _unit_solution.cache_info().misses
    t = min_cap_thickness(lto, c)
    assert _unit_solution.cache_info().misses == misses + 1
    assert t == scan_oracle(lto, c)
