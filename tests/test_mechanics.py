import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from oracles import (
    edge_row_curvatures,
    moment_peak,
    peak_stress,
    ritz_clamped_square,
    stencil_plate_operator,
)
from zeropack import mechanics
from zeropack.errors import SolverError
from zeropack.geometry import Material
from zeropack.mechanics import (
    PlateSpec,
    dump_deflection,
    flexural_rigidity,
    solve_plate,
)
from zeropack.units import GPA, MPA, NM, UM

# classical clamped-square coefficients: w_max = ALPHA q a^4 / D,
# sigma_max = BETA q (a/t)^2 (Timoshenko tables; independently
# reproduced by the Rayleigh-Ritz oracle in oracles.py)
ALPHA = 0.00126
BETA = 0.308


@pytest.fixture(scope="module")
def lto(materials):
    return materials["lto"]


@pytest.fixture(scope="module")
def nitride(materials):
    return materials["nitride_pecvd"]


@pytest.fixture(scope="module")
def lto_plate(lto):
    return PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 10 * MPA)


class TestFlexuralRigidity:
    def test_reference_value(self, lto):
        # E = 70 GPa, nu = 0.17, t = 4.5 um
        assert flexural_rigidity(lto, 4.5 * UM) == pytest.approx(5.47e-7, rel=2e-3)

    def test_cubic_thickness_law(self, lto):
        assert flexural_rigidity(lto, 9 * UM) == pytest.approx(
            8 * flexural_rigidity(lto, 4.5 * UM), rel=1e-12
        )

    def test_zero_poisson_limit(self):
        m = Material("test", youngs_modulus=100 * GPA, poisson_ratio=1e-300)
        assert flexural_rigidity(m, 2 * UM) == pytest.approx(
            100 * GPA * (2 * UM) ** 3 / 12.0, rel=1e-9
        )

    def test_positive_thickness_required(self, lto):
        with pytest.raises(ValueError):
            flexural_rigidity(lto, 0.0)


class TestSolvePlate:
    def test_zero_load_zero_deflection(self, lto):
        sol = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 0.0), 32)
        assert sol.w_max == 0.0
        assert sol.sigma_max == 0.0
        assert not sol.deflection.any()

    def test_square_plate_matches_series_coefficients(self, lto_plate, lto):
        sol = solve_plate(lto_plate, 128)
        d = flexural_rigidity(lto, lto_plate.thickness)
        w_ref = ALPHA * lto_plate.pressure * lto_plate.side_a**4 / d
        assert sol.w_max == pytest.approx(w_ref, rel=0.01)
        s_ref = BETA * lto_plate.pressure * (lto_plate.side_a / lto_plate.thickness) ** 2
        assert sol.sigma_max == pytest.approx(s_ref, rel=0.02)

    def test_oracle_reproduces_classical_coefficients(self):
        alpha, beta_edge = ritz_clamped_square(8)
        assert alpha == pytest.approx(ALPHA, rel=0.005)
        assert 6 * abs(beta_edge) == pytest.approx(BETA, rel=0.005)

    def test_grid_halving_convergence(self, lto_plate):
        w64 = solve_plate(lto_plate, 64).w_max
        w128 = solve_plate(lto_plate, 128).w_max
        assert abs(w64 - w128) / w128 < 0.01

    def test_exact_linearity_in_pressure(self, lto):
        s1 = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 10 * MPA), 64)
        s2 = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 20 * MPA), 64)
        assert np.array_equal(s2.deflection, 2.0 * s1.deflection)
        assert s2.w_max == 2.0 * s1.w_max
        assert s2.sigma_max == 2.0 * s1.sigma_max
        s3 = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 17 * MPA), 64)
        assert s3.w_max == pytest.approx(1.7 * s1.w_max, rel=1e-12)

    def test_rigidity_scaling_with_thickness(self, lto):
        s1 = solve_plate(PlateSpec(30 * UM, 30 * UM, 2 * UM, lto, 10 * MPA), 64)
        s2 = solve_plate(PlateSpec(30 * UM, 30 * UM, 4 * UM, lto, 10 * MPA), 64)
        assert s2.w_max == pytest.approx(s1.w_max / 8.0, rel=1e-3)

    def test_square_symmetry_group(self, lto_plate):
        w = solve_plate(lto_plate, 64).deflection
        w_max = np.abs(w).max()
        for image in (w.T, w[::-1, :], w[:, ::-1], w[::-1, ::-1], w.T[::-1, :], w.T[:, ::-1], w.T[::-1, ::-1]):
            assert np.abs(w - image).max() / w_max < 1e-6

    def test_deflection_peaks_at_centre(self, lto_plate):
        sol = solve_plate(lto_plate, 64)
        j, i = np.unravel_index(np.argmax(sol.deflection), sol.deflection.shape)
        assert i == 32 and j == 32

    def test_clamped_boundary(self, lto_plate):
        w = solve_plate(lto_plate, 64).deflection
        assert not w[0, :].any() and not w[-1, :].any()
        assert not w[:, 0].any() and not w[:, -1].any()

    def test_rectangular_plate_coefficient(self, lto):
        # clamped 2:1 rectangle, classical w coefficient 0.00254 on the
        # short span
        spec = PlateSpec(30 * UM, 60 * UM, 4.5 * UM, lto, 10 * MPA)
        sol = solve_plate(spec, 128)
        d = flexural_rigidity(lto, spec.thickness)
        assert sol.w_max * d / (spec.pressure * spec.side_a**4) == pytest.approx(
            0.00254, rel=0.02
        )

    def test_coarse_grid_rejected(self, lto_plate):
        with pytest.raises(ValueError):
            solve_plate(lto_plate, 8)

    def test_thick_plate_warns(self, lto):
        with pytest.warns(UserWarning, match="thin-plate") as record:
            PlateSpec(30 * UM, 30 * UM, 10 * UM, lto, 10 * MPA)
        # reported where the plate is built, not in the generated __init__
        assert record[0].filename == __file__

    def test_invalid_geometry_rejected(self, lto):
        with pytest.raises(ValueError):
            PlateSpec(0.0, 30 * UM, 4.5 * UM, lto, 10 * MPA)
        with pytest.raises(ValueError):
            PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, -1.0)

    @pytest.mark.parametrize("q", [0.0, 10 * MPA])
    def test_rigidity_underflow_is_a_solver_error(self, lto, q):
        # t^3 underflows to 0, so no load can be scaled by q / D
        with pytest.raises(SolverError, match="not finite"):
            solve_plate(PlateSpec(30 * UM, 30 * UM, 1e-111, lto, q), 32)

    def test_stress_does_not_depend_on_youngs_modulus(self, lto):
        # sigma = 6 q M(nu) / t^2: the rigidity cancels, bit for bit
        sols = [
            solve_plate(PlateSpec(30 * UM, 45 * UM, 3 * UM, material, 10 * MPA), 64)
            for material in (
                replace(lto, youngs_modulus=e) for e in (1 * GPA, 70 * GPA, 250 * GPA, 1e9 * GPA)
            )
        ]
        assert len({sol.sigma_max for sol in sols}) == 1
        assert len({sol.w_max for sol in sols}) == 4


OPERATOR_GRIDS = [
    (30 * UM, 30 * UM, 16),
    (30 * UM, 30 * UM, 33),
    (30 * UM, 30 * UM, 128),
    (30 * UM, 45 * UM, 33),
    (33.7 * UM, 48.2 * UM, 128),
    (10 * UM, 10_000 * UM, 16),
]
OPERATOR_IDS = ["square-16", "square-33", "square-128", "aspect1.5-33", "rect-128", "aspect1000-16"]


class TestClampedOperator:
    @pytest.mark.parametrize("side_a, side_b, n", OPERATOR_GRIDS, ids=OPERATOR_IDS)
    def test_matches_thirteen_point_stencil(self, side_a, side_b, n):
        ref_mat = stencil_plate_operator(side_a, side_b, n)
        ref = spsolve(ref_mat.tocsc(), np.ones((n - 1) ** 2)).reshape(n - 1, n - 1)
        _, _, v = mechanics._unit_field(side_a, side_b, n)
        v_max = np.abs(v).max()
        assert np.abs(v[1:n, 1:n] - ref).max() <= 1e-8 * v_max
        assert np.abs(ref_mat @ v[1:n, 1:n].ravel() - 1.0).max() <= 1e-6
        # the rectangle and the load are symmetric under a half turn
        assert np.abs(v - v[::-1, ::-1]).max() <= 1e-12 * v_max

    @pytest.mark.parametrize("side_a, side_b, n", OPERATOR_GRIDS, ids=OPERATOR_IDS)
    def test_mirror_symmetry_is_exact(self, side_a, side_b, n):
        # the rectangle and the load are even in x and in y
        _, _, v = mechanics._unit_field(side_a, side_b, n)
        assert np.array_equal(v, v[::-1, :])
        assert np.array_equal(v, v[:, ::-1])

    @pytest.mark.parametrize(
        "side_a, side_b, n",
        [*OPERATOR_GRIDS, (30 * UM, 45 * UM, 256)],
        ids=[*OPERATOR_IDS, "aspect1.5-256"],
    )
    def test_peaks_from_the_quarter_equal_the_field_peaks(self, side_a, side_b, n):
        # the extrema of the whole padded field, its zero edges included
        _, _, v = mechanics._unit_field(side_a, side_b, n)
        v_peak = float(max(v.max(), -v.min()))
        m_hat = float(
            max(
                2.0 * np.abs(v[1]).max() / (side_b / n) ** 2,
                2.0 * np.abs(v[:, 1]).max() / (side_a / n) ** 2,
            )
        )
        got = mechanics._unit_peaks.__wrapped__(side_a, side_b, n)
        assert [x.hex() for x in got] == [v_peak.hex(), m_hat.hex()]

    def test_cold_solve_memory_is_small(self):
        # a dense capacitance matrix on the boundary lines peaks near 11 MiB
        tracemalloc.start()
        try:
            mechanics._unit_field(30 * UM, 45 * UM, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("side", [1e-300, 1e300], ids=["singular", "overflow"])
    def test_degenerate_geometry_is_a_solver_error(self, side):
        with pytest.raises(SolverError):
            mechanics._unit_field(side, side, 16)

    @pytest.mark.parametrize("side_a, side_b, n", OPERATOR_GRIDS, ids=OPERATOR_IDS)
    def test_curvatures_equal_edge_row_formulas(self, side_a, side_b, n):
        # on the four clamped edges of the unit field the tangential second
        # difference is exactly 0 and the normal one is the edge row value
        # that _unit_peaks reads, bit for bit
        hx, hy = side_a / n, side_b / n
        _, _, v = mechanics._unit_field(side_a, side_b, n)
        wxx, wyy = edge_row_curvatures(v, hx, hy)
        for edge in (wxx[0], wxx[-1], wyy[:, 0], wyy[:, -1]):
            assert not edge.any()
        v_peak, m_hat = mechanics._unit_peaks(side_a, side_b, n)
        assert v_peak == np.abs(v).max()
        edges = (wyy[0], wyy[-1], wxx[:, 0], wxx[:, -1])
        assert m_hat == max(float(np.abs(edge).max()) for edge in edges)

    @pytest.mark.parametrize("side_a, side_b, n", OPERATOR_GRIDS, ids=OPERATOR_IDS)
    def test_peak_stress_equals_the_moment_formula(self, nitride, side_a, side_b, n):
        # bit for bit: 6 q M / t^2, with M the moment peak over every node
        # of the unit field
        spec = PlateSpec(side_a, side_b, min(side_a, side_b) / 10, nitride, 1 * MPA)
        _, _, v = mechanics._unit_field(side_a, side_b, n)
        moment = moment_peak(v, side_a / n, side_b / n, nitride.poisson_ratio)
        want = 6.0 * (spec.pressure * moment) / spec.thickness**2
        sol = solve_plate(spec, n)
        assert sol.sigma_max == want


def field_extrema(spec, n):
    """``(w_max, sigma_max)`` from the scaled deflection field itself and
    the stress oracle over all its nodes, or ``None`` where either is not
    finite."""
    _, _, v = mechanics._unit_field(spec.side_a, spec.side_b, n)
    try:
        with np.errstate(all="ignore"):
            w = v * (spec.pressure / flexural_rigidity(spec.material, spec.thickness))
            w_max = float(max(w.max(), -w.min()))
            sigma_max = peak_stress(spec, w, n)
    except OverflowError:
        return None
    if not (math.isfinite(w_max / NM) and math.isfinite(sigma_max)):
        return None
    return w_max, sigma_max


class TestExtremaFromTheUnitField:
    @pytest.mark.parametrize("side_a, side_b, n", OPERATOR_GRIDS, ids=OPERATOR_IDS)
    def test_match_the_scaled_field(self, materials, side_a, side_b, n):
        for material in materials.values():
            spec = PlateSpec(side_a, side_b, min(side_a, side_b) / 10, material, 10 * MPA)
            sol = solve_plate(spec, n)
            w_max, sigma_max = field_extrema(spec, n)
            assert sol.w_max == w_max
            assert sol.sigma_max == pytest.approx(sigma_max, rel=1e-15, abs=0.0)

    def test_extreme_values_keep_their_outcome(self, materials):
        # a solve fails exactly where the field's own extrema are not
        # finite, and a finite solve keeps the field's w_max bit for bit
        outcomes = set()
        sides = [(30 * UM, 30 * UM), (30 * UM, 45 * UM), (33.7 * UM, 48.2 * UM), (1e-3, 1.5e-3)]
        for (side_a, side_b), material, t, n, q in itertools.product(
            sides,
            materials.values(),
            (1e-60, 0.5 * UM, 4.5 * UM, 1e30, 1e100),
            (16, 17, 128),
            (0.0, 1.0, 1e7, 1e100, 1e200, 1e300),
        ):
            spec = PlateSpec(side_a, side_b, t, material, q)
            want = field_extrema(spec, n)
            try:
                sol = solve_plate(spec, n)
            except SolverError:
                assert want is None
                outcomes.add("error")
                continue
            assert want is not None
            assert sol.w_max == want[0]
            assert sol.sigma_max == pytest.approx(want[1], rel=1e-15, abs=0.0)
            outcomes.add("finite")
        assert outcomes == {"error", "finite"}

    @given(
        short=st.floats(1 * UM, 1e-3),
        aspect=st.floats(0.0, 3.0),
        tall=st.booleans(),
        n=st.integers(16, 256),
        nu=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    )
    def test_moment_peaks_on_the_clamped_edges(self, short, aspect, tall, n, nu):
        # the unit field's moment peak over every node is its edge peak,
        # for every Poisson ratio, bit for bit
        long = short * 10.0**aspect
        side_a, side_b = (short, long) if tall else (long, short)
        _, _, v = mechanics._unit_field(side_a, side_b, n)
        assert moment_peak(v, side_a / n, side_b / n, nu) == mechanics._unit_peaks(side_a, side_b, n)[1]
        material = Material("test", poisson_ratio=nu)
        spec = PlateSpec(side_a, side_b, short / 10, material, 10 * MPA)
        sol = solve_plate(spec, n)
        assert sol.sigma_max == pytest.approx(peak_stress(spec, sol.deflection, n), rel=1e-15, abs=0.0)


class TestMoldingDeflections:
    def test_lto_cap_deflection(self, lto):
        sol = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 10 * MPA), 128)
        assert sol.w_max == pytest.approx(25 * NM, rel=0.5)

    def test_nitride_cap_deflection(self, nitride):
        sol = solve_plate(PlateSpec(30 * UM, 30 * UM, 2.5 * UM, nitride, 10 * MPA), 128)
        assert sol.w_max == pytest.approx(36 * NM, rel=0.5)

    def test_nitride_deflects_more_in_proportion(self, lto, nitride):
        w_lto = solve_plate(PlateSpec(30 * UM, 30 * UM, 4.5 * UM, lto, 10 * MPA), 128).w_max
        w_nit = solve_plate(PlateSpec(30 * UM, 30 * UM, 2.5 * UM, nitride, 10 * MPA), 128).w_max
        assert 1.1 <= w_nit / w_lto <= 2.0


class TestFieldDump:
    def test_format(self, lto_plate):
        sol = solve_plate(lto_plate, 32)
        text = dump_deflection(sol)
        lines = text.splitlines()
        assert lines[0] == "# x_um,y_um,w_nm"
        assert len(lines) == 1 + 33 * 33
        x, y, w = (float(v) for v in lines[1].split(","))
        assert (x, y, w) == (0.0, 0.0, 0.0)
        centre = lines[1 + 16 * 33 + 16 + 1 - 1]
        cx, cy, cw = (float(v) for v in centre.split(","))
        assert cx == pytest.approx(15.0) and cy == pytest.approx(15.0)
        assert cw == pytest.approx(sol.w_max / NM, rel=1e-5)  # 6 sig digits in the dump
