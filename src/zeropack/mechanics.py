"""Bending of the cap membrane under isostatic molding pressure.

Small-deflection Kirchhoff theory for a rectangular plate clamped on all
four edges under uniform transverse load: the biharmonic equation
``del^4 w = q / D`` is discretized as a Kronecker sum of 1-D clamped
second differences (mirror ghost nodes) and solved by sparse LU. The
load-independent unit solution is cached per (side_a, side_b, grid_n),
so deflection scales exactly linearly with ``q`` and exactly as
``1/t^3`` through the flexural rigidity.

Bending stress is evaluated from the same second differences of the
deflection field: ``sigma = 6 M / t^2`` with ``M = -D (w_xx + nu w_yy)``
(and the transpose), maximized over the grid; for a uniformly loaded
clamped plate the maximum sits at the mid-edge.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import SolverError
from .geometry import Material
from .units import NM, UM

MIN_GRID_N = 16

# held around the cached unit solve, so that concurrent callers of one
# geometry (the rows of a threaded sweep) share a single factorisation
_UNIT_SOLUTION_LOCK = threading.Lock()


@dataclass(frozen=True)
class PlateSpec:
    """A clamped rectangular cap membrane under uniform pressure."""

    side_a: float
    side_b: float
    thickness: float
    material: Material
    pressure: float

    def __post_init__(self) -> None:
        if not (self.side_a > 0.0 and self.side_b > 0.0 and self.thickness > 0.0):
            raise ValueError("plate dimensions must be strictly positive")
        if self.pressure < 0.0:
            raise ValueError("pressure must be >= 0")
        if self.thickness > min(self.side_a, self.side_b) / 5.0:
            warnings.warn(
                f"thickness {self.thickness / UM:g} um exceeds a fifth of the "
                "span; thin-plate theory is marginal",
                stacklevel=3,  # past the generated __init__ to its caller
            )


@dataclass(frozen=True, eq=False)
class PlateSolution:
    """Deflection field and extrema on a regular grid."""

    x: np.ndarray
    y: np.ndarray
    deflection: np.ndarray
    w_max: float
    sigma_max: float
    grid_n: int


def flexural_rigidity(material: Material, thickness: float) -> float:
    """Plate bending stiffness D = E t^3 / (12 (1 - nu^2)), in N m."""
    if not thickness > 0.0:
        raise ValueError("thickness must be > 0")
    return (
        material.youngs_modulus
        * thickness**3
        / (12.0 * (1.0 - material.poisson_ratio**2))
    )


@lru_cache(maxsize=32)
def _clamped_second_difference(n: int) -> sparse.csr_matrix:
    """Second difference on the n+1 nodes of a clamped grid line, in units
    of 1/h^2. Interior rows are [1, -2, 1]; the edge rows carry the
    clamped condition, w = 0 on the edge node and mirror ghost
    w_-1 = w_1, so they read [0, 2, 0, ...] and [..., 0, 2, 0]."""
    g = np.eye(n + 1, k=-1) - 2.0 * np.eye(n + 1) + np.eye(n + 1, k=1)
    g[[0, n]] = 0.0
    g[0, 1] = g[n, n - 1] = 2.0
    return sparse.csr_matrix(g)


@lru_cache(maxsize=32)
def _unit_solution(side_a: float, side_b: float, grid_n: int):
    """Solve del^4 v = 1 on the clamped rectangle; cached per geometry.

    The operator on the interior nodes (x varying fastest) is the
    Kronecker sum of the clamped line differences G:
    ``A = I (x) D4 / hx^4 + D4 (x) I / hy^4 + 2 D2 (x) D2 / (hx^2 hy^2)``
    with ``D2 = G[1:n, 1:n]`` and ``D4 = (G G)[1:n, 1:n]``.
    """
    n = grid_n
    hx = side_a / n
    hy = side_b / n
    g = _clamped_second_difference(n)
    d2 = g[1:n, 1:n]
    d4 = (g @ g)[1:n, 1:n]
    eye = sparse.identity(n - 1, format="csr")
    a_mat = (
        sparse.kron(eye, d4) * (1.0 / hx**4)
        + sparse.kron(d4, eye) * (1.0 / hy**4)
        + sparse.kron(d2, d2) * (2.0 / (hx**2 * hy**2))
    ).tocsr()
    v_int = spsolve(a_mat, np.ones((n - 1) ** 2))
    if not np.all(np.isfinite(v_int)):
        raise SolverError("plate system is singular or ill-conditioned")

    v = np.zeros((n + 1, n + 1))
    v[1:n, 1:n] = v_int.reshape(n - 1, n - 1)
    x = np.linspace(0.0, side_a, n + 1)
    y = np.linspace(0.0, side_b, n + 1)
    for arr in (v, x, y):
        arr.flags.writeable = False
    return x, y, v


def _curvatures(w: np.ndarray, hx: float, hy: float):
    """Second differences of the field along x (each row of ``w``) and y
    (each column), with the solver's clamped line difference."""
    g = _clamped_second_difference(len(w) - 1)
    return (g @ w.T).T / hx**2, (g @ w) / hy**2


def max_bending_stress(spec: PlateSpec, solution: PlateSolution) -> float:
    """Largest bending stress magnitude over the plate, in Pa."""
    return _peak_stress(spec, solution.deflection, solution.grid_n)


def _peak_stress(spec: PlateSpec, w: np.ndarray, grid_n: int) -> float:
    hx = spec.side_a / grid_n
    hy = spec.side_b / grid_n
    wxx, wyy = _curvatures(w, hx, hy)
    d = flexural_rigidity(spec.material, spec.thickness)
    nu = spec.material.poisson_ratio
    mx = -d * (wxx + nu * wyy)
    my = -d * (wyy + nu * wxx)
    moment = max(np.abs(mx).max(), np.abs(my).max())
    return float(6.0 * moment / spec.thickness**2)


def solve_plate(spec: PlateSpec, grid_n: int = 128) -> PlateSolution:
    """Deflection of the clamped plate on a (grid_n+1)^2 node grid."""
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be >= {MIN_GRID_N}")
    with _UNIT_SOLUTION_LOCK:
        x, y, v = _unit_solution(spec.side_a, spec.side_b, grid_n)
    w = v * (spec.pressure / flexural_rigidity(spec.material, spec.thickness))
    return PlateSolution(
        x=x,
        y=y,
        deflection=w,
        w_max=float(np.abs(w).max()),
        sigma_max=_peak_stress(spec, w, grid_n),
        grid_n=grid_n,
    )


@dataclass(frozen=True)
class ComparisonRow:
    material: str
    thickness: float
    w_max: float
    sigma_max: float
    safety_factor: float


def compare_materials(
    specs: "list[PlateSpec] | tuple[PlateSpec, ...]", grid_n: int = 128
) -> list[ComparisonRow]:
    """Deflection, stress, and safety factor for each candidate cap."""
    if not specs:
        raise ValueError("at least one plate spec required")
    rows = []
    for spec in specs:
        sol = solve_plate(spec, grid_n)
        safety = (
            spec.material.failure_stress / sol.sigma_max
            if sol.sigma_max > 0.0
            else float("inf")
        )
        rows.append(
            ComparisonRow(
                material=spec.material.name,
                thickness=spec.thickness,
                w_max=sol.w_max,
                sigma_max=sol.sigma_max,
                safety_factor=safety,
            )
        )
    return rows


def dump_deflection(solution: PlateSolution) -> str:
    """Deflection field as tabular text (x_um, y_um, w_nm per line)."""
    lines = ["# x_um,y_um,w_nm"]
    for j, yv in enumerate(solution.y):
        for i, xv in enumerate(solution.x):
            lines.append(
                f"{xv / UM:.6g},{yv / UM:.6g},{solution.deflection[j, i] / NM:.6g}"
            )
    return "\n".join(lines) + "\n"
