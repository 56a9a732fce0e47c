"""Bending of the cap membrane under isostatic molding pressure.

Small-deflection Kirchhoff theory for a rectangular plate clamped on all
four edges under uniform transverse load: the biharmonic equation
``del^4 w = q / D`` is discretized with the 13-point finite-difference
stencil, clamped edges imposed through mirror ghost nodes, and solved
directly (sparse LU). The load-independent unit solution is cached per
(side_a, side_b, grid_n), so deflection scales exactly linearly with
``q`` and exactly as ``1/t^3`` through the flexural rigidity.

Bending stress is evaluated from second differences of the deflection
field: ``sigma = 6 M / t^2`` with ``M = -D (w_xx + nu w_yy)`` (and the
transpose), maximized over the grid; for a uniformly loaded clamped
plate the maximum sits at the mid-edge.
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
                stacklevel=2,
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
def _unit_solution(side_a: float, side_b: float, grid_n: int):
    """Solve del^4 v = 1 on the clamped rectangle; cached per geometry."""
    n = grid_n
    hx = side_a / n
    hy = side_b / n
    m = n - 1

    cx = 1.0 / hx**4
    cy = 1.0 / hy**4
    cxy = 2.0 / (hx**2 * hy**2)
    stencil = [
        (0, 0, 6.0 * cx + 6.0 * cy + 4.0 * cxy),
        (-1, 0, -4.0 * cx - 2.0 * cxy),
        (1, 0, -4.0 * cx - 2.0 * cxy),
        (0, -1, -4.0 * cy - 2.0 * cxy),
        (0, 1, -4.0 * cy - 2.0 * cxy),
        (-1, -1, cxy),
        (-1, 1, cxy),
        (1, -1, cxy),
        (1, 1, cxy),
        (-2, 0, cx),
        (2, 0, cx),
        (0, -2, cy),
        (0, 2, cy),
    ]

    ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()
    k = (jj - 1) * m + (ii - 1)

    rows, cols, data = [], [], []
    for di, dj, c in stencil:
        it = ii + di
        jt = jj + dj
        # clamped edges: w = 0 on the boundary, dw/dn = 0 via mirror ghosts
        it = np.where(it == -1, 1, it)
        it = np.where(it == n + 1, n - 1, it)
        jt = np.where(jt == -1, 1, jt)
        jt = np.where(jt == n + 1, n - 1, jt)
        inside = (it >= 1) & (it <= n - 1) & (jt >= 1) & (jt <= n - 1)
        rows.append(k[inside])
        cols.append(((jt - 1) * m + (it - 1))[inside])
        data.append(np.full(inside.sum(), c))

    a_mat = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * m, m * m),
    ).tocsr()
    v_int = spsolve(a_mat, np.ones(m * m))
    if not np.all(np.isfinite(v_int)):
        raise SolverError("plate system is singular or ill-conditioned")

    v = np.zeros((n + 1, n + 1))
    v[1:n, 1:n] = v_int.reshape(m, m)
    x = np.linspace(0.0, side_a, n + 1)
    y = np.linspace(0.0, side_b, n + 1)
    for arr in (v, x, y):
        arr.flags.writeable = False
    return x, y, v


def _curvatures(w: np.ndarray, hx: float, hy: float):
    """Second differences of the field: centered in the interior, and the
    mirror-ghost form (w_-1 = w_1, w_0 = 0) on the clamped edges, matching
    the convention the solver itself discretizes with."""
    wxx = np.zeros_like(w)
    wyy = np.zeros_like(w)
    wxx[:, 1:-1] = (w[:, :-2] - 2.0 * w[:, 1:-1] + w[:, 2:]) / hx**2
    wxx[:, 0] = 2.0 * w[:, 1] / hx**2
    wxx[:, -1] = 2.0 * w[:, -2] / hx**2
    wyy[1:-1, :] = (w[:-2, :] - 2.0 * w[1:-1, :] + w[2:, :]) / hy**2
    wyy[0, :] = 2.0 * w[1, :] / hy**2
    wyy[-1, :] = 2.0 * w[-2, :] / hy**2
    return wxx, wyy


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
