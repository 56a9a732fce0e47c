"""Bending of the cap membrane under isostatic molding pressure.

Small-deflection Kirchhoff theory for a rectangular plate clamped on all
four edges under uniform transverse load: the biharmonic equation
``del^4 w = q / D`` is discretized with 1-D clamped second differences
(mirror ghost nodes) and solved exactly with numpy alone: the squared
Laplacian is diagonal in a sine basis, and the clamped edges add a
correction on the four boundary lines, removed by a capacitance solve
(Bjorstad's method). The load-independent unit solution is cached per
(side_a, side_b, grid_n), so deflection scales exactly linearly with
``q`` and exactly as ``1/t^3`` through the flexural rigidity.

Bending stress is evaluated from the same second differences of the
deflection field: ``sigma = 6 M / t^2`` with ``M = -D (w_xx + nu w_yy)``
(and the transpose), maximized over the grid; for a uniformly loaded
clamped plate the maximum sits at the mid-edge.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .geometry import Material
from .units import NM, UM

MIN_GRID_N = 16

# held around the cached unit solve, so that concurrent callers of one
# geometry (the rows of a threaded sweep) share a single solve
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


# The clamped edge of a grid line: w = 0 on the edge node and the mirror
# ghost w_-1 = w_1 make the edge row of the line second difference read
# w'' = 2 w_1 / h^2. The same factor puts the diagonal term 2/h^4 on the
# first and last interior node of the line's fourth difference.
_EDGE_ROW = 2.0


def _clamped_second_difference(w: np.ndarray, h: float) -> np.ndarray:
    """Second difference of ``w`` along its last axis, a grid line of
    spacing ``h`` clamped at both ends: centred on interior nodes,
    ``_EDGE_ROW * w_1 / h^2`` on the edge nodes."""
    d = np.empty_like(w)
    d[..., 1:-1] = (w[..., :-2] - 2.0 * w[..., 1:-1] + w[..., 2:]) / h**2
    d[..., 0] = _EDGE_ROW * w[..., 1] / h**2
    d[..., -1] = _EDGE_ROW * w[..., -2] / h**2
    return d


def _sine_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal sine matrix ``S`` (``S = S^T = S^-1``) and eigenvalues
    ``lam`` of the Dirichlet second difference ``T`` on ``m`` interior
    nodes: ``T = S diag(lam) S``."""
    k = np.arange(1, m + 1)
    # reduce k l modulo 2(m+1) in integers so every sine is accurate
    phase = np.outer(k, k) % (2 * (m + 1))
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi / (m + 1) * phase)
    lam = -4.0 * np.sin(0.5 * np.pi / (m + 1) * k) ** 2
    return s, lam


def _clamped_biharmonic_unit_load(hx: float, hy: float, m: int) -> np.ndarray:
    """Solve ``A v = 1`` for the clamped-plate operator on the ``m x m``
    interior nodes of a grid of spacings ``hx``, ``hy`` (rows along y,
    columns along x).

    On the interior nodes of a line the clamped fourth difference is
    ``T^2 + _EDGE_ROW E``, with ``T`` the Dirichlet second difference and
    ``E`` one at the first and last node only. The plate operator is
    therefore the squared 5-point Laplacian
    ``L = I (x) T / hx^2 + T (x) I / hy^2`` plus a diagonal term on the
    four boundary lines of the interior (Bjorstad, SIAM J. Numer. Anal.
    20 (1983) 59):

        A = L^2 + P D P^T,   D = _EDGE_ROW / h^4 on each line,

    where ``P`` lifts values on the lines (two rows along x, two columns
    along y; a corner node lies on two) into the field. ``L^2`` is
    diagonal in the sine basis, so by the Woodbury identity

        A^-1 1 = u - L^-2 P z,   u = L^-2 1,   (D^-1 + P^T L^-2 P) z = P^T u,

    two sine-basis solves and one dense capacitance system of order
    ``4 m``. Each block of the capacitance matrix couples two lines and
    is ``S diag(.) S`` (parallel lines) or ``S K S`` (crossing lines), so
    the whole solve costs O(m^3).
    """
    s, lam = _sine_basis(m)
    # 1 / mu^2 for the Laplacian eigenvalue mu of mode (p along y, q along x)
    inv_mu2 = 1.0 / (lam[:, None] / hy**2 + lam[None, :] / hx**2) ** 2

    def inverse_l2(f: np.ndarray) -> np.ndarray:
        return s @ ((s @ f @ s) * inv_mu2) @ s

    # lines in the order first row, last row, first column, last column;
    # ends[e] holds the sine modes of the first (e = 0) or last node
    ends = s[[0, -1]]
    along_x = np.einsum("ep,fp,pq->efq", ends, ends, inv_mu2)
    along_y = np.einsum("eq,fq,pq->efp", ends, ends, inv_mu2)
    cap = np.empty((4, m, 4, m))
    for e in range(2):
        for f in range(2):
            cap[e, :, f, :] = (s * along_x[e, f]) @ s
            cap[2 + e, :, 2 + f, :] = (s * along_y[e, f]) @ s
            # read on row e, source on column f
            cross = s @ (inv_mu2.T * np.outer(ends[f], ends[e])) @ s
            cap[e, :, 2 + f, :] = cross
            cap[2 + f, :, e, :] = cross.T
    cap = cap.reshape(4 * m, 4 * m)
    cap[np.diag_indices(4 * m)] += np.repeat([hy**4, hy**4, hx**4, hx**4], m) / _EDGE_ROW

    u = inverse_l2(np.ones((m, m)))
    z = np.linalg.solve(cap, np.concatenate([u[0], u[-1], u[:, 0], u[:, -1]]))
    lift = np.zeros((m, m))
    lift[0] += z[:m]
    lift[-1] += z[m : 2 * m]
    lift[:, 0] += z[2 * m : 3 * m]
    lift[:, -1] += z[3 * m :]
    return u - inverse_l2(lift)


@lru_cache(maxsize=32)
def _unit_solution(side_a: float, side_b: float, grid_n: int):
    """Solve del^4 v = 1 on the clamped rectangle; cached per geometry."""
    n = grid_n
    try:
        with np.errstate(all="ignore"):
            v_int = _clamped_biharmonic_unit_load(side_a / n, side_b / n, n - 1)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise SolverError(f"plate system cannot be solved: {exc}") from None
    if not np.all(np.isfinite(v_int)):
        raise SolverError("plate system is singular or ill-conditioned")

    v = np.zeros((n + 1, n + 1))
    v[1:n, 1:n] = v_int
    x = np.linspace(0.0, side_a, n + 1)
    y = np.linspace(0.0, side_b, n + 1)
    for arr in (v, x, y):
        arr.flags.writeable = False
    return x, y, v


def _curvatures(w: np.ndarray, hx: float, hy: float):
    """Second differences of the field along x (each row of ``w``) and y
    (each column), clamped on all four edges."""
    return (
        _clamped_second_difference(w, hx),
        _clamped_second_difference(w.T, hy).T,
    )


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
    # an overflowing q / D or t^3 turns the clamped edges' zeros into nan;
    # the deflection must stay finite in nm, the unit it is reported in
    try:
        with np.errstate(all="ignore"):
            w = v * (spec.pressure / flexural_rigidity(spec.material, spec.thickness))
            w_max = float(np.abs(w).max())
            sigma_max = _peak_stress(spec, w, grid_n)
        finite = math.isfinite(w_max / NM) and math.isfinite(sigma_max)
    except OverflowError:
        finite = False
    if not finite:
        raise SolverError("plate deflection or stress is not finite")
    return PlateSolution(
        x=x, y=y, deflection=w, w_max=w_max, sigma_max=sigma_max, grid_n=grid_n
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
