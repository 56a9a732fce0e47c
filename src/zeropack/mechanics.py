"""Bending of the cap membrane under isostatic molding pressure.

Small-deflection Kirchhoff theory for a rectangular plate clamped on all
four edges under uniform transverse load: the biharmonic equation
``del^4 w = q / D`` is discretized with 1-D clamped second differences
(mirror ghost nodes) and solved exactly with numpy alone: the squared
Laplacian is diagonal in a sine basis, and the clamped edges add a
correction on the four boundary lines, removed by a capacitance solve
(Bjorstad's method). The uniform load on a rectangle is even in x and in
y, so only the odd sine modes occur and the capacitance system shrinks to
one symmetric Schur system of order ``ceil((grid_n - 1) / 2)``; one
quarter of the field is synthesised and mirrored, so the field's
symmetry is exact. A solve scales the load-independent unit solution,
so deflection scales exactly linearly with ``q`` and exactly as
``1/t^3`` through the flexural rigidity; the field itself is built only
when a caller reads it.

Bending stress is ``sigma = 6 M / t^2`` with the moments
``M = -D (w_xx + nu w_yy)`` and ``-D (w_yy + nu w_xx)`` of the clamped
second differences. For a uniformly loaded clamped plate the peak sits on
the edge, at the middle of the long side, where ``w = 0`` along the edge
makes the tangential difference exactly 0: the edge moment is
``D 2 |w_1| / h^2``, with no ``nu`` in it. With ``w = v q / D`` the
rigidity cancels: ``sigma_max = 6 q M / t^2``, where ``M = 2 max|v_1| / h^2``
is the edge moment of the unit field ``v``, read from the synthesised
quarter and cached as a float per (side_a, side_b, grid_n) beside the
peak of ``v`` itself. So the stress depends on neither elastic constant,
and a warm solve reads both extrema from two cached scalars.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SolverError
from .geometry import Material
from .units import NM, UM

MIN_GRID_N = 16
DEFAULT_GRID_N = 128


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
    """Deflection extrema of ``spec`` on a regular grid; the node
    coordinates ``x``, ``y`` and the ``deflection`` field are built on
    first read."""

    spec: PlateSpec
    w_max: float
    sigma_max: float
    grid_n: int

    @cached_property
    def _field(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        spec = self.spec
        x, y, v = _unit_field(spec.side_a, spec.side_b, self.grid_n)
        # no node exceeds w_max, which solve_plate found finite
        return x, y, v * (spec.pressure / flexural_rigidity(spec.material, spec.thickness))

    @property
    def x(self) -> np.ndarray:
        return self._field[0]

    @property
    def y(self) -> np.ndarray:
        return self._field[1]

    @property
    def deflection(self) -> np.ndarray:
        return self._field[2]


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


# read-only, each at most 255 x 128 doubles (261 KB) at MAX_GRID_N
@lru_cache(maxsize=8)
def _sine_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd modes ``k = 1, 3, ...`` of the Dirichlet second difference
    ``T`` on ``m`` interior nodes: the ``m x ceil(m/2)`` matrix ``S`` of
    their orthonormal sine columns and their eigenvalues ``lam``, so that
    ``T S = S diag(lam)``; cached per grid size."""
    k = np.arange(1, m + 1)
    odd = k[::2]
    # reduce k l modulo 2(m+1) in integers so every sine is accurate
    phase = np.outer(k, odd) % (2 * (m + 1))
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi / (m + 1) * phase)
    lam = -4.0 * np.sin(0.5 * np.pi / (m + 1) * odd) ** 2
    s.flags.writeable = lam.flags.writeable = False
    return s, lam


def _clamped_biharmonic_unit_load(hx: float, hy: float, m: int) -> np.ndarray:
    """Solve ``A v = 1`` for the clamped-plate operator on the ``m x m``
    interior nodes of a grid of spacings ``hx``, ``hy`` (rows along y,
    columns along x).

    On the interior nodes of a line the clamped fourth difference is
    ``T^2 + _EDGE_ROW E``, with ``T`` the Dirichlet second difference and
    ``E`` one at the first and last node only, so ``A = L^2 + P D P^T``:
    the squared 5-point Laplacian ``L``, diagonal in the sine basis, plus
    ``D = _EDGE_ROW / h^4`` on the four boundary lines that ``P`` lifts
    into the field (Bjorstad, SIAM J. Numer. Anal. 20 (1983) 59). By the
    Woodbury identity ``v = L^-2 (1 - P z)`` with
    ``(D^-1 + P^T L^-2 P) z = P^T L^-2 1``.

    The load and the rectangle are even in x and in y, so only the odd
    sine modes occur, both rows carry the same line values and so do both
    columns. In odd modes, with ``s0`` the modes of the first node and
    ``mu`` the Laplacian eigenvalues, the system for the x-modes ``zr`` of
    a row and the y-modes ``zc`` of a column is
    ``[[diag(dr), B], [B^T, diag(dc)]]``, ``B_qp = 2 s0_q s0_p / mu_pq^2``:
    parallel lines couple only mode by mode. Eliminating ``zr`` leaves
    one symmetric Schur system of order ``ceil(m / 2)``. Only the
    quarter ``v[:h, :h]``, ``h = ceil(m / 2)``, is synthesised and
    returned: the other three mirror it.
    """
    s, lam = _sine_basis(m)
    # 1 / mu^2 for the Laplacian eigenvalue mu of mode (p along y, q along x)
    inv_mu2 = 1.0 / (lam[:, None] / hy**2 + lam[None, :] / hx**2) ** 2
    s0 = s[0]
    total = s.sum(axis=0)  # the modes of the unit load
    u_hat = np.outer(total, total) * inv_mu2
    # each factor 2 counts the two parallel lines that carry one line value
    coupling = 2.0 * np.outer(s0, s0) * inv_mu2  # B^T
    dr = hy**4 / _EDGE_ROW + 2.0 * (s0**2 @ inv_mu2)
    dc = hx**4 / _EDGE_ROW + 2.0 * (inv_mu2 @ s0**2)
    gr, gc = s0 @ u_hat, u_hat @ s0  # P^T u on a row and on a column
    schur = np.diag(dc) - (coupling / dr) @ coupling.T
    zc = np.linalg.solve(schur, gc - coupling @ (gr / dr))
    zr = (gr - coupling.T @ zc) / dr
    v_hat = u_hat - 2.0 * inv_mu2 * (np.outer(s0, zr) + np.outer(zc, s0))

    h = (m + 1) // 2
    return s[:h] @ v_hat @ s[:h].T


def _unit_quarter(side_a: float, side_b: float, grid_n: int) -> np.ndarray:
    """The quarter of the interior nodes nearest the origin of the unit
    solution ``del^4 v = 1`` on the clamped rectangle."""
    n = grid_n
    try:
        with np.errstate(all="ignore"):
            quarter = _clamped_biharmonic_unit_load(side_a / n, side_b / n, n - 1)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise SolverError(f"plate system cannot be solved: {exc}") from None
    if not np.all(np.isfinite(quarter)):
        raise SolverError("plate system is singular or ill-conditioned")
    return quarter


def _unit_field(side_a: float, side_b: float, grid_n: int):
    """The nodes ``x``, ``y`` and the unit solution ``v`` on the
    ``(grid_n+1)^2`` grid, its quarter mirrored into the other three and
    zero on the clamped edges."""
    n, m = grid_n, grid_n - 1
    quarter = _unit_quarter(side_a, side_b, n)
    h = len(quarter)
    v = np.zeros((n + 1, n + 1))
    inner = v[1:n, 1:n]
    inner[:h, :h] = quarter
    inner[:h, h:] = inner[:h, m - h - 1 :: -1]
    inner[h:] = inner[m - h - 1 :: -1]
    return np.linspace(0.0, side_a, n + 1), np.linspace(0.0, side_b, n + 1), v


@lru_cache(maxsize=128)
def _unit_peaks(side_a: float, side_b: float, grid_n: int):
    """Peak deflection ``max |v|`` and edge moment peak ``M`` of the unit
    solution, cached per geometry as floats. The field only copies the
    quarter's values beside its zero edges, and its first row and column
    stand for all four clamped edges, so the quarter's extrema are the
    field's bit for bit."""
    quarter = _unit_quarter(side_a, side_b, grid_n)
    v_peak = max(quarter.max(), -quarter.min(), 0.0)
    m_hat = max(
        _EDGE_ROW * np.abs(quarter[0]).max() / (side_b / grid_n) ** 2,
        _EDGE_ROW * np.abs(quarter[:, 0]).max() / (side_a / grid_n) ** 2,
    )
    return float(v_peak), float(m_hat)


def solve_plate(spec: PlateSpec, grid_n: int = DEFAULT_GRID_N) -> PlateSolution:
    """Deflection of the clamped plate on a (grid_n+1)^2 node grid."""
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be >= {MIN_GRID_N}")
    # the deflection must stay finite in nm, the unit it is reported in;
    # a t^2 or t^3 past the float range raises, so does a q / D whose D
    # underflows to 0
    try:
        v_peak, m_hat = _unit_peaks(spec.side_a, spec.side_b, grid_n)
        # the peak stress 6 q M / t^2, in which the rigidity cancels; q M is
        # the peak moment, so this order adds no overflow to 6 D max|w''| / t^2
        sigma_max = 6.0 * (spec.pressure * m_hat) / spec.thickness**2
        d = flexural_rigidity(spec.material, spec.thickness)
        c = spec.pressure / d
        # rounding is monotone and c >= 0, so the peak of v c is the
        # peak of v times c bit for bit
        w_max = v_peak * c
        # an infinite D scales every load to a zero field, whose stress
        # D max|w''| would read inf times 0
        finite = math.isfinite(w_max / NM) and math.isfinite(sigma_max) and math.isfinite(d)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise SolverError("plate deflection or stress is not finite")
    return PlateSolution(spec=spec, w_max=w_max, sigma_max=sigma_max, grid_n=grid_n)


def molding_checks(
    solution: PlateSolution, max_deflection: float, safety_factor: float
) -> dict[str, bool]:
    """The molding verdict on a solved plate: its peak deflection within
    ``max_deflection`` and its peak stress within the failure stress of
    its material over ``safety_factor``."""
    failure_stress = solution.spec.material.failure_stress
    return {
        "deflection": solution.w_max <= max_deflection,
        "stress": solution.sigma_max <= failure_stress / safety_factor,
    }


def dump_deflection(solution: PlateSolution) -> str:
    """Deflection field as tabular text (x_um, y_um, w_nm per line)."""
    lines = ["# x_um,y_um,w_nm"]
    for j, yv in enumerate(solution.y):
        for i, xv in enumerate(solution.x):
            lines.append(
                f"{xv / UM:.6g},{yv / UM:.6g},{solution.deflection[j, i] / NM:.6g}"
            )
    return "\n".join(lines) + "\n"
