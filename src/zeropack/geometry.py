"""Layout primitives for thin-film packages.

Release holes, the cavity footprint, the film stack, and the material
library shared by the etch, clogging, and mechanics models, plus the
purely geometric queries built on them (areas, aspect ratios, and the
rasterized release-coverage fraction).

All stored quantities are SI (metres, pascals, metres/second); see
:mod:`zeropack.units` for the boundary conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import GPA, MINUTE, NM, UM

CIRCLE = "circle"
SQUARE = "square"
RECTANGLE = "rectangle"


@dataclass(frozen=True)
class Hole:
    """One release perforation in the cap film.

    ``width`` is the diameter of a circle, the side of a square, or the
    short in-plane dimension of a rectangle. ``length`` equals ``width``
    except for rectangles, which are normalized to ``width <= length``.
    """

    shape: str
    width: float
    length: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.shape not in _HOLE_SHAPES:
            raise ValueError(f"unknown hole shape {self.shape!r}")
        if not (self.width > 0.0 and self.length > 0.0):
            raise ValueError("hole dimensions must be strictly positive")
        if self.shape != RECTANGLE and self.width != self.length:
            raise ValueError(f"{self.shape} holes have a single dimension")
        if self.width > self.length:
            raise ValueError("rectangle holes must satisfy width <= length")
        # the etch feed divides by the area; width * length overflows or
        # rounds to 0 exactly when hole_area does (pi/4 of it for a circle)
        if not 0.0 < self.width * self.length < math.inf:
            raise ValueError("hole area must be a positive finite number")

    @classmethod
    def circle(cls, diameter: float, center: tuple[float, float] = (0.0, 0.0)) -> "Hole":
        return cls(CIRCLE, diameter, diameter, center)

    @classmethod
    def square(cls, side: float, center: tuple[float, float] = (0.0, 0.0)) -> "Hole":
        return cls(SQUARE, side, side, center)

    @classmethod
    def rectangle(
        cls, width: float, length: float, center: tuple[float, float] = (0.0, 0.0)
    ) -> "Hole":
        lo, hi = sorted((width, length))
        return cls(RECTANGLE, lo, hi, center)


# hole shape -> (constructor, its dimensions in argument order)
_HOLE_SHAPES = {
    CIRCLE: (Hole.circle, ("diameter",)),
    SQUARE: (Hole.square, ("side",)),
    RECTANGLE: (Hole.rectangle, ("width", "length")),
}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, used for cavity footprints."""

    width: float
    length: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and self.length > 0.0):
            raise ValueError("rectangle dimensions must be strictly positive")

    def contains(self, x: float, y: float) -> bool:
        """Inclusive point-in-rectangle test."""
        return (
            abs(x - self.center[0]) <= 0.5 * self.width
            and abs(y - self.center[1]) <= 0.5 * self.length
        )


@dataclass(frozen=True)
class PackageStack:
    """Film thicknesses and cavity geometry of one package.

    ``sacrificial_thickness`` is the sacrificial film under the cap,
    ``cap_thickness`` the structural film carrying the release holes,
    and ``clog_deposition`` the sealing film sputtered on top.
    """

    sacrificial_thickness: float
    cap_thickness: float
    clog_deposition: float
    cavity_footprint: Rect

    def __post_init__(self) -> None:
        for name in ("sacrificial_thickness", "cap_thickness", "clog_deposition"):
            self.check_thickness(name, getattr(self, name))

    @staticmethod
    def check_thickness(name: str, value: float) -> None:
        """The range check of one film thickness, usable before the stack
        is complete (a recipe reads the three one line at a time)."""
        if not value > 0.0:
            raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class Material:
    """Etch, deposition, and mechanical constants for one film material.

    ``selectivity_loss`` is the parasitic attack rate the release
    chemistry inflicts on a film of this material while it etches the
    sacrificial film.
    """

    name: str
    selectivity_loss: float = 0.0
    sticking_coefficient: float = 0.1
    youngs_modulus: float = 70.0 * GPA
    poisson_ratio: float = 0.17
    failure_stress: float = 1.0 * GPA

    def __post_init__(self) -> None:
        if self.selectivity_loss < 0.0:
            raise ValueError("selectivity_loss must be >= 0")
        if not 0.0 < self.sticking_coefficient <= 1.0:
            raise ValueError("sticking coefficient must be in (0, 1]")
        if not self.youngs_modulus > 0.0:
            raise ValueError("Young's modulus must be > 0")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must be in (0, 0.5)")
        if not self.failure_stress > 0.0:
            raise ValueError("failure stress must be > 0")


def standard_materials() -> dict[str, Material]:
    """Built-in material library, keyed by name.

    Sticking coefficients for sputtered SiO2 (0.26) and LPCVD poly-Si
    (below 0.01) are measured values; the mechanical constants and
    selectivity losses are implementer defaults, overridable per recipe.
    """
    materials = [
        Material(
            "asi",
            selectivity_loss=0.0,
            sticking_coefficient=0.9,
            youngs_modulus=80.0 * GPA,
            poisson_ratio=0.22,
            failure_stress=1.0 * GPA,
        ),
        Material(
            "sio2_sputter",
            selectivity_loss=1.0 * NM / MINUTE,
            sticking_coefficient=0.26,
            youngs_modulus=70.0 * GPA,
            poisson_ratio=0.17,
            failure_stress=2.0 * GPA,
        ),
        Material(
            "lto",
            selectivity_loss=1.0 * NM / MINUTE,
            sticking_coefficient=0.15,
            youngs_modulus=70.0 * GPA,
            poisson_ratio=0.17,
            failure_stress=2.0 * GPA,
        ),
        Material(
            "nitride_pecvd",
            selectivity_loss=5.0 * NM / MINUTE,
            sticking_coefficient=0.1,
            youngs_modulus=250.0 * GPA,
            poisson_ratio=0.25,
            failure_stress=9.0 * GPA,
        ),
        Material(
            "polysi_lpcvd",
            selectivity_loss=0.0,
            sticking_coefficient=0.005,
            youngs_modulus=160.0 * GPA,
            poisson_ratio=0.22,
            failure_stress=3.0 * GPA,
        ),
    ]
    return {m.name: m for m in materials}


def hole_area(hole: Hole) -> float:
    """Exact analytic open area of a hole."""
    if hole.shape == CIRCLE:
        return 0.25 * math.pi * hole.width**2
    return hole.width * hole.length


def hole_min_dimension(hole: Hole) -> float:
    """The dimension that governs clogging: diameter, side, or width."""
    return hole.width


def aspect_ratio(hole: Hole, cap_thickness: float) -> float:
    """Opening-over-depth ratio of a hole through a cap film."""
    if not cap_thickness > 0.0:
        raise ValueError("cap thickness must be strictly positive")
    return hole_min_dimension(hole) / cap_thickness


def default_coverage_pitch(holes: list[Hole] | tuple[Hole, ...]) -> float:
    """Default rasterization pitch: one eighth of the smallest hole dimension."""
    if not holes:
        raise ValueError("at least one hole required")
    return min(hole_min_dimension(h) for h in holes) / 8.0


def validate_hole_layout(footprint: Rect, holes: list[Hole] | tuple[Hole, ...]) -> None:
    """Check that every hole center lies inside the cavity footprint."""
    for i, hole in enumerate(holes):
        if not footprint.contains(*hole.center):
            raise ValueError(f"hole {i} center lies outside the cavity footprint")


def _front_distance(hole: Hole, reach: float, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Signed distance from points to the etch front of one hole dilated
    by ``reach`` (Minkowski sum with a disc: isotropic chemical etching
    rounds the corners of square and rectangular fronts)."""
    dx = px - hole.center[0]
    dy = py - hole.center[1]
    if hole.shape == CIRCLE:
        return np.hypot(dx, dy) - (0.5 * hole.width + reach)
    qx = np.abs(dx) - 0.5 * hole.width
    qy = np.abs(dy) - 0.5 * hole.length
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    inside = np.minimum(np.maximum(qx, qy), 0.0)
    return outside + inside - reach


_SUBSAMPLE = 16


def _raster_shape(footprint: Rect, grid_pitch: float) -> tuple[int, int]:
    """Columns and rows of the coverage raster: the fewest equal cells
    per axis no wider than ``grid_pitch``."""
    return (
        max(1, math.ceil(footprint.width / grid_pitch)),
        max(1, math.ceil(footprint.length / grid_pitch)),
    )


def release_coverage(
    footprint: Rect,
    holes: list[Hole] | tuple[Hole, ...],
    underetch: "list[float] | tuple[float, ...] | np.ndarray",
    grid_pitch: float,
) -> float:
    """Fraction of the footprint reached by the etch fronts.

    Each hole is dilated outward by its underetch distance and the union
    is rasterized on a regular grid of at most ``grid_pitch`` spacing.
    Cells well inside or outside every front count 1 or 0; cells the
    front crosses are area-weighted on a 16x16 subsample whose points
    contribute a linear ramp of the signed distance (exact for straight
    front segments), which keeps the result stable under grid
    refinement. 1.0 means fully released and is reached exactly once the
    front clears every subsample point.

    The grid is anchored to the footprint corner, so translating the
    footprint and holes together leaves the result unchanged.

    Each hole is evaluated only on the window of cells its front can
    reach: the cells whose centre lies within the hole's half extent
    plus its underetch plus a margin of two cell half-diagonals and one
    ramp width, per axis. The signed distances are 1-Lipschitz and at
    least the per-axis excess over that extent, so a hole skipped at a
    cell is farther than a half-diagonal plus a ramp from its centre and
    farther than half a ramp from each of its subsample points. It can
    neither be the minimum that classifies the centre nor give a
    subsample point a nonzero weight, and every point still evaluated
    uses the same arithmetic, so the result is bit-identical to testing
    every hole everywhere.
    """
    if len(holes) != len(underetch):
        raise ValueError("underetch list length must match the hole list")
    if not grid_pitch > 0.0:
        raise ValueError("grid pitch must be strictly positive")
    if not holes:
        return 0.0
    u = np.asarray(underetch, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("underetch distances must be >= 0")

    grid = _raster(footprint, holes, grid_pitch)
    half_diag = grid.half_diag
    windows = grid.windows(u)
    dist = np.full((grid.ys.size, grid.xs.size), np.inf)
    for hole, ui, window in zip(grid.holes, u, windows):
        c0, c1, r0, r1 = window
        view = dist[r0:r1, c0:c1]
        np.minimum(view, _front_distance(hole, ui, *grid.centres(window)), out=view)

    rows, cols = np.nonzero((dist > -half_diag) & (dist < half_diag))
    # the cell fractions overwrite the distances, so no second map is held
    np.copyto(dist, dist <= -half_diag)
    if rows.size:
        sub_dist = grid.subsample_min(
            windows, rows, cols, lambda k, x, y: _front_distance(grid.holes[k], u[k], x, y)
        )
        weight = np.clip(0.5 - sub_dist / grid.ramp, 0.0, 1.0)
        dist[rows, cols] = weight.mean(axis=1)
    return float(dist.mean())


@dataclass(frozen=True, eq=False)
class _Raster:
    """The coverage raster of one footprint: cell centres ``xs``, ``ys``
    and the holes in coordinates relative to the footprint corner, so
    rigid translations of footprint and holes cancel exactly."""

    xs: np.ndarray
    ys: np.ndarray
    holes: tuple[Hole, ...]
    half_diag: float
    ramp: float
    offsets: tuple[np.ndarray, np.ndarray]

    def windows(self, reach: np.ndarray) -> list[tuple[int, int, int, int]]:
        """Per hole, (first column, end column, first row, end row) of the
        cells whose centre lies within the hole's half extent plus its
        ``reach`` plus a margin of two cell half-diagonals and one ramp
        width, per axis."""
        margin = 2.0 * self.half_diag + self.ramp
        cx, cy, half_w, half_l = np.array(
            [(h.center[0], h.center[1], 0.5 * h.width, 0.5 * h.length) for h in self.holes]
        ).T
        rx = half_w + reach + margin
        ry = half_l + reach + margin
        c0, c1 = np.searchsorted(self.xs, (cx - rx, cx + rx))
        r0, r1 = np.searchsorted(self.ys, (cy - ry, cy + ry))
        return list(zip(c0.tolist(), c1.tolist(), r0.tolist(), r1.tolist()))

    def centres(self, window: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Cell-centre coordinates of a window, broadcasting to its cells."""
        c0, c1, r0, r1 = window
        return self.xs[c0:c1][None, :], self.ys[r0:r1][:, None]

    def subsample_min(self, windows, rows: np.ndarray, cols: np.ndarray, field) -> np.ndarray:
        """Per listed cell and subsample point, the least ``field(k, x, y)``
        over the holes ``k`` whose window holds the cell; inf where none
        does. ``rows`` and ``cols`` list the cells."""
        out = np.full((rows.size, _SUBSAMPLE * _SUBSAMPLE), np.inf)
        ox, oy = self.offsets
        for k, (c0, c1, r0, r1) in enumerate(windows):
            near = np.flatnonzero((cols >= c0) & (cols < c1) & (rows >= r0) & (rows < r1))
            if near.size:
                d = field(k, self.xs[cols[near], None] + ox, self.ys[rows[near], None] + oy)
                out[near] = np.minimum(out[near], d)
        return out


def _raster(
    footprint: Rect, holes: list[Hole] | tuple[Hole, ...], grid_pitch: float
) -> _Raster:
    """The raster of cells at most ``grid_pitch`` wide over ``footprint``."""
    nx, ny = _raster_shape(footprint, grid_pitch)
    px = footprint.width / nx
    py = footprint.length / ny
    x0 = footprint.center[0] - 0.5 * footprint.width
    y0 = footprint.center[1] - 0.5 * footprint.length
    offsets = (np.arange(_SUBSAMPLE) + 0.5) / _SUBSAMPLE - 0.5
    ox, oy = (o.ravel() for o in np.meshgrid(offsets, offsets))
    return _Raster(
        xs=(np.arange(nx) + 0.5) * px,
        ys=(np.arange(ny) + 0.5) * py,
        holes=tuple(
            Hole(h.shape, h.width, h.length, (h.center[0] - x0, h.center[1] - y0))
            for h in holes
        ),
        half_diag=0.5 * math.hypot(px, py),
        ramp=0.5 * (px + py) / _SUBSAMPLE,
        offsets=(ox * px, oy * py),
    )
