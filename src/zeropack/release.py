"""Transport-limited isotropic sacrificial release etch.

The etch front advances from each hole edge at

    dU/dt = R0 / (1 + A_f * h_s / A_open + C_f * U / h_s)

where ``R0`` is the intrinsic (transport-unlimited) etch rate, ``A_open``
the hole open area, ``h_s`` the sacrificial film thickness, and ``U`` the
underetch distance reached so far. The second denominator term is the
aperture feed resistance: the etchant supplied through a small opening is
consumed over the full film height, so thin films advance faster. The
third is the lateral channel resistance: species travel a path of length
``U`` through a channel of height ``h_s`` to reach the front. Both
constants are calibrated against measured underetch data.

The law has an exact first integral. With ``p = 1 + A_f h_s / A_open``
and ``b = C_f / h_s``, a front that starts at the hole edge satisfies

    p U + b U^2 / 2 = R0 t

so every front position is the positive root of one quadratic, evaluated
directly at the queried time rather than stepped to it, and the time a
front from the hole edge needs to reach a distance is the left side over
``R0``. Rates and distances are SI (m/s, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .errors import (
    CalibrationError,
    DataFileError,
    InputError,
    ReleaseTooSlowError,
    located,
    read_text,
)
from .geometry import (
    Hole,
    Material,
    PackageStack,
    Rect,
    _HOLE_SHAPES,
    _front_distance,
    _raster,
    default_coverage_pitch,
    hole_area,
    release_coverage,  # noqa: F401 - perfbench's tracer wraps release.release_coverage
)
from .units import MINUTE, UM

DEFAULT_TIME_CAP = 120.0 * MINUTE

_PARAM_ORDER = ("intrinsic_rate", "aperture_factor", "channel_factor")


@dataclass(frozen=True)
class EtchParams:
    """Calibrated constants of the release-etch model.

    ``intrinsic_rate`` in m/s; ``aperture_factor`` in metres (it divides
    area per unit film height); ``channel_factor`` dimensionless.
    """

    intrinsic_rate: float
    aperture_factor: float
    channel_factor: float

    def __post_init__(self) -> None:
        if not self.intrinsic_rate > 0.0:
            raise ValueError("intrinsic rate must be > 0")
        if self.aperture_factor < 0.0 or self.channel_factor < 0.0:
            raise ValueError("transport factors must be >= 0")


@dataclass(frozen=True)
class EtchObservation:
    """One measured underetch point: hole, film thickness, time, distance,
    each checked when built (an out-of-range value raises ``ValueError``)."""

    hole: Hole
    sacrificial_thickness: float
    time: float
    underetch: float

    def __post_init__(self) -> None:
        for name, value in (
            ("time", self.time),
            ("underetch", self.underetch),
            ("film thickness", self.sacrificial_thickness),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.time > 0.0:
            raise ValueError("time must be > 0")
        if self.underetch < 0.0:
            raise ValueError("underetch must be >= 0")
        if not self.sacrificial_thickness > 0.0:
            raise ValueError("film thickness must be > 0")
        # the fit seeds its etch rate from the largest underetch / time
        if not math.isfinite(self.underetch / self.time):
            raise ValueError("underetch / time must be finite")


@dataclass(frozen=True)
class CalibrationResult:
    params: EtchParams
    residual: float
    n_observations: int


def _feed(params: EtchParams, h_s: float, area: float) -> float:
    """Aperture feed resistance ``A_f h_s / A_open`` of a hole of open
    area ``area`` (:func:`hole_area`)."""
    return params.aperture_factor * h_s / area


def etch_rate(
    hole: Hole, stack: PackageStack, params: EtchParams, underetch: float = 0.0
) -> float:
    """Instantaneous front speed (m/s) at a given underetch distance."""
    if underetch < 0.0:
        raise ValueError("underetch must be >= 0")
    h_s = stack.sacrificial_thickness
    return params.intrinsic_rate / (
        1.0 + _feed(params, h_s, hole_area(hole)) + params.channel_factor * underetch / h_s
    )


def _front(params, feed_resistance, h_s, duration):
    """Front position after etching ``duration`` from the hole edge.

    The positive root of the first integral, written as
    ``2 rhs / (p + sqrt(p^2 + 2 b rhs))`` so that it neither cancels for
    small ``b rhs`` nor needs a branch at ``b = 0``, with ``rhs = R0 t``
    the first integral's right side. Raises
    :class:`InputError` when the inputs are so extreme that ``2 rhs`` or
    the discriminant overflows; a finite pair gives a finite front.
    """
    p = 1.0 + feed_resistance
    b = params.channel_factor / h_s
    # + 0.0 makes the front of a duration of -0.0 read +0.0, not -0.0
    rhs = params.intrinsic_rate * duration + 0.0
    num, disc = 2.0 * rhs, p * p + 2.0 * b * rhs
    if not (math.isfinite(num) and math.isfinite(disc)):
        raise InputError("etch front overflows: etch rate or time is too large")
    return num / (p + math.sqrt(disc))


def _arrival(params, feed_resistance, h_s, reach):
    """Time for a front starting at the hole edge to reach ``reach``.

    The inverse of ``_front``: ``(p U + b U^2 / 2) / R0``,
    written as ``U (p + b U / 2) / R0`` so that ``b = 0`` needs no branch,
    and 0 for ``U <= 0``. ``reach`` is an array; a time too large for a
    float is inf.
    """
    p = 1.0 + feed_resistance
    b = params.channel_factor / h_s
    with np.errstate(over="ignore", invalid="ignore"):
        t = reach * (p + 0.5 * b * reach) / params.intrinsic_rate
    return np.where(reach > 0.0, t, 0.0)


def underetch(hole: Hole, stack: PackageStack, params: EtchParams, duration: float) -> float:
    """Underetch distance after etching for ``duration`` seconds."""
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    h_s = stack.sacrificial_thickness
    return _front(params, _feed(params, h_s, hole_area(hole)), h_s, duration)


def time_to_release(
    footprint: Rect,
    holes: list[Hole] | tuple[Hole, ...],
    stack: PackageStack,
    params: EtchParams,
    structural: Material,
    *,
    max_time: float = DEFAULT_TIME_CAP,
    grid_pitch: float | None = None,
) -> tuple[float, float]:
    """Time at which the etch fronts cover the whole footprint.

    Returns ``(t_release, structural_loss)``: the latest cell arrival
    time on the coverage raster, read off in closed form with no search,
    and the structural film's selectivity loss over that time.
    ``max_time`` is only a cap: a release time beyond it (inf included)
    raises :class:`ReleaseTooSlowError`, and any other is returned
    unchanged whatever the cap.

    A cell whose centre lies at distance ``D_i`` from hole ``i`` counts 1
    from ``hi_c = min_i T_i(D_i + half_diag)`` on, with ``T_i`` the
    :func:`_arrival` time of hole ``i``, or earlier once every subsample
    point ``s`` is half a ramp inside a front, at
    ``max_s min_i T_i(D_s,i + ramp / 2)``. The footprint releases at the
    latest cell time. The cell with the largest ``hi_c`` is subsampled
    first; its time bounds the result from below, and only a cell with
    ``hi_c`` above it can be later, so those alone are subsampled, in one
    pass. As ``hi_c`` exceeds a cell's time by at most the front's travel
    over one cell diagonal, they are a thin band where the fronts meet last.

    Each hole is evaluated on the window ``release_coverage`` gives its front at
    ``t_up``: a hole left out of a cell has ``T_i(D_i - half_diag) > t_up``
    there, so every cell time up to ``t_up`` is exact and one beyond it
    stays beyond it. ``t_up`` doubles from 1 min while some cell lies
    outside every window, then moves once to the latest ``hi_c`` if that
    is later, and never passes ``max_time``; windows that span the
    raster reach every cell, and a cell outside every window at
    ``max_time`` has time inf.

    The result is the latest cell time as computed from the rounded
    ``_arrival`` times. ``release_coverage`` places the fronts by
    ``_front``, the inverse map, so the first float at which it reads 1
    can differ from it in the last digits: on the reference recipe it
    lies 1049 ulps (1.6e-13 relative) below it.
    """
    if not holes:
        raise ValueError("at least one hole required")
    if not max_time > 0.0:
        raise ValueError("max_time must be > 0")
    pitch = grid_pitch if grid_pitch is not None else default_coverage_pitch(holes)
    h_s = stack.sacrificial_thickness
    feed = [_feed(params, h_s, hole_area(h)) for h in holes]
    grid = _raster(footprint, holes, pitch)
    cells_hi = np.empty((grid.ys.size, grid.xs.size))

    def windows_at(t_up):
        try:
            reach = np.array([_front(params, q, h_s, t_up) for q in feed])
        except InputError:
            reach = np.full(len(holes), np.inf)
        return grid.windows(reach)

    def spans(windows):
        """Whether every cell lies in some window; one outside all has
        ``hi_c`` inf."""
        reached = np.zeros(cells_hi.shape, dtype=bool)
        for c0, c1, r0, r1 in windows:
            reached[r0:r1, c0:c1] = True
        return reached.all()

    def fill_hi(windows):
        """Overwrite ``cells_hi`` with the ``hi_c`` map on ``windows``."""
        cells_hi.fill(np.inf)
        for hole, q, window in zip(grid.holes, feed, windows):
            c0, c1, r0, r1 = window
            d = _front_distance(hole, 0.0, *grid.centres(window))
            view = cells_hi[r0:r1, c0:c1]
            np.minimum(view, _arrival(params, q, h_s, d + grid.half_diag), out=view)

    t_up = min(1.0 * MINUTE, max_time)
    windows = windows_at(t_up)
    while t_up < max_time and not spans(windows):
        t_up = min(2.0 * t_up, max_time)
        windows = windows_at(t_up)
    fill_hi(windows)
    if t_up < max_time and (latest := cells_hi.max()) > t_up:
        # a windowed cell time bounds the true one from above, so the
        # windows at ``latest`` hold every hole a cell time comes from;
        # windows only grow with time, so these still span the raster
        fill_hi(windows := windows_at(min(latest, max_time)))

    def cell_times(rows, cols):
        sub = grid.subsample_min(
            windows,
            rows,
            cols,
            lambda k, x, y: _arrival(
                params, feed[k], h_s, _front_distance(grid.holes[k], 0.0, x, y) + 0.5 * grid.ramp
            ),
        )
        return np.minimum(cells_hi[rows, cols], sub.max(axis=1))

    first = cell_times(*np.unravel_index([cells_hi.argmax()], cells_hi.shape))[0]
    best = float(cell_times(*np.nonzero(cells_hi > first)).max(initial=first))
    if best > max_time:
        raise ReleaseTooSlowError(
            f"footprint not fully released after {max_time / MINUTE:g} min"
        )
    return best, structural.selectivity_loss * best


def calibrate_etch(
    observations: "list[EtchObservation] | tuple[EtchObservation, ...]",
) -> CalibrationResult:
    """Least-squares fit of the etch constants to measured underetch data.

    The constants of :data:`_PARAM_ORDER` are released one at a time:
    stage ``k`` fits the first ``k`` of them, seeded from the previous
    stage's optimum with the rest held there (the transport factors start
    at 0), so the residual never increases as the model grows.

    Each stage is the reflective trust-region method of Branch, Coleman
    & Li (SIAM J. Sci. Comput. 21, 1999) with lower bounds, as scipy's
    ``least_squares(method="trf", x_scale="jac")`` runs it, ported to
    numpy in :mod:`zeropack._trf`. Every point it evaluates lies at or
    above the bounds, so the etch rate stays positive. It stops where
    scipy stops rather than at the least-squares minimum, because
    :data:`DEFAULT_ETCH_PARAMS` is that stopping point: its
    forward-difference Jacobian steps by ``sqrt(eps)`` in SI units, about
    half the etch rate, and that secant holds the fit 0.09-0.34 % from
    the minimum (1.751266 um/min, 21.01548 um, 0.320425 on the bundled
    data), more than the six digits the constants are frozen to.
    """
    obs = list(observations)
    # each residual is (underetch(o.hole, stack, p, o.time) - o.underetch)
    # / UM, with the observation's floats and hole area read once per fit
    rows = [(o.sacrificial_thickness, hole_area(o.hole), o.time, o.underetch) for o in obs]
    # repeated measurements of one (film, hole area, time) point fix one
    # value of the front, so only distinct points count
    points = len({row[:3] for row in rows})
    if points < len(_PARAM_ORDER):
        raise CalibrationError(
            f"under-determined: {points} distinct observations for "
            f"{len(_PARAM_ORDER)} free parameters"
        )
    if not any(o.underetch > 0.0 for o in obs):
        raise CalibrationError("every underetch is 0, so the data cannot fix the etch constants")
    areas = {round(hole_area(o.hole) / (1e-9 * UM**2)) for o in obs}
    if len(areas) < 2:
        raise CalibrationError("observations must span at least 2 hole sizes")

    rate_floor = 1e-15
    seed_rate = max(max(o.underetch / o.time for o in obs), rate_floor)
    current = {
        "intrinsic_rate": 2.0 * seed_rate,
        "aperture_factor": 0.0,
        "channel_factor": 0.0,
    }

    def residuals(x, subset):
        trial = dict(current)
        # Python floats: _front's arithmetic on numpy scalars is slower
        trial.update(zip(subset, x.tolist()))
        p = EtchParams(**trial)
        return np.array(
            [(_front(p, _feed(p, h_s, area), h_s, t) - u) / UM for h_s, area, t, u in rows]
        )

    # imported here, not at module level: only calibration runs the fit,
    # so importing the package (and every simulate) never loads it
    from ._trf import least_squares

    for k in range(1, len(_PARAM_ORDER) + 1):
        subset = _PARAM_ORDER[:k]
        x0 = [current[n] for n in subset]
        lower = [rate_floor, 0.0, 0.0][:k]
        x, f = least_squares(partial(residuals, subset=subset), x0, lower)
        current.update(zip(subset, x.tolist()))

    params = EtchParams(**current)
    residual = float(np.linalg.norm(f) * UM)
    return CalibrationResult(params=params, residual=residual, n_observations=len(obs))


def load_observations(path) -> list[EtchObservation]:
    """Read underetch observations from a comma-separated text file.

    One observation per line: ``shape, dim1_um, dim2_um, h_s_um, t_min,
    U_um``. ``dim2_um`` is the rectangle length and is ignored for
    circles and squares. Lines beginning with ``#`` are comments.
    """
    return _parse_observations(read_text(path, DataFileError), str(path))


def _parse_observations(text: str, source: str) -> list[EtchObservation]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        with located(f"{source}:{lineno}", DataFileError):
            if len(parts) != 6:
                raise DataFileError(f"expected 6 comma-separated fields, got {len(parts)}")
            shape = parts[0]
            dim1, dim2, h_s, t, u = (float(p) for p in parts[1:])
            if shape not in _HOLE_SHAPES:
                raise DataFileError(f"unknown shape {shape!r}")
            make, dims = _HOLE_SHAPES[shape]
            hole = make(*(d * UM for d in (dim1, dim2)[: len(dims)]))
            # checked in SI units, so a time that overflows in seconds is caught
            obs = EtchObservation(
                hole=hole,
                sacrificial_thickness=h_s * UM,
                time=t * MINUTE,
                underetch=u * UM,
            )
            out.append(obs)
    return out


def bundled_observations() -> list[EtchObservation]:
    """The underetch data set shipped with the package."""
    text = (resources.files("zeropack") / "data" / "sf6_underetch.csv").read_text(
        encoding="utf-8"
    )
    return _parse_observations(text, "sf6_underetch.csv")


# Frozen result of calibrate_etch(bundled_observations()); regenerated by
# tests to guard against drift between the data file and these numbers.
DEFAULT_ETCH_PARAMS = EtchParams(
    intrinsic_rate=1.75282 * UM / MINUTE,
    aperture_factor=21.0416 * UM,
    channel_factor=0.321514,
)
