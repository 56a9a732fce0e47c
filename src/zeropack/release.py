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
and ``b = C_f / h_s``, a front that starts at ``u0`` satisfies

    p U + b U^2 / 2 = R0 t + p u0 + b u0^2 / 2

so every front position is the positive root of one quadratic, evaluated
directly at the queried time rather than stepped to it, and the time a
front from the hole edge needs to reach a distance is the left side over
``R0``. Rates and distances are SI (m/s, m).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import CalibrationError, DataFileError, ReleaseTooSlowError, located
from .geometry import (
    Hole,
    Material,
    PackageStack,
    Rect,
    _HOLE_SHAPES,
    _front_distance,
    _raster,
    _released,
    default_coverage_pitch,
    hole_area,
    release_coverage,
)
from .units import MINUTE, UM

DEFAULT_TIME_CAP = 120.0 * MINUTE
TIME_TOLERANCE = 1e-3 * MINUTE

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
    """One measured underetch point: hole, film thickness, time, distance."""

    hole: Hole
    sacrificial_thickness: float
    time: float
    underetch: float


@dataclass(frozen=True)
class EtchState:
    """Snapshot of a release in progress."""

    underetch: tuple[float, ...]
    elapsed: float
    structural_loss: float
    released: bool


@dataclass(frozen=True)
class CalibrationResult:
    params: EtchParams
    residual: float
    n_observations: int


def _feed(params: EtchParams, h_s: float, hole: Hole) -> float:
    """Aperture feed resistance ``A_f h_s / A_open`` of one hole."""
    return params.aperture_factor * h_s / hole_area(hole)


def etch_rate(
    hole: Hole, stack: PackageStack, params: EtchParams, underetch: float = 0.0
) -> float:
    """Instantaneous front speed (m/s) at a given underetch distance."""
    if underetch < 0.0:
        raise ValueError("underetch must be >= 0")
    h_s = stack.sacrificial_thickness
    return params.intrinsic_rate / (
        1.0 + _feed(params, h_s, hole) + params.channel_factor * underetch / h_s
    )


def _front(params, feed_resistance, h_s, duration, u0=0.0):
    """Front position after etching ``duration`` from ``u0``.

    The positive root of the first integral, written as
    ``2 rhs / (p + sqrt(p^2 + 2 b rhs))`` so that it neither cancels for
    small ``b rhs`` nor needs a branch at ``b = 0``. Works on floats and
    numpy arrays alike (``feed_resistance`` and ``u0`` may be arrays); the
    float path returns a float. Raises ``ValueError`` when the inputs are
    so extreme that ``2 rhs`` or the discriminant overflows; a finite
    pair gives a finite front.
    """
    p = 1.0 + feed_resistance
    b = params.channel_factor / h_s
    array = isinstance(p, np.ndarray) or isinstance(u0, np.ndarray)
    # an overflow is raised below as an error, so numpy need not warn of
    # it; the float path, calibration's hot loop, has nothing to silence
    with np.errstate(over="ignore", invalid="ignore") if array else nullcontext():
        rhs = params.intrinsic_rate * duration + p * u0 + 0.5 * b * u0 * u0
        disc = p * p + 2.0 * b * rhs
        num = 2.0 * rhs
    if array:
        finite = np.isfinite(num).all() and np.isfinite(disc).all()
        root = np.sqrt(disc)
    else:
        finite = math.isfinite(num) and math.isfinite(disc)
        root = math.sqrt(disc)
    if not finite:
        raise ValueError("etch front overflows: etch rate or time is too large")
    return num / (p + root)


def _arrival(params, feed_resistance, h_s, reach):
    """Time for a front starting at the hole edge to reach ``reach``.

    The inverse of ``_front`` from ``u0 = 0``: ``(p U + b U^2 / 2) / R0``,
    written as ``U (p + b U / 2) / R0`` so that ``b = 0`` needs no branch,
    and 0 for ``U <= 0``. ``reach`` is an array; a time too large for a
    float is inf.
    """
    p = 1.0 + feed_resistance
    b = params.channel_factor / h_s
    with np.errstate(over="ignore", invalid="ignore"):
        t = reach * (p + 0.5 * b * reach) / params.intrinsic_rate
    return np.where(reach > 0.0, t, 0.0)


def underetch(
    hole: Hole,
    stack: PackageStack,
    params: EtchParams,
    duration: float,
    *,
    start: float = 0.0,
) -> float:
    """Underetch distance after etching for ``duration`` seconds.

    ``start`` lets a run resume from a previous front position.
    """
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    if start < 0.0:
        raise ValueError("start must be >= 0")
    h_s = stack.sacrificial_thickness
    return _front(params, _feed(params, h_s, hole), h_s, duration, start)


def etch_state(
    footprint: Rect,
    holes: list[Hole] | tuple[Hole, ...],
    stack: PackageStack,
    params: EtchParams,
    structural: Material,
    elapsed: float,
    grid_pitch: float | None = None,
) -> EtchState:
    """Per-hole fronts, parasitic cap loss, and release status at a time."""
    if elapsed < 0.0:
        raise ValueError("elapsed must be >= 0")
    pitch = grid_pitch if grid_pitch is not None else default_coverage_pitch(holes)
    u = [underetch(h, stack, params, elapsed) for h in holes]
    coverage = release_coverage(footprint, holes, u, pitch)
    return EtchState(
        underetch=tuple(u),
        elapsed=elapsed,
        structural_loss=structural.selectivity_loss * elapsed,
        released=coverage >= 1.0,
    )


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
    """Smallest time at which the etch fronts cover the whole footprint.

    Returns ``(t_release, structural_loss)``. Found by bisection on the
    monotone coverage; the left endpoint of the final bracket is
    returned, so the result underestimates the true release time by at
    most ``TIME_TOLERANCE``. Raises :class:`ReleaseTooSlowError` if the layout
    has not released by ``max_time``.

    The bisection runs on the arrival-time estimate of
    :func:`_release_estimate` and then asks the coverage raster at the two
    ends of its final bracket. Coverage is monotone in time, so when both
    answers agree every step of the search decided as the raster would
    have, and the result is the raster search's own. Otherwise the search
    is run again on the raster.
    """
    if not holes:
        raise ValueError("at least one hole required")
    if not max_time > 0.0:
        raise ValueError("max_time must be > 0")
    pitch = grid_pitch if grid_pitch is not None else default_coverage_pitch(holes)
    h_s = stack.sacrificial_thickness
    feed = np.array([_feed(params, h_s, h) for h in holes])

    def covered(t: float) -> bool:
        return _released(footprint, holes, _front(params, feed, h_s, t), pitch)

    estimate = _release_estimate(footprint, holes, params, feed, h_s, pitch, max_time)
    lo, hi = _search(lambda t: t >= estimate, max_time)
    try:
        confirmed = (lo is None or not covered(lo)) and (hi is None or covered(hi))
    except ValueError:  # the front overflows where the raster search may not go
        confirmed = False
    if not confirmed:
        lo, hi = _search(covered, max_time)
    if hi is None:
        raise ReleaseTooSlowError(
            f"footprint not fully released after {max_time / MINUTE:g} min"
        )
    if lo is None:
        return 0.0, 0.0
    return lo, structural.selectivity_loss * lo


def _search(covered, max_time: float) -> tuple[float | None, float | None]:
    """Final bracket ``(lo, hi)`` of the first time ``covered`` holds:
    ``covered(lo)`` is false and ``covered(hi)`` true. ``lo`` is None when
    ``covered(0.0)``, and ``hi`` None when not ``covered(max_time)``."""
    if covered(0.0):
        return None, 0.0
    # bracket the release time by doubling before bisecting
    lo = 0.0
    t = min(1.0 * MINUTE, max_time)
    while not covered(t):
        lo = t
        if t >= max_time:
            return lo, None
        t = min(2.0 * t, max_time)
    hi = t
    while hi - lo > TIME_TOLERANCE:
        mid = 0.5 * (lo + hi)
        # past about 2.7e14 s the bracket can be two adjacent floats
        # wider than the tolerance, and the midpoint rounds onto one
        if not lo < mid < hi:
            break
        if covered(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _release_estimate(footprint, holes, params, feed, h_s, pitch, max_time) -> float:
    """The release time on the coverage raster, from arrival times.

    A cell whose centre lies at distance ``D_i`` from hole ``i`` counts 0
    until ``lo_c = min_i T_i(D_i - half_diag)`` and 1 from
    ``hi_c = min_i T_i(D_i + half_diag)`` on, with ``T_i`` the
    :func:`_arrival` time of hole ``i``; in between it counts 1 once every
    subsample point ``s`` is half a ramp inside a front, at
    ``max_s min_i T_i(D_s,i + ramp / 2)``. The footprint releases at the
    latest cell time, so only cells with ``hi_c`` at or above
    ``t_lo = max lo_c`` are subsampled, in descending ``hi_c`` until no
    later one can raise the maximum.

    Each hole is evaluated on the window ``_coverage`` gives its front at
    ``t_up``: a hole left out of a cell has ``T_i(D_i - half_diag) > t_up``
    there, so every cell time up to ``t_up`` is exact and one beyond it
    stays beyond it. ``t_up`` doubles from 1 min while some cell lies
    outside every window, then moves once to the latest ``hi_c`` if that
    is later, and never passes ``max_time``; windows that span the
    raster reach every cell. Rounding between ``_arrival`` and
    ``_front`` can move the result by a few ulps, which the caller's
    raster queries settle.
    """
    grid = _raster(footprint, holes, pitch)
    shape = (grid.ys.size, grid.xs.size)

    def cell_times(t_up):
        """The windows at ``t_up`` and the ``lo_c`` and ``hi_c`` maps on
        them; None while ``t_up < max_time`` and some cell lies outside
        every window, where its ``hi_c`` is inf."""
        try:
            reach = _front(params, feed, h_s, t_up)
        except ValueError:
            reach = np.full(len(holes), np.inf)
        windows = grid.windows(reach)
        reached = np.zeros(shape, dtype=bool)
        for c0, c1, r0, r1 in windows:
            reached[r0:r1, c0:c1] = True
        if t_up < max_time and not reached.all():
            return None
        cells_lo = np.full(shape, np.inf)
        cells_hi = np.full(shape, np.inf)
        for hole, q, window in zip(grid.holes, feed, windows):
            c0, c1, r0, r1 = window
            d = _front_distance(hole, 0.0, *grid.centres(window))
            view = cells_lo[r0:r1, c0:c1]
            np.minimum(view, _arrival(params, q, h_s, d - grid.half_diag), out=view)
            view = cells_hi[r0:r1, c0:c1]
            np.minimum(view, _arrival(params, q, h_s, d + grid.half_diag), out=view)
        return windows, cells_lo, cells_hi

    t_up = min(1.0 * MINUTE, max_time)
    while (found := cell_times(t_up)) is None:
        t_up = min(2.0 * t_up, max_time)
    latest = found[2].max()
    if t_up < max_time and latest > t_up:
        # a windowed cell time bounds the true one from above, so the
        # windows at ``latest`` hold every hole a cell time comes from
        found = cell_times(min(latest, max_time)) or found
    windows, cells_lo, cells_hi = found

    rows, cols = np.nonzero(cells_hi >= cells_lo.max())
    order = np.argsort(cells_hi[rows, cols])[::-1]
    rows, cols = rows[order], cols[order]
    bounds = cells_hi[rows, cols]
    half_ramp = 0.5 * grid.ramp
    best = -np.inf
    start, size = 0, 64
    while start < rows.size and bounds[start] > best:
        r, c = rows[start : start + size], cols[start : start + size]
        sub = grid.subsample_min(
            windows,
            r,
            c,
            lambda k, x, y: _arrival(
                params, feed[k], h_s, _front_distance(grid.holes[k], 0.0, x, y) + half_ramp
            ),
        )
        best = max(best, float(np.minimum(bounds[start : start + size], sub.max(axis=1)).max()))
        start += size
        size *= 2
    return best


def _predicted(params: EtchParams, obs: EtchObservation) -> float:
    h_s = obs.sacrificial_thickness
    return _front(params, _feed(params, h_s, obs.hole), h_s, obs.time)


def calibrate_etch(
    observations: "list[EtchObservation] | tuple[EtchObservation, ...]",
    *,
    fixed: dict[str, float] | None = None,
) -> CalibrationResult:
    """Least-squares fit of the etch constants to measured underetch data.

    ``fixed`` pins named parameters (``intrinsic_rate``,
    ``aperture_factor``, ``channel_factor``) at given values; the rest
    are fitted. Parameters are released one at a time, each stage seeded
    from the previous optimum, so the residual never increases as the
    model grows.
    """
    obs = list(observations)
    fixed = dict(fixed or {})
    for name in fixed:
        if name not in _PARAM_ORDER:
            raise CalibrationError(f"unknown parameter {name!r}")
    free = [n for n in _PARAM_ORDER if n not in fixed]
    if not free:
        raise CalibrationError("at least one parameter must be left free")
    if len(obs) < len(free):
        raise CalibrationError(
            f"under-determined: {len(obs)} observations for {len(free)} free parameters"
        )
    if len(free) == 3:
        areas = {round(hole_area(o.hole) / (1e-9 * UM**2)) for o in obs}
        if len(areas) < 2:
            raise CalibrationError("observations must span at least 2 hole sizes")
    for i, o in enumerate(obs):
        if not o.time > 0.0:
            raise CalibrationError(f"observation {i}: time must be > 0")
        if o.underetch < 0.0:
            raise CalibrationError(f"observation {i}: underetch must be >= 0")
        if not o.sacrificial_thickness > 0.0:
            raise CalibrationError(f"observation {i}: film thickness must be > 0")

    rate_floor = 1e-15
    seed_rate = max(max(o.underetch / o.time for o in obs), rate_floor)
    current = {
        "intrinsic_rate": 2.0 * seed_rate,
        "aperture_factor": 0.0,
        "channel_factor": 0.0,
    }
    current.update(fixed)

    def residuals(x, subset):
        trial = dict(current)
        trial.update(dict(zip(subset, x)))
        trial["intrinsic_rate"] = max(trial["intrinsic_rate"], rate_floor)
        p = EtchParams(**trial)
        return np.array([_predicted(p, o) - o.underetch for o in obs]) / UM

    # imported here, not at module level: only calibration needs scipy,
    # so importing the package (and every simulate) stays scipy-free
    from scipy.optimize import least_squares

    fit = None
    for k in range(1, len(free) + 1):
        subset = free[:k]
        x0 = [max(current[n], rate_floor if n == "intrinsic_rate" else 0.0) for n in subset]
        lower = [rate_floor if n == "intrinsic_rate" else 0.0 for n in subset]
        fit = least_squares(
            residuals,
            x0,
            args=(subset,),
            bounds=(lower, [np.inf] * len(subset)),
            method="trf",
            x_scale="jac",
        )
        current.update(dict(zip(subset, fit.x)))

    params = EtchParams(**current)
    residual = float(np.linalg.norm(fit.fun) * UM)
    return CalibrationResult(params=params, residual=residual, n_observations=len(obs))


def load_observations(path) -> list[EtchObservation]:
    """Read underetch observations from a comma-separated text file.

    One observation per line: ``shape, dim1_um, dim2_um, h_s_um, t_min,
    U_um``. ``dim2_um`` is the rectangle length and is ignored for
    circles and squares. Lines beginning with ``#`` are comments.
    """
    with open(path, encoding="utf-8") as fh:
        return _parse_observations(fh.read(), str(path))


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
            out.append(
                EtchObservation(
                    hole=hole,
                    sacrificial_thickness=h_s * UM,
                    time=t * MINUTE,
                    underetch=u * UM,
                )
            )
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
