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
directly at the queried time rather than stepped to it. Rates and
distances are SI (m/s, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.optimize import least_squares

from .errors import CalibrationError, DataFileError, ReleaseTooSlowError
from .geometry import (
    Hole,
    Material,
    PackageStack,
    Rect,
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
    rhs = params.intrinsic_rate * duration + p * u0 + 0.5 * b * u0 * u0
    disc = p * p + 2.0 * b * rhs
    num = 2.0 * rhs
    if isinstance(disc, np.ndarray):
        finite = np.isfinite(num).all() and np.isfinite(disc).all()
        root = np.sqrt(disc)
    else:
        finite = math.isfinite(num) and math.isfinite(disc)
        root = math.sqrt(disc)
    if not finite:
        raise ValueError("etch front overflows: etch rate or time is too large")
    return num / (p + root)


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
    time_tol: float = TIME_TOLERANCE,
) -> tuple[float, float]:
    """Smallest time at which the etch fronts cover the whole footprint.

    Returns ``(t_release, structural_loss)``. Found by bisection on the
    monotone coverage; the left endpoint of the final bracket is
    returned, so the result underestimates the true release time by at
    most ``time_tol``. Raises :class:`ReleaseTooSlowError` if the layout
    has not released by ``max_time``.
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

    if covered(0.0):
        return 0.0, 0.0
    # bracket the release time by doubling before bisecting
    lo, hi = 0.0, None
    t = min(1.0 * MINUTE, max_time)
    while True:
        if covered(t):
            hi = t
            break
        lo = t
        if t >= max_time:
            break
        t = min(2.0 * t, max_time)
    if hi is None:
        raise ReleaseTooSlowError(
            f"footprint not fully released after {max_time / MINUTE:g} min"
        )
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        if covered(mid):
            hi = mid
        else:
            lo = mid
    loss = structural.selectivity_loss * lo
    return lo, loss


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
        if len(obs) < 3:
            raise CalibrationError("need at least 3 observations for a full fit")
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
        if len(parts) != 6:
            raise DataFileError(
                f"{source}:{lineno}: expected 6 comma-separated fields, got {len(parts)}"
            )
        shape = parts[0]
        try:
            dim1, dim2, h_s, t, u = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise DataFileError(f"{source}:{lineno}: {exc}") from None
        try:
            if shape == "circle":
                hole = Hole.circle(dim1 * UM)
            elif shape == "square":
                hole = Hole.square(dim1 * UM)
            elif shape == "rectangle":
                hole = Hole.rectangle(dim1 * UM, dim2 * UM)
            else:
                raise DataFileError(f"{source}:{lineno}: unknown shape {shape!r}")
            out.append(
                EtchObservation(
                    hole=hole,
                    sacrificial_thickness=h_s * UM,
                    time=t * MINUTE,
                    underetch=u * UM,
                )
            )
        except ValueError as exc:
            raise DataFileError(f"{source}:{lineno}: {exc}") from None
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
