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

Rates and distances are SI (m/s, m); the classical 4-stage fixed-step
integrator uses a 0.01 min step.
"""

from __future__ import annotations

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

RK4_STEP = 0.01 * MINUTE
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


def etch_rate(
    hole: Hole, stack: PackageStack, params: EtchParams, underetch: float = 0.0
) -> float:
    """Instantaneous front speed (m/s) at a given underetch distance."""
    if underetch < 0.0:
        raise ValueError("underetch must be >= 0")
    feed = params.aperture_factor * stack.sacrificial_thickness / hole_area(hole)
    return _rate(params, feed, stack.sacrificial_thickness, underetch)


def _rate(params, feed_resistance, h_s, u):
    return params.intrinsic_rate / (
        1.0 + feed_resistance + params.channel_factor * u / h_s
    )


def _rk4(params, feed_resistance, h_s, u, h):
    k1 = _rate(params, feed_resistance, h_s, u)
    k2 = _rate(params, feed_resistance, h_s, u + 0.5 * h * k1)
    k3 = _rate(params, feed_resistance, h_s, u + 0.5 * h * k2)
    k4 = _rate(params, feed_resistance, h_s, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(params, feed_resistance, h_s, duration, u0, step=RK4_STEP):
    """Fixed-step integration; works on floats and numpy arrays alike."""
    q = duration / step
    n_full = int(q)
    u = u0
    for _ in range(n_full):
        u = _rk4(params, feed_resistance, h_s, u, step)
    if q - n_full > 1e-9:
        u = _rk4(params, feed_resistance, h_s, u, duration - n_full * step)
    return u


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
    feed = params.aperture_factor * stack.sacrificial_thickness / hole_area(hole)
    return float(
        _integrate(params, feed, stack.sacrificial_thickness, duration, start)
    )


class _FrontTrajectory:
    """Underetch of every hole on the shared integration grid, extended
    lazily as later times are queried."""

    def __init__(self, holes, stack, params):
        self.params = params
        self.h_s = stack.sacrificial_thickness
        self.feed = np.array(
            [params.aperture_factor * self.h_s / hole_area(h) for h in holes]
        )
        self.states = [np.zeros(len(holes))]

    def at(self, t: float) -> np.ndarray:
        q = t / RK4_STEP
        n_full = int(q)
        while len(self.states) <= n_full:
            self.states.append(
                _rk4(self.params, self.feed, self.h_s, self.states[-1], RK4_STEP)
            )
        u = self.states[n_full]
        rem = t - n_full * RK4_STEP
        if rem > 1e-9 * RK4_STEP:
            u = _rk4(self.params, self.feed, self.h_s, u, rem)
        return u


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
    traj = _FrontTrajectory(holes, stack, params)

    def covered(t: float) -> bool:
        return _released(footprint, holes, traj.at(t), pitch)

    if covered(0.0):
        return 0.0, 0.0
    # bracket the release time by doubling before bisecting, so the
    # integration never runs far past the actual release
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
    feed = params.aperture_factor * obs.sacrificial_thickness / hole_area(obs.hole)
    return float(_integrate(params, feed, obs.sacrificial_thickness, obs.time, 0.0))


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
