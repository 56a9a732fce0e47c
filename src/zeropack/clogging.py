"""Non-conformal sputter deposition: hole closure and in-cavity residue.

Overhang growth at the hole rim narrows the opening as sealing material
is deposited. The closure rate of the minimum opening dimension is

    d(aperture)/d(deposited) = -2 * kappa * (s / s_ref) * atten(ratio)

with ``kappa`` the per-side lateral growth per unit deposited film at the
reference sticking coefficient ``s_ref``, and ``atten`` an oblique-flux
attenuation set by the hole's as-drawn opening-over-depth aspect ratio:
narrow, deep holes see less of the sputter source, wide shallow ones the
full flux. ``atten`` rises linearly from a floor (deep-hole limit) to 1
at ``knee_ratio``. Closure acts on the minimum dimension only, at equal
absolute rate regardless of shape, which is what makes slot-shaped holes
of equal area seal an order of magnitude tighter than squares.

Residue lands on the cavity floor only while the aperture is open, in
proportion to the instantaneous open fraction and the same flux
attenuation, and spreads over a cone set by the cap depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UncloggableError
from .geometry import Hole, Material, PackageStack, hole_min_dimension
from .units import UM

DEFAULT_MAX_DEPOSITION = 10.0 * UM


@dataclass(frozen=True)
class ClogParams:
    """Closure-model constants.

    Defaults are calibrated so that, for sputtered SiO2: a wide hole
    closes at 1.6 um of diameter per um deposited, the production
    1.5 um / 2 um-cap hole seals within 2 um of deposition while leaving
    80 nm of floor residue spread over 9 um, and a ratio-1.5 hole needs
    between 2 and 3 um.
    """

    closure_per_side: float = 0.8
    reference_sticking: float = 0.26
    knee_ratio: float = 2.0
    floor_attenuation: float = 0.2
    residue_fraction: float = 0.2133
    residue_spread: float = 1.875

    def __post_init__(self) -> None:
        if not self.closure_per_side > 0.0:
            raise ValueError("closure_per_side must be > 0")
        if not 0.0 < self.reference_sticking <= 1.0:
            raise ValueError("reference_sticking must be in (0, 1]")
        if not self.knee_ratio > 0.0:
            raise ValueError("knee_ratio must be > 0")
        if not 0.0 <= self.floor_attenuation < 1.0:
            raise ValueError("floor_attenuation must be in [0, 1)")
        if self.residue_fraction < 0.0 or self.residue_spread < 0.0:
            raise ValueError("residue constants must be >= 0")


@dataclass(frozen=True)
class ClogState:
    """Closure state of one hole after a given deposited thickness."""

    remaining_aperture: float
    deposited: float
    residue_thickness: float
    residue_footprint: float
    sealed: bool


def flux_attenuation(ratio: float, params: ClogParams) -> float:
    """Oblique-flux fraction reaching the waist of a hole of given
    opening-over-depth ratio; 1 above the knee, floored for deep holes."""
    if ratio < 0.0:
        raise ValueError("aspect ratio must be >= 0")
    f = params.floor_attenuation
    return min(1.0, f + (1.0 - f) * ratio / params.knee_ratio)


def closure_rate(
    aperture: float, cap_depth: float, material: Material, params: ClogParams
) -> float:
    """Closure of the minimum opening dimension per unit deposited film.

    Dimensionless (m per m deposited, both sides combined); exactly
    linear in the material's sticking coefficient. Returns 0 for a
    sealed hole.
    """
    if aperture < 0.0:
        raise ValueError("aperture must be >= 0")
    if not cap_depth > 0.0:
        raise ValueError("cap depth must be > 0")
    if aperture == 0.0:
        return 0.0
    s_scale = material.sticking_coefficient / params.reference_sticking
    return 2.0 * params.closure_per_side * s_scale * flux_attenuation(
        aperture / cap_depth, params
    )


def aperture_after(
    hole: Hole,
    cap_thickness: float,
    deposited: float,
    material: Material,
    params: ClogParams,
) -> float:
    """Remaining minimum opening dimension after a deposited thickness.

    The flux attenuation is fixed by the as-drawn hole geometry, so the
    opening shrinks linearly until it pinches off; rectangles close
    across their width only.
    """
    if deposited < 0.0:
        raise ValueError("deposited thickness must be >= 0")
    a0 = hole_min_dimension(hole)
    rate = closure_rate(a0, cap_thickness, material, params)
    return max(0.0, a0 - rate * deposited)


def thickness_to_clog(
    hole: Hole,
    cap_thickness: float,
    material: Material,
    params: ClogParams,
    *,
    max_deposition: float = DEFAULT_MAX_DEPOSITION,
) -> float:
    """Smallest deposited thickness that seals the hole.

    The aperture closes linearly, so the seal is at ``a0 / rate``; that
    quotient is then moved by single ulps to the smallest thickness whose
    computed aperture is exactly 0. Raises :class:`UncloggableError` if
    the hole is still open at ``max_deposition``.
    """
    def aperture(deposited: float) -> float:
        return aperture_after(hole, cap_thickness, deposited, material, params)

    a0 = hole_min_dimension(hole)
    if aperture(max_deposition) > 0.0:
        raise UncloggableError(
            f"hole of {a0 / UM:g} um does not seal within "
            f"{max_deposition / UM:g} um of deposition"
        )
    seal = a0 / closure_rate(a0, cap_thickness, material, params)
    while aperture(seal) > 0.0:
        seal = math.nextafter(seal, math.inf)
    while aperture(math.nextafter(seal, 0.0)) == 0.0:
        seal = math.nextafter(seal, 0.0)
    return seal


def residue_estimate(
    hole: Hole,
    cap_thickness: float,
    deposited: float,
    material: Material,
    params: ClogParams,
) -> tuple[float, float]:
    """Material reaching the cavity floor through one hole.

    Returns ``(thickness, footprint_diameter)`` in metres. Accumulation
    runs only while the aperture is open, at a rate proportional to the
    open fraction times the flux attenuation at the instantaneous
    aperture, so it stops exactly at seal-off. The footprint is the
    as-drawn opening plus the spread cone of the cap depth.
    """
    if deposited < 0.0:
        raise ValueError("deposited thickness must be >= 0")
    if deposited == 0.0:
        return 0.0, 0.0
    a0 = hole_min_dimension(hole)
    rate = closure_rate(a0, cap_thickness, material, params)
    footprint = a0 + 2.0 * cap_thickness * params.residue_spread
    if rate == 0.0:
        return 0.0, footprint

    # residue = rf * integral of (a/a0) * atten(a/h_c) over deposited film,
    # taken in closed form via the substitution da = -rate dx. atten is
    # affine in a below the knee aperture a_knee and 1 above it.
    seal = a0 / rate
    x_end = min(deposited, seal)
    a_end = a0 - rate * x_end
    f = params.floor_attenuation
    slope = (1.0 - f) / (params.knee_ratio * cap_thickness)
    a_knee = params.knee_ratio * cap_thickness
    split = min(max(a_end, a_knee), a0)
    # unattenuated stretch: integrand a / a0
    upper = (a0**2 - split**2) / 2.0
    # attenuated stretch: integrand a * (f + slope * a) / a0
    lower = f * (split**2 - a_end**2) / 2.0 + slope * (split**3 - a_end**3) / 3.0
    residue = params.residue_fraction * (upper + lower) / (rate * a0)
    return residue, footprint


def clog_state(
    hole: Hole,
    stack: PackageStack,
    deposited: float,
    material: Material,
    params: ClogParams,
) -> ClogState:
    """Closure snapshot of one hole in a package stack."""
    remaining = aperture_after(hole, stack.cap_thickness, deposited, material, params)
    residue, footprint = residue_estimate(
        hole, stack.cap_thickness, deposited, material, params
    )
    return ClogState(
        remaining_aperture=remaining,
        deposited=deposited,
        residue_thickness=residue,
        residue_footprint=footprint,
        sealed=remaining == 0.0,
    )
