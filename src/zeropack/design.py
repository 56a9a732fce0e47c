"""Inverse design of the cap membrane.

Finds the thinnest cap that survives molding (deflection and stress
limits both enforced), and converts a cap thickness between materials at
equal deflection or equal stress margin. At fixed sides, load and
material the plate scales exactly with thickness: deflection is ``q/D``
times the unit solution with ``D ~ t^3``, and stress is
``6 M / t^2`` with ``M`` independent of ``D``, so ``w_max ~ t^-3`` and
``sigma_max ~ t^-2``. One solve thus gives both at every thickness, and
the conversion between materials needs none: the unit solution and ``M``
are the same for both, so only ``D`` and the failure stress differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DesignError
from .geometry import Material
from .mechanics import PlateSpec, flexural_rigidity, solve_plate
from .units import NM, UM

THICKNESS_STEP = 10.0 * NM
VERIFY_GRID_N = 128


@dataclass(frozen=True)
class DesignConstraints:
    """Molding survival requirements for the cap membrane.

    ``max_deflection`` may be ``inf`` to disable the deflection limit;
    the stress limit is the material failure stress divided by
    ``safety_factor``.
    """

    pressure: float
    side_a: float
    side_b: float
    max_deflection: float
    safety_factor: float = 1.0
    thickness_min: float = 0.5 * UM
    thickness_max: float = 10.0 * UM

    def __post_init__(self) -> None:
        if not self.pressure > 0.0:
            raise ValueError("pressure must be > 0")
        if not (self.side_a > 0.0 and self.side_b > 0.0):
            raise ValueError("membrane sides must be > 0")
        if not self.max_deflection > 0.0:
            raise ValueError("max_deflection must be > 0")
        if not self.safety_factor >= 1.0:
            raise ValueError("safety_factor must be >= 1")
        if not 0.0 < self.thickness_min < self.thickness_max:
            raise ValueError("need 0 < thickness_min < thickness_max")


def _evaluate(material: Material, thickness: float, constraints: DesignConstraints):
    spec = PlateSpec(
        side_a=constraints.side_a,
        side_b=constraints.side_b,
        thickness=thickness,
        material=material,
        pressure=constraints.pressure,
    )
    sol = solve_plate(spec, VERIFY_GRID_N)
    return sol.w_max, sol.sigma_max


def _violations(material, w_max, sigma_max, constraints):
    out = []
    if w_max > constraints.max_deflection:
        out.append(
            f"deflection {w_max / NM:.3g} nm > limit {constraints.max_deflection / NM:.3g} nm"
        )
    stress_limit = material.failure_stress / constraints.safety_factor
    if sigma_max > stress_limit:
        out.append(f"stress {sigma_max:.3g} Pa > limit {stress_limit:.3g} Pa")
    return out


def min_cap_thickness(material: Material, constraints: DesignConstraints) -> float:
    """Smallest cap thickness meeting both molding constraints.

    One solve at ``thickness_max`` on the verification grid (128) gives
    the thickness at which each limit is met exactly, through the
    ``t^-3`` and ``t^-2`` scaling; the lattice
    ``t_min + k * THICKNESS_STEP`` is entered at the point above it, then
    stepped to the first feasible point whose predecessor is infeasible,
    so the result equals an exhaustive scan of the same lattice on that
    grid. When no lattice point up to ``thickness_max`` is feasible, the
    result is ``thickness_max`` itself, never a point beyond it. Every
    solve shares the unit solution's two peaks, cached per geometry.
    """
    c = constraints
    last = int((c.thickness_max - c.thickness_min) / THICKNESS_STEP)

    def t_at(k: int) -> float:
        # the float lattice can round past an on-lattice thickness_max
        return min(c.thickness_min + k * THICKNESS_STEP, c.thickness_max)

    def feasible(k: int) -> bool:
        w_max, sigma_max = _evaluate(material, t_at(k), c)
        return not _violations(material, w_max, sigma_max, c)

    w_max, sigma_max = _evaluate(material, c.thickness_max, c)
    problems = _violations(material, w_max, sigma_max, c)
    if problems:
        raise DesignError(
            "no feasible thickness up to "
            f"{c.thickness_max / UM:g} um: " + "; ".join(problems)
        )

    stress_limit = material.failure_stress / c.safety_factor
    t_need = c.thickness_max * max(
        (w_max / c.max_deflection) ** (1.0 / 3.0), (sigma_max / stress_limit) ** 0.5
    )
    k = min(max(math.ceil((t_need - c.thickness_min) / THICKNESS_STEP), 0), last)
    # settle on the lattice point an exhaustive scan would stop at
    while k <= last and not feasible(k):
        k += 1
    if k > last:
        # only the gap above the last lattice point is feasible
        return c.thickness_max
    while k > 0 and feasible(k - 1):
        k -= 1
    return t_at(k)


def equivalent_thickness(
    material_a: Material,
    thickness_a: float,
    material_b: Material,
    constraints: DesignConstraints,
    *,
    match: str = "deflection",
) -> float:
    """Thickness of ``material_b`` matching ``material_a`` at ``thickness_a``.

    ``match="deflection"`` equates peak deflection, ``w_max = v q / D``:
    ``t_b = t_a (D_a / D_b)^(1/3)`` for the rigidities at equal
    thickness. ``match="stress"`` equates the stress safety margin (peak
    stress over failure stress); the peak stress ``6 q M / t^2`` has no
    elastic constant in it, so ``t_b = t_a (f_a / f_b)^(1/2)`` for the
    failure stresses. Neither solves a plate. The result must lie within
    the constraint thickness bounds.
    """
    if not thickness_a > 0.0:
        raise ValueError("thickness_a must be > 0")
    if match not in ("deflection", "stress"):
        raise ValueError("match must be 'deflection' or 'stress'")
    c = constraints
    if match == "deflection":
        # the ratio is the same at every equal thickness; at 1 m no t^3
        # overflows or underflows, whatever thickness_a is
        ratio = flexural_rigidity(material_a, 1.0) / flexural_rigidity(material_b, 1.0)
        t_b = thickness_a * ratio ** (1.0 / 3.0)
    else:
        t_b = thickness_a * (material_a.failure_stress / material_b.failure_stress) ** 0.5
    if not c.thickness_min <= t_b <= c.thickness_max:
        raise DesignError(
            "equivalent thickness falls outside "
            f"[{c.thickness_min / UM:g}, {c.thickness_max / UM:g}] um"
        )
    return t_b
