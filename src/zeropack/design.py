"""Inverse design of the cap membrane.

Finds the thinnest cap that survives molding (deflection and stress
limits both enforced), and converts a cap thickness between materials at
equal deflection or equal stress margin. Deflection and stress are
monotone decreasing in thickness, so both searches bracket cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import DesignError
from .geometry import Material
from .mechanics import PlateSpec, solve_plate
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


def _evaluate(material: Material, thickness: float, constraints: DesignConstraints, grid_n: int):
    spec = PlateSpec(
        side_a=constraints.side_a,
        side_b=constraints.side_b,
        thickness=thickness,
        material=material,
        pressure=constraints.pressure,
    )
    sol = solve_plate(spec, grid_n)
    return sol.w_max, sol.sigma_max


def _violations(material, thickness, constraints, grid_n):
    w_max, sigma_max = _evaluate(material, thickness, constraints, grid_n)
    out = []
    if w_max > constraints.max_deflection:
        out.append(
            f"deflection {w_max / NM:.3g} nm > limit {constraints.max_deflection / NM:.3g} nm"
        )
    stress_limit = material.failure_stress / constraints.safety_factor
    if sigma_max > stress_limit:
        out.append(f"stress {sigma_max:.3g} Pa > limit {stress_limit:.3g} Pa")
    return out


def min_cap_thickness(
    material: Material,
    constraints: DesignConstraints,
    *,
    step: float = THICKNESS_STEP,
) -> float:
    """Smallest cap thickness meeting both molding constraints.

    Bisects the 10 nm lattice ``t_min + k * step`` on the monotone
    feasibility predicate, solved on the verification grid (128), then
    steps to the first feasible point whose predecessor is infeasible, so
    the result equals an exhaustive scan of the same lattice on that
    grid. Every solve shares one cached factorisation per geometry.
    """
    c = constraints
    last = int((c.thickness_max - c.thickness_min) / step)

    def t_at(k: int) -> float:
        return c.thickness_min + k * step

    def feasible(k: int) -> bool:
        return not _violations(material, t_at(k), c, VERIFY_GRID_N)

    problems = _violations(material, c.thickness_max, c, VERIFY_GRID_N)
    if problems:
        raise DesignError(
            "no feasible thickness up to "
            f"{c.thickness_max / UM:g} um: " + "; ".join(problems)
        )

    lo, hi = 0, last  # invariant: lo infeasible, hi feasible or last
    if feasible(0):
        hi = 0
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
    # settle on the lattice point an exhaustive scan would stop at
    k = hi
    while k <= last and not feasible(k):
        k += 1
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
    grid_n: int = VERIFY_GRID_N,
) -> float:
    """Thickness of ``material_b`` matching ``material_a`` at ``thickness_a``.

    ``match="deflection"`` equates peak deflection; ``match="stress"``
    equates the stress safety margin (peak stress over failure stress).
    Root-found within the constraint thickness bounds; with equal Poisson
    ratios the deflection match reduces to t_b = t_a * (E_a/E_b)^(1/3).
    """
    if not thickness_a > 0.0:
        raise ValueError("thickness_a must be > 0")
    if match not in ("deflection", "stress"):
        raise ValueError("match must be 'deflection' or 'stress'")
    c = constraints

    if match == "deflection":
        def metric(material, t):
            return _evaluate(material, t, c, grid_n)[0]
    else:
        def metric(material, t):
            return _evaluate(material, t, c, grid_n)[1] / material.failure_stress

    if (
        material_b.youngs_modulus == material_a.youngs_modulus
        and material_b.poisson_ratio == material_a.poisson_ratio
        and (match == "deflection" or material_b.failure_stress == material_a.failure_stress)
    ):
        return thickness_a

    target = metric(material_a, thickness_a)

    def gap(t: float) -> float:
        return metric(material_b, t) - target

    g_lo, g_hi = gap(c.thickness_min), gap(c.thickness_max)
    if g_lo * g_hi > 0.0:
        raise DesignError(
            "equivalent thickness falls outside "
            f"[{c.thickness_min / UM:g}, {c.thickness_max / UM:g}] um"
        )
    return float(brentq(gap, c.thickness_min, c.thickness_max, xtol=1e-13))
