"""
Molding survival study: cap deflection, stress, and minimum thickness
=====================================================================

Plastic injection molding loads the sealed package with roughly 100 bar
of isostatic pressure. The cap over the cavity behaves as a clamped
plate, so deflection falls as the cube of thickness: this script sizes
the cap for a 30 x 30 um membrane, compares LTO against PECVD nitride,
and converts a thickness between the two materials at equal deflection
and at equal stress margin.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from zeropack import (
    DesignConstraints,
    PlateSpec,
    equivalent_thickness,
    min_cap_thickness,
    solve_plate,
    standard_materials,
)
from zeropack.units import GPA, MPA, NM, UM

materials = standard_materials()
lto = materials["lto"]
nitride = materials["nitride_pecvd"]
pressure = 10 * MPA  # 100 bar isostatic molding load

# Step 1: deflection and stress of the two candidate caps
print("candidate caps on a 30 x 30 um membrane at 100 bar")
print("  material        t_um    w_max_nm   sigma_MPa   safety")
for material, thickness in ((lto, 4.5 * UM), (nitride, 2.5 * UM)):
    sol = solve_plate(PlateSpec(30 * UM, 30 * UM, thickness, material, pressure))
    safety = material.failure_stress / sol.sigma_max
    print(
        f"  {material.name:13s} {thickness / UM:5.2f}   {sol.w_max / NM:9.2f}"
        f"   {sol.sigma_max / MPA:9.1f}   {safety:6.1f}"
    )

# Step 2: thinnest LTO cap that keeps molding deflection under 25 nm
constraints = DesignConstraints(
    pressure=pressure,
    side_a=30 * UM,
    side_b=30 * UM,
    max_deflection=25 * NM,
    safety_factor=2.0,
    thickness_max=5.5 * UM,  # keep the search inside thin-plate territory
)
t_min = min_cap_thickness(lto, constraints)
print(f"\nthinnest LTO cap for w_max <= 25 nm at 2x stress margin: {t_min / UM:.2f} um")

print("\nminimum LTO thickness vs deflection budget")
print("  limit_nm   t_um")
for limit in (15, 25, 40, 60):
    c = DesignConstraints(
        pressure=pressure,
        side_a=30 * UM,
        side_b=30 * UM,
        max_deflection=limit * NM,
        safety_factor=2.0,
        thickness_max=5.5 * UM,
    )
    print(f"  {limit:8d}   {min_cap_thickness(lto, c) / UM:5.2f}")

# Step 3: translate the LTO design into nitride
t_deflection = equivalent_thickness(lto, 4.5 * UM, nitride, constraints)
t_margin = equivalent_thickness(lto, 4.5 * UM, nitride, constraints, match="stress")
print("\nnitride equivalent of a 4.5 um LTO cap")
print(f"  matched on deflection:     {t_deflection / UM:.2f} um")
print(f"  matched on stress margin:  {t_margin / UM:.2f} um "
      f"(failure {lto.failure_stress / GPA:.0f} vs {nitride.failure_stress / GPA:.0f} GPa)")
print("\nnitride's higher modulus and failure stress buy roughly half the")
print("cap thickness for the same molding performance.")
