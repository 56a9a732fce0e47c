"""zeropack: process models for thin-film 0-level vacuum packaging.

Submodules
----------
geometry   layout primitives, material library, release coverage
release    transport-limited sacrificial etch model and calibration
clogging   sputter-deposition hole closure and in-cavity residue
mechanics  clamped-plate bending of the cap membrane
design     inverse design: minimum cap thickness, material trade studies
recipe     recipe-file parsing
pipeline   end-to-end process simulation, sweeps, report emission
cli        command-line front end
"""

from .clogging import (
    ClogParams,
    aperture_after,
    closure_rate,
    flux_attenuation,
    residue_estimate,
    thickness_to_clog,
)
from .design import DesignConstraints, equivalent_thickness, min_cap_thickness
from .geometry import (
    Hole,
    Material,
    PackageStack,
    Rect,
    aspect_ratio,
    hole_area,
    hole_min_dimension,
    release_coverage,
    standard_materials,
)
from .mechanics import (
    PlateSolution,
    PlateSpec,
    dump_deflection,
    flexural_rigidity,
    solve_plate,
)
from .pipeline import (
    ProcessReport,
    emit_report,
    emit_sweep,
    parse_tabular_report,
    run_recipe,
    set_param,
    sweep,
)
from .recipe import MoldingSpec, Recipe, load_recipe, parse_recipe
from .release import (
    DEFAULT_ETCH_PARAMS,
    CalibrationResult,
    EtchObservation,
    EtchParams,
    bundled_observations,
    calibrate_etch,
    etch_rate,
    load_observations,
    time_to_release,
    underetch,
)

__version__ = "0.1.0"
