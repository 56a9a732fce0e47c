"""End-to-end process simulation.

Runs a recipe through the fabrication sequence: sacrificial release,
hole clogging, in-cavity residue, cavity sealing, and the molding
survival check. The sealed cavity inherits the deposition-chamber
pressure, and the plate solve uses the full sealed cap (structural film
plus clog deposition). Also provides single-parameter sweeps and the
text/tabular report formats.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

from . import clogging as clog_mod
from . import release as release_mod
from .errors import ModelError, located
from .geometry import hole_min_dimension
from .mechanics import PlateSpec, solve_plate
from .recipe import Recipe, _field_kind, _set_field
from .units import MBAR, MINUTE, MPA, NM, UM

TABULAR_HEADER = "field,units,value"

# The releases run so far by the sweep in progress, keyed by their inputs
# (see _release). A context variable, so that every row stays one plain
# run_recipe call; unset outside a sweep, where each run_recipe call runs
# its own release.
_sweep_releases: ContextVar[dict] = ContextVar("_sweep_releases")


@dataclass(frozen=True)
class ProcessReport:
    """Results of one end-to-end run, SI units throughout."""

    release_time: float
    structural_loss: float
    clog_thickness: tuple[float, ...]
    governing_clog: float
    remaining_aperture: tuple[float, ...]
    residue_thickness: tuple[float, ...]
    residue_footprint: tuple[float, ...]
    cavity_pressure: float
    molding_deflection: float
    molding_stress: float
    checks: dict[str, bool]
    probe_time: float | None = None
    probe_underetch: float | None = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _molding(recipe: Recipe):
    """Molding stage: the sealed cap (structural film plus the clog
    deposition) under the molding load, checked against its limits.

    Returns the plate solution, whose ``spec`` is the plate, and the
    ``deflection``/``stress`` checks.
    """
    stack = recipe.stack
    structural = recipe.material("structural")
    plate = PlateSpec(
        side_a=stack.cavity_footprint.width,
        side_b=stack.cavity_footprint.length,
        thickness=stack.cap_thickness + stack.clog_deposition,
        material=structural,
        pressure=recipe.molding.pressure,
    )
    with located("molding"):
        solution = solve_plate(plate, recipe.molding.grid_n)
    return solution, {
        "deflection": solution.w_max <= recipe.molding.max_deflection,
        "stress": solution.sigma_max
        <= structural.failure_stress / recipe.molding.safety_factor,
    }


def _release(recipe: Recipe) -> tuple[float, float, float | None]:
    """Release stage: the release time, the structural cap's loss to it,
    and the deepest underetch at the probe time (None without one).

    Inside a sweep, a recipe whose release inputs equal an earlier row's
    takes that row's time and loss. The inputs are the arguments passed
    to ``time_to_release``, with the stack reduced to its sacrificial
    thickness, the only film the etch runs in, and the structural film
    to its selectivity loss, the only property of it the etch reads.
    """
    stack = recipe.stack
    footprint, holes, etch = stack.cavity_footprint, recipe.holes, recipe.etch
    structural = recipe.material("structural")
    max_time, pitch = recipe.etch_max_time, recipe.coverage_pitch
    loss, h_s = structural.selectivity_loss, stack.sacrificial_thickness
    key = (footprint, holes, h_s, etch, loss, max_time, pitch)
    releases = _sweep_releases.get({})
    with located("release"):
        if key not in releases:
            releases[key] = release_mod.time_to_release(
                footprint, holes, stack, etch, structural, max_time=max_time, grid_pitch=pitch
            )
        probe_u = None
        if recipe.probe_time is not None:
            probe_u = max(release_mod.underetch(h, stack, etch, recipe.probe_time) for h in holes)
    return *releases[key], probe_u


def run_recipe(recipe: Recipe) -> ProcessReport:
    """Execute the process stages in fabrication order.

    Deterministic: equal recipes produce byte-identical reports.
    """
    stack = recipe.stack
    holes = recipe.holes
    sealing, clog = recipe.material("sealing"), recipe.clog
    cap, deposited = stack.cap_thickness, stack.clog_deposition

    release_time, structural_loss, probe_u = _release(recipe)

    # the clogging model reads a hole through its minimum dimension only,
    # so each size runs once, in order of first appearance: the first
    # hole to fail a stage still names the error
    sizes = [hole_min_dimension(h) for h in holes]
    first = {a: holes[sizes.index(a)] for a in dict.fromkeys(sizes)}
    max_deposition = recipe.max_deposition
    with located("clogging"):
        clog_by = {
            a: clog_mod.thickness_to_clog(h, cap, sealing, clog, max_deposition=max_deposition)
            for a, h in first.items()
        }
        open_by = {
            a: clog_mod.aperture_after(h, cap, deposited, sealing, clog) for a, h in first.items()
        }
        residue_by = {
            a: clog_mod.residue_estimate(h, cap, deposited, sealing, clog) for a, h in first.items()
        }
    clog_thickness = tuple(clog_by[a] for a in sizes)
    residues = [residue_by[a] for a in sizes]
    governing = max(clog_thickness)

    solution, molding_checks = _molding(recipe)
    checks = {"sealed": deposited >= governing, **molding_checks}
    report = ProcessReport(
        release_time=release_time,
        structural_loss=structural_loss,
        clog_thickness=clog_thickness,
        governing_clog=governing,
        remaining_aperture=tuple(open_by[a] for a in sizes),
        residue_thickness=tuple(r for r, _ in residues),
        residue_footprint=tuple(f for _, f in residues),
        cavity_pressure=recipe.chamber_pressure,
        molding_deflection=solution.w_max,
        molding_stress=solution.sigma_max,
        checks=checks,
        probe_time=recipe.probe_time,
        probe_underetch=probe_u,
    )
    # every report format prints these values, so each must be finite
    for name, unit, value in _report_rows(report):
        if not math.isfinite(value):
            raise ModelError(f"{name} is not finite in {unit}")
    return report


def param_kind(path: str) -> str:
    """Dimension of a sweepable recipe field (for parsing CLI values)."""
    return _field_kind(path)


def set_param(recipe: Recipe, path: str, value: float) -> Recipe:
    """Return a copy of the recipe with one numeric field replaced.

    Paths are ``<section>.<key>`` for every numeric key a recipe file
    takes in [stack], [release], [clogging] and [molding],
    ``materials.<name>.<property>`` for a material override, plus
    ``holes.<dim>`` (all holes) and ``holes[i].<dim>``. The value passes
    the same setter and range checks as a recipe line.
    """
    return _set_field(recipe, path, value, f"{path} = {value!r}")


def sweep(
    recipe: Recipe,
    path: str,
    values: "list[float] | tuple[float, ...]",
    *,
    labels: "list[str] | None" = None,
) -> list[tuple[str, ProcessReport]]:
    """Run the recipe once per value of one numeric field.

    Every value is checked before the first row runs; the rows then run
    one after another in input order, each through :func:`run_recipe`.
    Rows with equal release inputs share one release: only the first
    runs ``time_to_release``, and the others take its time and loss.
    ``labels`` (default ``%.6g`` of each value) become the first column
    of the emitted table and name the value in the error of a rejected
    value or a failed row.
    """
    if labels is None:
        labels = [f"{v:.6g}" for v in values]
    if len(labels) != len(values):
        raise ValueError("labels must match values")
    recipes = [_set_field(recipe, path, v, f"{path} = {lb}") for v, lb in zip(values, labels)]
    token = _sweep_releases.set({})
    try:
        rows = []
        for lb, r in zip(labels, recipes):
            with located(f"{path} = {lb}"):
                rows.append((lb, run_recipe(r)))
        return rows
    finally:
        _sweep_releases.reset(token)


def _fmt(value: "float | None") -> str:
    """One cell of a table: a flag as 1 or 0, an int as itself, no value
    as an empty cell, any other number at 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _tabular(rows: "list[tuple[str, str, float]]") -> str:
    """``field,units,value`` lines under a fixed header, one per row of
    field, units and the value in those units."""
    lines = [TABULAR_HEADER] + [f"{field},{unit},{_fmt(value)}" for field, unit, value in rows]
    return "\n".join(lines) + "\n"


def _check_rows(checks: dict[str, bool]) -> list[tuple[str, str, bool]]:
    """A ``check_<name>`` row per check, then the overall ``passed``."""
    rows = [(f"check_{name}", "-", ok) for name, ok in checks.items()]
    return rows + [("passed", "-", all(checks.values()))]


def _report_rows(report: ProcessReport) -> list[tuple[str, str, float]]:
    """The rows of a report: field, units, value in those units."""
    rows = [
        ("release_time", "min", report.release_time / MINUTE),
        ("structural_loss", "nm", report.structural_loss / NM),
        ("governing_clog", "um", report.governing_clog / UM),
    ]
    for name, unit, scale, values in (
        ("clog_thickness", "um", UM, report.clog_thickness),
        ("remaining_aperture", "nm", NM, report.remaining_aperture),
        ("residue_thickness", "nm", NM, report.residue_thickness),
        ("residue_footprint", "um", UM, report.residue_footprint),
    ):
        rows += [(f"{name}[{i}]", unit, v / scale) for i, v in enumerate(values)]
    rows += [
        ("cavity_pressure", "mbar", report.cavity_pressure / MBAR),
        ("molding_deflection", "nm", report.molding_deflection / NM),
        ("molding_stress", "MPa", report.molding_stress / MPA),
    ]
    if report.probe_time is not None:
        rows.append(("probe_time", "min", report.probe_time / MINUTE))
    if report.probe_underetch is not None:
        rows.append(("probe_underetch", "um", report.probe_underetch / UM))
    return rows + _check_rows(report.checks)


def emit_report(report: ProcessReport, format: str = "text") -> str:
    """Render a report as a human summary or machine-readable triples.

    Tabular output is ``field,units,value`` lines under a fixed header,
    numbers at 6 significant digits in the units named per row.
    """
    if format == "tabular":
        return _tabular(_report_rows(report))
    if format != "text":
        raise ValueError(f"unknown format {format!r}")

    verdict = {True: "pass", False: "FAIL"}
    n = len(report.clog_thickness)
    sealed = sum(1 for a in report.remaining_aperture if a == 0.0)
    lines = [
        f"release time         {report.release_time / MINUTE:10.3f} min",
        f"cap loss to release  {report.structural_loss / NM:10.3f} nm",
        f"governing clog       {report.governing_clog / UM:10.4f} um "
        f"({sealed}/{n} holes sealed by the deposition)",
        f"worst open aperture  {max(report.remaining_aperture) / NM:10.3f} nm",
        f"residue per hole     {max(report.residue_thickness) / NM:10.3f} nm "
        f"over {max(report.residue_footprint) / UM:.2f} um",
        f"cavity pressure      {report.cavity_pressure / MBAR:10.3e} mbar",
        f"molding deflection   {report.molding_deflection / NM:10.3f} nm",
        f"molding stress       {report.molding_stress / MPA:10.3f} MPa",
    ]
    if report.probe_time is not None and report.probe_underetch is not None:
        lines.append(
            f"underetch at {report.probe_time / MINUTE:.3g} min   "
            f"{report.probe_underetch / UM:10.4f} um"
        )
    lines.append(
        "checks               "
        + ", ".join(f"{k} {verdict[v]}" for k, v in report.checks.items())
    )
    return "\n".join(lines) + "\n"


def parse_tabular_report(text: str) -> dict[str, tuple[str, float]]:
    """Parse ``field,units,value`` triples back into a mapping."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != TABULAR_HEADER:
        raise ValueError(f"expected header {TABULAR_HEADER!r}")
    out: dict[str, tuple[str, float]] = {}
    for ln in lines[1:]:
        field, units, value = ln.split(",")
        out[field] = (units, float(value))
    return out


# Each sweep column after the value label: its name, and its value of a
# report in the units the name gives (None prints an empty cell)
_SWEEP_TABLE = (
    ("release_time_min", lambda r: r.release_time / MINUTE),
    ("structural_loss_nm", lambda r: r.structural_loss / NM),
    ("governing_clog_um", lambda r: r.governing_clog / UM),
    ("remaining_aperture_nm", lambda r: max(r.remaining_aperture) / NM),
    ("max_residue_nm", lambda r: max(r.residue_thickness) / NM),
    ("residue_footprint_um", lambda r: max(r.residue_footprint) / UM),
    ("cavity_pressure_mbar", lambda r: r.cavity_pressure / MBAR),
    ("molding_deflection_nm", lambda r: r.molding_deflection / NM),
    ("molding_stress_MPa", lambda r: r.molding_stress / MPA),
    (
        "probe_underetch_um",
        lambda r: None if r.probe_underetch is None else r.probe_underetch / UM,
    ),
    ("passed", lambda r: r.passed),
)
SWEEP_COLUMNS = ("value", *(name for name, _ in _SWEEP_TABLE))


def emit_sweep(rows: "list[tuple[str, ProcessReport]]", format: str = "text") -> str:
    """Render sweep rows; first tabular row is the column-name header."""
    table = [list(SWEEP_COLUMNS)]
    table += [[lb, *(_fmt(cell(rp)) for _, cell in _SWEEP_TABLE)] for lb, rp in rows]
    if format == "tabular":
        return "\n".join(",".join(row) for row in table) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    widths = [max(len(row[i]) for row in table) for i in range(len(SWEEP_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"
