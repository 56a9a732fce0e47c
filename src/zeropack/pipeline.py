"""End-to-end process simulation.

Runs a recipe through the fabrication sequence: sacrificial release,
hole clogging, in-cavity residue, cavity sealing, and the molding
survival check. The sealed cavity inherits the deposition-chamber
pressure, and the plate solve uses the full sealed cap (structural film
plus clog deposition). Also provides single-parameter sweeps and the
text/tabular report formats.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import clogging as clog_mod
from . import release as release_mod
from .errors import ZeropackError
from .mechanics import PlateSpec, solve_plate
from .recipe import Recipe, _field_kind, _set_field
from .units import MBAR, MINUTE, MPA, NM, UM

SWEEP_COLUMNS = (
    "value",
    "release_time_min",
    "structural_loss_nm",
    "governing_clog_um",
    "remaining_aperture_nm",
    "max_residue_nm",
    "residue_footprint_um",
    "cavity_pressure_mbar",
    "molding_deflection_nm",
    "molding_stress_MPa",
    "probe_underetch_um",
    "passed",
)

TABULAR_HEADER = "field,units,value"


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


def _stage(label: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ZeropackError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def _molding(recipe: Recipe):
    """Molding stage: the sealed cap (structural film plus the clog
    deposition) under the molding load, checked against its limits.

    Returns the plate, its solution and the ``deflection``/``stress``
    checks.
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
    solution = _stage("molding", solve_plate, plate, recipe.molding.grid_n)
    limit = recipe.molding.max_deflection
    return plate, solution, {
        "deflection": limit is None or solution.w_max <= limit,
        "stress": solution.sigma_max
        <= structural.failure_stress / recipe.molding.safety_factor,
    }


def run_recipe(recipe: Recipe) -> ProcessReport:
    """Execute the process stages in fabrication order.

    Deterministic: equal recipes produce byte-identical reports.
    """
    stack = recipe.stack
    holes = recipe.holes
    structural = recipe.material("structural")
    sealing = recipe.material("sealing")

    release_time, structural_loss = _stage(
        "release",
        release_mod.time_to_release,
        stack.cavity_footprint,
        holes,
        stack,
        recipe.etch,
        structural,
        max_time=recipe.etch_max_time,
        grid_pitch=recipe.coverage_pitch,
    )

    probe_u = None
    if recipe.probe_time is not None:
        probe_u = max(
            _stage(
                "release", release_mod.underetch, h, stack, recipe.etch, recipe.probe_time
            )
            for h in holes
        )

    clog_thickness = tuple(
        _stage(
            "clogging",
            clog_mod.thickness_to_clog,
            h,
            stack.cap_thickness,
            sealing,
            recipe.clog,
            max_deposition=recipe.max_deposition,
        )
        for h in holes
    )
    remaining = tuple(
        clog_mod.aperture_after(
            h, stack.cap_thickness, stack.clog_deposition, sealing, recipe.clog
        )
        for h in holes
    )
    residues = [
        clog_mod.residue_estimate(
            h, stack.cap_thickness, stack.clog_deposition, sealing, recipe.clog
        )
        for h in holes
    ]
    governing = max(clog_thickness)

    _, solution, molding_checks = _molding(recipe)
    checks = {"sealed": stack.clog_deposition >= governing, **molding_checks}
    return ProcessReport(
        release_time=release_time,
        structural_loss=structural_loss,
        clog_thickness=clog_thickness,
        governing_clog=governing,
        remaining_aperture=remaining,
        residue_thickness=tuple(r[0] for r in residues),
        residue_footprint=tuple(r[1] for r in residues),
        cavity_pressure=recipe.chamber_pressure,
        molding_deflection=solution.w_max,
        molding_stress=solution.sigma_max,
        checks=checks,
        probe_time=recipe.probe_time,
        probe_underetch=probe_u,
    )


def param_kind(path: str) -> str:
    """Dimension of a sweepable recipe field (for parsing CLI values)."""
    return _field_kind(path)


def set_param(recipe: Recipe, path: str, value: float) -> Recipe:
    """Return a copy of the recipe with one numeric field replaced.

    Paths are ``<section>.<key>`` for every numeric key a recipe file
    takes in [stack], [release], [clogging] and [molding] (``grid_n``
    excepted), plus ``holes.<dim>`` (all holes) and ``holes[i].<dim>``.
    The value passes the same setter and range checks as a recipe line.
    """
    return _set_field(recipe, path, value, f"{path} = {value!r}")


def sweep(
    recipe: Recipe,
    path: str,
    values: "list[float] | tuple[float, ...]",
    *,
    labels: "list[str] | None" = None,
    max_workers: int | None = None,
) -> list[tuple[str, ProcessReport]]:
    """Run the recipe once per value of one numeric field.

    Rows are independent and returned in input order regardless of
    ``max_workers``; ``labels`` (default ``%.6g`` of each value) become
    the first column of the emitted table.
    """
    if labels is None:
        labels = [f"{v:.6g}" for v in values]
    if len(labels) != len(values):
        raise ValueError("labels must match values")
    recipes = [set_param(recipe, path, v) for v in values]
    if max_workers is not None and max_workers > 1 and len(recipes) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            reports = list(pool.map(run_recipe, recipes))
    else:
        reports = [run_recipe(r) for r in recipes]
    return list(zip(labels, reports))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report_rows(report: ProcessReport) -> list[tuple[str, str, str]]:
    rows = [
        ("release_time", "min", _fmt(report.release_time / MINUTE)),
        ("structural_loss", "nm", _fmt(report.structural_loss / NM)),
        ("governing_clog", "um", _fmt(report.governing_clog / UM)),
    ]
    for i, t in enumerate(report.clog_thickness):
        rows.append((f"clog_thickness[{i}]", "um", _fmt(t / UM)))
    for i, a in enumerate(report.remaining_aperture):
        rows.append((f"remaining_aperture[{i}]", "nm", _fmt(a / NM)))
    for i, r in enumerate(report.residue_thickness):
        rows.append((f"residue_thickness[{i}]", "nm", _fmt(r / NM)))
    for i, f in enumerate(report.residue_footprint):
        rows.append((f"residue_footprint[{i}]", "um", _fmt(f / UM)))
    rows += [
        ("cavity_pressure", "mbar", _fmt(report.cavity_pressure / MBAR)),
        ("molding_deflection", "nm", _fmt(report.molding_deflection / NM)),
        ("molding_stress", "MPa", _fmt(report.molding_stress / MPA)),
    ]
    if report.probe_time is not None:
        rows.append(("probe_time", "min", _fmt(report.probe_time / MINUTE)))
    if report.probe_underetch is not None:
        rows.append(("probe_underetch", "um", _fmt(report.probe_underetch / UM)))
    for name, ok in report.checks.items():
        rows.append((f"check_{name}", "-", "1" if ok else "0"))
    rows.append(("passed", "-", "1" if report.passed else "0"))
    return rows


def emit_report(report: ProcessReport, format: str = "text") -> str:
    """Render a report as a human summary or machine-readable triples.

    Tabular output is ``field,units,value`` lines under a fixed header,
    numbers at 6 significant digits in the units named per row.
    """
    if format == "tabular":
        lines = [TABULAR_HEADER]
        lines += [",".join(row) for row in _report_rows(report)]
        return "\n".join(lines) + "\n"
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


def _sweep_cells(label: str, report: ProcessReport) -> list[str]:
    return [
        label,
        _fmt(report.release_time / MINUTE),
        _fmt(report.structural_loss / NM),
        _fmt(report.governing_clog / UM),
        _fmt(max(report.remaining_aperture) / NM),
        _fmt(max(report.residue_thickness) / NM),
        _fmt(max(report.residue_footprint) / UM),
        _fmt(report.cavity_pressure / MBAR),
        _fmt(report.molding_deflection / NM),
        _fmt(report.molding_stress / MPA),
        "" if report.probe_underetch is None else _fmt(report.probe_underetch / UM),
        "1" if report.passed else "0",
    ]


def emit_sweep(rows: "list[tuple[str, ProcessReport]]", format: str = "text") -> str:
    """Render sweep rows; first tabular row is the column-name header."""
    table = [list(SWEEP_COLUMNS)] + [_sweep_cells(lb, rp) for lb, rp in rows]
    if format == "tabular":
        return "\n".join(",".join(row) for row in table) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    widths = [max(len(row[i]) for row in table) for i in range(len(SWEEP_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"
