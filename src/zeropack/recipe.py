"""Process-recipe files.

Line-oriented text format: sections in square brackets, ``key = value``
entries, ``#`` comments. Quantities carry mandatory unit suffixes from
{nm, um, mm, s, min, MPa, GPa, bar, mbar} plus quotient forms such as
``um/min``; dimensionless entries are bare numbers. Unknown sections,
unknown keys, missing units, and unit/dimension mismatches are rejected
with line numbers.

Sections::

    [materials]   sacrificial / structural / sealing role assignments and
                  per-material property overrides (e.g. lto.youngs_modulus)
    [stack]       sacrificial_thickness, cap_thickness, clog_deposition,
                  footprint (e.g. "30um x 30um")
    [holes]       one "hole = <shape> key=value ..." line per hole
    [release]     etch parameters, or calibrate_from = <data file>;
                  max_time, coverage_pitch, probe_time
    [clogging]    closure parameters, max_deposition, chamber_pressure
    [molding]     pressure, max_deflection, safety_factor, grid_n

Only [stack] and [holes] are required; everything else falls back to
library defaults.

Every numeric key of [stack], [release], [clogging] and [molding] is
listed once in ``_FIELDS`` with its dimension and its place in
:class:`Recipe`. A recipe line and ``pipeline.set_param`` (the sweep)
both go through ``_set_field``, so they accept and reject the same
values; a rejected line is reported as ``line N: key: reason``.
``grid_n`` (an integer), ``footprint``, ``calibrate_from``, the
required [stack] keys and [materials] are parsed by hand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .clogging import DEFAULT_MAX_DEPOSITION, ClogParams
from .errors import RecipeError
from .geometry import (
    Hole,
    Material,
    PackageStack,
    Rect,
    standard_materials,
    validate_hole_layout,
)
from .release import (
    DEFAULT_ETCH_PARAMS,
    DEFAULT_TIME_CAP,
    EtchParams,
    calibrate_etch,
    load_observations,
)
from .units import BAR, GPA, MBAR, MINUTE, MM, MPA, NM, SECOND, UM

DEFAULT_CHAMBER_PRESSURE = 5e-7 * MBAR
DEFAULT_MOLDING_PRESSURE = 10.0 * MPA

_LENGTH_UNITS = {"nm": NM, "um": UM, "mm": MM}
_TIME_UNITS = {"s": SECOND, "min": MINUTE}
_PRESSURE_UNITS = {"MPa": MPA, "GPa": GPA, "bar": BAR, "mbar": MBAR}
_UNIT_KIND = (
    {u: "length" for u in _LENGTH_UNITS}
    | {u: "time" for u in _TIME_UNITS}
    | {u: "pressure" for u in _PRESSURE_UNITS}
)

_NUMBER_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S*)")

_SECTIONS = ("materials", "stack", "holes", "release", "clogging", "molding")

_MATERIAL_FIELD_KINDS = {
    "etch_rate": "rate",
    "selectivity_loss": "rate",
    "sticking_coefficient": "none",
    "youngs_modulus": "pressure",
    "poisson_ratio": "none",
    "failure_stress": "pressure",
}


# "<section>.<key>" -> (dimension, where the value lives in Recipe)
_FIELDS = {
    "stack.sacrificial_thickness": ("length", "stack.sacrificial_thickness"),
    "stack.cap_thickness": ("length", "stack.cap_thickness"),
    "stack.clog_deposition": ("length", "stack.clog_deposition"),
    "release.intrinsic_rate": ("rate", "etch.intrinsic_rate"),
    "release.aperture_factor": ("length", "etch.aperture_factor"),
    "release.channel_factor": ("none", "etch.channel_factor"),
    "release.max_time": ("time", "etch_max_time"),
    "release.coverage_pitch": ("length", "coverage_pitch"),
    "release.probe_time": ("time", "probe_time"),
    "clogging.closure_per_side": ("closure", "clog.closure_per_side"),
    "clogging.reference_sticking": ("none", "clog.reference_sticking"),
    "clogging.knee_ratio": ("none", "clog.knee_ratio"),
    "clogging.floor_attenuation": ("none", "clog.floor_attenuation"),
    "clogging.residue_fraction": ("none", "clog.residue_fraction"),
    "clogging.residue_spread": ("none", "clog.residue_spread"),
    "clogging.max_deposition": ("length", "max_deposition"),
    "clogging.chamber_pressure": ("pressure", "chamber_pressure"),
    "molding.pressure": ("pressure", "molding.pressure"),
    "molding.max_deflection": ("length", "molding.max_deflection"),
    "molding.safety_factor": ("none", "molding.safety_factor"),
}

# hole shape -> (constructor, its dimensions in argument order)
_HOLE_SHAPES = {
    "circle": (Hole.circle, ("diameter",)),
    "square": (Hole.square, ("side",)),
    "rectangle": (Hole.rectangle, ("width", "length")),
}

_HOLES_PATH_RE = re.compile(r"holes(?:\[(\d+)\])?\.(\w+)")


@dataclass(frozen=True)
class MoldingSpec:
    """Molding load and pass/fail limits for the sealed package."""

    pressure: float = DEFAULT_MOLDING_PRESSURE
    max_deflection: float | None = None
    safety_factor: float = 1.0
    grid_n: int = 128

    def __post_init__(self) -> None:
        if not self.pressure >= 0.0:
            raise ValueError("pressure must be >= 0")
        if self.max_deflection is not None and not self.max_deflection > 0.0:
            raise ValueError("max_deflection must be > 0")
        if not self.safety_factor >= 1.0:
            raise ValueError("safety_factor must be >= 1")


@dataclass(frozen=True)
class Recipe:
    """A fully resolved process recipe, in SI units throughout."""

    materials: dict[str, Material]
    sacrificial: str
    structural: str
    sealing: str
    stack: PackageStack
    holes: tuple[Hole, ...]
    etch: EtchParams = DEFAULT_ETCH_PARAMS
    etch_max_time: float = DEFAULT_TIME_CAP
    coverage_pitch: float | None = None
    probe_time: float | None = None
    clog: ClogParams = ClogParams()
    max_deposition: float = DEFAULT_MAX_DEPOSITION
    chamber_pressure: float = DEFAULT_CHAMBER_PRESSURE
    molding: MoldingSpec = MoldingSpec()

    def __post_init__(self) -> None:
        if not self.chamber_pressure >= 0.0:
            raise ValueError("chamber_pressure must be >= 0")

    def material(self, role: str) -> Material:
        return self.materials[getattr(self, role)]


def parse_quantity(token: str, kind: str, where: str) -> float:
    """Parse ``1.5um``-style quantities into SI, enforcing the dimension.

    Values that overflow to infinity, as written or once scaled to SI,
    are rejected.
    """
    m = _NUMBER_RE.fullmatch(token.strip())
    if not m:
        raise RecipeError(f"{where}: cannot parse quantity {token!r}")
    value = _to_si(float(m.group(1)), m.group(2), kind, where)
    if not math.isfinite(value):
        raise RecipeError(f"{where}: quantity {token.strip()!r} is not finite")
    return value


def _to_si(value: float, unit: str, kind: str, where: str) -> float:
    if kind == "none":
        if unit:
            raise RecipeError(f"{where}: expected a dimensionless number, got unit {unit!r}")
        return value
    if kind == "closure":
        if not unit:
            return value
        num, _, den = unit.partition("/")
        if num in _LENGTH_UNITS and den in _LENGTH_UNITS:
            return value * _LENGTH_UNITS[num] / _LENGTH_UNITS[den]
        raise RecipeError(f"{where}: expected a bare ratio or length/length, got {unit!r}")
    if kind == "rate":
        num, slash, den = unit.partition("/")
        if not slash:
            raise RecipeError(f"{where}: rates need a length/time unit such as um/min")
        if num not in _LENGTH_UNITS or den not in _TIME_UNITS:
            raise RecipeError(f"{where}: {unit!r} is not a length/time unit")
        return value * _LENGTH_UNITS[num] / _TIME_UNITS[den]

    table = {"length": _LENGTH_UNITS, "time": _TIME_UNITS, "pressure": _PRESSURE_UNITS}[kind]
    if not unit:
        raise RecipeError(f"{where}: missing unit, expected a {kind}")
    if unit in table:
        return value * table[unit]
    if unit in _UNIT_KIND:
        raise RecipeError(
            f"{where}: dimension mismatch, expected a {kind} but {unit!r} is a "
            f"{_UNIT_KIND[unit]} unit"
        )
    raise RecipeError(f"{where}: unknown unit {unit!r}")


@dataclass
class _Entry:
    value: str
    lineno: int


def _tokenize(text: str):
    """Split into sections; duplicate sections and keys are rejected."""
    sections: dict[str, dict[str, _Entry]] = {}
    hole_entries: list[_Entry] = []
    section_lines: dict[str, int] = {}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = re.fullmatch(r"\[(\w+)\]", line)
            if not m:
                raise RecipeError(f"line {lineno}: malformed section header {line!r}")
            name = m.group(1)
            if name not in _SECTIONS:
                raise RecipeError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise RecipeError(
                    f"duplicate [{name}] section (lines {section_lines[name]} and {lineno})"
                )
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if current is None:
            raise RecipeError(f"line {lineno}: entry before any [section]")
        if "=" not in line:
            raise RecipeError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if not key or not value:
            raise RecipeError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current == "holes" and key == "hole":
            hole_entries.append(_Entry(value, lineno))
            continue
        if key in sections[current]:
            raise RecipeError(
                f"duplicate key {key!r} in [{current}] "
                f"(lines {sections[current][key].lineno} and {lineno})"
            )
        sections[current][key] = _Entry(value, lineno)

    return sections, hole_entries, section_lines


def _require(sections, section_lines, name: str):
    if name not in sections:
        raise RecipeError(f"missing required section [{name}]")
    return sections[name]


def _reject_unknown(entries: dict[str, _Entry], section: str) -> None:
    if entries:
        key, entry = next(iter(entries.items()))
        raise RecipeError(f"line {entry.lineno}: unknown key {key!r} in [{section}]")


def _field_kind(path: str) -> str:
    """Dimension of a numeric field path; rejects any other path."""
    m = _HOLES_PATH_RE.fullmatch(path)
    if m and any(m.group(2) in dims for _, dims in _HOLE_SHAPES.values()):
        return "length"
    if path in _FIELDS:
        return _FIELDS[path][0]
    raise RecipeError(f"{path!r} is not a numeric recipe field")


def _resize_hole(hole: Hole, dim: str, value: float) -> Hole:
    make, dims = _HOLE_SHAPES[hole.shape]
    if dim not in dims:
        raise RecipeError(f"{hole.shape} holes have no {dim!r} dimension")
    sizes = dict(zip(dims, (hole.width, hole.length)))
    sizes[dim] = value
    return make(*sizes.values(), hole.center)


def _set_field(recipe: Recipe, path: str, value: float, where: str) -> Recipe:
    """Copy of ``recipe`` with the field at ``path`` set to ``value`` (SI).

    Out-of-range values fail the owning dataclass's own checks and are
    reported as ``RecipeError`` prefixed with ``where``.
    """
    _field_kind(path)
    m = _HOLES_PATH_RE.fullmatch(path)
    try:
        if m:
            index, dim = m.groups()
            holes = list(recipe.holes)
            for i in range(len(holes)) if index is None else [int(index)]:
                if not 0 <= i < len(holes):
                    raise RecipeError(f"hole index {i} out of range")
                holes[i] = _resize_hole(holes[i], dim, value)
            return replace(recipe, holes=tuple(holes))
        outer, _, inner = _FIELDS[path][1].partition(".")
        new = replace(getattr(recipe, outer), **{inner: value}) if inner else value
        return replace(recipe, **{outer: new})
    except ValueError as exc:
        raise RecipeError(f"{where}: {exc}") from None


def _parse_hole(entry: _Entry) -> Hole:
    tokens = entry.value.split()
    where = f"line {entry.lineno}"
    if not tokens:
        raise RecipeError(f"{where}: empty hole definition")
    shape, attr_tokens = tokens[0], tokens[1:]
    if shape not in _HOLE_SHAPES:
        raise RecipeError(f"{where}: unknown hole shape {shape!r}")
    make, dims = _HOLE_SHAPES[shape]
    attrs: dict[str, float] = {}
    for token in attr_tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in dims + ("x", "y"):
            raise RecipeError(f"{where}: bad hole attribute {token!r}")
        if key in attrs:
            raise RecipeError(f"{where}: duplicate hole attribute {key!r}")
        attrs[key] = parse_quantity(value, "length", f"{where}: {key}")
    for key in dims:
        if key not in attrs:
            raise RecipeError(f"{where}: {shape} hole needs {key}=<length>")
    center = (attrs.get("x", 0.0), attrs.get("y", 0.0))
    try:
        return make(*(attrs[key] for key in dims), center)
    except ValueError as exc:
        raise RecipeError(f"{where}: {exc}") from None


def _parse_footprint(entry: _Entry) -> Rect:
    where = f"line {entry.lineno}: footprint"
    tokens = entry.value.split()
    if len(tokens) != 3 or tokens[1] != "x":
        raise RecipeError(f"{where}: expected '<width> x <length>'")
    width = parse_quantity(tokens[0], "length", where)
    length = parse_quantity(tokens[2], "length", where)
    try:
        return Rect(width, length)
    except ValueError as exc:
        raise RecipeError(f"{where}: {exc}") from None


def _build_materials(entries: dict[str, _Entry]):
    materials = standard_materials()
    roles = {"sacrificial": "asi", "structural": "sio2_sputter", "sealing": "sio2_sputter"}
    overrides: dict[str, dict[str, float]] = {}
    for key, entry in entries.items():
        where = f"line {entry.lineno}"
        if key in roles:
            roles[key] = entry.value
        elif "." in key:
            mat_name, field = key.split(".", 1)
            if mat_name not in materials:
                raise RecipeError(f"{where}: unknown material {mat_name!r}")
            if field not in _MATERIAL_FIELD_KINDS:
                raise RecipeError(f"{where}: unknown material property {field!r}")
            value = parse_quantity(
                entry.value, _MATERIAL_FIELD_KINDS[field], f"{where}: {key}"
            )
            overrides.setdefault(mat_name, {})[field] = value
        else:
            raise RecipeError(f"{where}: unknown key {key!r} in [materials]")
    for mat_name, props in overrides.items():
        try:
            materials[mat_name] = materials[mat_name].with_overrides(**props)
        except ValueError as exc:
            raise RecipeError(f"material {mat_name!r}: {exc}") from None
    for role, mat_name in roles.items():
        if mat_name not in materials:
            raise RecipeError(f"{role} material {mat_name!r} is not defined")
    return materials, roles


def _calibrated_etch(source: _Entry, release: dict[str, _Entry], base_dir: Path):
    if {f.name for f in fields(EtchParams)} & release.keys():
        raise RecipeError(
            f"line {source.lineno}: calibrate_from cannot be combined with "
            "explicit etch parameters"
        )
    path = Path(source.value)
    if not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise RecipeError(f"line {source.lineno}: calibration file {path} not found")
    return calibrate_etch(load_observations(path)).params


def _parse_grid_n(entry: _Entry | None) -> int:
    if entry is None:
        return MoldingSpec.grid_n
    try:
        return int(entry.value)
    except ValueError:
        raise RecipeError(f"line {entry.lineno}: grid_n must be an integer") from None


def parse_recipe(text: str, *, base_dir: "Path | str | None" = None) -> Recipe:
    """Parse recipe text into a fully resolved :class:`Recipe`.

    ``base_dir`` anchors relative ``calibrate_from`` paths (defaults to
    the working directory).
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    sections, hole_entries, section_lines = _tokenize(text)

    materials, roles = _build_materials(sections.get("materials", {}))

    stack_entries = dict(_require(sections, section_lines, "stack"))
    footprint_entry = stack_entries.pop("footprint", None)
    if footprint_entry is None:
        raise RecipeError(
            f"line {section_lines['stack']}: [stack] is missing required key 'footprint'"
        )
    footprint = _parse_footprint(footprint_entry)
    thicknesses = {}
    for key in ("sacrificial_thickness", "cap_thickness", "clog_deposition"):
        entry = stack_entries.pop(key, None)
        if entry is None:
            raise RecipeError(
                f"line {section_lines['stack']}: [stack] is missing required key {key!r}"
            )
        thicknesses[key] = parse_quantity(entry.value, "length", f"line {entry.lineno}: {key}")
    _reject_unknown(stack_entries, "stack")
    try:
        stack = PackageStack(cavity_footprint=footprint, **thicknesses)
    except ValueError as exc:
        raise RecipeError(f"[stack]: {exc}") from None

    if "holes" not in sections:
        raise RecipeError("missing required section [holes]")
    _reject_unknown(sections["holes"], "holes")
    if not hole_entries:
        raise RecipeError(
            f"line {section_lines['holes']}: [holes] needs at least one hole"
        )
    holes = tuple(_parse_hole(e) for e in hole_entries)
    try:
        validate_hole_layout(footprint, holes)
    except ValueError as exc:
        raise RecipeError(str(exc)) from None

    release = dict(sections.get("release", {}))
    source = release.pop("calibrate_from", None)
    molding = dict(sections.get("molding", {}))
    recipe = Recipe(
        materials=materials,
        sacrificial=roles["sacrificial"],
        structural=roles["structural"],
        sealing=roles["sealing"],
        stack=stack,
        holes=holes,
        etch=DEFAULT_ETCH_PARAMS if source is None else _calibrated_etch(source, release, base),
        molding=MoldingSpec(grid_n=_parse_grid_n(molding.pop("grid_n", None))),
    )
    for section, entries in (
        ("release", release),
        ("clogging", sections.get("clogging", {})),
        ("molding", molding),
    ):
        for key, entry in entries.items():
            path = f"{section}.{key}"
            if path not in _FIELDS:
                raise RecipeError(f"line {entry.lineno}: unknown key {key!r} in [{section}]")
            where = f"line {entry.lineno}: {key}"
            value = parse_quantity(entry.value, _FIELDS[path][0], where)
            recipe = _set_field(recipe, path, value, where)
    return recipe


def load_recipe(path: "Path | str") -> Recipe:
    """Read and parse a recipe file; relative data paths resolve beside it."""
    p = Path(path)
    return parse_recipe(p.read_text(encoding="utf-8"), base_dir=p.parent)
