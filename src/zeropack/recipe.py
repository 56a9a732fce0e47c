"""Process-recipe files.

Line-oriented text format: sections in square brackets, ``key = value``
entries, ``#`` comments. Quantities carry mandatory unit suffixes from
{nm, um, mm, s, min, MPa, GPa, bar, mbar} plus quotient forms such as
``um/min``, all listed in ``_UNITS``; dimensionless entries are bare
numbers. Unknown sections, unknown keys, missing units, and
unit/dimension mismatches are rejected with line numbers.

Sections::

    [materials]   structural / sealing role assignments and property
                  overrides of the materials that fill them
                  (e.g. sio2_sputter.youngs_modulus)
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
:class:`Recipe`; a [materials] override ``<name>.<property>`` takes its
dimension, and the role whose material it must be, from
``_MATERIAL_FIELDS``. A recipe line and ``pipeline.set_param`` (the
sweep) both go through ``_set_field``, so they accept and reject the
same values, and both store a value of -0 as 0; a rejected line is
reported as ``line N: key: reason``. Only ``footprint``,
``calibrate_from``, the material roles and the required [stack] keys
are read outside it.

Values that would drive unbounded work are rejected in the same
dataclass checks: ``grid_n`` lies in ``[MIN_GRID_N, MAX_GRID_N]`` and
the release raster, counted from ``coverage_pitch`` or the default
pitch of the holes, has at most ``MAX_RASTER_CELLS`` cells.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .clogging import DEFAULT_MAX_DEPOSITION, ClogParams
from .errors import RecipeError, located, read_text
from .geometry import (
    _HOLE_SHAPES,
    Hole,
    Material,
    PackageStack,
    Rect,
    _raster_shape,
    default_coverage_pitch,
    standard_materials,
    validate_hole_layout,
)
from .mechanics import DEFAULT_GRID_N, MIN_GRID_N
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

# Resource bounds: a cold plate solve at grid_n = 256 takes about 1.4 ms
# and 1.1 MB traced (about 3.5 ms as a process's first solve at that
# grid, which also builds its sine basis), the release time on 2048^2
# raster cells about 0.2-0.3 s, 41 MB traced and 72 MB of process RSS on
# a 2-vCPU Xeon (the reference recipe: 128 and 160^2).
MAX_GRID_N = 256
MAX_RASTER_CELLS = 2**22

_LENGTH = {"nm": NM, "um": UM, "mm": MM}
_TIME = {"s": SECOND, "min": MINUTE}
_PRESSURE = {"MPa": MPA, "GPa": GPA, "bar": BAR, "mbar": MBAR}
# dimension -> {suffix: (numerator, denominator)}; a value converts to SI as
# value * numerator / denominator, a pair rather than one factor so that a
# quotient such as um/min rounds as value * UM / MINUTE
_UNITS = {
    "none": {"": (1.0, 1.0)},
    "length": {u: (f, 1.0) for u, f in _LENGTH.items()},
    "time": {u: (f, 1.0) for u, f in _TIME.items()},
    "pressure": {u: (f, 1.0) for u, f in _PRESSURE.items()},
    "rate": {f"{n}/{d}": (_LENGTH[n], _TIME[d]) for n in _LENGTH for d in _TIME},
    "closure": {"": (1.0, 1.0)}
    | {f"{n}/{d}": (_LENGTH[n], _LENGTH[d]) for n in _LENGTH for d in _LENGTH},
}

_NUMBER_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S*)")

_SECTIONS = ("materials", "stack", "holes", "release", "clogging", "molding")

# "<property>" of a [materials] override -> (dimension, the role whose
# material the stages read it from)
_MATERIAL_FIELDS = {
    "selectivity_loss": ("rate", "structural"),
    "sticking_coefficient": ("none", "sealing"),
    "youngs_modulus": ("pressure", "structural"),
    "poisson_ratio": ("none", "structural"),
    "failure_stress": ("pressure", "structural"),
}
_MATERIAL_NAMES = frozenset(standard_materials())


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
    "molding.grid_n": ("count", "molding.grid_n"),
}

_HOLES_PATH_RE = re.compile(r"holes(?:\[(\d+)\])?\.(\w+)")
_MATERIALS_PATH_RE = re.compile(r"materials\.([^.]*)\.(.*)")


@dataclass(frozen=True)
class MoldingSpec:
    """Molding load and pass/fail limits for the sealed package;
    ``max_deflection`` is ``inf`` (the default) for no deflection limit."""

    pressure: float = DEFAULT_MOLDING_PRESSURE
    max_deflection: float = math.inf
    safety_factor: float = 1.0
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self) -> None:
        if not self.pressure >= 0.0:
            raise ValueError("pressure must be >= 0")
        if not self.max_deflection > 0.0:
            raise ValueError("max_deflection must be > 0")
        if not self.safety_factor >= 1.0:
            raise ValueError("safety_factor must be >= 1")
        if not isinstance(self.grid_n, int):
            raise ValueError("grid_n must be an int")
        if not MIN_GRID_N <= self.grid_n <= MAX_GRID_N:
            raise ValueError(f"grid_n must lie in [{MIN_GRID_N}, {MAX_GRID_N}]")


@dataclass(frozen=True)
class Recipe:
    """A fully resolved process recipe, in SI units throughout."""

    materials: dict[str, Material]
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
        if not self.etch_max_time > 0.0:
            raise ValueError("max_time must be > 0")
        if self.probe_time is not None and not self.probe_time >= 0.0:
            raise ValueError("probe_time must be >= 0")
        if not self.max_deposition >= 0.0:
            raise ValueError("max_deposition must be >= 0")
        if not self.chamber_pressure >= 0.0:
            raise ValueError("chamber_pressure must be >= 0")
        pitch = self.coverage_pitch
        if pitch is None:
            pitch = default_coverage_pitch(self.holes)
        if not pitch > 0.0:
            raise ValueError("coverage_pitch must be > 0")
        footprint = self.stack.cavity_footprint
        # per axis first, so that a tiny pitch cannot overflow the count
        if (
            max(footprint.width, footprint.length) / pitch > MAX_RASTER_CELLS
            or math.prod(_raster_shape(footprint, pitch)) > MAX_RASTER_CELLS
        ):
            raise ValueError(
                f"coverage pitch {pitch / NM:g} nm makes a release raster of more "
                f"than {MAX_RASTER_CELLS} cells; set a coarser coverage_pitch"
            )

    def material(self, role: str) -> Material:
        return self.materials[getattr(self, role)]


def parse_quantity(token: str, kind: str, where: str) -> float:
    """Parse ``1.5um``-style quantities into SI, enforcing the dimension.

    Values that overflow to infinity, as written or once scaled to SI,
    are rejected. A ``count`` is a bare whole number, returned as an int.
    """
    m = _NUMBER_RE.fullmatch(token.strip())
    if not m:
        raise RecipeError(f"{where}: cannot parse quantity {token!r}")
    value = _to_si(float(m.group(1)), m.group(2), kind, where)
    if not math.isfinite(value):
        raise RecipeError(f"{where}: quantity {token.strip()!r} is not finite")
    return value


def _to_si(value: float, unit: str, kind: str, where: str) -> float:
    if kind == "count":
        if unit:
            raise RecipeError(f"{where}: expected a whole number, got unit {unit!r}")
        if not value.is_integer():
            raise RecipeError(f"{where}: expected a whole number, got {value!r}")
        return int(value)
    if unit in _UNITS[kind]:
        num, den = _UNITS[kind][unit]
        return value * num / den
    if kind == "none":
        raise RecipeError(f"{where}: expected a dimensionless number, got unit {unit!r}")
    if not unit:
        raise RecipeError(f"{where}: missing unit, expected a {kind}")
    for other, units in _UNITS.items():
        if unit in units:
            raise RecipeError(
                f"{where}: dimension mismatch, expected a {kind} but {unit!r} is a "
                f"{other} unit"
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
    m = _MATERIALS_PATH_RE.fullmatch(path)
    if m:
        name, prop = m.groups()
        if name not in _MATERIAL_NAMES:
            raise RecipeError(f"unknown material {name!r}")
        if prop not in _MATERIAL_FIELDS:
            raise RecipeError(f"unknown material property {prop!r}")
        return _MATERIAL_FIELDS[prop][0]
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

    A value of -0.0 is stored as 0.0, so that no report prints a -0.
    Out-of-range values fail the owning dataclass's own checks; these, a
    bad hole index or dimension and an override of a property that no
    stage reads of its material are reported as ``RecipeError`` prefixed
    with ``where``.
    """
    _field_kind(path)
    # -0.0 + 0 is 0.0, and a count + 0 stays an int
    value = value + 0
    with located(where, RecipeError):
        if path.startswith("materials."):
            name, prop = _MATERIALS_PATH_RE.fullmatch(path).groups()
            if name not in (recipe.structural, recipe.sealing):
                raise RecipeError(
                    f"material {name!r} fills no role (structural is "
                    f"{recipe.structural!r}, sealing is {recipe.sealing!r})"
                )
            # the stages read each property of one role's material only
            role = _MATERIAL_FIELDS[prop][1]
            if getattr(recipe, role) != name:
                raise RecipeError(
                    f"no stage reads {prop} of {name!r}: the {role} material "
                    f"is {getattr(recipe, role)!r}"
                )
            material = replace(recipe.materials[name], **{prop: value})
            return replace(recipe, materials={**recipe.materials, name: material})
        m = _HOLES_PATH_RE.fullmatch(path)
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


def _parse_hole(entry: _Entry) -> Hole:
    tokens = entry.value.split()
    with located(f"line {entry.lineno}", RecipeError):
        shape, attr_tokens = tokens[0], tokens[1:]
        if shape not in _HOLE_SHAPES:
            raise RecipeError(f"unknown hole shape {shape!r}")
        make, dims = _HOLE_SHAPES[shape]
        attrs: dict[str, float] = {}
        for token in attr_tokens:
            key, eq, value = token.partition("=")
            if not eq or key not in dims + ("x", "y"):
                raise RecipeError(f"bad hole attribute {token!r}")
            if key in attrs:
                raise RecipeError(f"duplicate hole attribute {key!r}")
            attrs[key] = parse_quantity(value, "length", key)
        for key in dims:
            if key not in attrs:
                raise RecipeError(f"{shape} hole needs {key}=<length>")
        center = (attrs.get("x", 0.0), attrs.get("y", 0.0))
        return make(*(attrs[key] for key in dims), center)


def _parse_footprint(entry: _Entry) -> Rect:
    where = f"line {entry.lineno}: footprint"
    tokens = entry.value.split()
    if len(tokens) != 3 or tokens[1] != "x":
        raise RecipeError(f"{where}: expected '<width> x <length>'")
    width = parse_quantity(tokens[0], "length", where)
    length = parse_quantity(tokens[2], "length", where)
    with located(where, RecipeError):
        return Rect(width, length)


def _material_roles(entries: dict[str, _Entry]) -> dict[str, str]:
    """Pop the role keys of [materials]; the overrides stay in ``entries``."""
    roles = {"structural": "sio2_sputter", "sealing": "sio2_sputter"}
    for role in roles:
        if role in entries:
            roles[role] = entries.pop(role).value
        if roles[role] not in _MATERIAL_NAMES:
            raise RecipeError(f"{role} material {roles[role]!r} is not defined")
    return roles


def _calibrated_etch(source: _Entry, release: dict[str, _Entry], base_dir: Path):
    if {f.name for f in fields(EtchParams)} & release.keys():
        raise RecipeError(
            f"line {source.lineno}: calibrate_from cannot be combined with "
            "explicit etch parameters"
        )
    with located(f"line {source.lineno}: calibrate_from"):
        # an absolute path replaces base_dir
        return calibrate_etch(load_observations(base_dir / source.value)).params


def parse_recipe(text: str, *, base_dir: "Path | str | None" = None) -> Recipe:
    """Parse recipe text into a fully resolved :class:`Recipe`.

    ``base_dir`` anchors relative ``calibrate_from`` paths (defaults to
    the working directory).
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    sections, hole_entries, section_lines = _tokenize(text)
    for name in ("stack", "holes"):
        if name not in sections:
            raise RecipeError(f"missing required section [{name}]")

    material_entries = dict(sections.get("materials", {}))
    roles = _material_roles(material_entries)

    stack_entries = dict(sections["stack"])
    thickness_keys = ("sacrificial_thickness", "cap_thickness", "clog_deposition")
    for key in ("footprint", *thickness_keys):
        if key not in stack_entries:
            raise RecipeError(
                f"line {section_lines['stack']}: [stack] is missing required key {key!r}"
            )
    footprint = _parse_footprint(stack_entries.pop("footprint"))
    thicknesses = {}
    for key in thickness_keys:
        entry = stack_entries.pop(key)
        where = f"line {entry.lineno}: {key}"
        thicknesses[key] = parse_quantity(entry.value, _FIELDS[f"stack.{key}"][0], where)
        with located(where, RecipeError):
            PackageStack.check_thickness(key, thicknesses[key])
    _reject_unknown(stack_entries, "stack")
    stack = PackageStack(cavity_footprint=footprint, **thicknesses)

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
    etch = DEFAULT_ETCH_PARAMS if source is None else _calibrated_etch(source, release, base)
    # the raster bound depends on the holes and the pitch together, so
    # both are in place before the first check
    pitch_entry = release.pop("coverage_pitch", None)
    where = "[holes]" if pitch_entry is None else f"line {pitch_entry.lineno}: coverage_pitch"
    pitch = None if pitch_entry is None else parse_quantity(pitch_entry.value, "length", where)
    with located(where, RecipeError):
        recipe = Recipe(
            materials=standard_materials(),
            structural=roles["structural"],
            sealing=roles["sealing"],
            stack=stack,
            holes=holes,
            etch=etch,
            coverage_pitch=pitch,
        )
    for section, entries in (
        ("materials", material_entries),
        ("release", release),
        ("clogging", sections.get("clogging", {})),
        ("molding", sections.get("molding", {})),
    ):
        for key, entry in entries.items():
            path = f"{section}.{key}"
            # a dotted [materials] key names a material and a property
            if path not in _FIELDS and not (section == "materials" and "." in key):
                raise RecipeError(f"line {entry.lineno}: unknown key {key!r} in [{section}]")
            where = f"line {entry.lineno}: {key}"
            with located(where):
                kind = _field_kind(path)
            value = parse_quantity(entry.value, kind, where)
            recipe = _set_field(recipe, path, value, where)
    return recipe


def load_recipe(path: "Path | str") -> Recipe:
    """Read and parse a recipe file; relative data paths resolve beside it."""
    return parse_recipe(read_text(path, RecipeError), base_dir=Path(path).parent)
