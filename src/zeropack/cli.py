"""Command-line front end.

Subcommands::

    zeropack simulate <recipe>                          full process run
    zeropack sweep <recipe> --param <path> --values v1,v2,...
    zeropack calibrate-etch <datafile>                  fit etch constants
    zeropack check-molding <recipe> [--dump-field f]    molding stage only

Common options: ``--format {text,tabular}`` and ``--out <file>``.

Exit codes: 0 success, 1 a pass/fail constraint failed, 2 input error
(also a path that cannot be read or written), 3 model error (release too
slow, hole does not seal, solver failure, a result that is not finite),
70 internal error (any other exception: a fault in zeropack itself,
``EX_SOFTWARE`` of BSD ``sysexits.h``). Every error is one stderr line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .errors import InputError, ZeropackError
from .mechanics import dump_deflection
from .mechanics import solve_plate  # noqa: F401 - perfbench's tracer wraps cli.solve_plate
from .pipeline import (
    _check_rows,
    _molding,
    _tabular,
    emit_report,
    emit_sweep,
    param_kind,
    run_recipe,
    sweep,
)
from .recipe import load_recipe, parse_quantity
from .release import calibrate_etch, load_observations
from .units import MINUTE, MPA, NM, UM

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_INPUT = 2
EXIT_SOFTWARE = 70


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeropack",
        description="Thin-film 0-level vacuum packaging process simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("text", "tabular"), default="text", help="output format"
        )
        p.add_argument("--out", type=Path, default=None, help="write output to a file")

    p = sub.add_parser("simulate", help="run a recipe end to end")
    p.add_argument("recipe", type=Path)
    common(p)

    p = sub.add_parser("sweep", help="rerun a recipe over values of one field")
    p.add_argument("recipe", type=Path)
    p.add_argument("--param", required=True, help="field path, e.g. holes.diameter")
    p.add_argument(
        "--values", required=True, help="comma-separated quantities, e.g. 2um,4um"
    )
    p.add_argument(
        "--workers", type=int, help="accepted, no effect: rows run in input order, one by one"
    )
    common(p)

    p = sub.add_parser("calibrate-etch", help="fit etch constants to a data file")
    p.add_argument("datafile", type=Path)
    common(p)

    p = sub.add_parser("check-molding", help="run only the molding survival check")
    p.add_argument("recipe", type=Path)
    p.add_argument(
        "--dump-field", type=Path, default=None, help="write the deflection field"
    )
    common(p)

    return parser


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _cmd_simulate(args) -> int:
    report = run_recipe(load_recipe(args.recipe))
    _write(emit_report(report, args.format), args.out)
    return EXIT_OK if report.passed else EXIT_CONSTRAINT


def _cmd_sweep(args) -> int:
    recipe = load_recipe(args.recipe)
    kind = param_kind(args.param)
    labels = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not labels:
        raise InputError("--values must list at least one quantity")
    values = [parse_quantity(tok, kind, f"--values entry {tok!r}") for tok in labels]
    rows = sweep(recipe, args.param, values, labels=labels)
    _write(emit_sweep(rows, args.format), args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    result = calibrate_etch(load_observations(args.datafile))
    p = result.params
    if args.format == "tabular":
        text = _tabular(
            [
                ("intrinsic_rate", "um/min", p.intrinsic_rate / UM * MINUTE),
                ("aperture_factor", "um", p.aperture_factor / UM),
                ("channel_factor", "-", p.channel_factor),
                ("residual", "um", result.residual / UM),
                ("n_observations", "-", result.n_observations),
            ]
        )
    else:
        text = (
            f"fitted on {result.n_observations} observations\n"
            f"intrinsic rate   {p.intrinsic_rate / UM * MINUTE:10.4f} um/min\n"
            f"aperture factor  {p.aperture_factor / UM:10.4f} um\n"
            f"channel factor   {p.channel_factor:10.4f}\n"
            f"residual norm    {result.residual / UM:10.4f} um\n"
        )
    _write(text, args.out)
    return EXIT_OK


def _cmd_check_molding(args) -> int:
    solution, checks = _molding(load_recipe(args.recipe))
    passed = all(checks.values())
    if args.dump_field is not None:
        args.dump_field.write_text(dump_deflection(solution), encoding="utf-8")
    if args.format == "tabular":
        text = _tabular(
            [
                ("molding_deflection", "nm", solution.w_max / NM),
                ("molding_stress", "MPa", solution.sigma_max / MPA),
                *_check_rows(checks),
            ]
        )
    else:
        verdict = {True: "pass", False: "FAIL"}
        text = (
            f"cap thickness      {solution.spec.thickness / UM:10.4f} um\n"
            f"molding deflection {solution.w_max / NM:10.3f} nm"
            f" ({verdict[checks['deflection']]})\n"
            f"molding stress     {solution.sigma_max / MPA:10.3f} MPa"
            f" ({verdict[checks['stress']]})\n"
        )
    _write(text, args.out)
    return EXIT_OK if passed else EXIT_CONSTRAINT


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning on one line of its own, like the error messages,
    instead of Python's file, line number and source line."""
    print(f"zeropack: warning: {message}", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "calibrate-etch": _cmd_calibrate,
        "check-molding": _cmd_check_molding,
    }
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return handlers[args.command](args)
        except ZeropackError as exc:
            print(f"zeropack: {exc.kind} error: {exc}", file=sys.stderr)
            return exc.exit_status
        except OSError as exc:
            # an unreadable or unwritable path
            print(f"zeropack: input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except Exception as exc:
            print(f"zeropack: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
