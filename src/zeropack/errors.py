"""Exception types shared across the package.

Precondition violations on plain function arguments raise ``ValueError``
like any other Python library; the classes here mark input-file problems
and model outcomes that callers (in particular the CLI) need to tell
apart. Each derives from one of two bases that carry the CLI's report:
:class:`InputError` (exit status 2) for a file or value the package
cannot use, :class:`ModelError` (exit status 3) for a valid input the
model cannot carry to a usable result. :func:`located` gives an error
its location, such as ``line 7: cap_thickness`` or ``release``, and
:func:`read_text` reads an input file, naming its path in any error.
"""

from contextlib import contextmanager
from pathlib import Path


class ZeropackError(Exception):
    """Base class for all package-specific errors; ``kind`` and
    ``exit_status`` say how the CLI reports one."""

    kind = "model"
    exit_status = 3


class InputError(ZeropackError):
    """A recipe, data file or value the package cannot use."""

    kind = "input"
    exit_status = 2


class ModelError(ZeropackError):
    """A valid input the model cannot carry to a usable result."""


class RecipeError(InputError):
    """A recipe file is malformed or inconsistent."""


class DataFileError(InputError):
    """A calibration data file is malformed."""


class CalibrationError(InputError):
    """Calibration cannot proceed (under-determined or degenerate data)."""


class ReleaseTooSlowError(ModelError):
    """The hole layout does not release the footprint within the time cap."""


class UncloggableError(ModelError):
    """A hole does not seal within the maximum allowed deposition."""


class SolverError(ModelError):
    """The plate solver produced no usable solution."""


class DesignError(ModelError):
    """No thickness in the allowed range satisfies the design constraints."""


@contextmanager
def located(where: str, error: "type[ZeropackError] | None" = None):
    """Prefix ``where: `` to a :class:`ZeropackError` raised in the block,
    keeping its class; with ``error`` given, a ``ValueError`` becomes an
    ``error`` with the same prefix."""
    try:
        yield
    except ZeropackError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except ValueError as exc:
        if error is None:
            raise
        raise error(f"{where}: {exc}") from None


def read_text(path: "Path | str", error: "type[InputError]") -> str:
    """The UTF-8 text of the file at ``path``; a file that cannot be read
    or is not UTF-8 raises ``error``, naming the path."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8")
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
