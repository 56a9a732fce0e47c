import inspect

import pytest

from zeropack import errors
from zeropack.errors import (
    DataFileError,
    InputError,
    ModelError,
    RecipeError,
    SolverError,
    ZeropackError,
    located,
)

CONCRETE = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, ZeropackError) and cls not in (ZeropackError, InputError, ModelError)
]


@pytest.mark.parametrize("cls", CONCRETE, ids=lambda cls: cls.__name__)
def test_every_error_is_an_input_or_a_model_error(cls):
    # the CLI reads its exit status and label from these two bases
    assert issubclass(cls, InputError) != issubclass(cls, ModelError)
    expected = (2, "input") if issubclass(cls, InputError) else (3, "model")
    assert (cls.exit_status, cls.kind) == expected


def test_the_listing_finds_every_error():
    names = {cls.__name__ for cls in CONCRETE}
    assert names >= {"RecipeError", "DataFileError", "CalibrationError", "ReleaseTooSlowError"}
    assert names >= {"UncloggableError", "SolverError", "DesignError"}


class TestLocated:
    def test_prefixes_a_package_error_and_keeps_its_class(self):
        with pytest.raises(SolverError, match="^molding: singular$"):
            with located("molding"):
                raise SolverError("singular")

    def test_turns_a_value_error_into_the_given_class(self):
        with pytest.raises(RecipeError, match="^line 3: must be > 0$"):
            with located("line 3", RecipeError):
                raise ValueError("must be > 0")

    def test_nests_outer_prefix_first(self):
        with pytest.raises(DataFileError, match="^a.csv:2: x: bad$"):
            with located("a.csv:2", DataFileError):
                with located("x", DataFileError):
                    raise ValueError("bad")

    def test_value_error_passes_without_a_class(self):
        with pytest.raises(ValueError, match="^overflow$"):
            with located("release"):
                raise ValueError("overflow")

    @pytest.mark.parametrize("exc", [KeyError("k"), OverflowError("o"), TypeError("t")])
    def test_other_exceptions_pass_unchanged(self, exc):
        with pytest.raises(type(exc)) as info:
            with located("release", RecipeError):
                raise exc
        assert info.value is exc

    def test_returns_normally(self):
        with located("release", RecipeError):
            value = 1
        assert value == 1
