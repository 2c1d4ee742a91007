"""Exception types shared across the package, and the integer check of
the config fields that count something."""

from numbers import Integral


class PrsError(Exception):
    """Base class for all data/validation errors raised by this package."""


class DatasetError(PrsError):
    """A dataset file or manifest failed to load or validate."""


class DegenerateDataError(PrsError):
    """Input is constant where variation is required (segment, column, ...)."""


def check_integer(name: str, value) -> None:
    """Raise ValueError naming the field unless ``value`` is an int or a
    numpy integer; bool is rejected although it is an int."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
