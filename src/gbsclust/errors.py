"""Exception types shared across the package, and the integer check that
raises one."""

from numbers import Integral


class GbsClustError(Exception):
    """Base class for all errors raised by gbsclust."""


class InvalidInputError(GbsClustError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(GbsClustError, ValueError):
    """Graph is too large for exact subset enumeration."""


class DegenerateGraphError(GbsClustError, ValueError):
    """Sampling target carries zero total probability mass (edgeless graph)."""


class NoSolutionError(GbsClustError, ValueError):
    """Scaling calibration has no root (all singular values are zero)."""


class NumericError(GbsClustError, ArithmeticError):
    """An internal numerical consistency check failed."""


def check_integer(name: str, value, low: int) -> None:
    """Raise InvalidInputError, naming ``name``, unless ``value`` is an
    integer of at least ``low``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise InvalidInputError(f"{name} must be an integer of at least {low}, got {value!r}")
