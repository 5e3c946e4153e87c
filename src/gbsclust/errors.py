"""Exception types shared across the package."""


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
