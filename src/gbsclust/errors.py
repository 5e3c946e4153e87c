"""Exception types shared across the package, and the checks that raise one.

Every test of a matrix for squareness, finiteness or symmetry lives here,
and there is one rule for what a valid matrix is.  ``check_symmetric``
tests, in this order, that a matrix is square, finite and exactly
symmetric, and names the first property that fails, so a NaN is reported
as not finite and never as an asymmetry.  It takes no tolerance: every
kernel, the sampler, ``check_adjacency``, ``check_distances`` and the
densest-candidate choice hold a matrix to ``x == x.T``, so the upper and
lower triangles they read are the same numbers.  A matrix that is
symmetric only up to rounding is the caller's to symmetrize, as
``(m + m.T) / 2``.  ``check_finite`` is its finiteness step, used on its
own for point coordinates, percentile populations and singular values.
"""

from numbers import Integral

import numpy as np


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


def check_seed(seed) -> None:
    """Raise InvalidInputError unless ``seed`` is None or an integer of at
    least 0, the entropy a numpy SeedSequence takes."""
    if seed is not None:
        check_integer("seed", seed, 0)


def check_finite(x, what: str) -> np.ndarray:
    """``x`` as a float array; InvalidInputError, naming ``what`` and the
    first bad positions, unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    # on the package's small matrices count_nonzero costs a third of all()
    if np.count_nonzero(finite) < x.size:
        bad = np.argwhere(~finite)[:4].tolist()
        raise InvalidInputError(f"{what} must be finite; not so at {bad}")
    return x


def check_symmetric(x, what: str) -> np.ndarray:
    """``x`` as a float array; InvalidInputError, naming ``what``, unless it
    is square, then finite, then exactly symmetric."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidInputError(f"{what} must be square, got shape {x.shape}")
    check_finite(x, what)
    if np.count_nonzero(x != x.T):
        raise InvalidInputError(f"{what} must be symmetric")
    return x
