"""Exception types shared across the package, the row-by-row raise that batched checks share, and the one conversion of numbers."""

import functools
import math
import operator

import numpy as np


class GupabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GupabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularInputError(GupabError, ValueError):
    """Input hits a singular point of a formula (e.g. zero momentum, on-axis point)."""


class GeometryError(GupabError, ValueError):
    """Degenerate geometry: bad loops and paths into the coil."""


class FieldEvaluationError(GupabError, RuntimeError):
    """A field sample came back non-finite during quadrature.

    Carries the curve parameter of the offending sample in ``parameter``.
    """

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


class ConfigError(GupabError, ValueError):
    """A run configuration failed to parse or validate."""


def raise_first(*checks):
    """Raise for the first row that fails a check, the error of the first check it fails.

    Each check is (mask, error type, message); the masks are bools or
    arrays of them that broadcast over the rows.
    """
    failed = functools.reduce(operator.or_, (mask for mask, _, _ in checks))
    if np.count_nonzero(failed):
        row = np.argmax(np.ravel(failed))
        for mask, error, message in checks:
            if np.ravel(np.broadcast_to(mask, np.shape(failed)))[row]:
                raise error(message)


def to_float(x) -> float:
    """x as a float; an int beyond the doubles becomes the infinity of its sign, which every finiteness check rejects."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def to_floats(x) -> np.ndarray:
    """x as a float array, each int beyond the doubles the infinity of its sign, as ``to_float`` gives it."""
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:
        return np.vectorize(to_float, otypes=[float])(np.asarray(x, dtype=object))
