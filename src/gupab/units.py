"""Unit systems and the minimal-length deformation parameter.

The deformation strength carries inverse-momentum units and is tied to the
Planck scale through a dimensionless knob a0 of order one:

    a = a0 / (M_pl c) = a0 * l_pl / hbar

Two derived scales follow from the deformed algebra: a smallest resolvable
length a0 * l_pl and a largest reachable momentum M_pl * c / a0. Their
product is independent of a0.

All engine-internal numerics run in natural units (hbar = c = 1); the SI
system exists for reporting. The SI literals are CODATA 2018 values; only
their order of magnitude matters for any physics done here. Each function
reads a0 with ``errors.to_float``: an int past the doubles is an infinity,
which the finite check rejects, and a str is the number it spells.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, raise_first, to_float
from .records import Record, store

# CODATA 2018 literals (c is exact by definition of the metre).
PLANCK_LENGTH_SI = 1.616255e-35  # m
PLANCK_MASS_SI = 2.176434e-8  # kg
HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m / s


class UnitSystem(Record):
    """A fixed set of constants; 'natural' forces hbar = c = 1 exactly. Each constant is the float ``errors.to_float`` reads."""

    __slots__ = _fields = ("mode", "hbar", "c", "planck_length", "planck_mass")

    def __init__(self, mode: str, hbar: float, c: float, planck_length: float, planck_mass: float):
        if mode not in ("natural", "si"):
            raise DomainError(f"unknown unit mode {mode!r}")
        hbar, c, planck_length, planck_mass = to_float(hbar), to_float(c), to_float(planck_length), to_float(planck_mass)
        if mode == "natural" and not (hbar == 1.0 and c == 1.0):
            raise DomainError("natural units require hbar = c = 1 exactly")
        if not (planck_length > 0.0 and planck_mass > 0.0):
            raise DomainError("Planck scales must be strictly positive")
        if not (planck_length < math.inf and planck_mass < math.inf):
            raise DomainError("Planck scales must be finite")
        if not (0.0 < hbar < math.inf and 0.0 < c < math.inf):
            raise DomainError("hbar and c must be finite and strictly positive")
        store(self, "mode", mode)  # 'natural' or 'si'
        store(self, "hbar", hbar)
        store(self, "c", c)
        store(self, "planck_length", planck_length)
        store(self, "planck_mass", planck_mass)

    @classmethod
    def natural(cls) -> "UnitSystem":
        return cls("natural", 1.0, 1.0, 1.0, 1.0)

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls("si", HBAR_SI, C_SI, PLANCK_LENGTH_SI, PLANCK_MASS_SI)


def nonnegative_a(a):
    """The check, for ``raise_first``, that a deformation strength a, a float or an array, is not negative (so not NaN)."""
    return np.logical_not(a >= 0.0), DomainError, "a must be nonnegative"


class GupParameter(Record):
    """Deformation strength a (inverse momentum), stored as the float ``errors.to_float`` reads: nonnegative, then finite."""

    __slots__ = _fields = ("a",)

    def __init__(self, a: float):
        a = to_float(a)
        store(self, "a", a)
        raise_first(nonnegative_a(a), (not math.isfinite(a), DomainError, "a must be finite"))


def gup_from_a0(a0: float, units: UnitSystem) -> GupParameter:
    """Build the deformation parameter from the dimensionless knob a0.

    SI mode applies a = a0 * l_pl / hbar; natural mode returns a = a0 and
    leaves any momentum rescaling to the caller.
    """
    a0 = to_float(a0)
    if a0 < 0.0 or not math.isfinite(a0):
        raise DomainError("a0 must be finite and nonnegative")
    if units.mode == "si":
        return GupParameter(a=a0 * units.planck_length / units.hbar)
    return GupParameter(a=a0)


def min_length(a0: float, units: UnitSystem) -> float:
    """Smallest resolvable length, a0 * l_pl."""
    a0 = to_float(a0)
    if not (a0 > 0.0) or not math.isfinite(a0):
        raise DomainError("a0 must be finite and strictly positive")
    return a0 * units.planck_length


def max_momentum(a0: float, units: UnitSystem) -> float:
    """Largest reachable momentum, M_pl * c / a0."""
    a0 = to_float(a0)
    if not (a0 > 0.0) or not math.isfinite(a0):
        raise DomainError("a0 must be finite and strictly positive")
    return units.planck_mass * units.c / a0
