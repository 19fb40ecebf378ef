"""Unit systems and the minimal-length deformation parameter.

The deformation strength carries inverse-momentum units and is tied to the
Planck scale through a dimensionless knob a0 of order one:

    a = a0 / (M_pl c) = a0 * l_pl / hbar

Two derived scales follow from the deformed algebra: a smallest resolvable
length a0 * l_pl and a largest reachable momentum M_pl * c / a0. Their
product is independent of a0.

All engine-internal numerics run in natural units (hbar = c = 1); the SI
system exists for reporting. The SI literals are CODATA 2018 values; only
their order of magnitude matters for any physics done here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, raise_first

# CODATA 2018 literals (c is exact by definition of the metre).
PLANCK_LENGTH_SI = 1.616255e-35  # m
PLANCK_MASS_SI = 2.176434e-8  # kg
HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m / s


@dataclass(frozen=True)
class UnitSystem:
    """A fixed set of constants; 'natural' forces hbar = c = 1 exactly."""

    mode: str  # 'natural' or 'si'
    hbar: float
    c: float
    planck_length: float
    planck_mass: float

    def __post_init__(self):
        if self.mode not in ("natural", "si"):
            raise DomainError(f"unknown unit mode {self.mode!r}")
        if self.mode == "natural" and not (self.hbar == 1.0 and self.c == 1.0):
            raise DomainError("natural units require hbar = c = 1 exactly")
        if not (self.planck_length > 0.0 and self.planck_mass > 0.0):
            raise DomainError("Planck scales must be strictly positive")

    @classmethod
    def natural(cls) -> "UnitSystem":
        return cls("natural", 1.0, 1.0, 1.0, 1.0)

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls("si", HBAR_SI, C_SI, PLANCK_LENGTH_SI, PLANCK_MASS_SI)


def nonnegative_a(a):
    """The check, for ``raise_first``, that a deformation strength a, a float or an array, is not negative."""
    return a < 0.0, DomainError, "a must be nonnegative"


@dataclass(frozen=True)
class GupParameter:
    """Deformation strength a (inverse momentum)."""

    a: float

    def __post_init__(self):
        raise_first(nonnegative_a(self.a))


def gup_from_a0(a0: float, units: UnitSystem) -> GupParameter:
    """Build the deformation parameter from the dimensionless knob a0.

    SI mode applies a = a0 * l_pl / hbar; natural mode returns a = a0 and
    leaves any momentum rescaling to the caller.
    """
    if a0 < 0.0 or not math.isfinite(a0):
        raise DomainError("a0 must be finite and nonnegative")
    if units.mode == "si":
        return GupParameter(a=a0 * units.planck_length / units.hbar)
    return GupParameter(a=a0)


def min_length(a0: float, units: UnitSystem) -> float:
    """Smallest resolvable length, a0 * l_pl."""
    if not (a0 > 0.0) or not math.isfinite(a0):
        raise DomainError("a0 must be finite and strictly positive")
    return a0 * units.planck_length


def max_momentum(a0: float, units: UnitSystem) -> float:
    """Largest reachable momentum, M_pl * c / a0."""
    if not (a0 > 0.0) or not math.isfinite(a0):
        raise DomainError("a0 must be finite and strictly positive")
    return units.planck_mass * units.c / a0
