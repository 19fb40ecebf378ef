"""Dirac matrix algebra in the standard (Dirac) representation.

Conventions, fixed once for the whole package:

    alpha_i = [[0, sigma_i], [sigma_i, 0]],   beta = diag(1, 1, -1, -1),
    gamma^0 = beta,   gamma^i = beta alpha_i,   metric eta = (+, -, -, -).

Constructor matrices have entries in {0, +-1, +-i}; sums and products of a
handful of them stay exact in double precision, so algebraic identities
(anticommutators, squares) can be asserted with zero tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GupabError, raise_first, to_floats
from .records import Record, store

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_PAULI_ROWS = np.stack(PAULI).reshape(3, 4)  # p3 @ rows = sigma.p, flattened

_I2 = np.eye(2, dtype=complex)
_ALPHA = tuple(
    np.block([[np.zeros((2, 2), dtype=complex), s], [s, np.zeros((2, 2), dtype=complex)]])
    for s in PAULI
)
_BETA = np.block([[_I2, np.zeros((2, 2), dtype=complex)], [np.zeros((2, 2), dtype=complex), -_I2]])
_GAMMA = (_BETA.copy(),) + tuple(_BETA @ a for a in _ALPHA)


def alpha(i: int) -> np.ndarray:
    """alpha_i for i in {1, 2, 3}: off-diagonal Pauli blocks."""
    if i not in (1, 2, 3):
        raise DomainError(f"alpha index must be 1, 2 or 3, got {i}")
    return _ALPHA[i - 1].copy()


def beta() -> np.ndarray:
    """beta = diag(1, 1, -1, -1)."""
    return _BETA.copy()


def gamma(mu: int) -> np.ndarray:
    """gamma^mu for mu in {0, 1, 2, 3}; gamma^0 = beta, gamma^i = beta alpha_i."""
    if mu not in (0, 1, 2, 3):
        raise DomainError(f"gamma index must be in 0..3, got {mu}")
    return _GAMMA[mu].copy()


class FourVector(Record):
    """Contravariant components (t, x, y, z) with the (+, -, -, -) metric.

    The components are floats, or (...) arrays for a batch of four-vectors.
    """

    __slots__ = _fields = ("t", "x", "y", "z")

    def __init__(self, t: float | np.ndarray, x: float | np.ndarray, y: float | np.ndarray, z: float | np.ndarray):
        store(self, "t", t)
        store(self, "x", x)
        store(self, "y", y)
        store(self, "z", z)

    def dot(self, other: "FourVector"):
        """The metric product; a ``GupabError`` where it is not finite, as where a component's product overflows."""
        with np.errstate(all="ignore"):  # a product that is not finite is reported below
            product = self.t * other.t - self.x * other.x - self.y * other.y - self.z * other.z
        if not np.isfinite(product).all():
            raise GupabError("four-vector product is not finite: the components overflow double precision")
        return product

    def square(self):
        return self.dot(self)

    @classmethod
    def from_spatial(cls, t, p3) -> "FourVector":
        """Time part t with the spatial part of a 3-vector, or of an (..., 3) array of them."""
        return cls(t, *np.moveaxis(np.asarray(p3, dtype=float), -1, 0))


def slash(p: FourVector) -> np.ndarray:
    """Metric-contracted gamma^mu p_mu = p_t g0 - p_x g1 - p_y g2 - p_z g3.

    Satisfies slash(p) @ slash(p) = (p . p) * I. Components that are (...)
    arrays give an (..., 4, 4) stack.
    """
    t, x, y, z = (np.asarray(c)[..., None, None] for c in (p.t, p.x, p.y, p.z))
    return t * _GAMMA[0] - x * _GAMMA[1] - y * _GAMMA[2] - z * _GAMMA[3]


def positive_mass(m):
    """The check, for ``raise_first``, that a mass m, a float or an array, is positive (so not NaN)."""
    return np.logical_not(m > 0.0), DomainError, "m must be positive"


def momenta(p3) -> np.ndarray:
    """p3 as a float array of 3-vectors; DomainError unless it is a 3-vector or an (..., 3) array of them, all finite."""
    p3 = to_floats(p3)
    if p3.ndim == 0 or p3.shape[-1] != 3:
        raise DomainError("momentum must be a 3-vector or an (..., 3) array of them")
    raise_first((np.logical_not(np.isfinite(p3).all(axis=-1)), DomainError, "momentum must be finite"))
    return p3


def on_shell_spinor(p3, m, branch: str = "particle1") -> np.ndarray:
    """Positive-energy free spinor u with slash(p) u = m u and <u|u> = 1.

    E = +sqrt(|p3|^2 + m^2) is computed internally. The two branches are
    built from the two-spinors (1,0) and (0,1); they are exactly orthogonal
    because (sigma.p)^dagger (sigma.p) = |p|^2 I. A 3-vector gives one
    4-spinor; an (..., 3) array of momenta gives an (..., 4) array of them,
    with ``m`` a float or an array that broadcasts against the momenta.
    """
    m = to_floats(m)
    raise_first(positive_mass(m))
    if branch not in ("particle1", "particle2"):
        raise DomainError("branch must be 'particle1' or 'particle2'")
    p3 = momenta(p3)
    # in units of a power of 2 near max(|p_i|, m), |p|^2 + m^2 cannot overflow, and u keeps its bits
    _, exponent = np.frexp(np.maximum(np.max(np.abs(p3), axis=-1), m))
    unit = np.ldexp(1.0, exponent - 1)
    p3, m = p3 / unit[..., None], m / unit
    energy = np.sqrt(np.sum(p3 * p3, axis=-1) + m * m)
    chi = np.array([1.0, 0.0], dtype=complex) if branch == "particle1" else np.array([0.0, 1.0], dtype=complex)
    sigma_p = (p3 @ _PAULI_ROWS).reshape(p3.shape[:-1] + (2, 2))
    lower = (sigma_p @ chi) / (energy + m)[..., None]
    u = np.empty(lower.shape[:-1] + (4,), dtype=complex)
    u[..., :2], u[..., 2:] = chi, lower
    # np.linalg.norm's vector 2-norm, written out
    return u / np.sqrt(np.add.reduce((u.conj() * u).real, axis=-1, keepdims=True))
