"""Deformed momentum map, commutator consistency checks, and the uncertainty bound.

The deformation rescales momenta radially,

    p_i = p0_i (1 - a p0 + 2 a^2 p0^2),        p0 = |p0|,

which realizes, to second order in a, the deformed bracket

    [x_i, p_j] = i [ d_ij - a (p d_ij + p_i p_j / p)
                     + a^2 (p^2 d_ij + 3 p_i p_j) ],

written in the deformed variables themselves. The module works in natural
units only (hbar = 1). Two independent evaluations are provided:
``commutator_target`` evaluates that right-hand side directly, and
``jacobian_commutator`` evaluates i dp_j/dp0_i from the map, which is the
exact bracket. Each builds the whole 3x3 bracket matrix at once and returns
the requested entry: a complex number for a 3-vector p0, an (...) array for
an (..., 3) array of momenta. They agree to O(a^3);
``commutator_consistency_exponent`` (over all momenta at once),
``consistency_exponents`` (per momentum) and the grid operator lab measure
that scaling numerically.

The grid lab and the uncertainty check work on a uniform 1D momentum grid on
a positive half-line, where |p| = p is smooth. The position operator in the
momentum representation is x = i d/dp, applied as the truncated
antisymmetric central-difference stencil (exactly Hermitian, second order);
the deformed momentum is multiplication by the sampled map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import momenta
from .errors import DomainError, SingularInputError, raise_first
from .units import nonnegative_a

# Probe state used by the operator lab: a sup-normalized Gaussian sitting at
# the middle of the grid, wide enough to be resolved and narrow enough to
# vanish at the boundaries.
_PROBE_CENTER_FRACTION = 0.5
_PROBE_WIDTH_FRACTION = 0.15
# Points the lab leaves out at each end of the grid, where the stencil is truncated.
_BOUNDARY_MARGIN = 2

_DELTA = np.eye(3)


def _check_axis(i):
    if i not in (1, 2, 3):
        raise DomainError(f"axis index must be 1, 2 or 3, got {i}")


def deformation_factor(p0_mag, a):
    """Radial rescaling 1 - a p0 + 2 a^2 p0^2 (positive for all real p0)."""
    return 1.0 - a * p0_mag + 2.0 * a * a * p0_mag * p0_mag


def deform_momentum(p0, a: float) -> np.ndarray:
    """Apply the deformation map to a 3-vector or an (..., 3) array; the zero vector is fixed."""
    p0 = momenta(p0)
    raise_first(nonnegative_a(a))
    return p0 * deformation_factor(np.linalg.norm(p0, axis=-1, keepdims=True), a)


def _brackets(p0, a, kind):
    """(..., 3, 3) brackets over all (i, j): the deformed-bracket 'target' or the exact 'jacobian'."""
    p0 = momenta(p0)
    raise_first(nonnegative_a(a))
    mag = np.linalg.norm(p0, axis=-1)[..., None, None]
    if a == 0.0:
        return 1j * np.broadcast_to(_DELTA, mag.shape[:-2] + (3, 3))
    if np.any(mag == 0.0):
        raise SingularInputError(f"{kind} bracket needs |p0| > 0 when a > 0")
    if kind == "jacobian":
        p_i, p_j = p0[..., :, None], p0[..., None, :]
        return 1j * (_DELTA * deformation_factor(mag, a) + p_j * (-a * p_i / mag + 4.0 * a * a * p_i))
    pd = deform_momentum(p0, a)
    mag = np.linalg.norm(pd, axis=-1)[..., None, None]
    pipj = pd[..., :, None] * pd[..., None, :]
    return 1j * (_DELTA - a * (mag * _DELTA + pipj / mag) + a * a * (mag * mag * _DELTA + 3.0 * pipj))


def _bracket(p0, i, j, a, kind):
    _check_axis(i)
    _check_axis(j)
    value = _brackets(p0, a, kind)[..., i - 1, j - 1]
    return complex(value) if value.ndim == 0 else value


def commutator_target(p0, i: int, j: int, a: float):
    """Deformed-bracket right-hand side, evaluated in the deformed variables."""
    return _bracket(p0, i, j, a, "target")


def jacobian_commutator(p0, i: int, j: int, a: float):
    """Exact bracket i dp_j/dp0_i of the deformation map."""
    return _bracket(p0, i, j, a, "jacobian")


def _bracket_deviations(p0, a_values):
    """The (k,) log a values and the (..., k) logs of each momentum's largest |jacobian - target| entry."""
    a_values = [float(a) for a in a_values]
    if len(set(a_values)) < 2 or any(a <= 0.0 for a in a_values):  # one distinct a leaves the slope 0 / 0
        raise DomainError("need at least two positive a values")
    devs = [np.max(np.abs(_brackets(p0, a, "jacobian") - _brackets(p0, a, "target")), axis=(-2, -1)) for a in a_values]
    return np.log(a_values), np.log(np.stack(devs, axis=-1))


def _slopes(x, y):
    """Least-squares slopes of y against x along the last axis: the closed form of a degree-1 fit."""
    dx = x - np.mean(x)
    return np.sum(dx * (y - np.mean(y, axis=-1, keepdims=True)), axis=-1) / np.sum(dx * dx)


def commutator_consistency_exponent(p0, a_values=(1e-1, 1e-2, 1e-3)) -> float:
    """Fitted log-log slope, over the given a values, of the largest |jacobian - target| entry.

    p0 is a 3-vector or an (..., 3) array; the maximum runs over every
    (i, j) of every momentum. The two bracket evaluations agree to O(a^3),
    so the slope should sit near 3 for perturbative a.
    """
    log_a, log_devs = _bracket_deviations(p0, a_values)
    return float(_slopes(log_a, np.max(log_devs.reshape(-1, log_a.size), axis=0)))


def consistency_exponents(p0, a_values=(1e-1, 1e-2, 1e-3)) -> np.ndarray:
    """The slope of ``commutator_consistency_exponent`` for each momentum of an (..., 3) array, as an (...) array."""
    return _slopes(*_bracket_deviations(p0, a_values))


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform 1D momentum samples on a positive half-line."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", points)
        if points.ndim != 1 or points.size < 8:
            raise DomainError("grid needs at least 8 points in one dimension")
        if not points[0] > 0.0:
            raise DomainError("grid must live on the positive half-line (p_min > 0)")
        steps = np.diff(points)
        h = float(steps[0])
        if h <= 0.0 or np.max(np.abs(steps - h)) >= 1e-12 * h:
            raise DomainError("grid spacing must be uniform and increasing")

    @classmethod
    def uniform(cls, p_min: float, p_max: float, n: int) -> "MomentumGrid":
        if not (0.0 < p_min < p_max):
            raise DomainError("require 0 < p_min < p_max")
        return cls(np.linspace(p_min, p_max, n))

    @property
    def h(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def n(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class CommutatorReport:
    """Residuals and convergence rates measured by the grid operator lab."""

    a: float
    grid_points: int
    h: float
    max_residual_interior: float
    discretization_order: float
    gup_scaling_exponent: float


def _position(psi, h: float) -> np.ndarray:
    """x psi for x = i d/dp: the truncated antisymmetric central-difference stencil, along the last axis."""
    xpsi = np.zeros(psi.shape, dtype=complex)
    xpsi[..., :-1] += psi[..., 1:] / (2.0 * h)
    xpsi[..., 1:] -= psi[..., :-1] / (2.0 * h)
    xpsi *= 1j
    return xpsi


def _on_x_axis(p: np.ndarray) -> np.ndarray:
    """The momenta (p, 0, 0) of a 1D grid, as an (n, 3) array."""
    return np.stack([p, np.zeros_like(p), np.zeros_like(p)], axis=-1)


def _probe_state(points: np.ndarray) -> np.ndarray:
    span = points[-1] - points[0]
    center = points[0] + _PROBE_CENTER_FRACTION * span
    width = _PROBE_WIDTH_FRACTION * span
    return np.exp(-((points - center) ** 2) / (2.0 * width * width))


def _lab_max_residual(points: np.ndarray, a: float) -> float:
    """Max interior deviation of [x, p] applied to the probe from the exact bracket."""
    h = float(points[1] - points[0])
    g = points * deformation_factor(points, a)
    psi = _probe_state(points)
    commutator = _position(g * psi, h) - g * _position(psi, h)
    residual = commutator - jacobian_commutator(_on_x_axis(points), 1, 1, a) * psi
    return float(np.max(np.abs(residual[_BOUNDARY_MARGIN : points.size - _BOUNDARY_MARGIN])))


def grid_operator_lab(grid: MomentumGrid, a: float) -> CommutatorReport:
    """Finite-dimensional commutator test of the deformation map.

    Applies [x, p] psi = x (g psi) - g (x psi) to the probe state, where g is
    the deformed momentum sampled on the grid and x = i d/dp is the
    central-difference stencil, and measures, on the points at least
    ``_BOUNDARY_MARGIN`` from either end, how far it falls from the exact
    analytic bracket times psi. The residual is reported
    together with its convergence order under grid refinement (expected 2,
    from the stencil) and, for a > 0, the log-log slope of the
    jacobian-vs-target deviation at the interior momenta (p, 0, 0) over a
    decade of deformation strengths anchored at a (expected 3).
    """
    if grid.n < 64:
        raise DomainError("operator lab needs at least 64 grid points")
    raise_first(nonnegative_a(a))
    p_max = float(grid.points[-1])
    if a > 0.0 and a * p_max >= 0.5:
        raise DomainError("perturbative regime requires a * p_max < 0.5")

    coarse = grid.points
    fine = np.linspace(coarse[0], coarse[-1], 2 * grid.n)
    res_coarse = _lab_max_residual(coarse, a)
    res_fine = _lab_max_residual(fine, a)
    h_coarse = float(coarse[1] - coarse[0])
    h_fine = float(fine[1] - fine[0])
    order = math.log(res_coarse / res_fine) / math.log(h_coarse / h_fine)
    decade = (a, a / math.sqrt(10.0), a / 10.0)
    interior = _on_x_axis(coarse[_BOUNDARY_MARGIN : coarse.size - _BOUNDARY_MARGIN])
    exponent = commutator_consistency_exponent(interior, decade) if a > 0.0 else math.nan

    return CommutatorReport(
        a=a,
        grid_points=grid.n,
        h=grid.h,
        max_residual_interior=res_coarse,
        discretization_order=order,
        gup_scaling_exponent=exponent,
    )


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def gaussian_state(grid: MomentumGrid) -> np.ndarray:
    """Minimum-uncertainty Gaussian amplitudes, trapezoid-normalized on the grid.

    The packet sits mid-grid with its 6-sigma points at the boundaries: its
    momentum spread is width = span / 12, and the position spread of the
    continuum state is 1 / (2 width).
    """
    p = grid.points
    center = float(0.5 * (p[0] + p[-1]))
    width = float((p[-1] - p[0]) / 12.0)
    psi = np.exp(-((p - center) ** 2) / (4.0 * width * width)).astype(complex)
    norm = np.sqrt(np.sum(_trapezoid_weights(grid.n, grid.h) * np.abs(psi) ** 2))
    return psi / norm


@dataclass(frozen=True)
class UncertaintyReport:
    """Measured spreads and the deformed lower bound: floats for one state, (...) arrays for a stack."""

    delta_x: float | np.ndarray
    delta_p: float | np.ndarray
    mean_p: float | np.ndarray
    mean_p_sq: float | np.ndarray
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    holds: bool | np.ndarray


def uncertainty_check(
    grid: MomentumGrid,
    state,
    a,
    tolerance: float = 1e-3 / 2.0,
) -> UncertaintyReport:
    """Test Dx Dp >= (1/2)(1 - 2 a <p> + 4 a^2 <p^2>) on a grid state or an (..., n) stack of them.

    ``a`` broadcasts against the stack's leading axes. <p> and <p^2> are
    moments of the deformed momentum. Expectation values use uniform grid
    weights, under which the difference stencil is exactly Hermitian and the
    product Dx Dp obeys the exact finite-dimensional Robertson bound; the
    normalization precondition is checked with trapezoid weights. The
    default tolerance (1e-3 / 2) absorbs the O(h^2) discretization bias of
    the stencil for well-resolved states. A state with a NaN or infinite
    amplitude is rejected.
    """
    psi = np.asarray(state, dtype=complex)
    if psi.ndim == 0 or psi.shape[-1] != grid.n:
        raise DomainError("state must match the grid size")
    a = np.asarray(a, dtype=float)
    raise_first(nonnegative_a(a))
    if not np.isfinite(psi).all():  # a NaN norm would pass the normalization test below
        raise DomainError("state must be finite")
    h = grid.h
    density = np.abs(psi) ** 2
    trap_norm = np.sum(_trapezoid_weights(grid.n, h) * density, axis=-1)
    if np.any(np.abs(trap_norm - 1.0) > 1e-8):
        raise DomainError("state must be trapezoid-normalized to 1 within 1e-8")

    norm_sq = h * np.sum(density, axis=-1)

    xpsi = _position(psi, h)
    mean_x = h * np.sum(np.conj(psi) * xpsi, axis=-1).real / norm_sq
    mean_x_sq = h * np.sum(np.conj(xpsi) * xpsi, axis=-1).real / norm_sq
    delta_x = np.sqrt(np.maximum(mean_x_sq - mean_x * mean_x, 0.0))

    g = grid.points * deformation_factor(grid.points, a[..., None])
    mean_p = h * np.sum(density * g, axis=-1) / norm_sq
    mean_p_sq = h * np.sum(density * g * g, axis=-1) / norm_sq
    delta_p = np.sqrt(np.maximum(mean_p_sq - mean_p * mean_p, 0.0))

    lhs = delta_x * delta_p
    rhs = 0.5 * (1.0 - 2.0 * a * mean_p + 4.0 * a * a * mean_p_sq)
    fields = np.broadcast_arrays(delta_x, delta_p, mean_p, mean_p_sq, lhs, rhs, lhs >= rhs - tolerance)
    if fields[0].ndim == 0:
        fields = [float(x) for x in fields[:-1]] + [bool(fields[-1])]
    return UncertaintyReport(*fields)
