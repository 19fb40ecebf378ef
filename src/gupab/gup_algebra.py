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
exact bracket. The factor and both brackets are functions of s = a |p0|
and the direction p0 / |p0| alone, and are computed from those two: no
a^2 or p0_i p0_j is formed, which would leave the doubles at sizes where s
does not. Each builds the whole 3x3 bracket matrix at once and returns the
requested entry: a complex number for a 3-vector p0, an (...) array for an
(..., 3) array of momenta. They agree to O(a^3);
``commutator_consistency_exponent`` (over all momenta at once),
``consistency_exponents`` (per momentum) and the grid operator lab measure
that scaling numerically.

The grid lab and the uncertainty check work on a uniform 1D momentum grid on
a positive half-line, where |p| = p is smooth. The position operator in the
momentum representation is x = i d/dp, applied as the truncated
antisymmetric central-difference stencil (exactly Hermitian, second order);
the deformed momentum is multiplication by the sampled map. The stencil and
the brackets run in real arithmetic, with no complex division by a real.
The grid lab checks its inputs at once and measures each quantity of its
report when that is first read, so an overflow there raises on the read.
Every public entry reads ``a`` with ``errors.to_floats`` (an int past the
doubles is an infinity, a str the number it spells) and rejects a negative,
NaN or infinite ``a`` with ``DomainError``; a result that overflows double
precision is a ``GupabError``, and a grid has from 8 to ``_MAX_GRID_POINTS``
points.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .clifford import momenta
from .errors import DomainError, GupabError, SingularInputError, raise_first, to_float, to_floats
from .records import Record, store
from .units import nonnegative_a

# Probe state used by the operator lab: a sup-normalized Gaussian sitting at
# the middle of the grid, wide enough to be resolved and narrow enough to
# vanish at the boundaries.
_PROBE_CENTER_FRACTION = 0.5
_PROBE_WIDTH_FRACTION = 0.15
# Points the lab leaves out at each end of the grid, where the stencil is truncated.
_BOUNDARY_MARGIN = 2
# Points of a uniform grid, which bounds the memory of one state (16 MiB) and of the lab's doubled grid.
_MAX_GRID_POINTS = 2**20

_DELTA = np.eye(3)
_OVERFLOW = "{} is not finite: the inputs overflow double precision"


def _check_axis(i):
    if i not in (1, 2, 3):
        raise DomainError(f"axis index must be 1, 2 or 3, got {i}")


def _strength(a):
    """a as a float array, after the checks every entry makes of it: nonnegative, then finite."""
    a = to_floats(a)
    raise_first(nonnegative_a(a), (np.logical_not(np.isfinite(a)), DomainError, "a must be finite"))
    return a


def deformation_factor(p0_mag, a):
    """Radial rescaling 1 - s + 2 s^2 of s = a p0 (positive for all real s), a function of s alone."""
    s = a * p0_mag
    return 1.0 - s + 2.0 * s * s


def _power_of_2(v):
    """A power of 2 near the largest entry of each vector of v, with a trailing axis of 1: v over it has its largest entry in [1, 2)."""
    _, exponent = np.frexp(np.max(np.abs(v), axis=-1, keepdims=True))
    return np.ldexp(1.0, exponent - 1)


def _norm(v):
    """``np.linalg.norm(v, axis=-1, keepdims=True)``, taken on a copy in units of ``_power_of_2(v)``.

    The copy's squares neither underflow nor overflow, so a tiny nonzero v
    has a nonzero norm and a finite norm does not overflow; where no square
    of v underflows or overflows, these are ``np.linalg.norm``'s own bits.
    Run it under ``np.errstate``.
    """
    unit = _power_of_2(v)
    return np.linalg.norm(v / unit, axis=-1, keepdims=True) * unit


def deform_momentum(p0, a: float) -> np.ndarray:
    """Apply the deformation map to a 3-vector or an (..., 3) array; the zero vector is fixed.

    The 2 s^2 of f(s) may leave the doubles where p0 times it does not,
    which needs a largest entry below 1. So the product is p0 / unit times
    unit f(s), for unit the lesser of 1 and ``_power_of_2(p0)``: neither factor
    overflows where the result does not, and p0 / unit, scaled up by a power
    of 2, is exact. Where no intermediate of unit f(s) underflows, these are
    the bits of ``p0 * deformation_factor(|p0|, a)``, and at a largest entry
    of 1 or more they are those bits.
    """
    p0, a = momenta(p0), _strength(a)
    with np.errstate(all="ignore"):  # a result that overflows is reported below
        unit, s = np.minimum(_power_of_2(p0), 1.0), a * _norm(p0)
        deformed = p0 / unit * (unit - unit * s + 2.0 * (unit * s) * s)
    if not np.isfinite(deformed).all():
        raise GupabError(_OVERFLOW.format("deformed momentum"))
    return deformed


def _real_brackets(p0, a, kind):
    """The (..., 3, 3) 'target' or 'jacobian' brackets divided by i, for a > 0 that broadcasts against p0's (..., 1) norms.

    Each bracket is A(s) d_ij + B(s) u_i u_j, a function of s = a |p0| and
    the direction u = p0 / |p0| alone: the jacobian's A = f(s), the
    deformation factor, and B = s (4 s - 1); the target's, with t = a |p| =
    s f(s), A = 1 - t + t^2 and B = t (3 t - 1). p0 is a checked momentum
    array; an array of strengths gives all their brackets in one pass, each
    as its own call would. The norm is ``_norm``'s, so a tiny nonzero
    momentum is not taken for zero. A bracket that overflows is a ``GupabError``.
    """
    with np.errstate(all="ignore"):
        mag = _norm(p0)
        if np.any(mag == 0.0):
            raise SingularInputError(f"{kind} bracket needs |p0| > 0 when a > 0")
        unit = p0 / mag
        s, factor = (a * mag)[..., None], deformation_factor(mag, a)[..., None]
        outer = unit[..., :, None] * unit[..., None, :]
        # B u_i u_j as s ((4 s - 1) u_i u_j), and in t for the target: B itself may overflow where no entry does
        if kind == "jacobian":
            brackets = _DELTA * factor + s * ((4.0 * s - 1.0) * outer)
        else:
            t = s * factor
            brackets = _DELTA * (1.0 - t + t * t) + t * ((3.0 * t - 1.0) * outer)
    if not np.isfinite(brackets).all():
        raise GupabError(_OVERFLOW.format(f"{kind} bracket"))
    return brackets


def _brackets(p0, a, kind):
    """(..., 3, 3) brackets over all (i, j): the deformed-bracket 'target' or the exact 'jacobian'."""
    p0, a = momenta(p0), _strength(a)
    if a == 0.0:
        return 1j * np.broadcast_to(_DELTA, p0.shape[:-1] + (3, 3))
    return 1j * _real_brackets(p0, a, kind)


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
    """The (k,) log a values and the (..., k) logs of each momentum's largest |jacobian - target| entry.

    DomainError where a deviation rounds to 0, as it does at a small enough a.
    """
    a = to_floats(a_values)
    if a.ndim != 1 or not np.all(a > 0.0) or len(set(a.tolist())) < 2:  # one distinct a leaves the slope 0 / 0
        raise DomainError("need at least two positive a values")
    a, p0 = _strength(a), momenta(p0)[..., None, :]
    # each momentum against all k strengths in (..., k, 3, 3) brackets; |i x - i y| is |x - y| bit for bit
    jacobian, target = (_real_brackets(p0, a[:, None], kind) for kind in ("jacobian", "target"))
    deviations = np.max(np.abs(jacobian - target), axis=(-2, -1))
    if not deviations.all():  # its log would be -inf, and the slope not finite
        raise DomainError("the bracket deviation rounds to 0 at some a: a |p0| is too small for a slope")
    return np.log(a), np.log(deviations)


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


class MomentumGrid(Record):
    """Uniform 1D momentum samples on a positive half-line."""

    __slots__ = _fields = ("points",)

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        store(self, "points", points)
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
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 8 <= n <= _MAX_GRID_POINTS:
            raise DomainError(f"grid point count must be an integer in [8, {_MAX_GRID_POINTS}]")
        p_min, p_max = to_float(p_min), to_float(p_max)
        if not (0.0 < p_min < p_max):
            raise DomainError("require 0 < p_min < p_max")
        if p_max == math.inf:
            raise DomainError("grid bounds must be finite")
        return cls(np.linspace(p_min, p_max, n))

    @property
    def h(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def n(self) -> int:
        return int(self.points.size)


def _position(psi, h: float) -> np.ndarray:
    """x psi for x = i d/dp: the truncated antisymmetric central-difference stencil, along the last axis.

    Applied as a real-scaled difference of a finite psi with at least two
    points: half = psi / (2h) once, then each point's half[k + 1] - half[k - 1]
    (the missing neighbour at either end is 0), then the factor i. A complex
    psi is scaled by the reciprocal 1 / (2h): numpy's complex division by a
    real multiplies by it too, so the two differ only in the signs of zeros,
    and adding 0.0 makes every zero difference +0.0 whatever those signs.
    """
    half = psi * (1.0 / (2.0 * h)) if np.iscomplexobj(psi) else psi / (2.0 * h)
    xpsi = np.empty(psi.shape, dtype=complex)
    # one pass over the flattened stack (numpy copies strided 2D slices), then each row's two ends
    np.subtract(half.reshape(-1)[2:], half.reshape(-1)[:-2], out=xpsi.reshape(-1)[1:-1])
    xpsi[..., 0] = half[..., 1]
    np.subtract(0.0, half[..., -2], out=xpsi[..., -1])
    xpsi += 0.0
    xpsi *= 1j
    return xpsi


def _on_x_axis(p: np.ndarray) -> np.ndarray:
    """The momenta (p, 0, 0) of a 1D grid, as an (n, 3) array."""
    return np.stack([p, np.zeros_like(p), np.zeros_like(p)], axis=-1)


def _probe_state(points: np.ndarray) -> np.ndarray:
    """The probe's amplitudes on the grid points, taken in units of its width; a ``GupabError`` where they are not finite."""
    span = points[-1] - points[0]
    center = points[0] + _PROBE_CENTER_FRACTION * span
    width = _PROBE_WIDTH_FRACTION * span
    with np.errstate(all="ignore"):  # a probe that is not finite is reported below
        psi = np.exp(-(((points - center) / width) ** 2) / 2.0)
    if not np.isfinite(psi).all():
        raise GupabError("probe state is not finite: the grid's span is out of double precision's range")
    return psi


def _lab_max_residual(points: np.ndarray, a: float) -> float:
    """Max interior deviation of [x, p] applied to the probe from the exact bracket; a ``GupabError`` where it overflows."""
    h = float(points[1] - points[0])
    with np.errstate(all="ignore"):  # a residual that is not finite is reported below
        g = points * deformation_factor(points, a)
        psi = _probe_state(points)
        commutator = _position(g * psi, h) - g * _position(psi, h)
        residual = commutator - jacobian_commutator(_on_x_axis(points), 1, 1, a) * psi
    worst = float(np.max(np.abs(residual[_BOUNDARY_MARGIN : points.size - _BOUNDARY_MARGIN])))
    if not math.isfinite(worst):
        raise GupabError(_OVERFLOW.format("lab residual"))
    return worst


class CommutatorReport(Record):
    """Residuals and convergence rates measured by the grid operator lab, each measured when it is first read.

    ``max_residual_interior`` is the probe's residual on the grid,
    ``discretization_order`` the order from it and the residual on the grid
    of twice the points, and ``gup_scaling_exponent`` the consistency slope at
    the grid's interior momenta (NaN for a = 0). A measured field is computed
    once, from the private, non-compared grid points ``_points``, with the
    operations of an eager lab, and is the same bit for bit in any read
    order; a bracket that overflows is a ``GupabError`` when its field is read.
    """

    __slots__ = ("a", "grid_points", "h", "_points", "__dict__")  # __dict__ holds the measured fields
    _fields = ("a", "grid_points", "h", "_points")
    _compared = ("a", "grid_points", "h")

    def __init__(self, a: float, grid_points: int, h: float, _points: np.ndarray):
        store(self, "a", a)
        store(self, "grid_points", grid_points)
        store(self, "h", h)
        store(self, "_points", _points)

    @cached_property
    def max_residual_interior(self) -> float:
        return _lab_max_residual(self._points, self.a)

    @cached_property
    def discretization_order(self) -> float:
        coarse, res_coarse = self._points, self.max_residual_interior
        fine = np.linspace(coarse[0], coarse[-1], 2 * coarse.size)
        res_fine = _lab_max_residual(fine, self.a)
        h_coarse = float(coarse[1] - coarse[0])
        h_fine = float(fine[1] - fine[0])
        return math.log(res_coarse / res_fine) / math.log(h_coarse / h_fine)

    @cached_property
    def gup_scaling_exponent(self) -> float:
        if self.a == 0.0:
            return math.nan
        decade = (self.a, self.a / math.sqrt(10.0), self.a / 10.0)
        interior = _on_x_axis(self._points[_BOUNDARY_MARGIN : self._points.size - _BOUNDARY_MARGIN])
        return commutator_consistency_exponent(interior, decade)


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
    decade of deformation strengths anchored at a (expected 3). The inputs
    are checked here; each of the three is measured when the report's field
    is first read, so a caller pays only for the fields it reads.
    """
    if grid.n < 64:
        raise DomainError("operator lab needs at least 64 grid points")
    a = float(_strength(a))
    p_max = float(grid.points[-1])
    if a > 0.0 and a * p_max >= 0.5:
        raise DomainError("perturbative regime requires a * p_max < 0.5")
    return CommutatorReport(a=a, grid_points=grid.n, h=grid.h, _points=grid.points)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def gaussian_state(grid: MomentumGrid) -> np.ndarray:
    """Minimum-uncertainty Gaussian amplitudes, trapezoid-normalized on the grid.

    The packet sits mid-grid with its 6-sigma points at the boundaries: its
    momentum spread is width = span / 12, and the position spread of the
    continuum state is 1 / (2 width). The state is taken in units of the
    width, on which it does not depend, so no square of a grid's scale
    underflows or overflows. A state that is not finite is a ``GupabError``.
    """
    p = grid.points
    with np.errstate(all="ignore"):  # a state that overflows is reported below
        center = float(0.5 * (p[0] + p[-1]))
        width = float((p[-1] - p[0]) / 12.0)
        psi = np.exp(-(((p - center) / width) ** 2) / 4.0).astype(complex)
        norm = np.sqrt(np.sum(_trapezoid_weights(grid.n, grid.h) * np.abs(psi) ** 2))
        psi = psi * (1.0 / norm)
    if not np.isfinite(psi).all():
        raise GupabError(_OVERFLOW.format("gaussian state"))
    return psi


class UncertaintyReport(Record):
    """Measured spreads and the deformed lower bound: floats for one state, (...) arrays for a stack."""

    __slots__ = _fields = ("delta_x", "delta_p", "mean_p", "mean_p_sq", "lhs", "rhs", "holds")

    def __init__(
        self,
        delta_x: float | np.ndarray,
        delta_p: float | np.ndarray,
        mean_p: float | np.ndarray,
        mean_p_sq: float | np.ndarray,
        lhs: float | np.ndarray,
        rhs: float | np.ndarray,
        holds: bool | np.ndarray,
    ):
        store(self, "delta_x", delta_x)
        store(self, "delta_p", delta_p)
        store(self, "mean_p", mean_p)
        store(self, "mean_p_sq", mean_p_sq)
        store(self, "lhs", lhs)
        store(self, "rhs", rhs)
        store(self, "holds", holds)


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
    amplitude is rejected, and a spread or bound that overflows is a
    ``GupabError``. The moments allocate few temporaries: conj(psi) xpsi and
    conj(xpsi) xpsi are formed in turn in one work array, |psi| is squared in
    place, and density g is formed once and multiplied by g in place for
    <p^2>. Each keeps the operations, their order and the reductions of the
    plain expressions, so the report is the same bit for bit.
    """
    psi = np.asarray(state, dtype=complex)
    if psi.ndim == 0 or psi.shape[-1] != grid.n:
        raise DomainError("state must match the grid size")
    a = _strength(a)
    if not np.isfinite(psi).all():  # a NaN norm would pass the normalization test below
        raise DomainError("state must be finite")
    h = grid.h
    density = np.abs(psi)
    density **= 2
    trap_norm = np.sum(_trapezoid_weights(grid.n, h) * density, axis=-1)
    if np.any(np.abs(trap_norm - 1.0) > 1e-8):
        raise DomainError("state must be trapezoid-normalized to 1 within 1e-8")

    with np.errstate(all="ignore"):  # a spread or bound that overflows is reported below
        norm_sq = h * np.sum(density, axis=-1)

        xpsi = _position(psi, h)
        # conj(psi) * xpsi, then conj(xpsi) * xpsi, in one array laid out as xpsi, as numpy lays out their products
        work = np.conjugate(psi, out=np.empty_like(xpsi))
        work *= xpsi
        mean_x = h * np.sum(work, axis=-1).real / norm_sq
        np.conjugate(xpsi, out=work)
        work *= xpsi
        mean_x_sq = h * np.sum(work, axis=-1).real / norm_sq
        delta_x = np.sqrt(np.maximum(mean_x_sq - mean_x * mean_x, 0.0))

        g = grid.points * deformation_factor(grid.points, a[..., None])
        weighted = density * g  # density * g, then density * g * g in its left-to-right order
        mean_p = h * np.sum(weighted, axis=-1) / norm_sq
        weighted *= g
        mean_p_sq = h * np.sum(weighted, axis=-1) / norm_sq
        delta_p = np.sqrt(np.maximum(mean_p_sq - mean_p * mean_p, 0.0))

        lhs = delta_x * delta_p
        rhs = 0.5 * (1.0 - 2.0 * a * mean_p + 4.0 * a * a * mean_p_sq)
    # every other field enters lhs or rhs, where an inf or NaN one leaves an inf or NaN (0 * inf is NaN)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise GupabError(_OVERFLOW.format("uncertainty bound"))
    fields = np.broadcast_arrays(delta_x, delta_p, mean_p, mean_p_sq, lhs, rhs, lhs >= rhs - tolerance)
    if fields[0].ndim == 0:
        fields = [float(x) for x in fields[:-1]] + [bool(fields[-1])]
    return UncertaintyReport(*fields)
