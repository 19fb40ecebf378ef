"""Generic curves, the solenoid's potential and line integrals: the library half of the geometry, loaded on first use.

No CLI command builds a generic curve or integrates, so this module holds
what only the library runs, and ``field_geometry`` imports it only when a
loop has a generic curve or an arc tilted to the coil's axis, or when one of
these names is read from it. ``Segment`` is a generic piece, checked on its
samples by ``_samples``; ``_sampled_about_axis`` gives a generic curve or a
tilted arc its azimuth about the axis and its clearance, over the chords of
its refined samples. Composite Gauss-Legendre quadrature (``_quadrature``),
with the error estimated by node doubling, gives the length of generic
curves and the public circulations: ``line_integral`` calls a generic field
once per point, and ``solenoid_circulation`` takes the ideal solenoid's
potential, purely azimuthal, flux Phi / (2 pi rho) outside the coil and
Phi rho / (2 pi R^2) inside, for a whole (n, 3) array of points in one call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import FieldEvaluationError, GeometryError, SingularInputError
from .field_geometry import (
    _MAX_NODES_PER_SEGMENT,
    _NEXT,
    _NEXT2,
    _NON_FINITE,
    _VANISHING,
    LoopPath,
    QuadratureSpec,
    SolenoidSpec,
    _gaps,
    _lines_about_axis,
)
from .records import Record, store

_VALIDATION_SAMPLES = 64
_MAX_SAMPLES = 2**16  # per piece sampled for its azimuth about the axis: generic curves and tilted arcs


def solenoid_vector_potential(point, spec: SolenoidSpec) -> np.ndarray:
    """Azimuthal vector potential of the ideal solenoid, in Cartesian components.

    Takes a 3-vector or an (..., 3) array of points and returns the same
    shape. Continuous at the coil radius; singular-direction only on the axis
    itself, which is rejected if any point lies on it.
    """
    radial, rho = spec.axial_decomposition(point)
    if np.any(rho == 0.0):
        raise SingularInputError("vector potential direction is undefined on the solenoid axis")
    azimuthal = np.cross(np.asarray(spec.axis_direction), radial)  # magnitude rho, direction phi-hat * rho
    # Phi / (2 pi rho^2) outside the coil, Phi / (2 pi R^2) inside
    r = np.maximum(rho, spec.radius)
    return (spec.flux / (2.0 * math.pi * r * r))[..., None] * azimuthal


def solenoid_field(spec: SolenoidSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Close over a spec to get a plain point -> A function for the integrator."""
    return lambda point: solenoid_vector_potential(point, spec)


def gauge_shift(field, chi_gradient):
    """Shift a field by the gradient of a (single-valued) scalar, point -> A + grad chi."""
    return lambda point: np.asarray(field(point), dtype=float) + np.asarray(chi_gradient(point), dtype=float)


class Segment(Record):
    """One smooth generic piece: s in [0, 1] -> R^3, with analytic tangent.

    Both callables must accept a 1D array of parameters and return an
    (n, 3) array. Straight pieces and circular arcs are ``Line`` and ``Arc``
    records instead, which ``loop_geometry`` takes in closed form.
    """

    __slots__ = _fields = ("point", "tangent")

    def __init__(self, point: Callable[[np.ndarray], np.ndarray], tangent: Callable[[np.ndarray], np.ndarray]):
        store(self, "point", point)
        store(self, "tangent", tangent)

    def reversed(self) -> "Segment":
        fwd_point, fwd_tangent = self.point, self.tangent
        return Segment(
            point=lambda s: fwd_point(1.0 - np.asarray(s, dtype=float)),
            tangent=lambda s: -fwd_tangent(1.0 - np.asarray(s, dtype=float)),
        )


class IntegralResult(Record):
    """A loop integral by quadrature: its value, its node-doubling error and the nodes per segment it ended on."""

    __slots__ = _fields = ("value", "error_estimate", "nodes_per_segment")

    def __init__(self, value: float, error_estimate: float, nodes_per_segment: int):
        store(self, "value", value)
        store(self, "error_estimate", error_estimate)
        store(self, "nodes_per_segment", nodes_per_segment)


@lru_cache(maxsize=32)
def _unit_interval_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _quadrature(integrand, segments, quad) -> IntegralResult:
    """The sum over ``segments`` of integrand(segment, s) on each one's Gauss-Legendre nodes s, refined in place.

    Each rule of n nodes is checked against the rule of 2n; under
    ``doubling`` the pair moves up one doubling while their difference
    exceeds the tolerance and the next fine rule stays below the cap. The
    result is the last fine value, its difference from the coarse one and
    the fine rule's nodes per segment. A NaN difference stops the doubling.
    """
    quad = quad or QuadratureSpec()

    def evaluate(n):
        s, w = _unit_interval_rule(n)
        return sum(float(np.sum(w * integrand(seg, s))) for seg in segments)

    n = quad.nodes_per_segment
    coarse, fine = evaluate(n), evaluate(2 * n)
    if quad.refinement == "doubling":
        while abs(fine - coarse) > quad.tolerance and 2 * n < _MAX_NODES_PER_SEGMENT:
            n *= 2
            coarse, fine = fine, evaluate(2 * n)
    return IntegralResult(value=fine, error_estimate=abs(fine - coarse), nodes_per_segment=2 * n)


def _circulation(sample, loop: LoopPath, quad) -> IntegralResult:
    def integrand(seg, s):
        vals = np.asarray(sample(seg.point(s)), dtype=float)
        if not np.isfinite(vals).all():
            bad = int(np.argwhere(~np.isfinite(vals))[0, 0])
            raise FieldEvaluationError(f"field sample is not finite at curve parameter s = {s[bad]!r}", parameter=float(s[bad]))
        return np.einsum("ij,ij->i", vals, seg.tangent(s))

    return _quadrature(integrand, loop.segments, quad)


def _speed(seg, s):
    return np.linalg.norm(seg.tangent(s), axis=1)


def line_integral(field, loop: LoopPath, quad: QuadratureSpec | None = None) -> IntegralResult:
    """Circulation of a per-point vector field along the path, with a doubling error estimate."""
    return _circulation(lambda pts: np.asarray([field(p) for p in pts], dtype=float), loop, quad)


def solenoid_circulation(spec: SolenoidSpec, loop: LoopPath, quad: QuadratureSpec | None = None) -> IntegralResult:
    """Circulation of the solenoid potential, sampling each segment's nodes in one batch.

    Same nodes, refinement and error estimate as
    ``line_integral(solenoid_field(spec), loop, quad)``.
    """
    return _circulation(lambda pts: solenoid_vector_potential(pts, spec), loop, quad)


def loop_length(loop: LoopPath, quad: QuadratureSpec | None = None) -> IntegralResult:
    """Arc length of the whole path by the same quadrature machinery."""
    return _quadrature(_speed, loop.segments, quad)


def _samples(seg, s):
    """(points, unit tangents, speeds) of a piece at the parameters s; GeometryError unless they are (n, 3), finite and nonzero."""
    points, tangents = np.asarray(seg.point(s), dtype=float), np.asarray(seg.tangent(s), dtype=float)
    if points.shape != (s.size, 3) or tangents.shape != (s.size, 3):
        raise GeometryError("segment callables must map (n,) parameters to (n, 3) arrays")
    if not (np.isfinite(points).all() and np.isfinite(tangents).all()):
        raise GeometryError(_NON_FINITE)
    speed = np.hypot.reduce(tangents, axis=1)
    if not (speed > 0.0).all():
        raise GeometryError(_VANISHING)
    return points, tangents / speed[:, None], speed


def _sampled_about_axis(seg, spec: SolenoidSpec, index: int):
    """(least distance from the axis, swept azimuth, a rounding bound of it) of a piece, over chords of its samples.

    From the 64 validation samples, a chord is halved while it turns more
    than pi/8 about the axis, passes no farther from it than its length,
    strays from the curve (its direction more than pi/8 from the tangent at
    either end, or its length under cos(pi/8) times either end's speed times
    its parameter step, so a chord that spans a loop of the curve splits
    rather than alias a turn), or may let the curve into the coil: its
    clearance less (L/2) tan(alpha/2), alpha the larger angle between it and
    the tangent at its ends, is within the coil radius. That bound is the
    sagitta of the circular arc on the chord at that angle, exact for arcs.
    The halving stops when no chord splits or at a sample within the coil
    radius, so a piece that enters the coil puts a sample there, which a
    phase rejects, or runs past ``_MAX_SAMPLES`` samples or the parameter's
    precision, a GeometryError naming it. The clearance is the chords' least
    distance, up to that bound above the curve's. The chords take the lines'
    closed forms; each azimuth rounds within about 4 eps, and rounding at the
    piece's ends moves it by eps max(rho) / clearance, so 4 eps n max(rho) /
    clearance radians bounds it for n samples.
    """
    unresolved = GeometryError(f"segment {index} is not resolved about the solenoid axis within {_MAX_SAMPLES} samples")
    s = np.linspace(0.0, 1.0, _VALIDATION_SAMPLES)
    points, directions, speed = _samples(seg, s)
    cos_limit = math.cos(math.pi / 8.0)
    while True:
        clearance, angle = _lines_about_axis(np.stack([points[:-1], points[1:]], axis=1), spec)
        rho = np.hypot.reduce(spec.radial(points), axis=1)  # radial distances, with no squares
        step, length = points[1:] - points[:-1], _gaps(points[:-1], points[1:])
        chord = np.divide(step, length[:, None], out=np.zeros_like(step), where=length[:, None] > 0.0)  # 0 splits
        # each chord's angle to the tangent at its start (row 0) and end (row 1): its cos, and chord x tangent as
        # np.cross forms it, whose norm is its sin, so tan(alpha / 2) = sin / (1 + cos) reads 0 to rounding on a
        # straight piece (an acos of the cos reads about 1e-8); cos = -1 splits anyway, as not along the tangent
        ends = np.stack([directions[:-1], directions[1:]])
        cos = (chord * ends).sum(axis=2)
        cross = chord.take(_NEXT, axis=1) * ends.take(_NEXT2, axis=2) - chord.take(_NEXT2, axis=1) * ends.take(_NEXT, axis=2)
        half = np.divide(np.sqrt((cross * cross).sum(axis=2)), 1.0 + cos, out=np.zeros_like(cos), where=cos > -1.0).max(axis=0)
        short = length < cos_limit * np.maximum(speed[:-1], speed[1:]) * np.diff(s)
        along, bulge = (cos >= cos_limit).all(axis=0), clearance - 0.5 * length * half <= spec.radius
        split = np.flatnonzero((abs(angle) > math.pi / 8.0) | (clearance <= length) | ~along | short | bulge)
        if not split.size or rho.min() <= spec.radius:
            break
        mid = 0.5 * (s[split] + s[split + 1])
        if s.size + split.size > _MAX_SAMPLES or not ((s[split] < mid) & (mid < s[split + 1])).all():
            raise unresolved
        new = _samples(seg, mid)
        s = np.insert(s, split + 1, mid)
        points, directions, speed = (np.insert(old, split + 1, added, axis=0) for old, added in zip((points, directions, speed), new))
    least = float(clearance.min())
    rounding = 4.0 * math.ulp(1.0) * s.size * float(rho.max()) / least if least > 0.0 else math.inf
    return least, float(angle.sum()), rounding
