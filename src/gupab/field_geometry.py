"""Solenoid vector potential, closed-loop geometry, and line-integral quadrature.

Loops are piecewise-smooth parametric curves; each piece maps s in [0, 1] to
points with an analytic tangent. Straight pieces are ``Line`` records and
circular arcs ``Arc`` records; ``LoopPath`` validates them (all lines in one
array call) and takes their ends and exact lengths once, without calling
them; a loop of lines only takes its ends array from its lines in one call.
Only generic curves, ``Segment``s, are checked on a 64-point sample.
``loop_geometry`` builds, once per loop, the record a phase needs of it: the
length, and the closed forms that depend on a solenoid, the azimuth swept
about its axis and the least distance from it: for lines by ufuncs and
ndarray methods over the ends array, for arcs normal to the axis by two atan2
end terms, each within (-pi/2, pi/2), so with no unwrapping needed, and for
generic curves and tilted arcs by the lines' forms over the chords of their
refined samples. Composite Gauss-Legendre quadrature, with the error
estimated by node doubling, gives only the length of generic curves and the
public circulations.
The built-in field source is the ideal infinite solenoid: purely azimuthal
potential, flux Phi / (2 pi rho) outside the coil and Phi rho / (2 pi R^2)
inside, taken for a whole (n, 3) array of points in one call; generic fields
handed to ``line_integral`` are called once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, FieldEvaluationError, GeometryError, SingularInputError, raise_first, read_floats, to_float, to_floats

_MAX_NODES_PER_SEGMENT = 1024  # 2**10 cap for the doubling refinement
_VALIDATION_SAMPLES = 64
_MAX_SAMPLES = 2**16  # per piece sampled for its azimuth about the axis: generic curves and tilted arcs
_NEXT, _NEXT2 = np.array([1, 2, 0]), np.array([2, 0, 1])  # each 3-vector component's index plus one, plus two


def _unit(v, name) -> tuple:
    """The 3-vector v over its norm, as a tuple of floats; DomainError unless v is a finite nonzero 3-vector."""
    v = to_floats(v)
    # math.hypot takes the norm without squaring, so a huge or tiny v neither overflows nor underflows
    if v.shape != (3,) or not (0.0 < (norm := math.hypot(*v.tolist())) < math.inf):
        raise DomainError(f"{name} must be a finite nonzero 3-vector")
    return tuple(c / norm for c in v.tolist())


def _point(p, name, error=GeometryError) -> tuple:
    """p as a tuple of three floats; ``error`` naming it unless p is a 3-vector."""
    p = to_floats(p)
    if p.shape != (3,):
        raise error(f"{name} must be a 3-vector")
    return tuple(p.tolist())


def finite_flux(flux):
    """The check, for ``raise_first``, that a flux, a float or an array, is finite."""
    return np.logical_not(abs(flux) < math.inf), DomainError, "flux must be finite"


@dataclass(frozen=True)
class SolenoidSpec:
    """Ideal infinite solenoid: total flux, coil radius, and axis placement."""

    flux: float
    radius: float
    axis_point: tuple = (0.0, 0.0, 0.0)
    axis_direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        read_floats(self, "flux", "radius")  # a str that spells a number is that number, an int past the doubles an infinity
        positive = (np.logical_not(self.radius > 0.0), DomainError, "radius must be positive")
        raise_first(positive, (self.radius == math.inf, DomainError, "radius must be finite"), finite_flux(self.flux))
        object.__setattr__(self, "axis_point", _point(self.axis_point, "axis point", DomainError))
        raise_first((not all(map(math.isfinite, self.axis_point)), DomainError, "axis point must be finite"))
        object.__setattr__(self, "axis_direction", _unit(self.axis_direction, "axis direction"))

    def radial(self, point) -> np.ndarray:
        """The part of point - axis_point normal to the axis, for a 3-vector or an (..., 3) array."""
        rel = np.asarray(point, dtype=float) - np.asarray(self.axis_point)
        d = np.asarray(self.axis_direction)
        return rel - (rel * d).sum(axis=-1)[..., None] * d

    def axial_decomposition(self, point):
        """Split point - axis_point into (radial vector, radial distance).

        ``point`` is a 3-vector, giving a float distance, or an (..., 3)
        array, giving an (...) array of distances.
        """
        radial = self.radial(point)
        rho = np.linalg.norm(radial, axis=-1)
        return radial, (float(rho) if rho.ndim == 0 else rho)


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


@dataclass(frozen=True)
class Segment:
    """One smooth generic piece: s in [0, 1] -> R^3, with analytic tangent.

    Both callables must accept a 1D array of parameters and return an
    (n, 3) array. Straight pieces and circular arcs are ``Line`` and ``Arc``
    records instead, which ``loop_geometry`` takes in closed form.
    """

    point: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]

    def reversed(self) -> "Segment":
        fwd_point, fwd_tangent = self.point, self.tangent
        return Segment(
            point=lambda s: fwd_point(1.0 - np.asarray(s, dtype=float)),
            tangent=lambda s: -fwd_tangent(1.0 - np.asarray(s, dtype=float)),
        )


class Line(NamedTuple):
    """A straight piece from ``start`` to ``end``, each a tuple of three floats; reversal swaps them."""

    start: tuple
    end: tuple

    def point(self, s):
        return np.asarray(self.start) + np.outer(s, np.subtract(self.end, self.start))

    def tangent(self, s):
        return np.tile(np.subtract(self.end, self.start), (np.size(s), 1))

    def reversed(self) -> "Line":
        return Line(self.end, self.start)


class Arc(NamedTuple):
    """A circular arc in the plane z = center_z, from angle ``theta0`` to ``theta1`` (radians) about ``center``.

    ``checks``, ``length`` and ``loop_geometry`` also read an arc whose
    radius is an array, a column of circles. Reversal swaps the end angles;
    ``checks`` validates an arc, whoever builds it.
    """

    center: tuple
    radius: float
    theta0: float
    theta1: float

    def point(self, s):
        cx, cy, cz = self.center
        th = self.theta0 + np.asarray(s, dtype=float) * (self.theta1 - self.theta0)
        return np.column_stack(
            [cx + self.radius * np.cos(th), cy + self.radius * np.sin(th), np.full(th.size, cz)]
        )

    def tangent(self, s):
        sweep = self.theta1 - self.theta0
        th = self.theta0 + np.asarray(s, dtype=float) * sweep
        return np.column_stack(
            [-self.radius * sweep * np.sin(th), self.radius * sweep * np.cos(th), np.zeros(th.size)]
        )

    def reversed(self) -> "Arc":
        return self._replace(theta0=self.theta1, theta1=self.theta0)

    def length(self):
        """The exact length radius |theta1 - theta0|, an array for an array of radii."""
        return self.radius * abs(self.theta1 - self.theta0)

    def checks(self):
        """The checks, for ``raise_first``, that the arc is valid, an entry per radius for an array of radii.

        An arc is valid where the radius is positive, |center| + radius, the
        length and both end angles are finite (an int past the doubles is not),
        which bounds every point and tangent, and the length is positive.
        """
        (cx, cy, cz), radius, theta0, theta1 = self
        try:
            length = self.length() * 1.0  # a float: an int length past the doubles overflows here
            size = math.hypot(cx, cy, cz) + radius
            angles = math.isfinite(theta0) and math.isfinite(theta1)
            finite = (abs(size) < math.inf) & (abs(length) < math.inf) & angles
        except OverflowError:  # an int past the doubles, in an Arc built directly
            length, finite = math.inf, False
        return (
            (np.logical_not(radius > 0.0), GeometryError, _NONPOSITIVE_RADIUS),
            (np.logical_not(finite), GeometryError, _NON_FINITE),
            (np.logical_not(length > 0.0), GeometryError, _VANISHING),
        )

    def ends(self):
        """The start and end points, for finite end angles; an arc of whole turns ends exactly at its start."""
        (cx, cy, cz), radius, theta0, theta1 = self
        start, end = ((cx + radius * math.cos(t), cy + radius * math.sin(t), cz) for t in (theta0, theta1))
        return start, (start if _whole_turns(theta1 - theta0) else end)


def _whole_turns(sweep) -> bool:
    """Whether a finite sweep is a whole number of turns: within one ulp of a multiple of 2 pi."""
    # math.remainder is exact, and 2 pi w rounds to within half an ulp of a multiple of 2 pi: every circle passes
    return abs(math.remainder(sweep, 2.0 * math.pi)) <= math.ulp(sweep)


def line_segment(start, end) -> Line:
    line = Line(_point(start, "segment start"), _point(end, "segment end"))
    if line.start == line.end:  # exact: a step too short to square is still a step
        raise GeometryError("degenerate segment: start equals end")
    return line


def arc_segment(center, radius, theta0, theta1) -> Arc:
    """Circular arc in the plane z = center_z, angles in radians about the center; GeometryError unless ``Arc.checks`` pass."""
    arc = Arc(_point(center, "arc center"), to_float(radius), to_float(theta0), to_float(theta1))
    raise_first(*arc.checks())
    return arc


_NON_FINITE = "segment has non-finite points or tangents"
_VANISHING = "segment tangent vanishes somewhere on [0, 1]"
_NONPOSITIVE_RADIUS = "radius must be positive"
_OPEN = "path marked closed but endpoints differ by {:.3e}"
_ONE_ARC = "a column of radii needs a loop of one arc normal to the solenoid axis"


def circle_arc(loop, radius):
    """The ``Arc`` of ``loop``, a circle of one arc, with ``radius`` (a float or an array) in place of its own."""
    if len(loop.segments) != 1 or not isinstance(loop.segments[0], Arc):
        raise GeometryError(_ONE_ARC)
    return loop.segments[0]._replace(radius=radius)


def _broken(gap, tol):
    """Where a gap breaks a path: not below tol and not exactly 0, which joins even when tol underflows to 0."""
    return (gap >= tol) & (gap > 0.0)


def _check_lines(ends: np.ndarray) -> np.ndarray:
    """The lengths of a (k, 2, 3) array of line ends; raise GeometryError if some line is not valid.

    A line is valid if its ends are finite and distinct, with a finite step.
    The first invalid line raises the error of its first failing check.
    """
    start, end = ends[:, 0], ends[:, 1]
    finite = np.isfinite(ends).all(axis=(1, 2)) & np.isfinite(end - start).all(axis=1)
    raise_first(
        (np.logical_not(finite), GeometryError, _NON_FINITE),
        ((start == end).all(axis=1), GeometryError, _VANISHING),
    )
    return _gaps(start, end)


def _measure(seg):
    """(start and end points, length scale) of an arc or a generic curve; raise GeometryError if it is not valid.

    An ``Arc`` is checked from its record (``Arc.checks``) and not called.
    A generic curve is checked by ``_samples`` at 64 points, and its scale is
    the mean sampled speed; arcs report None, their exact length being taken
    by ``LoopPath``.
    """
    if isinstance(seg, Arc):
        if len(seg.center) != 3:  # an Arc built directly: its center raises as in arc_segment
            _point(seg.center, "arc center")
        raise_first(*seg.checks())
        return seg.ends(), None
    points, _, speed = _samples(seg, np.linspace(0.0, 1.0, _VALIDATION_SAMPLES))
    return (points[0], points[-1]), float(np.mean(speed))


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between rows of two (k, 3) point arrays, without squaring (so no overflow)."""
    d = b - a
    return np.hypot(np.hypot(d[:, 0], d[:, 1]), d[:, 2])


@dataclass(frozen=True)
class LoopPath:
    """Ordered smooth pieces forming a (usually closed) contour.

    Construction validates the pieces, all lines first in one array call
    (``_check_lines``), then each arc and generic curve in path order (see
    ``_measure``: arcs from their record, generic curves on a 64-point
    sample), then junction continuity, and, for closed paths, overall
    closure. Gaps are measured against the path's length scale: the exact
    length of each line and arc plus the mean sampled speed of each generic
    curve. Unlike the spread of the points, it cannot collapse when a
    many-turn arc returns to the same point.

    The construction also records ``ends``, the (k, 2, 3) read-only array of
    each segment's start and end points, and ``length``, the exact length,
    or None when some segment is a generic curve.
    """

    segments: tuple
    closed: bool = True
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    length: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise GeometryError("path needs at least one segment")
        lines = [seg for seg in segments if isinstance(seg, Line)]
        others = [seg for seg in segments if not isinstance(seg, Line)]
        bad = next((line for line in lines if len(line.start) != 3 or len(line.end) != 3), None)
        if bad is not None:  # a Line built directly: its first point that is not a 3-vector raises as in line_segment
            _point(bad.start, "segment start")
            _point(bad.end, "segment end")
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported as non-finite or as a gap
            ends = to_floats([(*line.start, *line.end) for line in lines]).reshape(-1, 2, 3)  # flat rows convert faster
            chords = float(_check_lines(ends).sum()) if lines else 0.0
            measured = [_measure(seg) for seg in others]
            if others:
                other_ends = np.reshape([seg_ends for seg_ends, _ in measured], (-1, 2, 3))
                line_ends, ends = ends, (np.empty((len(segments), 2, 3)) if lines else other_ends)
                if lines:  # a mixed loop: each kind's ends go back to their places in path order
                    is_line = np.array([isinstance(seg, Line) for seg in segments])
                    ends[is_line], ends[~is_line] = line_ends, other_ends
            exact = chords + sum(seg.length() for seg in others if isinstance(seg, Arc))
            sampled = [scale for _, scale in measured if scale is not None]
            tol = 1e-12 * (exact + sum(sampled))
            # each segment's end against the next one's start, the last against the first: junctions, then closure
            gaps = _gaps(ends[:, 1], np.concatenate([ends[1:, 0], ends[:1, 0]]))
            junctions, closure = gaps[:-1], gaps[-1]
        broken = np.flatnonzero(_broken(junctions, tol))
        if broken.size:
            raise GeometryError(f"segments do not join continuously (gap {junctions[broken[0]]:.3e})")
        if self.closed and _broken(closure, tol):
            raise GeometryError(_OPEN.format(closure))
        ends.flags.writeable = False
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "length", None if sampled else exact)

    def reverse(self) -> "LoopPath":
        return LoopPath(tuple(seg.reversed() for seg in reversed(self.segments)), closed=self.closed)


def circle_loop(center=(0.0, 0.0, 0.0), radius=1.0, windings=1) -> LoopPath:
    """Circle in the z = center_z plane from angle 0, traversed ``windings`` times (sign = orientation)."""
    w = int(windings) if abs(windings) < math.inf else 0  # inf and nan are not integers either
    if w != windings or w == 0:
        raise GeometryError("windings must be a nonzero integer")
    # past about 2**1021 turns the sweep overflows to inf, which LoopPath rejects as non-finite
    return LoopPath((Arc(_point(center, "arc center"), to_float(radius), 0.0, 2.0 * math.pi * to_float(w)),))


def _check_distinct(points: np.ndarray, name: str):
    """Reject a closed point list in which some point equals the next one, cyclically."""
    repeats = (points == np.concatenate([points[1:], points[:1]])).all(axis=1)
    if repeats.any():
        raise GeometryError(f"{name} repeat consecutively at index {repeats.argmax()}")


def rectangle_loop(corners) -> LoopPath:
    corners = to_floats(corners)
    if corners.shape != (4, 3):
        raise GeometryError("corners must list exactly four 3D points")
    _check_distinct(corners, "corners")
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing corners fail LoopPath's finiteness check
        # edges in units of a power of 2 near the largest, as in ``_unit_scale``: the normal and the
        # planarity test neither underflow nor overflow, and each decision equals that of the raw edges
        (edges,), (power,) = _unit_scale((np.concatenate([corners[1:], corners[:1]]) - corners)[None])
        # the first two edges' cross product written out, in np.cross's operations; its norm is np.linalg.norm's
        (a0, a1, a2), (b0, b1, b2) = edges[:2].tolist()
        normal = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
        norm = math.sqrt(normal @ normal)
        if norm == 0.0:
            raise GeometryError("corners are collinear")
        scale = float(abs(corners - corners[0]).max()) or 1.0
        if abs(-edges[3] @ normal) > 1e-9 * (scale / power) * norm:
            raise GeometryError("corners are not planar")
    return _closed_polyline(corners)


def polyline_loop(vertices) -> LoopPath:
    vertices = to_floats(vertices)
    if vertices.ndim != 2 or vertices.shape[0] < 3 or vertices.shape[1] != 3:
        raise GeometryError("vertices must list at least three 3D points")
    _check_distinct(vertices, "vertices")
    return _closed_polyline(vertices)


def _closed_polyline(vertices: np.ndarray) -> LoopPath:
    """The closed path of lines through an (n, 3) float array of vertices whose shape and repeats are already checked."""
    points = list(map(tuple, vertices.tolist()))
    return LoopPath(tuple(map(Line, points, points[1:] + points[:1])))


def make_loop(kind: str, **params) -> LoopPath:
    """Dispatch constructor: kind in {'circle', 'rectangle', 'polyline'}."""
    builders = {"circle": circle_loop, "rectangle": rectangle_loop, "polyline": polyline_loop}
    if kind not in builders:
        raise GeometryError(f"unknown loop kind {kind!r}")
    return builders[kind](**params)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order per segment and the refinement policy."""

    nodes_per_segment: int = 16
    refinement: str = "fixed"  # 'fixed' or 'doubling'
    tolerance: float = 1e-10

    def __post_init__(self):
        n = self.nodes_per_segment  # the fine rule, 2n nodes, must be within the cap; True fails the range
        if not (isinstance(n, (int, np.integer)) and 4 <= n <= _MAX_NODES_PER_SEGMENT // 2):
            raise DomainError(f"nodes_per_segment must be an integer in [4, {_MAX_NODES_PER_SEGMENT // 2}]")
        if self.refinement not in ("fixed", "doubling"):
            raise DomainError("refinement must be 'fixed' or 'doubling'")
        if not (self.tolerance > 0.0):
            raise DomainError("tolerance must be positive")


@dataclass(frozen=True)
class IntegralResult:
    """A loop integral by quadrature: its value, its node-doubling error and the nodes per segment it ended on."""

    value: float
    error_estimate: float
    nodes_per_segment: int


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


def _unit_scale(radial: np.ndarray):
    """(radial / scale, scale) of (k, m, 3) vectors; each of the k groups' scale is a power of 2 near its largest entry.

    Dividing by a power of 2 is exact, so products of the scaled vectors,
    whose largest entry lies in [1, 2), neither overflow nor underflow, and
    ratios and angles formed from them equal those of the raw vectors bit for
    bit whenever the raw products are representable.
    """
    _, exponent = np.frexp(abs(radial).max(axis=(1, 2)))
    scale = np.ldexp(1.0, exponent - 1)
    return radial / scale[:, None, None], scale


def _lines_about_axis(ends: np.ndarray, spec: SolenoidSpec):
    """(least distance from the axis, swept azimuth) of each straight segment with these (k, 2, 3) ends, as (k,) arrays.

    From the endpoints' radial vectors in units of their ``_unit_scale``: the
    offset r_a + t r_delta is least at t* = -r_a . r_delta / |r_delta|^2,
    clamped to [0, 1], and the azimuth is the atan2 angle from r_a to r_b.
    """
    unit, scale = _unit_scale(spec.radial(ends))
    r_a, r_delta = unit[:, 0], unit[:, 1] - unit[:, 0]
    length_sq = (r_delta * r_delta).sum(axis=1)
    t = np.divide(-(r_a * r_delta).sum(axis=1), length_sq, out=np.zeros_like(length_sq), where=length_sq > 0.0)
    closest = r_a + np.minimum(np.maximum(t, 0.0), 1.0)[:, None] * r_delta
    # a x b of each line's end vectors a, b as np.cross forms it, from their components shifted by one and by two
    nxt, nxt2 = unit.take(_NEXT, axis=2), unit.take(_NEXT2, axis=2)
    normal = nxt[:, 0] * nxt2[:, 1] - nxt2[:, 0] * nxt[:, 1]
    angle = np.arctan2(normal @ np.asarray(spec.axis_direction), (unit[:, 0] * unit[:, 1]).sum(axis=1))
    return np.sqrt((closest * closest).sum(axis=1)) * scale, angle


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


def _arc_about_axis(arc, spec: SolenoidSpec):
    """(closest approach, swept azimuth) of an arc whose plane is normal to the solenoid axis.

    The radius is a float or an array of them, and so is each result, with
    an entry per radius: one closed form, through the same ufuncs, for one
    circle and for a column. The azimuth is the sweep about an axis inside the
    circle plus the difference of two atan2 end terms, each of positive real
    part, so within (-pi/2, pi/2) and with no unwrapping needed.
    """
    (cx, cy, _), radius, theta0, theta1 = arc
    sweep = theta1 - theta0
    facing = spec.axis_direction[2]  # +1 or -1: the arc's plane normal, seen along the axis
    ax, ay = spec.axis_point[0] - cx, spec.axis_point[1] - cy  # axis foot P relative to the center c
    offset, bearing = math.hypot(ax, ay), math.atan2(ay, ax)
    # |P - c| - r is attained where P's azimuth about c falls inside the sweep; otherwise at an end
    if abs(sweep) >= 2.0 * math.pi or offset == 0.0 or (bearing - min(theta0, theta1)) % (2.0 * math.pi) <= abs(sweep):
        clearance = abs(offset - radius)
    else:
        clearance = np.minimum(*(np.hypot(radius * math.cos(t) - ax, radius * math.sin(t) - ay) for t in (theta0, theta1)))
    # With d = offset, psi = t - bearing: the point at angle t less P is e^(it) (r - d e^(-i psi)) inside (d < r)
    # and -e^(i bearing) (d - r e^(i psi)) outside, so its azimuth about P is, up to a constant, t inside plus
    # end(t) = atan2(+-small sin psi, big - small cos psi), big and small the larger and smaller of r and d
    # (d = r puts P on the circle). Swapping the ends negates the difference exactly; whole turns skip it.
    inside, end_terms = offset < radius, 0.0
    if not _whole_turns(sweep):
        big, small = np.maximum(radius, offset), np.minimum(radius, offset)
        side = np.where(inside, small, -small)
        start, end = (np.arctan2(side * math.sin(t - bearing), big - small * math.cos(t - bearing)) for t in (theta0, theta1))
        end_terms = end - start
    return clearance, facing * (inside * sweep + end_terms)


class LoopGeometry(NamedTuple):
    """What a phase needs of one loop about one coil, whatever the particle, flux and coupling.

    ``turns`` is the azimuth the loop sweeps about the axis over 2 pi, the
    flux phase per unit charge and flux, in closed form; ``turns_error`` is
    the rounding bound of the sampled pieces, 0.0 with none. ``clearance`` is
    the least distance from the axis, ``coil_radius`` the coil's radius.
    ``length`` is exact for lines and arcs plus the integrated length of
    generic curves, whose error alone is ``length_error``; ``displacement``
    is the end-to-end step, None on closed paths. With no coil, the turns
    are 0.0, exact, the clearance inf and the coil radius 0.0; over a column
    of radii, each field that the radius changes is an array.
    """

    turns: float | np.ndarray
    turns_error: float
    clearance: float | np.ndarray
    coil_radius: float
    length: float | np.ndarray
    length_error: float
    displacement: np.ndarray | None


def loop_geometry(loop: LoopPath, spec: SolenoidSpec | None, quad: QuadratureSpec | None = None, radius=None) -> LoopGeometry:
    """The loop's ``LoopGeometry`` about the coil ``spec``, or with no coil if it is None; quadrature only for lengths.

    A line sweeps the atan2 angle between its endpoints' radial vectors, an
    arc whose plane is normal to the axis the closed form of
    ``_arc_about_axis``, and each other piece, a generic curve or a tilted
    arc, the lines' angles over the chords of its samples, in any loop. The
    clearance is the least of the same closed forms. ``quad`` changes only
    the length of generic curves and its error.

    An array ``radius`` makes a column of circles: the loop must be one arc,
    normal to the axis if there is a coil, each entry is taken as its radius
    (valid where ``Arc.checks`` of ``circle_arc(loop, radius)`` pass), and
    the record holds an entry per radius. ``quad`` must be None or a
    ``QuadratureSpec``, else DomainError, even where nothing is integrated.
    """
    if quad is not None and not isinstance(quad, QuadratureSpec):
        raise DomainError("quad must be a QuadratureSpec")
    column = None if radius is None else circle_arc(loop, radius)
    is_line = [isinstance(seg, Line) for seg in loop.segments]
    turns, turns_error, clearance, coil_radius = 0.0, 0.0, math.inf, 0.0
    if spec is not None:
        along_z = spec.axis_direction[0] == 0.0 and spec.axis_direction[1] == 0.0  # arcs lie in planes z = const
        raise_first((column is not None and not along_z, GeometryError, _ONE_ARC))
        arcs = [seg for seg in loop.segments if isinstance(seg, Arc) and along_z] if column is None else [column]
        swept, rho = 0.0, []
        if any(is_line):  # no index into the ends for a loop of arcs, nor for a loop of lines
            lines_rho, angles = _lines_about_axis(loop.ends if all(is_line) else loop.ends[is_line], spec)
            rho.append(float(lines_rho.min()))
            swept += float(angles.sum())
        for arc in arcs:
            arc_clearance, angle = _arc_about_axis(arc, spec)
            rho.append(arc_clearance)
            swept += angle
        for k, seg in enumerate(loop.segments):  # generic curves and arcs tilted to the axis, in path order
            if not (is_line[k] or (along_z and isinstance(seg, Arc))):
                piece_rho, angle, rounding = _sampled_about_axis(seg, spec, k)
                rho.append(piece_rho)
                swept, turns_error = swept + angle, turns_error + rounding / (2.0 * math.pi)
        clearance, coil_radius, turns = min(rho), spec.radius, swept / (2.0 * math.pi)
    length, length_error = (loop.length if column is None else column.length()), 0.0
    if length is None:  # the exact chords and arc lengths, plus the integrated length of the generic curves
        ends = loop.ends[is_line]
        result = _quadrature(_speed, [seg for seg in loop.segments if not isinstance(seg, (Line, Arc))], quad)
        exact = float(_gaps(ends[:, 0], ends[:, 1]).sum()) + sum(seg.length() for seg in loop.segments if isinstance(seg, Arc))
        length, length_error = exact + result.value, result.error_estimate
    displacement = None if loop.closed else loop.ends[-1, 1] - loop.ends[0, 0]
    return LoopGeometry(turns, turns_error, clearance, coil_radius, length, length_error, displacement)
