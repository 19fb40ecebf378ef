import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from helpers import (
    fourier_loop,
    random_polynomial_gauge,
    reference_geometry_of_lines,
    reference_loop_of_lines,
    riemann_circulation,
    strip_shape,
)
from gupab import field_geometry
from gupab.errors import DomainError, FieldEvaluationError, GeometryError, GupabError, SingularInputError
from gupab.field_geometry import (
    Arc,
    Line,
    LoopPath,
    QuadratureSpec,
    Segment,
    SolenoidSpec,
    arc_segment,
    circle_loop,
    gauge_shift,
    line_integral,
    line_segment,
    loop_geometry,
    loop_length,
    make_loop,
    polyline_loop,
    rectangle_loop,
    solenoid_circulation,
    solenoid_field,
    solenoid_vector_potential,
)

DOUBLING = QuadratureSpec(refinement="doubling", tolerance=1e-12)


def test_solenoid_potential_worked_value():
    # Stokes oracle: circulation on the unit circle must equal the flux 2 pi,
    # and at (1, 0, 0) the outside formula gives exactly (0, 1, 0).
    spec = SolenoidSpec(flux=2.0 * math.pi, radius=0.1)
    assert np.allclose(solenoid_vector_potential((1.0, 0.0, 0.0), spec), [0.0, 1.0, 0.0], atol=1e-15)
    circulation = line_integral(solenoid_field(spec), circle_loop(radius=1.0), DOUBLING)
    assert circulation.value == pytest.approx(2.0 * math.pi, abs=1e-10)


def test_solenoid_potential_continuous_at_coil():
    spec = SolenoidSpec(flux=0.7, radius=0.5)
    point = (0.5, 0.0, 1.3)
    outside = spec.flux / (2.0 * math.pi * 0.5)
    value = solenoid_vector_potential(point, spec)
    assert np.allclose(value, [0.0, outside, 0.0], atol=1e-14)
    inner = solenoid_vector_potential((0.5 - 1e-13, 0.0, 0.0), spec)
    outer = solenoid_vector_potential((0.5 + 1e-13, 0.0, 0.0), spec)
    assert np.max(np.abs(inner - outer)) < 1e-13


def test_solenoid_zero_flux():
    spec = SolenoidSpec(flux=0.0, radius=0.2)
    assert np.array_equal(solenoid_vector_potential((0.4, 0.3, -2.0), spec), np.zeros(3))


def test_solenoid_on_axis_rejected():
    spec = SolenoidSpec(flux=1.0, radius=0.2)
    with pytest.raises(SingularInputError):
        solenoid_vector_potential((0.0, 0.0, 5.0), spec)


def test_solenoid_general_axis():
    # same Stokes oracle, but for a tilted displaced axis
    direction = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    origin = np.array([1.0, 2.0, 3.0])
    spec = SolenoidSpec(flux=0.9, radius=0.05, axis_point=tuple(origin), axis_direction=tuple(direction))
    e1 = np.array([0.0, 0.0, 1.0])
    e2 = np.cross(direction, e1)

    def point(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        th = 2.0 * math.pi * s
        return origin + 1.5 * (np.outer(np.cos(th), e1) + np.outer(np.sin(th), e2))

    def tangent(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        th = 2.0 * math.pi * s
        return 2.0 * math.pi * 1.5 * (np.outer(-np.sin(th), e1) + np.outer(np.cos(th), e2))

    loop = LoopPath((Segment(point, tangent),))
    result = line_integral(solenoid_field(spec), loop, DOUBLING)
    assert abs(abs(result.value) - 0.9) < 1e-9


def test_gauge_shift_exact_gradient():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    loop = circle_loop(radius=1.0)
    base = line_integral(solenoid_field(spec), loop, DOUBLING).value
    shifted_field = gauge_shift(solenoid_field(spec), lambda p: np.array([1.0, 0.0, 0.0]))
    shifted = line_integral(shifted_field, loop, DOUBLING).value
    assert abs(shifted - base) < 1e-12


def test_gauge_shift_polynomial():
    # chi = x^2 y, grad chi = (2xy, x^2, 0)
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    loop = circle_loop(radius=2.0)
    base = line_integral(solenoid_field(spec), loop, DOUBLING)
    shifted_field = gauge_shift(
        solenoid_field(spec), lambda p: np.array([2.0 * p[0] * p[1], p[0] ** 2, 0.0])
    )
    shifted = line_integral(shifted_field, loop, DOUBLING)
    assert abs(shifted.value - base.value) < 1e-10


def test_gauge_shift_zero_gradient_is_identity():
    field = solenoid_field(SolenoidSpec(flux=1.0, radius=0.1))
    shifted = gauge_shift(field, lambda p: np.zeros(3))
    point = np.array([0.7, -0.4, 0.2])
    assert np.array_equal(shifted(point), field(point))


def test_gauge_invariance_random_polynomials():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    field = solenoid_field(spec)
    rng = np.random.default_rng(43)
    loops = [
        circle_loop(radius=2.0),
        circle_loop(radius=1.5, windings=2),
        rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]),
        fourier_loop(rng),
        polyline_loop([(2, 0, 0), (0, 2, 0), (-2, -1, 0)]),
    ]
    base = [line_integral(field, loop, DOUBLING).value for loop in loops]
    for _ in range(20):
        _, grad = random_polynomial_gauge(rng)
        for loop, reference in zip(loops, base):
            shifted = line_integral(gauge_shift(field, grad), loop, DOUBLING).value
            assert abs(shifted - reference) <= 1e-9


def test_circle_loop_circumference():
    length = loop_length(circle_loop(radius=2.0), DOUBLING)
    assert length.value == pytest.approx(4.0 * math.pi, abs=1e-10)


def test_circle_reversed_windings_negate_integrals():
    field = solenoid_field(SolenoidSpec(flux=1.0, radius=0.1))
    forward = line_integral(field, circle_loop(radius=2.0, windings=1), DOUBLING).value
    backward = line_integral(field, circle_loop(radius=2.0, windings=-1), DOUBLING).value
    assert forward == pytest.approx(-backward, rel=1e-12)


def test_rectangle_perimeter_exact():
    loop = rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)])
    assert loop_length(loop).value == pytest.approx(8.0, abs=1e-12)


def test_degenerate_loops_rejected():
    with pytest.raises(GeometryError):
        circle_loop(radius=0.0)
    with pytest.raises(GeometryError):
        circle_loop(radius=1.0, windings=0)
    with pytest.raises(GeometryError):
        circle_loop(radius=1.0, windings=1.5)
    with pytest.raises(GeometryError):
        rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0)])
    with pytest.raises(GeometryError):
        rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 1.0), (1, -1, 0)])
    with pytest.raises(GeometryError):
        polyline_loop([(0, 0, 0), (0, 0, 0), (1, 1, 0)])
    with pytest.raises(GeometryError):
        make_loop("helix", radius=1.0)
    # the messages of the pieces themselves; an arc's are those of Arc.checks, whoever builds it
    pieces = [
        (lambda: line_segment((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)), "degenerate segment: start equals end"),
        (lambda: LoopPath(()), "path needs at least one segment"),
        (lambda: arc_segment((0.0, 0.0, 0.0), 0.0, 0.0, 1.0), "radius must be positive"),
        (lambda: arc_segment((0.0, 0.0, 0.0), -1.0, 0.0, 1.0), "radius must be positive"),
        (lambda: arc_segment((0.0, 0.0, 0.0), -(10**400), 0.0, 1.0), "radius must be positive"),
        (lambda: circle_loop(radius=-(10**400)), "radius must be positive"),
        # an int beyond the doubles converts to the infinity of its sign, so a positive one is non-finite
        (lambda: circle_loop(radius=10**400), "segment has non-finite points or tangents"),
        (lambda: arc_segment((0.0, 0.0, 0.0), 10**400, 0.0, 1.0), "segment has non-finite points or tangents"),
        (lambda: arc_segment((0.0, 0.0, 0.0), 1.0, 0.0, 10**400), "segment has non-finite points or tangents"),
        # so does a coordinate of a center, a vertex, a corner or an end
        (lambda: circle_loop(center=(10**400, 0, 0)), "segment has non-finite points or tangents"),
        (lambda: polyline_loop([(10**400, 0, 0), (0, 1, 0), (1, 1, 0)]), "segment has non-finite points or tangents"),
        (lambda: rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -(10**400), 0), (1, -1, 0)]), "segment has non-finite points or tangents"),
        (lambda: LoopPath((line_segment((10**400, 0, 0), (0, 1, 0)),), closed=False), "segment has non-finite points or tangents"),
        (lambda: arc_segment((0.0, 0.0, 0.0), math.nan, 0.0, 1.0), "radius must be positive"),
        (lambda: arc_segment((0.0, 0.0, 0.0), 1.0, 0.5, 0.5), "segment tangent vanishes somewhere on [0, 1]"),
        (lambda: LoopPath((Arc((0.0, 0.0, 0.0), -1.0, 0.0, 2.0 * math.pi),)), "radius must be positive"),
        # records built directly with an int beyond the doubles: as the builders report it, never an OverflowError
        (lambda: LoopPath((Arc((10**400, 0, 0), 1.0, 0.0, 2.0 * math.pi),)), "segment has non-finite points or tangents"),
        (lambda: LoopPath((Line((10**400, 0, 0), (0, 1, 0)),), closed=False), "segment has non-finite points or tangents"),
        (lambda: LoopPath((Arc((0.0, 0.0, 0.0), 10**400, 0.0, 2.0 * math.pi),)), "segment has non-finite points or tangents"),
        (lambda: LoopPath((Arc((0.0, 0.0, 0.0), -(10**400), 0.0, 2.0 * math.pi),)), "radius must be positive"),
        (lambda: LoopPath((Arc((0.0, 0.0, 0.0), 1.0, 0.0, 10**400),)), "segment has non-finite points or tangents"),
        (lambda: LoopPath((Arc((0, 0, 0), 10**200, 0, 10**200),), closed=False), "segment has non-finite points or tangents"),
    ]
    for build, message in pieces:
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            build()


def test_loop_closure_validated():
    with pytest.raises(GeometryError):
        LoopPath((line_segment((0, 0, 0), (1, 0, 0)),), closed=True)
    # the same single segment is fine as an open path
    LoopPath((line_segment((0, 0, 0), (1, 0, 0)),), closed=False)


def test_vanishing_tangent_rejected():
    def point(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.column_stack([s * s, np.zeros(s.size), np.zeros(s.size)])

    def tangent(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.column_stack([2.0 * s, np.zeros(s.size), np.zeros(s.size)])

    with pytest.raises(GeometryError, match=f"^{re.escape('segment tangent vanishes somewhere on [0, 1]')}$"):
        LoopPath((Segment(point, tangent),), closed=False)
    flat = Segment(lambda s: point(s)[:, :2], lambda s: tangent(s)[:, :2])
    with pytest.raises(GeometryError, match=f"^{re.escape('segment callables must map (n,) parameters to (n, 3) arrays')}$"):
        LoopPath((flat,), closed=False)
    undefined = Segment(lambda s: np.full((np.size(s), 3), np.nan), lambda s: np.ones((np.size(s), 3)))
    with pytest.raises(GeometryError, match="^segment has non-finite points or tangents$"):
        LoopPath((undefined,), closed=False)


def test_constant_field_closed_loop_vanishes():
    field = lambda p: np.array([1.0, 0.0, 0.0])
    for loop in (circle_loop(radius=1.3), rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)])):
        assert abs(line_integral(field, loop).value) < 1e-12


def test_rotation_field_greens_theorem():
    # Green's theorem oracle: circulation of (-y, x, 0) = twice the enclosed area
    field = lambda p: np.array([-p[1], p[0], 0.0])
    result = line_integral(field, circle_loop(radius=1.0), DOUBLING)
    assert result.value == pytest.approx(2.0 * math.pi, abs=1e-10)


def test_solenoid_circulation_equals_flux():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    result = line_integral(solenoid_field(spec), circle_loop(radius=2.0), DOUBLING)
    assert result.value == pytest.approx(1.0, abs=1e-10)


def test_path_independence_same_winding():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    field = solenoid_field(spec)
    rng = np.random.default_rng(47)
    loops = [
        circle_loop(radius=2.0),
        circle_loop(radius=0.5),
        rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]),
        fourier_loop(rng),
        fourier_loop(rng, z_amplitude=0.3),
    ]
    values = [line_integral(field, loop, DOUBLING).value for loop in loops]
    for value in values[1:]:
        assert abs(value - values[0]) / abs(values[0]) <= 1e-9


def test_orientation_reversal_negates():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    field = solenoid_field(spec)
    rng = np.random.default_rng(53)
    for loop in (circle_loop(radius=2.0), fourier_loop(rng)):
        forward = line_integral(field, loop).value
        backward = line_integral(field, loop.reverse()).value
        assert abs(forward + backward) <= 1e-14 * max(1.0, abs(forward))


def test_concatenated_loops_add():
    field = lambda p: np.array([-p[1], p[0], 0.0])
    big = circle_loop(radius=2.0)  # starts at (2, 0, 0)
    small = circle_loop(center=(1.5, 0.0, 0.0), radius=0.5)  # also starts at (2, 0, 0)
    combined = LoopPath(big.segments + small.segments)
    quad = QuadratureSpec(nodes_per_segment=64)
    total = line_integral(field, combined, quad).value
    parts = line_integral(field, big, quad).value + line_integral(field, small, quad).value
    assert abs(total - parts) <= 1e-12


def test_quadrature_error_decreases_monotonically():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    field = solenoid_field(spec)
    loop = fourier_loop(np.random.default_rng(59))
    errors = [
        line_integral(field, loop, QuadratureSpec(nodes_per_segment=n)).error_estimate
        for n in (8, 16, 32, 64, 128, 256)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse or fine < 1e-12


def test_refinement_reaches_tolerance():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    loop = fourier_loop(np.random.default_rng(61))
    result = line_integral(solenoid_field(spec), loop, QuadratureSpec(8, "doubling", 1e-11))
    assert result.error_estimate < 1e-11
    assert result.nodes_per_segment <= 1024


def test_line_integral_matches_riemann_oracle():
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    field = solenoid_field(spec)
    loop = fourier_loop(np.random.default_rng(67))
    oracle = riemann_circulation(field, loop, nodes=20000)
    result = line_integral(field, loop, DOUBLING)
    assert result.value == pytest.approx(oracle, abs=1e-8)


def test_non_finite_field_reported_with_parameter():
    def field(p):
        if p[0] > 0.0:
            return np.array([math.nan, 0.0, 0.0])
        return np.zeros(3)

    with pytest.raises(FieldEvaluationError) as info:
        line_integral(field, circle_loop(radius=1.0))
    assert info.value.parameter is not None
    assert 0.0 <= info.value.parameter <= 1.0


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(nodes_per_segment=2)
    with pytest.raises(DomainError):
        QuadratureSpec(refinement="adaptive")
    with pytest.raises(DomainError):
        QuadratureSpec(tolerance=0.0)
    # capped by value, so that no rule past the doubling cap is built; never integrated with here
    assert QuadratureSpec(nodes_per_segment=512).nodes_per_segment == 512
    assert QuadratureSpec(nodes_per_segment=np.int64(16)).nodes_per_segment == 16
    for nodes in (3, 513, 10**6, 2**1100, math.nan, 16.0, 16.5, True):
        with pytest.raises(DomainError, match=f"^{re.escape('nodes_per_segment must be an integer in [4, 512]')}$"):
            QuadratureSpec(nodes_per_segment=nodes)


def test_arc_segment_quarter_circle():
    seg = arc_segment((0.0, 0.0, 0.0), 2.0, 0.0, math.pi / 2.0)
    path = LoopPath((seg,), closed=False)
    assert loop_length(path, DOUBLING).value == pytest.approx(math.pi, abs=1e-12)


TILTED = SolenoidSpec(flux=0.9, radius=0.05, axis_point=(1.0, 2.0, 3.0), axis_direction=(1.0, 1.0, 0.3))


@pytest.mark.parametrize("spec", [SolenoidSpec(flux=1.3, radius=0.4), TILTED])
def test_batched_potential_matches_per_point(spec):
    rng = np.random.default_rng(71)
    origin = np.asarray(spec.axis_point)
    # half the points fall inside the coil, half outside
    pts = origin + rng.normal(scale=0.5, size=(200, 3))
    _, rho = spec.axial_decomposition(pts)
    assert rho.shape == (200,)
    assert np.any(rho < spec.radius) and np.any(rho > spec.radius)
    batch = solenoid_vector_potential(pts, spec)
    assert batch.shape == (200, 3)
    rows = np.array([solenoid_vector_potential(p, spec) for p in pts])
    np.testing.assert_allclose(batch, rows, rtol=1e-15, atol=0.0)
    assert np.array_equal(rho, [spec.axial_decomposition(p)[1] for p in pts])
    stacked = solenoid_vector_potential(pts.reshape(10, 20, 3), spec)
    np.testing.assert_allclose(stacked.reshape(200, 3), rows, rtol=1e-15, atol=0.0)


def test_batched_potential_rejects_any_point_on_axis():
    spec = SolenoidSpec(flux=1.0, radius=0.2)
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 5.0], [0.0, 2.0, 1.0]])
    with pytest.raises(SingularInputError):
        solenoid_vector_potential(pts, spec)


def _tilted_circle(spec, radius, windings=1):
    direction = np.asarray(spec.axis_direction)
    e1 = np.cross(direction, [0.0, 0.0, 1.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(direction, e1)
    origin = np.asarray(spec.axis_point)
    turns = 2.0 * math.pi * windings

    def point(s):
        th = turns * np.atleast_1d(np.asarray(s, dtype=float))
        return origin + radius * (np.outer(np.cos(th), e1) + np.outer(np.sin(th), e2))

    def tangent(s):
        th = turns * np.atleast_1d(np.asarray(s, dtype=float))
        return turns * radius * (np.outer(-np.sin(th), e1) + np.outer(np.cos(th), e2))

    return LoopPath((Segment(point, tangent),))


@pytest.mark.parametrize("quad", [QuadratureSpec(), QuadratureSpec(8, "doubling", 1e-12)])
def test_solenoid_circulation_matches_line_integral(quad):
    spec = SolenoidSpec(flux=1.0, radius=0.1)
    cases = [
        (spec, polyline_loop([(2, 0, 0), (0, 2, 0.5), (-2, -1, 0), (1, -1.5, -0.3)])),
        (spec, rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)])),
        (spec, polyline_loop([(3, 1, 0), (4, 1, 0), (4, 2, 0)])),
        (spec, circle_loop(radius=1.5, windings=3)),
        (spec, circle_loop(center=(0.3, -0.2, 1.0), radius=0.8, windings=-2)),
        (spec, fourier_loop(np.random.default_rng(73), z_amplitude=0.3)),
        (TILTED, _tilted_circle(TILTED, 1.5, windings=2)),
    ]
    for case_spec, loop in cases:
        batched = solenoid_circulation(case_spec, loop, quad)
        reference = line_integral(solenoid_field(case_spec), loop, quad)
        assert abs(batched.value - reference.value) <= 1e-13
        assert abs(batched.error_estimate - reference.error_estimate) <= 1e-13
        assert batched.nodes_per_segment == reference.nodes_per_segment
    assert solenoid_circulation(TILTED, _tilted_circle(TILTED, 1.5, windings=2), quad).value == pytest.approx(
        1.8, abs=1e-9
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.5, 3.0), st.floats(0.05, 1.2), st.floats(-1.0, 1.0)),
        min_size=6,
        max_size=12,
    ),
    st.floats(0.0, 2.0 * math.pi),
)
def test_polyline_circulation_property(steps, start):
    # star-shaped about the axis with turns under 1.2 rad, and a closing edge
    # that turns under 2.5 rad: every edge keeps 0.1 or more from the axis
    angles = start + np.cumsum([0.0] + [turn for _, turn, _ in steps[1:]])
    closing = math.remainder(angles[0] - angles[-1], 2.0 * math.pi)
    assume(abs(closing) <= 2.5)
    radii = np.array([r for r, _, _ in steps])
    heights = np.array([z for _, _, z in steps])
    vertices = np.column_stack([radii * np.cos(angles), radii * np.sin(angles), heights])
    spec = SolenoidSpec(flux=1.0, radius=0.05)
    loop = polyline_loop(vertices)
    quad = QuadratureSpec(16, "doubling", 1e-12)
    batched = solenoid_circulation(spec, loop, quad)
    reference = line_integral(solenoid_field(spec), loop, quad)
    assert abs(batched.value - reference.value) <= 1e-13
    # Aharonov-Bohm: Phi / 2 pi times the angle the closed polyline sweeps about the axis
    swept = angles[-1] - angles[0] + closing
    assert batched.value == pytest.approx(swept / (2.0 * math.pi), abs=1e-9)
    # the closed form agrees with the converged quadrature, in both orientations
    closed_form = loop_geometry(loop, spec).turns
    assert closed_form == pytest.approx(batched.value, abs=1e-11)
    assert loop_geometry(loop.reverse(), spec).turns == pytest.approx(-closed_form, abs=1e-14 / (2.0 * math.pi))


def test_quadrature_doubles_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(field_geometry, "_MAX_NODES_PER_SEGMENT", 64)
    calls = []

    def integrand(seg, s):  # 2 + 1/n on an n-node rule: the difference never meets the tolerance
        calls.append(s.size)
        return np.full(s.size, 2.0 + 1.0 / s.size)

    path = LoopPath((line_segment((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),), closed=False)
    result = field_geometry._quadrature(integrand, path, QuadratureSpec(8, "doubling", 1e-15))
    assert calls == [8, 16, 32, 64]
    assert result.nodes_per_segment == 64
    assert result.error_estimate == pytest.approx(1.0 / 32 - 1.0 / 64, rel=1e-13)
    assert result.value == pytest.approx(2.0 + 1.0 / 64, rel=1e-15)
    # a NaN difference stops the doubling at once
    calls.clear()
    result = field_geometry._quadrature(lambda seg, s: integrand(seg, s) * math.nan, path, QuadratureSpec(8, "doubling", 1e-15))
    assert calls == [8, 16]
    assert result.nodes_per_segment == 16 and math.isnan(result.error_estimate)


def test_line_segment_records_endpoints():
    seg = line_segment((0.0, 1.0, 2.0), (3.0, 4.0, 5.0))
    assert type(seg) is Line and seg == Line((0.0, 1.0, 2.0), (3.0, 4.0, 5.0))
    assert seg.reversed() == Line((3.0, 4.0, 5.0), (0.0, 1.0, 2.0))
    s = np.linspace(0.0, 1.0, 7)
    start, step = np.array(seg.start), np.array(seg.end) - np.array(seg.start)
    assert np.array_equal(seg.point(s), start + np.outer(s, step))
    assert np.array_equal(seg.tangent(s), np.tile(step, (7, 1)))
    assert not isinstance(arc_segment((0.0, 0.0, 0.0), 1.0, 0.0, 1.0), Line)
    assert all(type(s) is Line for s in polyline_loop([(1, 0, 0), (0, 1, 0), (-1, -1, 0)]).reverse().segments)


@pytest.mark.parametrize("step", [1.5e-256, 1e-160, 1.0, 1e200, 1e307])
def test_line_length_is_scale_safe(step):
    # chord lengths never square the step, so they neither underflow to 0 nor overflow to inf
    path = LoopPath((line_segment((0.0, 0.0, 0.0), (0.0, 0.0, step)),), closed=False)
    assert path.length == step
    square = polyline_loop([(step, step, 0.0), (-step, step, 0.0), (-step, -step, 0.0), (step, -step, 0.0)])
    assert square.length == pytest.approx(8.0 * step, rel=1e-15, abs=0.0)



def test_exact_joins_hold_when_the_gap_tolerance_underflows():
    # so small a path has a tolerance of 0.0, and a gap of exactly 0 still joins
    circle = circle_loop(radius=1e-320)
    assert circle.length == 1e-320 * 2.0 * math.pi
    assert polyline_loop([(0.0, 0.0, 0.0), (1e-313, 0.0, 0.0), (0.0, 1e-313, 0.0)]).length > 0.0
    step = 2.2e-313
    path = LoopPath((line_segment((0.0, 0.0, 0.0), (step, 0.0, 0.0)), line_segment((step, 0.0, 0.0), (step, step, 0.0))), closed=False)
    assert path.length == 2.0 * step
    # a gap of one subnormal is not a join at any scale
    with pytest.raises(GeometryError, match="do not join continuously"):
        LoopPath((line_segment((0.0, 0.0, 0.0), (step, 0.0, 0.0)), line_segment((step, 5e-324, 0.0), (0.0, 0.0, 0.0))))
    with pytest.raises(GeometryError, match="marked closed"):
        LoopPath((line_segment((0.0, 0.0, 0.0), (step, 0.0, 0.0)), line_segment((step, 0.0, 0.0), (0.0, 5e-324, 0.0))))

def test_loop_geometry_of_huge_lines_takes_no_squares():
    # only the radial vectors are formed, in units of a power of 2: nothing squares 1e308
    near, far = (1e308, 0.0, 0.0), (1.5e308, 0.0, 0.0)
    path = LoopPath((line_segment(near, far), line_segment(far, near)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometry = loop_geometry(path, SolenoidSpec(flux=1.0, radius=0.1))
    assert geometry.clearance == 1e308
    assert geometry.turns == 0.0


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e200])
def test_rectangle_rejects_collinear_and_skew_corners(scale):
    # the decisions are taken on the edges in units of a power of 2, so they hold at any scale
    square = scale * np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
    assert rectangle_loop(square).length == pytest.approx(8.0 * scale, rel=1e-15, abs=0.0)
    with pytest.raises(GeometryError, match="collinear"):
        rectangle_loop(scale * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    skew = square.copy()
    skew[3, 2] = 0.5 * scale
    with pytest.raises(GeometryError, match="not planar"):
        rectangle_loop(skew)


def test_arc_segment_records_arc():
    seg = arc_segment((1.0, 2.0, 1.5), 3.0, 0.25, -2.0)
    assert type(seg) is Arc and seg == Arc((1.0, 2.0, 1.5), 3.0, 0.25, -2.0)
    back = seg.reversed()
    assert back == Arc((1.0, 2.0, 1.5), 3.0, -2.0, 0.25)
    s = np.linspace(0.0, 1.0, 7)
    for piece in (seg, back):
        (cx, cy, cz), radius, theta0, theta1 = piece
        th = theta0 + s * (theta1 - theta0)
        expected = np.column_stack([cx + radius * np.cos(th), cy + radius * np.sin(th), np.full(s.size, cz)])
        assert np.array_equal(piece.point(s), expected)
    assert not isinstance(line_segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Arc)
    assert all(type(piece) is Arc for piece in circle_loop(radius=1.0, windings=-2).reverse().segments)


def test_a_loop_of_lines_reports_its_first_bad_line_and_a_mixed_loop_its_lines_first():
    # the lines are checked as one column: the first bad one in path order raises its first failing check
    bad = [Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Line((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Line((1.0, 0.0, 0.0), (math.inf, 0.0, 0.0))]
    with pytest.raises(GeometryError, match="tangent vanishes"):
        LoopPath(tuple(bad), closed=False)
    with pytest.raises(GeometryError, match="non-finite"):
        LoopPath((bad[0], bad[2], bad[1]), closed=False)
    with pytest.raises(GeometryError, match="non-finite"):
        LoopPath((Line((0.0, 0.0, math.nan), (0.0, 0.0, math.nan)),), closed=False)
    # a mixed loop checks every line before its arcs and generic curves, whatever their order
    bad_arc = Arc((0.0, 0.0, 0.0), 1.0, 0.0, math.inf)
    with pytest.raises(GeometryError, match="non-finite"):
        LoopPath((bad_arc,), closed=False)
    with pytest.raises(GeometryError, match="tangent vanishes"):
        LoopPath((bad_arc, bad[1]), closed=False)


@pytest.mark.parametrize(
    "segments, message",
    [
        ((Line((0, 0), (1, 0)),), "segment start"),
        ((Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Line((1.0, 0.0), (0.0, 0.0))), "segment start"),
        ((Line((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),), "segment start"),
        ((Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Line((1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))), "segment end"),
        ((Arc((0.0, 0.0), 1.0, 0.0, 2.0 * math.pi),), "arc center"),
    ],
    ids=["2d", "mixed-2d-3d", "4d", "4d-end", "arc-2d"],
)
def test_a_line_whose_points_are_not_3_vectors_is_a_geometry_error(segments, message):
    # a Line or Arc built directly, not by line_segment or arc_segment: LoopPath gives their error, not a numpy one
    with pytest.raises(GeometryError, match=f"^{message} must be a 3-vector$"):
        LoopPath(segments, closed=False)


@pytest.mark.parametrize("windings", [math.inf, -math.inf, math.nan])
def test_non_finite_windings_are_not_integers(windings):
    with pytest.raises(GeometryError, match="^windings must be a nonzero integer$"):
        circle_loop(windings=windings)


@settings(max_examples=200, deadline=None)
@given(
    center=st.lists(st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-80, 80)), min_size=3, max_size=3),
    radius=st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-20, 20)),
    windings=st.integers(0, 999).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1) - 1)),
    sign=st.sampled_from([1, -1]),
)
@example(center=[2.0**42, 0.0, 0.0], radius=1.00146484375, windings=10**8, sign=1)  # cos and sin put its end 9.8e-4 off
@example(center=[3002399751580330.5, 0.0, 0.0], radius=0.5, windings=1, sign=1)  # center + r / 2 rounds onto the circle
def test_a_circle_closes_exactly_at_any_center_radius_and_winding_count(center, radius, windings, sign):
    # every such circle is accepted: its length is positive and finite, at most 2**20 * 2 pi * 2**1000
    loop = circle_loop(center, radius, sign * windings)
    assert loop.ends[0, 1].tobytes() == loop.ends[0, 0].tobytes()
    # the same whole-turn test skips the end terms, so an axis inside the circle gives the sweep alone
    axis = center[0] + radius / 2.0
    if not abs(axis - center[0]) < radius:  # an ulp of the center past the radius: the nearest double inside is the center
        axis = center[0]
    spec = SolenoidSpec(flux=1.0, radius=radius / 4.0, axis_point=(axis, center[1], 0.0))
    assert loop_geometry(loop, spec).turns == loop.segments[0].theta1 / (2.0 * math.pi)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: line_segment((0, 0), (1, 0)), "segment start"),
        (lambda: line_segment((0, 0, 0), (1, 0, 0, 0)), "segment end"),
        (lambda: line_segment([[0, 0, 0]], (1, 0, 0)), "segment start"),
        (lambda: arc_segment((0, 0), 1.0, 0.0, 1.0), "arc center"),
        (lambda: circle_loop(center=(0, 0)), "arc center"),
    ],
)
def test_points_must_be_3_vectors(build, name):
    with pytest.raises(GeometryError, match=f"^{name} must be a 3-vector$"):
        build()


def test_loop_geometry_lengths_are_exact():
    half_disk = LoopPath(
        (arc_segment((0.0, -0.5, 0.0), 2.0, 0.0, math.pi), line_segment((-2.0, -0.5, 0.0), (2.0, -0.5, 0.0)))
    )
    cases = [
        (circle_loop(center=(0.3, 0.1, 2.0), radius=1.5, windings=-3), 9.0 * math.pi),
        (rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]), 8.0),
        (half_disk, 2.0 * math.pi + 4.0),
    ]
    for loop, length in cases:
        assert loop.length == pytest.approx(length, rel=1e-15)
        assert loop.length == pytest.approx(loop_length(loop, DOUBLING).value, rel=1e-13)
        assert loop.reverse().length == pytest.approx(length, rel=1e-15)
    assert fourier_loop(np.random.default_rng(79)).length is None
    # a generic curve leaves the flux and the length to quadrature, but still gets a (sampled) clearance
    generic_loop, spec = fourier_loop(np.random.default_rng(79)), SolenoidSpec(flux=1.0, radius=0.1)
    generic = loop_geometry(generic_loop, spec)
    circulation, length = solenoid_circulation(spec, generic_loop), loop_length(generic_loop)
    assert (generic.turns, generic.turns_error) == (circulation.value, circulation.error_estimate)
    assert (generic.length, generic.length_error) == (length.value, length.error_estimate)
    assert generic.clearance > 1.0


def test_arc_clearance_is_exact():
    quarter = LoopPath((arc_segment((0.0, 0.0, 0.0), 1.0, 0.0, 0.5 * math.pi),), closed=False)
    diagonal = 1.25 / math.sqrt(2.0)
    cases = [
        ((diagonal, diagonal, 0.0), 0.25),  # axis foot inside the sweep, outside the circle
        ((0.5 / math.sqrt(2.0), 0.5 / math.sqrt(2.0), 3.0), 0.5),  # inside the sweep and the circle
        ((-1.0, 0.0, 0.0), math.sqrt(2.0)),  # on the circle, outside the sweep: nearer end (0, 1)
        ((1.0, -0.5, 0.0), 0.5),  # outside the sweep: nearer end (1, 0)
        ((0.0, 0.0, -1.0), 1.0),  # at the center
    ]
    for axis_point, clearance in cases:
        spec = SolenoidSpec(flux=1.0, radius=0.01, axis_point=axis_point)
        assert loop_geometry(quarter, spec).clearance == pytest.approx(clearance, abs=1e-15)
        assert loop_geometry(quarter.reverse(), spec).clearance == pytest.approx(clearance, abs=1e-15)
    # a full turn is least |offset - radius| away whatever the offset's bearing
    spec = SolenoidSpec(flux=1.0, radius=0.001, axis_point=(0.0, -1.2, 0.0))
    assert loop_geometry(circle_loop(radius=2.0, windings=2), spec).clearance == pytest.approx(0.8, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 3.0),
    st.floats(-math.pi, math.pi),
    st.floats(-6.0 * math.pi, 6.0 * math.pi).filter(lambda sweep: abs(sweep) > 0.05),
    st.one_of(
        st.tuples(st.just("polar"), st.floats(0.0, 2.5), st.floats(0.0, 2.0 * math.pi)),
        st.tuples(st.just("chord"), st.integers(0, 23), st.floats(-0.5, 1.5)),
    ),
    st.sampled_from([1.0, -1.0]),
)
@example(1.0, -1.8414457813231144, 17.5, ("chord", 20, 0.5), 1.0)  # reversed, it once came out 1e-14 off
def test_arc_circulation_property(radius, theta0, sweep, placement, facing):
    # partial arcs of up to three turns either way, with the axis inside or outside the circle, or on the
    # line through two arc points at most a quarter turn apart: near the circle or an arc end, where the
    # atan2 end terms matter
    center = np.array([0.4, -0.3, 0.7])
    if placement[0] == "polar":
        _, offset, bearing = placement
        foot = center[:2] + offset * radius * np.array([math.cos(bearing), math.sin(bearing)])
    else:
        _, index, along = placement
        ends = np.linspace(theta0, theta0 + sweep, math.ceil(abs(sweep) / (0.5 * math.pi)) + 1)
        k = index % (ends.size - 1)
        a, b = (center[:2] + radius * np.array([math.cos(t), math.sin(t)]) for t in ends[k : k + 2])
        foot = a + along * (b - a)
    spec = SolenoidSpec(flux=1.0, radius=0.01, axis_point=(foot[0], foot[1], -2.0), axis_direction=(0.0, 0.0, facing))
    path = LoopPath((arc_segment(center, radius, theta0, theta0 + sweep),), closed=False)
    geometry = loop_geometry(path, spec)
    s = np.linspace(0.0, 1.0, 200_001)
    _, rho = spec.axial_decomposition(path.segments[0].point(s))
    spacing = radius * abs(sweep) / (s.size - 1)
    assert float(np.min(rho)) - spacing <= geometry.clearance <= float(np.min(rho)) + 1e-12
    assume(geometry.clearance >= 0.25 * radius)
    # doubling may stop at its node cap a little above 1e-12 on the longest arcs
    reference = solenoid_circulation(spec, path, DOUBLING)
    assert reference.error_estimate <= 1e-10
    tolerance = 1e-11 + 10.0 * reference.error_estimate
    assert geometry.turns == pytest.approx(reference.value, abs=tolerance)
    assert loop_geometry(path.reverse(), spec).turns == -geometry.turns


_piece = st.one_of(
    st.tuples(st.just("line"), st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(lambda step: math.hypot(*step) > 1e-3)),
    st.tuples(
        st.just("arc"),
        st.tuples(st.floats(0.2, 2.0), st.floats(-math.pi, math.pi), st.floats(0.1, 4.0 * math.pi), st.booleans()),
    ),
)


def _outcome(segments, closed):
    try:
        return LoopPath(segments, closed=closed), None
    except GeometryError as exc:
        return None, str(exc).rsplit(" ", 1)[0]  # the message without its gap value


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_piece, st.one_of(st.just(0.0), st.floats(1e-9, 1e-2))), min_size=1, max_size=6),
    st.one_of(st.just(0.0), st.floats(1e-9, 1e-2)),
    st.booleans(),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
def test_shape_validation_matches_sampled_validation(pieces, closing_gap, closed, origin):
    # chains of lines and arcs with exact junctions or gaps of 1e-9 to 1e-2 of the chain's
    # length: the recorded shape and the 64-point sample accept and reject the same chains
    length = sum(
        math.sqrt(sum(c * c for c in params)) if kind == "line" else params[0] * params[2]
        for (kind, params), _ in pieces
    )
    assume(length > 0.1)
    here, segments = np.asarray(origin, dtype=float), []
    for k, ((kind, params), gap) in enumerate(pieces):
        if k:
            here = here + gap * length * np.array([0.6, 0.0, 0.8])
        if kind == "line":
            seg = line_segment(here, here + np.asarray(params))
        else:
            radius, theta0, sweep, forward = params
            center = here - radius * np.array([math.cos(theta0), math.sin(theta0), 0.0])
            seg = arc_segment(center, radius, theta0, theta0 + (sweep if forward else -sweep))
        segments.append(seg)
        here = seg.point(np.array([1.0]))[0]
    if closed:
        target = np.asarray(origin) + closing_gap * length * np.array([0.0, 0.6, -0.8])
        if not np.array_equal(here, target):
            segments.append(line_segment(here, target))
    built, error = _outcome(tuple(segments), closed)
    stripped, stripped_error = _outcome(tuple(strip_shape(seg) for seg in segments), closed)
    assert error == stripped_error
    gaps = [gap for _, gap in pieces[1:]] + ([closing_gap] if closed else [])
    assert (error is None) == (not any(gaps))
    if built is not None:
        assert stripped.length is None
        reference = loop_length(stripped, DOUBLING)
        assert abs(built.length - reference.value) <= reference.error_estimate + 1e-13 * built.length
        np.testing.assert_allclose(built.ends, stripped.ends, rtol=0.0, atol=1e-12 * built.length)


@settings(max_examples=80, deadline=None)
@given(
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    theta0=st.floats(-math.pi, math.pi),
    sweep=st.one_of(st.floats(-20.0, 20.0), st.sampled_from([2.0 * math.pi, -4.0 * math.pi])).filter(lambda x: abs(x) > 1e-3),
    radii=st.lists(st.one_of(st.floats(0.05, 3.0), st.sampled_from([1e-300, 1e300])), min_size=1, max_size=6),
)
def test_arc_closed_form_over_a_radius_column_matches_each_arc(center, theta0, sweep, radii):
    # one closed form for a column: row k holds, bit for bit, the geometry of the arc of radius radii[k]
    spec = SolenoidSpec(flux=1.0, radius=0.01)
    path = LoopPath((arc_segment(center, 1.0, theta0, theta0 + sweep),), closed=False)
    column = loop_geometry(path, spec, radius=np.array(radii))
    for k, radius in enumerate(radii):
        one = loop_geometry(LoopPath((arc_segment(center, radius, theta0, theta0 + sweep),), closed=False), spec)
        assert (column.turns[k], column.clearance[k], column.length[k]) == (one.turns, one.clearance, one.length)


@settings(max_examples=100, deadline=None)
@given(
    inside=st.booleans(),
    exponent=st.floats(-300.0, -20.0),
    bearing=st.floats(-math.pi, math.pi),
    theta0=st.floats(-math.pi, math.pi),
    sweep=st.floats(-12.0, 12.0).filter(lambda sweep: abs(sweep) > 0.05),
    facing=st.sampled_from([1.0, -1.0]),
)
@example(inside=False, exponent=-299.5, bearing=0.7, theta0=0.2, sweep=2.5, facing=1.0)
def test_an_arc_far_from_the_axis_or_about_one_near_its_center_sweeps_its_first_order_form(
    inside, exponent, bearing, theta0, sweep, facing
):
    # with r/d or d/r at most 1e-20, the swept azimuth is -facing (r/d)(sin psi1 - sin psi0) about a far
    # axis and facing (sweep + (d/r)(sin psi1 - sin psi0)) about a near one, psi the end angles less the
    # axis foot's bearing about the center; the second-order terms lie below 1e-40 of these
    ratio = 10.0**exponent
    radius, offset = (1.7, 1.7 * ratio) if inside else (0.3 * ratio, 0.3)
    foot = (offset * math.cos(bearing), offset * math.sin(bearing))
    spec = SolenoidSpec(flux=1.0, radius=1e-3, axis_point=(*foot, 1.0), axis_direction=(0.0, 0.0, facing))
    arc = arc_segment((0.0, 0.0, -0.5), radius, theta0, theta0 + sweep)
    d, alpha = math.hypot(*foot), math.atan2(foot[1], foot[0])
    change = math.sin(arc.theta1 - alpha) - math.sin(arc.theta0 - alpha)
    assume(abs(change) >= 0.5)  # no cancellation between the two ends
    if inside:
        expected = facing * ((arc.theta1 - arc.theta0) + d / radius * change)
    else:
        expected = -facing * (radius / d) * change
    turns = loop_geometry(LoopPath((arc,), closed=False), spec).turns
    assert turns == pytest.approx(expected / (2.0 * math.pi), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e200, 1e300])
def test_axis_direction_of_any_size_is_normalised(scale):
    # the norm takes no squares: a huge direction does not overflow to 0, nor a tiny one underflow
    spec = SolenoidSpec(flux=1.0, radius=0.1, axis_direction=(0.0, 0.0, scale))
    assert spec.axis_direction == (0.0, 0.0, 1.0)
    assert loop_geometry(circle_loop(radius=2.0), spec).turns == 1.0
    tilted = SolenoidSpec(flux=1.0, radius=0.1, axis_direction=(3.0 * scale, 0.0, -4.0 * scale))
    assert tilted.axis_direction == pytest.approx((0.6, 0.0, -0.8), rel=1e-15)


@pytest.mark.parametrize(
    "axis, message",
    [
        ({"axis_point": (math.nan, 0.0, 0.0)}, "axis point must be finite"),
        ({"axis_point": (0.0, math.inf, 0.0)}, "axis point must be finite"),
        ({"axis_point": (10**400, 0, 0)}, "axis point must be finite"),  # an int beyond the doubles is an inf
        ({"axis_direction": (10**400, 0, 1)}, "axis direction must be a finite nonzero 3-vector"),
        ({"axis_direction": (math.nan, 0.0, 1.0)}, "axis direction must be a finite nonzero 3-vector"),
        ({"axis_direction": (0.0, 0.0, -math.inf)}, "axis direction must be a finite nonzero 3-vector"),
        ({"axis_direction": (0.0, 0.0, 0.0)}, "axis direction must be a finite nonzero 3-vector"),
    ],
)
def test_solenoid_axis_must_be_finite(axis, message):
    with pytest.raises(DomainError) as caught:
        SolenoidSpec(flux=1.0, radius=0.1, **axis)
    assert str(caught.value) == message


def test_radius_column_needs_one_arc_normal_to_the_axis():
    radius = np.array([1.0, 2.0])
    square = polyline_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)])
    tilted = SolenoidSpec(flux=1.0, radius=0.1, axis_direction=(0.0, 1.0, 1.0))
    for loop, spec in ((square, SolenoidSpec(flux=1.0, radius=0.1)), (circle_loop(radius=3.0), tilted)):
        with pytest.raises(GeometryError, match="one arc normal to the solenoid axis"):
            loop_geometry(loop, spec, radius=radius)


def _result_and_warnings(call):
    """(the result, or the type and text of the GupabError raised, and the warnings, by category and text) of call()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except GupabError as exc:
            value = (type(exc), str(exc))
    return value, [(w.category, str(w.message)) for w in caught]


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["polyline", "rectangle"]),
    count=st.integers(3, 64),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-160.0, 300.0),
    flaw=st.sampled_from([None, None, None, "repeat", "inf", "nan", "overflow", "collinear", "skew", "nearly collinear", "nearly skew"]),
    axis=st.sampled_from(["inside", "outside", "crossing", "vertex"]),
    tilted=st.booleans(),
)
def test_a_loop_of_lines_matches_its_reference_bit_for_bit(kind, count, seed, exponent, flaw, axis, tilted):
    # the build and the lines geometry against their earlier form (tests/helpers.py): equal bytes, or the same error
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    center = rng.normal(size=3)
    if kind == "rectangle":
        u, v = rng.normal(size=(2, 3))
        w, h = rng.uniform(0.2, 1.5, size=2)
        points = center + np.array([[w, h], [-w, h], [-w, -h], [w, -h]]) @ np.stack([u, v])
    else:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=count)) if rng.random() < 0.8 else rng.uniform(0.0, 6.0, size=count)
        radii = rng.uniform(0.3, 1.5, size=count)
        points = center + np.column_stack([radii * np.cos(angles), radii * np.sin(angles), rng.normal(0.0, 0.3, size=count)])
    points = points * scale
    i = int(rng.integers(len(points)))
    if flaw == "repeat":
        points[(i + 1) % len(points)] = points[i]
    elif flaw in ("inf", "nan"):
        points[i, int(rng.integers(3))] = float(flaw) * rng.choice([-1.0, 1.0])
    elif flaw == "overflow":  # finite points whose step overflows
        points[i, 0], points[(i + 1) % len(points), 0] = 1.7e308, -1.7e308
    elif flaw is not None and flaw.endswith("collinear"):
        points = np.outer(np.arange(len(points)), rng.normal(size=3)) * scale
        if flaw == "nearly collinear":  # a normal far below the edges, but not 0
            points[i] += scale * 10.0 ** rng.uniform(-20.0, -8.0) * rng.normal(size=3)
    elif flaw is not None and flaw.endswith("skew"):  # nearly: about the planarity tolerance
        points[i, 2] += scale * (rng.uniform(0.01, 1.0) if flaw == "skew" else 10.0 ** rng.uniform(-12.0, -7.0))
    corners_or_vertices = "corners" if kind == "rectangle" else "vertices"
    want, want_warnings = _result_and_warnings(lambda: reference_loop_of_lines(kind, points.tolist()))
    loop, got_warnings = _result_and_warnings(lambda: make_loop(kind, **{corners_or_vertices: points.tolist()}))
    assert got_warnings == want_warnings
    if isinstance(want[0], type):  # an error
        event(want[1].split(" at index")[0])
        assert loop == want
        return
    ends, length = want
    assert _bits(loop.ends, loop.length) == _bits(ends, length)
    foot = {  # every point is finite here
        "inside": points.mean(axis=0),
        "outside": points.mean(axis=0) + 5.0 * np.abs(points).max(),
        "crossing": 0.5 * (points[i] + points[(i + 1) % len(points)]),
        "vertex": points[i],
    }[axis]
    spec = SolenoidSpec(flux=1.0, radius=1.0, axis_point=tuple(foot), axis_direction=tuple(rng.normal(size=3)) if tilted else (0.0, 0.0, 1.0))
    want, want_warnings = _result_and_warnings(lambda: reference_geometry_of_lines(ends, spec))
    got, got_warnings = _result_and_warnings(lambda: loop_geometry(loop, spec))
    assert got_warnings == want_warnings
    swept, clearance = want
    assert _bits(got.turns, got.clearance) == _bits(swept / (2.0 * math.pi), clearance)
    event(f"{kind} about an axis {axis}{', tilted' if tilted else ''}")
