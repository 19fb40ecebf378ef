import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (
    ORACLE_GAMMA,
    fourier_loop,
    reference_dispersion,
    riemann_phase_matrix,
    riemann_projected_phase,
    riemann_tangent_sums,
    strip_shape,
)
from gupab import gup_algebra, phase_engine
from gupab.clifford import gamma, momenta, on_shell_spinor, positive_mass
from gupab.errors import DomainError, GeometryError, GupabError, raise_first, to_floats
from gupab.field_geometry import (
    Arc,
    Line,
    LoopPath,
    QuadratureSpec,
    SolenoidSpec,
    arc_segment,
    circle_loop,
    finite_flux,
    line_segment,
    loop_geometry,
    polyline_loop,
    rectangle_loop,
)
from gupab.phase_engine import (
    ParticleSpec,
    PhaseResult,
    ab_phase,
    dispersion,
    gup_phase_matrix,
    gup_phase_projected,
    phase_rows,
    subluminal_speed,
    total_phase,
)
from gupab.units import GupParameter, nonnegative_a

DOUBLING = QuadratureSpec(refinement="doubling", tolerance=1e-12)
PARTICLE = ParticleSpec(charge=1.0, mass=1.0, speed=0.6)
SOLENOID = SolenoidSpec(flux=1.0, radius=0.1)

# Worked values for m = 1, v = 0.6 (gamma = 1.25, E = 1.25, p = 0.75):
# E/v - p = 4/3, so the unit circle gives -0.01 * (4/3) * 2 pi = -2 pi / 75.
DELTA_PHI_UNIT_CIRCLE = -2.0 * math.pi / 75.0
TOTAL_PHASE_R2 = 1.0 - 4.0 * math.pi / 75.0


def closed_form(particle, a, length):
    return -a * particle.charge * particle.mass * (
        particle.energy / particle.speed - particle.momentum
    ) * length


def test_particle_spec_kinematics():
    assert PARTICLE.lorentz_gamma == pytest.approx(1.25, rel=1e-15)
    assert PARTICLE.energy == pytest.approx(1.25, rel=1e-15)
    assert PARTICLE.momentum == pytest.approx(0.75, rel=1e-15)
    rng = np.random.default_rng(71)
    for _ in range(50):
        particle = ParticleSpec(1.0, rng.uniform(0.1, 3.0), rng.uniform(0.01, 0.99))
        mass_sq = particle.energy**2 - particle.momentum**2
        assert mass_sq == pytest.approx(particle.mass**2, rel=1e-12)


def test_particle_spec_validation():
    with pytest.raises(DomainError):
        ParticleSpec(1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        ParticleSpec(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ParticleSpec(1.0, 1.0, -0.2)


def test_ab_phase_unit_flux():
    value = ab_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0), DOUBLING)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_ab_phase_non_enclosing_loop():
    loop = circle_loop(center=(5.0, 0.0, 0.0), radius=1.0)
    assert ab_phase(PARTICLE, SOLENOID, loop, DOUBLING) == pytest.approx(0.0, abs=1e-10)


def test_ab_phase_triple_winding():
    value = ab_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0, windings=3), DOUBLING)
    assert value == pytest.approx(3.0, abs=1e-9)


def test_ab_phase_rejects_penetrating_loop():
    with pytest.raises(GeometryError):
        ab_phase(PARTICLE, SOLENOID, circle_loop(center=(0.1, 0.0, 0.0), radius=0.15), DOUBLING)


def test_flux_quantization_across_shapes():
    # each winding is the one the loop was built with; fourier_loop winds once
    rng = np.random.default_rng(73)
    loops = [
        (circle_loop(radius=0.5), 1),
        (circle_loop(radius=2.0, windings=-2), -2),
        (rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]), 1),
        (fourier_loop(rng), 1),
    ]
    for loop, w in loops:
        value = ab_phase(PARTICLE, SOLENOID, loop, DOUBLING)
        assert abs(value / (PARTICLE.charge * SOLENOID.flux) - w) <= 1e-9


def test_lines_and_arcs_build_and_phase_without_sampling(monkeypatch):
    half_disk = (arc_segment((0.0, -0.5, 0.0), 2.0, 0.0, math.pi), line_segment((-2.0, -0.5, 0.0), (2.0, -0.5, 0.0)))
    loops = [
        circle_loop(radius=2.0, windings=3),
        polyline_loop([(2, 0, 0), (0, 2, 0.5), (-2, -1, 0), (1, -1.5, -0.3)]),
        LoopPath(half_disk),
        LoopPath(half_disk[:1], closed=False),
    ]
    paths = [path for loop in loops for path in (loop, loop.reverse())]
    expected = [total_phase(PARTICLE, SOLENOID, path, 0.01, DOUBLING) for path in paths]

    def refuse(self, s):
        raise AssertionError("a line or arc was sampled")

    for shape in (Line, Arc):
        monkeypatch.setattr(shape, "point", refuse)
        monkeypatch.setattr(shape, "tangent", refuse)
    for path, want in zip(paths, expected):
        rebuilt = LoopPath(path.segments, closed=path.closed)
        assert rebuilt.length == path.length
        result = total_phase(PARTICLE, SOLENOID, rebuilt, 0.01, DOUBLING)
        assert result.to_json_dict() == want.to_json_dict()


def test_total_phase_computes_geometry_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return loop_geometry(*args)

    monkeypatch.setattr(phase_engine, "loop_geometry", counted)
    for loop in (circle_loop(radius=2.0), polyline_loop([(2, 0, 0), (0, 2, 0.5), (-2, -1, 0)])):
        calls.clear()
        total_phase(PARTICLE, SOLENOID, loop, 0.01, DOUBLING, spinor=np.ones(4))
        assert len(calls) == 1


def test_gup_matrix_vanishes_at_zero_coupling():
    matrix = gup_phase_matrix(PARTICLE, circle_loop(radius=1.0), 0.0, DOUBLING)
    assert np.array_equal(matrix, np.zeros((4, 4), dtype=complex))


def test_gup_matrix_exact_linearity():
    loop = circle_loop(radius=1.0)
    once = gup_phase_matrix(PARTICLE, loop, 0.01, DOUBLING)
    twice = gup_phase_matrix(PARTICLE, loop, 0.02, DOUBLING)
    assert np.array_equal(twice, 2.0 * once)


def test_gup_matrix_circle_structure():
    # closed loop: spatial gamma parts integrate away, gamma^0 block remains
    a = 0.01
    loop = circle_loop(radius=1.0)
    matrix = gup_phase_matrix(PARTICLE, loop, a, DOUBLING)
    coefficient = -a * PARTICLE.charge * PARTICLE.energy * (
        PARTICLE.energy / PARTICLE.speed - PARTICLE.momentum
    ) * 2.0 * math.pi
    assert np.max(np.abs(matrix - coefficient * gamma(0))) < 1e-12


def test_gup_matrix_out_and_back_path():
    a, end = 0.02, np.array([1.0, 2.0, 0.0])
    path = LoopPath((line_segment((0, 0, 0), end), line_segment(end, (0, 0, 0))))
    matrix = gup_phase_matrix(PARTICLE, path, a, DOUBLING)
    length = 2.0 * np.linalg.norm(end)
    coefficient = -a * PARTICLE.charge * PARTICLE.energy * (
        PARTICLE.energy / PARTICLE.speed - PARTICLE.momentum
    ) * length
    assert np.max(np.abs(matrix - coefficient * ORACLE_GAMMA[0])) < 1e-12
    oracle = riemann_phase_matrix(path, PARTICLE, a, nodes=200_000)
    assert np.max(np.abs(matrix - oracle)) < 1e-10


def test_gup_matrix_generic_loop_against_riemann_oracle():
    loop = fourier_loop(np.random.default_rng(79), z_amplitude=0.2)
    matrix = gup_phase_matrix(PARTICLE, loop, 0.01, DOUBLING)
    oracle = riemann_phase_matrix(loop, PARTICLE, 0.01, nodes=400_000)
    assert np.max(np.abs(matrix - oracle)) < 1e-10


def test_gup_matrix_hermiticity():
    loops = [
        circle_loop(radius=1.0),
        rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]),
    ]
    for loop in loops:
        matrix = gup_phase_matrix(PARTICLE, loop, 0.01, DOUBLING)
        # gamma^0 block carries a purely real coefficient, exactly
        assert np.array_equal(np.diag(matrix).imag, np.zeros(4))
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12


def test_gup_projected_worked_value():
    projected = gup_phase_projected(PARTICLE, circle_loop(radius=1.0), 0.01, DOUBLING)
    assert projected == pytest.approx(DELTA_PHI_UNIT_CIRCLE, abs=1e-12)
    oracle = riemann_projected_phase(circle_loop(radius=1.0), PARTICLE, 0.01, nodes=1_000_000)
    assert projected == pytest.approx(oracle, abs=1e-8)


def test_gup_projected_zero_coupling():
    assert gup_phase_projected(PARTICLE, circle_loop(radius=1.0), 0.0, DOUBLING) == 0.0


def test_gup_projected_exact_linearity():
    loop = circle_loop(radius=1.3)
    once = gup_phase_projected(PARTICLE, loop, 0.005, DOUBLING)
    twice = gup_phase_projected(PARTICLE, loop, 0.01, DOUBLING)
    assert twice / once == pytest.approx(2.0, rel=1e-14)


def test_closed_form_across_loop_shapes():
    rng = np.random.default_rng(83)
    a = 0.01
    cases = [
        (circle_loop(radius=1.0), 2.0 * math.pi),
        (circle_loop(radius=2.5), 5.0 * math.pi),
        (rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]), 8.0),
    ]
    for _ in range(10):
        loop = fourier_loop(rng, z_amplitude=rng.uniform(0.0, 0.3))
        length, _ = riemann_tangent_sums(loop, nodes=100_000)
        cases.append((loop, length))
    for loop, length in cases:
        projected = gup_phase_projected(PARTICLE, loop, a, DOUBLING)
        expected = closed_form(PARTICLE, a, length)
        assert projected == pytest.approx(expected, rel=1e-10)


def test_energy_speed_identity():
    # E/v - p = m / (gamma v), the on-shell contraction behind the closed form
    for v in np.linspace(0.01, 0.99, 50):
        particle = ParticleSpec(1.0, 1.0, float(v))
        lhs = particle.energy / particle.speed - particle.momentum
        rhs = particle.mass / (particle.lorentz_gamma * particle.speed)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fixed_spinor_matches_comoving_on_straight_segment():
    path = LoopPath((line_segment((0, 0, 0), (0, 0, 2.0)),), closed=False)
    u = on_shell_spinor((0.0, 0.0, PARTICLE.momentum), PARTICLE.mass)
    fixed = gup_phase_projected(PARTICLE, path, 0.01, DOUBLING, spinor=u)
    comoving = gup_phase_projected(PARTICLE, path, 0.01, DOUBLING)
    assert fixed == pytest.approx(comoving, abs=1e-10)


@pytest.mark.parametrize("power", [-600, -200, 200, 600])
def test_on_shell_spinor_projection_at_any_scale(power):
    # |u|^2 underflowed to 0 at 2^-600 and overflowed at 2^600 when the spinor was not rescaled first
    u = on_shell_spinor(np.array([0.3, -0.2, 0.5]), 1.0)
    loop = circle_loop(radius=2.0)
    unscaled = gup_phase_projected(PARTICLE, loop, 0.01, spinor=u)
    assert gup_phase_projected(PARTICLE, loop, 0.01, spinor=u * 2.0**power) == unscaled


# real and imaginary parts no smaller than 2^-20 of the largest, so that u 2^k stays a normal double for |k| <= 1000
_SPINOR_PART = st.one_of(st.just(0.0), st.floats(2.0**-20, 2.0), st.floats(-2.0, -(2.0**-20)))


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(_SPINOR_PART, min_size=8, max_size=8).filter(any),
    power=st.integers(-1000, 1000),
    a=st.floats(1e-6, 1.0),
)
def test_fixed_spinor_projection_is_scale_free(parts, power, a):
    u = np.array(parts[:4]) + 1j * np.array(parts[4:])
    loop = polyline_loop([(2.0, 0.0, 0.0), (0.0, 2.0, 0.5), (-2.0, -1.0, 0.0)])
    unscaled = phase_rows(loop_geometry(loop, SOLENOID), 1.0, 1.0, 0.6, 1.0, a, u)
    scaled = phase_rows(loop_geometry(loop, SOLENOID), 1.0, 1.0, 0.6, 1.0, a, u * 2.0**power)
    assert scaled.projected_correction == unscaled.projected_correction
    assert scaled.total_phase == unscaled.total_phase


def test_total_phase_zero_coupling_recovers_standard():
    result = total_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0), 0.0, DOUBLING)
    assert result.projected_correction == 0.0
    assert np.array_equal(result.correction_matrix, np.zeros((4, 4), dtype=complex))
    assert result.total_phase == result.standard_phase


def test_total_phase_worked_example():
    result = total_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0), 0.01, DOUBLING)
    assert result.standard_phase == pytest.approx(1.0, abs=1e-10)
    assert result.projected_correction == pytest.approx(2.0 * DELTA_PHI_UNIT_CIRCLE, rel=1e-10)
    assert result.total_phase == pytest.approx(TOTAL_PHASE_R2, abs=1e-9)
    assert result.total_phase == result.standard_phase + result.projected_correction
    assert result.quadrature_error < 1e-10
    assert result.a == 0.01


def test_total_phase_orientation_flip():
    forward = total_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0), 0.01, DOUBLING)
    backward = total_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0, windings=-1), 0.01, DOUBLING)
    assert backward.standard_phase == pytest.approx(-forward.standard_phase, rel=1e-10)
    # the worldline element (E/v - p)|dr| is orientation independent
    assert backward.projected_correction == pytest.approx(forward.projected_correction, rel=1e-10)
    oracle = riemann_phase_matrix(circle_loop(radius=2.0, windings=-1), PARTICLE, 0.01, nodes=200_000)
    assert np.max(np.abs(backward.correction_matrix - oracle)) < 1e-10


def test_phase_result_json_round_trip():
    result = total_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0), 0.01, DOUBLING)
    payload = result.to_json_dict()
    assert len(payload["correction_matrix"]) == 16
    restored = PhaseResult.from_json_dict(payload)
    assert restored.standard_phase == result.standard_phase
    assert restored.total_phase == result.total_phase
    assert np.array_equal(restored.correction_matrix, result.correction_matrix)


def test_dispersion_rest_frame():
    result = dispersion((0.0, 0.0, 0.0), 1.0, 0.0)
    assert np.allclose(result.eigenvalues, [-1.0, -1.0, 1.0, 1.0], atol=1e-15)
    assert result.e_plus == 1.0 and result.e_minus == -1.0


def test_dispersion_worked_value():
    result = dispersion((0.6, 0.0, 0.0), 1.0, 0.1)
    assert result.e_plus == pytest.approx(math.sqrt(1.36) + 0.036, rel=1e-14)
    expected = np.array([result.e_minus, result.e_minus, result.e_plus, result.e_plus])
    assert np.max(np.abs(result.eigenvalues - expected)) < 1e-12


def test_dispersion_branch_uniform_shift():
    rng = np.random.default_rng(89)
    for _ in range(25):
        p3 = rng.uniform(-2.0, 2.0, size=3)
        m = rng.uniform(0.2, 2.0)
        a = rng.uniform(0.0, 0.3)
        base = dispersion(p3, m, 0.0)
        shifted = dispersion(p3, m, a)
        expected_shift = a * float(p3 @ p3)
        assert shifted.e_plus - base.e_plus == pytest.approx(expected_shift, abs=1e-12)
        assert shifted.e_minus - base.e_minus == pytest.approx(expected_shift, abs=1e-12)
        assert np.max(np.abs(shifted.eigenvalues - (base.eigenvalues + expected_shift))) < 1e-12


def test_dispersion_random_agreement():
    rng = np.random.default_rng(97)
    for _ in range(100):
        p3 = rng.uniform(-2.0, 2.0, size=3)
        m = rng.uniform(0.2, 2.0)
        a = rng.uniform(0.0, 0.3)
        result = dispersion(p3, m, a)
        expected = np.array([result.e_minus, result.e_minus, result.e_plus, result.e_plus])
        assert np.max(np.abs(result.eigenvalues - expected)) <= 1e-12


def test_dispersion_domain():
    with pytest.raises(DomainError):
        dispersion((0.1, 0.0, 0.0), -1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    momenta=arrays(
        float, array_shapes(min_dims=1, max_dims=2, max_side=5).map(lambda s: s + (3,)), elements=st.floats(-3.0, 3.0)
    ),
    m=st.floats(0.1, 5.0),
    a=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    per_row=st.sampled_from(["", "m", "a", "ma"]),
    data=st.data(),
)
def test_array_dispersion_matches_scalar_calls(momenta, m, a, per_row, data):
    # m and a are floats, or arrays over the batch that each row reads its own entry of
    batch_shape = momenta.shape[:-1]
    if "m" in per_row:
        m = data.draw(arrays(float, batch_shape, elements=st.floats(0.1, 5.0)))
    if "a" in per_row:
        a = data.draw(arrays(float, batch_shape, elements=st.one_of(st.just(0.0), st.floats(0.0, 0.3))))
    batch = dispersion(momenta, m, a)
    assert batch.e_plus.shape == batch.e_minus.shape == batch_shape
    assert batch.eigenvalues.shape == batch_shape + (4,)
    for index in np.ndindex(batch_shape):
        row_m = m[index] if "m" in per_row else m
        row_a = a[index] if "a" in per_row else a
        row = dispersion(momenta[index], row_m, row_a)
        assert np.array_equal(row.hamiltonian, batch.hamiltonian[index])
        assert row.e_plus == batch.e_plus[index] and row.e_minus == batch.e_minus[index]
        assert np.array_equal(row.eigenvalues, batch.eigenvalues[index])


@pytest.mark.parametrize(
    "p3, m, a",
    [
        ((2.0, 0.0, 0.0), 1.0, 1e308),
        ([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]], 1.0, 1e308),
        ([1, 0, 0], 10**400, 0),
        ([1, 0, 0], 1, 10**400),
    ],
    ids=["vector", "batch", "int-mass", "int-coupling"],
)
def test_dispersion_overflow_raises(p3, m, a):
    # a |p|^2 = 4e308 overflows, and an int beyond the doubles reads as infinite: the branches are not finite
    with pytest.raises(GupabError, match="^dispersion is not finite"):
        dispersion(p3, m, a)


_LARGEST = 1.7976931348623157e308


def _nudged(x, ulps):
    """x moved ``ulps`` representable doubles up (or down, for a negative count)."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else 0.0)
    return x


@st.composite
def _dispersion_near_overflow(draw):
    """(p3, m, a) up to the edge of overflow: components near 1e154, |p|^2 or a |p|^2 within a few ulps of 1.8e308."""
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    component = st.one_of(
        st.floats(-3.0, 3.0), st.floats(-1.4e154, 1.4e154), st.sampled_from([0.0, -0.0, 1e154, -1.3407807929942596e154])
    )
    # or seeded normal draws, whose full mantissas make (alpha.p)^2 and |p|^2 round apart in the last bit
    seeded = st.builds(
        lambda seed, scale: np.random.default_rng(seed).normal(size=shape + (3,)) * scale,
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e100, 1e153]),
    )
    p3 = draw(st.one_of(arrays(float, shape + (3,), elements=component), seeded))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if draw(st.booleans()):  # |p|^2 within a few ulps of the largest double
            p3 = p3 * np.sqrt(_LARGEST / (p3 * p3).sum(axis=-1))[..., None]
            p3 = np.where(np.isfinite(p3), p3, 1e154)
            p3 = _nudged(p3, draw(st.integers(-3, 3)))
        p_sq = (p3 * p3).sum(axis=-1)
        edge = _nudged(np.where(p_sq > 0.0, _LARGEST / p_sq, _LARGEST), draw(st.integers(-3, 3)))
    edge = np.where(np.isfinite(edge), edge, _LARGEST)  # a |p|^2 within a few ulps of the largest double, row by row
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, _LARGEST), st.just(edge), st.just(edge.flat[0])))
    m = draw(st.one_of(st.floats(0.1, 5.0), st.floats(1e-300, 1.4e154), st.just(1.3407807929942596e154)))
    return p3, m, a


@settings(max_examples=400, deadline=None)
@given(_dispersion_near_overflow())
@example((np.array([1.6347830429585774e150, 2.7276877584472174e149, -1.2333286640307717e150]), 1.0, 42120092.66333629))
@example((np.array([2.228175225759626e152, 2.940952821448721e152, -1.340273008766814e154]), 1.0, 0.0))
def test_lazy_hamiltonian_is_the_eager_one_and_never_raises_when_read(inputs):
    # the two examples have finite branches but, through (alpha.p)^2's rounding, a Hamiltonian that is not
    try:
        e_plus, e_minus, hamiltonian = reference_dispersion(*inputs)
    except GupabError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            dispersion(*inputs)
        return
    result = dispersion(*inputs)
    assert np.array_equal(result.e_plus, e_plus) and np.array_equal(result.e_minus, e_minus)
    assert result.hamiltonian.tobytes() == hamiltonian.tobytes()


# Straight edges that reach the coil between the 256 samples of a sampled
# check: a long edge grazing a thin coil, and an edge through the axis.
LONG_EDGE_GRAZING_COIL = (
    polyline_loop([(-50.0, 0.003, 0.0), (50.0, 0.003, 0.0), (50.0, 20.0, 0.0), (-50.0, 20.0, 0.0)]),
    SolenoidSpec(flux=1.0, radius=0.01),
)
EDGE_THROUGH_AXIS = (
    polyline_loop([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]),
    SolenoidSpec(flux=1.0, radius=1e-6),
)
# the same edges as generic curves: the halving of the edge through the axis stops at a sample inside the coil
GENERIC_EDGE_THROUGH_AXIS = (
    LoopPath(tuple(strip_shape(segment) for segment in EDGE_THROUGH_AXIS[0].segments)),
    SolenoidSpec(flux=1.0, radius=0.01),
)


@pytest.mark.parametrize("loop, solenoid", [LONG_EDGE_GRAZING_COIL, EDGE_THROUGH_AXIS, GENERIC_EDGE_THROUGH_AXIS])
def test_straight_edge_reaching_coil_rejected(loop, solenoid):
    for path in (loop, loop.reverse()):
        with pytest.raises(GeometryError, match="^loop enters the solenoid interior"):
            ab_phase(PARTICLE, solenoid, path, DOUBLING)
        with pytest.raises(GeometryError, match="^loop enters the solenoid interior"):
            total_phase(PARTICLE, solenoid, path, 0.01, DOUBLING)


def test_straight_edge_clearance_is_exact():
    # closest approach of the edge y = 0.5 is 0.5 at x = 0; the sampled
    # nodes never land there, yet a coil just inside it is still accepted
    loop = polyline_loop([(-1.0, 0.5, 0.0), (1.0, 0.5, 0.0), (0.0, 2.0, 0.0)])
    assert ab_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.4999999), loop) == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(GeometryError):
        ab_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.5), loop)
    # axis along x: two edges run parallel to it (no radial motion), the
    # other two cross 0.25 from it, inside the 0.3 coil
    tilted = SolenoidSpec(flux=1.0, radius=0.3, axis_direction=(1.0, 0.0, 0.0))
    square = polyline_loop([(0.0, 0.25, -1.0), (1.0, 0.25, -1.0), (1.0, 0.25, 1.0), (0.0, 0.25, 1.0)])
    with pytest.raises(GeometryError):
        ab_phase(PARTICLE, tilted, square)


def test_comoving_projection_matches_riemann_oracle():
    rng = np.random.default_rng(89)
    loops = [
        polyline_loop([(2, 0, 0), (0, 2, 0.5), (-2, -1, 0), (1, -1.5, -0.3)]),
        circle_loop(radius=1.5, windings=3),
        fourier_loop(rng, z_amplitude=0.2),
    ]
    for loop in loops:
        projected = gup_phase_projected(PARTICLE, loop, 0.02, DOUBLING)
        assert projected == pytest.approx(riemann_projected_phase(loop, PARTICLE, 0.02, nodes=200_000), rel=1e-9)


def test_total_phase_builds_matrix_once_for_fixed_spinor(monkeypatch):
    calls = []
    original = phase_engine._matrix_base

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(phase_engine, "_matrix_base", counted)
    u = on_shell_spinor((0.3, 0.0, 0.4), PARTICLE.mass)
    result = total_phase(PARTICLE, SOLENOID, circle_loop(radius=2.0), 0.01, DOUBLING, u)
    assert len(calls) == 1
    alone = gup_phase_projected(PARTICLE, circle_loop(radius=2.0), 0.01, DOUBLING, u)
    assert result.projected_correction == alone


def test_a_given_spinor_selects_the_fixed_spinor_projection():
    # on the README circle <u|gamma^0|u> = -1 for u = (0, 0, 1, 0), so the fixed spinor flips the comoving sign
    loop, u = circle_loop(radius=2.0), np.array([0.0, 0.0, 1.0, 0.0])
    geometry = loop_geometry(loop, SOLENOID)

    def fixed_spinor(matrix):
        return np.vdot(u, matrix @ u).real / np.vdot(u, u).real

    for result in (total_phase(PARTICLE, SOLENOID, loop, 0.01, spinor=u), phase_rows(geometry, 1.0, 1.0, 0.6, 1.0, 0.01, spinor=u)):
        assert result.projected_correction == pytest.approx(fixed_spinor(result.correction_matrix), rel=1e-15)
        assert result.projected_correction == pytest.approx(0.20944, abs=1e-5)
    projected = gup_phase_projected(PARTICLE, loop, 0.01, spinor=u)
    assert projected == pytest.approx(fixed_spinor(gup_phase_matrix(PARTICLE, loop, 0.01)), rel=1e-15)
    assert projected == pytest.approx(0.20944, abs=1e-5)
    for comoving in (
        total_phase(PARTICLE, SOLENOID, loop, 0.01).projected_correction,
        phase_rows(geometry, 1.0, 1.0, 0.6, 1.0, 0.01).projected_correction,
        gup_phase_projected(PARTICLE, loop, 0.01),
    ):
        assert comoving == pytest.approx(-0.16755, abs=1e-5)


def test_circle_grazing_coil_rejected():
    # two turns passing 0.0004 from the axis of a 0.001 coil, between the samples a sampled check takes
    loop = circle_loop(center=(2.0004, 0.0, 0.0), radius=2.0, windings=2)
    solenoid = SolenoidSpec(flux=1.0, radius=0.001)
    for path in (loop, loop.reverse()):
        with pytest.raises(GeometryError):
            ab_phase(PARTICLE, solenoid, path, DOUBLING)
        with pytest.raises(GeometryError):
            total_phase(PARTICLE, solenoid, path, 0.01, DOUBLING)


def test_near_coil_square_is_exact():
    # an edge 0.0015 from the axis of a 0.001 coil: node doubling stops at its cap far above
    # the tolerance there, while the swept azimuth is exact
    square = polyline_loop([(-0.0015, -1.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, 0.0), (-0.0015, 1.0, 0.0)])
    result = total_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.001), square, 0.01, DOUBLING)
    assert result.standard_phase == pytest.approx(1.0, abs=1e-12)
    perimeter = 2.0 * 2.0 + 2.0 * 1.0015
    assert result.projected_correction == pytest.approx(closed_form(PARTICLE, 0.01, perimeter), rel=1e-14)
    assert result.quadrature_error == 0.0


@pytest.mark.parametrize("center", [(1.5, 0.0, 0.0), (7.0, 0.0, 0.0)])
@pytest.mark.parametrize("windings", [10**5, -(10**5)])
def test_whole_turns_are_counted_in_closed_form(center, windings):
    # each whole turn adds 2 pi about an axis inside the circle and 0 about one outside,
    # with no per-turn sub-arcs: the memory peak does not grow with the windings
    particle, solenoid = ParticleSpec(charge=-1.5, mass=1.0, speed=0.6), SolenoidSpec(flux=0.7, radius=0.1)
    loop = circle_loop(center=center, radius=2.0, windings=windings)
    tracemalloc.start()
    try:
        result = total_phase(particle, solenoid, loop, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    inside = center[0] < 2.0
    assert result.standard_phase == (particle.charge * solenoid.flux * windings if inside else 0.0)
    assert peak < 64_000


@pytest.mark.parametrize("windings", [2, -2, 3, -3, 63, -126])
def test_multi_winding_circle_phase_is_exact(windings):
    # one arc of several turns around an off-center axis, under the default fixed 16-node rule
    for center in ((1.5, 0.0, 0.0), (0.3, -0.2, 1.0)):
        loop = circle_loop(center=center, radius=2.0, windings=windings)
        result = total_phase(PARTICLE, SOLENOID, loop, 0.01, QuadratureSpec())
        assert result.standard_phase == pytest.approx(PARTICLE.charge * SOLENOID.flux * windings, abs=1e-12)
        assert result.quadrature_error == 0.0
        backward = ab_phase(PARTICLE, SOLENOID, loop.reverse(), QuadratureSpec())
        assert abs(result.standard_phase + backward) <= 1e-14


def test_reverse_negates_phase_of_arcs_and_polylines():
    half_disk = LoopPath(
        (arc_segment((0.0, -0.5, 0.0), 2.0, 0.0, math.pi), line_segment((-2.0, -0.5, 0.0), (2.0, -0.5, 0.0)))
    )
    cases = [
        (half_disk, 1.0),
        (polyline_loop([(2, 0, 0), (0, 2, 0.5), (-2, -1, 0), (1, -1.5, -0.3)]), 1.0),
        (polyline_loop([(3, 1, 0), (4, 1, 0), (4, 2, 0)]), 0.0),
        (LoopPath((arc_segment((0.5, 0.2, 0.0), 1.5, 0.3, 7.3),), closed=False), None),
        (LoopPath((line_segment((1.0, -1.0, 0.0), (1.0, 1.0, 0.0)),), closed=False), 0.25),
    ]
    for path, expected in cases:
        forward = ab_phase(PARTICLE, SOLENOID, path, QuadratureSpec())
        if expected is not None:
            assert forward == pytest.approx(expected, abs=1e-12)
        assert abs(forward + ab_phase(PARTICLE, SOLENOID, path.reverse(), QuadratureSpec())) <= 1e-14


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_arc_phase_scales_with_the_loop(scale):
    # an arc's end terms take no squares, so they neither underflow nor overflow
    def half_disk(s):
        arc = arc_segment((0.0, -0.5 * s, 0.0), 2.0 * s, 0.0, math.pi)
        return LoopPath((arc, line_segment((-2.0 * s, -0.5 * s, 0.0), (2.0 * s, -0.5 * s, 0.0))))

    base = total_phase(PARTICLE, SOLENOID, half_disk(1.0), 0.01)
    scaled = total_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.1 * scale), half_disk(scale), 0.01)
    assert scaled.standard_phase == pytest.approx(base.standard_phase, rel=1e-13)
    assert scaled.projected_correction == pytest.approx(base.projected_correction * scale, rel=1e-13, abs=0.0)
    # by the nearest power of 2, with a scaled inversely, both phases keep every bit
    power = 2.0 ** round(math.log2(scale))
    exact = total_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.1 * power), half_disk(power), 0.01 / power)
    assert (exact.standard_phase, exact.projected_correction) == (base.standard_phase, base.projected_correction)


_STAR = [(1.0, 0.0), (1.5, 0.1), (2.0, -0.2), (1.2, 0.0)]


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(-200, 200),
    u=st.floats(-600.0, 600.0),
    center=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
    star=st.lists(st.tuples(st.floats(1.0, 2.0), st.floats(-0.2, 0.2)), min_size=3, max_size=8),
)
@example(k=200, u=600.0, center=(0.5, -0.3, 0.0), star=_STAR)
@example(k=-200, u=-600.0, center=(0.5, -0.3, 0.0), star=_STAR)
@example(k=-200, u=-600.0, center=(2.5, 0.0, 0.0), star=_STAR)  # axis outside the loop
def test_polyline_phase_scales_with_the_loop(k, u, center, star):
    # scaling a polyline and its coil by 10^k keeps the flux phase and scales the correction by 10^k
    n = len(star)
    angles = [2.0 * math.pi * (i + jitter) / n for i, (_, jitter) in enumerate(star)]
    points = np.array([(r * math.cos(t), r * math.sin(t), 0.0) for (r, _), t in zip(star, angles)]) + center
    coil = SolenoidSpec(flux=1.0, radius=0.05)
    loop = polyline_loop(points)
    assume(loop_geometry(loop, coil).clearance > 0.06)
    scale = 10.0**k
    base = total_phase(PARTICLE, coil, loop, 0.01)
    scaled = total_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.05 * scale), polyline_loop(points * scale), 0.01)
    assert scaled.standard_phase == pytest.approx(base.standard_phase, rel=1e-13, abs=1e-13)
    assert scaled.projected_correction == pytest.approx(base.projected_correction * scale, rel=1e-13, abs=0.0)
    # by the nearest power of 2, with a scaled inversely, both phases keep every bit
    power = 2.0 ** round(k * math.log2(10.0))
    exact = total_phase(PARTICLE, SolenoidSpec(flux=1.0, radius=0.05 * power), polyline_loop(points * power), 0.01 / power)
    assert (exact.standard_phase, exact.projected_correction) == (base.standard_phase, base.projected_correction)
    # by a scale e^u that is not a power of 2, with a scaled inversely, the scaled vertices round, so both phases
    # may move in their last bits: the flux phase by at most 1e-15 max(1, |phase|), the correction 1e-14 relative
    any_scale = math.exp(u)
    if math.frexp(any_scale)[0] != 0.5:
        coil_s, loop_s = SolenoidSpec(flux=1.0, radius=0.05 * any_scale), polyline_loop(points * any_scale)
        rescaled = total_phase(PARTICLE, coil_s, loop_s, 0.01 / any_scale)
        assert abs(rescaled.standard_phase - base.standard_phase) <= 1e-15 * max(1.0, abs(base.standard_phase))
        assert rescaled.projected_correction == pytest.approx(base.projected_correction, rel=1e-14, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=2, max_size=5).map(lambda pts: ("polyline", pts)),
        st.tuples(st.floats(0.3, 2.0), st.floats(-math.pi, math.pi), st.floats(-12.0, 12.0)).map(
            lambda arc: ("arc", arc)
        ),
    )
)
@example(("polyline", [(0.0, 0.0, 0.0), (0.0, 0.0, 1.5073996106649576e-256)]))  # |step|^2 underflows to 0
def test_open_path_matrix_property(shape):
    # open paths keep the -p dx . gamma part of the closed form; the Riemann oracle sums the integrand
    kind, params = shape
    if kind == "polyline":
        pieces = [line_segment(a, b) for a, b in zip(params[:-1], params[1:]) if a != b]
    else:
        radius, theta0, sweep = params
        pieces = [arc_segment((0.2, -0.1, 0.4), radius, theta0, theta0 + sweep)] if abs(sweep) > 1e-3 else []
    if not pieces:
        return
    path = LoopPath(tuple(pieces), closed=False)
    for oriented in (path, path.reverse()):
        matrix = gup_phase_matrix(PARTICLE, oriented, 0.02, DOUBLING)
        oracle = riemann_phase_matrix(oriented, PARTICLE, 0.02, nodes=100_000)
        assert np.max(np.abs(matrix - oracle)) < 1e-9
        projected = gup_phase_projected(PARTICLE, oriented, 0.02, DOUBLING)
        assert projected == pytest.approx(riemann_projected_phase(oriented, PARTICLE, 0.02, nodes=100_000), rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    q=st.floats(-2.0, 2.0),
    m=st.floats(0.2, 5.0),
    v=st.floats(0.05, 0.95),
    flux=st.floats(-3.0, 3.0),
    a=st.one_of(st.floats(0.0, 0.2), st.floats(1e5, 1e10)),
    vertices=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-0.5, 0.5)), min_size=3, max_size=6),
    closed=st.booleans(),
    spinor=st.one_of(st.none(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)),
)
def test_one_row_keeps_the_scalar_operation_order(q, m, v, flux, a, vertices, closed, spinor):
    # the same bits as the scalar assembly, written out here with Python floats, math.sqrt and np.vdot
    points = vertices + vertices[:1] if closed else vertices
    assume(all(math.dist(p0, p1) > 1e-6 for p0, p1 in zip(points[:-1], points[1:])))
    assume(spinor is None or sum(c * c for c in spinor) > 1e-6)
    path = LoopPath(tuple(line_segment(p0, p1) for p0, p1 in zip(points[:-1], points[1:])), closed=closed)
    coil = SolenoidSpec(flux=flux, radius=1e-3)
    geometry = loop_geometry(path, coil)
    assume(geometry.clearance > coil.radius)
    particle = ParticleSpec(charge=q, mass=m, speed=v)
    result = total_phase(particle, coil, path, a, spinor=spinor)

    energy = 1.0 / math.sqrt(1.0 - v * v) * m
    momentum = energy * v
    base = energy * path.length * gamma(0)
    if not closed:
        spatial = np.stack([gamma(1), gamma(2), gamma(3)])
        base = base - momentum * np.tensordot(path.ends[-1, 1] - path.ends[0, 0], spatial, axes=1)
    matrix = -a * q * ((energy / v - momentum) * base) + 0.0
    if spinor is None:
        projected = m / energy * float(matrix[0, 0].real)
    else:
        u = np.asarray(spinor, dtype=complex)
        u = u / 2.0 ** (math.frexp(float(np.max(np.abs(u))))[1] - 1)  # first rescaled to a largest modulus in [1, 2)
        projected = float(np.real(np.vdot(u, matrix @ u))) / float(np.real(np.vdot(u, u)))
    standard = q * flux * geometry.turns
    assert result.correction_matrix.tobytes() == matrix.tobytes()
    assert (result.standard_phase, result.projected_correction, result.total_phase) == (
        standard,
        projected,
        standard + projected,
    )


_STRIPPED_LOOPS = {
    "circle": circle_loop(radius=2.0),
    "offset-circle": circle_loop(center=(0.5, -0.3, 0.2), radius=1.3, windings=-2),
    "square": rectangle_loop([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(_STRIPPED_LOOPS))
@settings(max_examples=50, deadline=None)
@given(flux=st.floats(-300.0, 300.0))
@example(flux=0.0)
@example(flux=-2.0)
@example(flux=300.0)
def test_generic_curve_phase_within_its_error_at_any_flux(name, flux):
    # the same pieces as generic curves: the turns come from one integral at unit flux, which q Phi scales
    loop = _STRIPPED_LOOPS[name]
    stripped = LoopPath(tuple(strip_shape(seg) for seg in loop.segments))
    solenoid = SolenoidSpec(flux=flux, radius=0.1)
    exact = total_phase(PARTICLE, solenoid, loop, 0.01)
    result = total_phase(PARTICLE, solenoid, stripped, 0.01)
    assert exact.quadrature_error == 0.0
    assert abs(result.standard_phase - exact.standard_phase) <= result.quadrature_error


def test_a_generic_circle_beside_a_thin_coil_finds_its_clearance():
    # radius-2 circles 0.0004 and 0.0025 from the axis of a coil of radius 0.001, whose nearest stretch a
    # fixed sample misses: the chords find the first entering the coil, and the second winding 0 times
    solenoid = SolenoidSpec(flux=1.0, radius=1e-3)
    near, clear = (LoopPath((strip_shape(circle_loop(center=(x, 0.0, 0.0), radius=2.0).segments[0]),)) for x in (2.0004, 2.0025))
    with pytest.raises(GeometryError, match="enters the solenoid interior"):
        total_phase(PARTICLE, solenoid, near, 0.01)
    geometry = loop_geometry(clear, solenoid)
    assert abs(geometry.turns) <= geometry.turns_error
    assert geometry.clearance == pytest.approx(0.0025, rel=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ab_phase(ParticleSpec(charge=1e308, mass=1.0, speed=0.6), SolenoidSpec(flux=10.0, radius=0.1), _LOOP),
        lambda: gup_phase_matrix(PARTICLE, _LOOP, 1e308),
        lambda: gup_phase_projected(PARTICLE, _LOOP, 1e308),
        lambda: gup_phase_projected(PARTICLE, _LOOP, 1e308, spinor=[1.0, 0.0, 0.0, 0.0]),
        lambda: gup_phase_matrix(PARTICLE, _LOOP, math.inf),
    ],
)
def test_library_phases_that_overflow_raise(call):
    # q Phi = 1e309 and a q (E / v - p) L overflow: an error, as phase_rows gives, not an inf or a warning
    with pytest.raises(GupabError, match="not finite"):
        call()


@pytest.mark.parametrize("charge, a", [(1.0, 0.0), (0.0, 0.01), (-0.0, 0.01), (0.0, 0.0)])
def test_correction_is_exactly_zero_at_a_zero_however_heavy_the_particle(charge, a):
    # (E / v - p) E L overflows, and -a q times it would be 0 * inf = NaN: at a = 0 or q = 0 it is exactly +0.0 instead
    heavy = ParticleSpec(charge=charge, mass=1e300, speed=0.5)
    matrix = gup_phase_matrix(heavy, _LOOP, a)
    assert matrix.shape == (4, 4) and np.array_equal(matrix.view(float), np.zeros((4, 8)))
    assert not np.signbit(matrix.view(float)).any()
    for projected in (gup_phase_projected(heavy, _LOOP, a), gup_phase_projected(heavy, _LOOP, a, spinor=[1, 0, 0, 0])):
        assert projected == 0.0 and not math.copysign(1.0, projected) < 0.0
    assert ab_phase(heavy, SOLENOID, _LOOP) == charge
    result = total_phase(heavy, SOLENOID, _LOOP, a)
    assert (result.standard_phase, result.projected_correction, result.quadrature_error) == (charge, 0.0, 0.0)
    # a charged particle at any a > 0 still overflows, also where -a q underflows to 0 but a q times the base need not
    charged, underflow = ParticleSpec(charge=1.0, mass=1e300, speed=0.5), ParticleSpec(charge=1e-300, mass=1e300, speed=0.5)
    for call in (
        lambda: gup_phase_matrix(charged, _LOOP, 1e-300),
        lambda: gup_phase_projected(charged, _LOOP, 0.01),
        lambda: total_phase(charged, SOLENOID, _LOOP, 0.01),
        lambda: total_phase(underflow, SOLENOID, _LOOP, 1e-30),
    ):
        with pytest.raises(GupabError, match="not finite"):
            call()


def test_single_quantity_functions_read_one_phase_row(monkeypatch):
    calls = []
    original = phase_engine.phase_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(phase_engine, "phase_rows", counted)
    u = on_shell_spinor((0.3, 0.0, 0.4), PARTICLE.mass)
    for call in (
        lambda: ab_phase(PARTICLE, SOLENOID, _LOOP),
        lambda: gup_phase_matrix(PARTICLE, _LOOP, 0.01),
        lambda: gup_phase_projected(PARTICLE, _LOOP, 0.01),
        lambda: gup_phase_projected(PARTICLE, _LOOP, 0.01, None, u),
    ):
        call()
        assert len(calls) == 1
        calls.clear()


_CIRCLES = st.builds(
    lambda x, y, radius, windings: circle_loop(center=(x, y, 0.0), radius=radius, windings=windings),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.5, 3.0),
    st.sampled_from([-2, -1, 1, 2, 3]),
)
_POLYGONS = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=3, max_size=8, unique=True).map(
    lambda points: polyline_loop([(x, y, 0.0) for x, y in points])
)


@settings(max_examples=150, deadline=None)
@given(
    loop=st.one_of(_CIRCLES, _POLYGONS),
    charge=st.floats(-1e6, 1e6),
    flux=st.floats(-1e3, 1e3),
    mass=st.floats(1e-300, 1e300),
    speed=st.floats(5e-324, 1.0 - 2.0**-53),
)
@example(loop=circle_loop(radius=2.0), charge=1.0, flux=1.0, mass=1e300, speed=0.5)
@example(loop=circle_loop(radius=2.0), charge=-3.0, flux=0.5, mass=1e-300, speed=5e-324)
def test_ab_phase_depends_on_the_particle_only_through_its_charge(loop, charge, flux, mass, speed):
    # the standard phase of a row at a = 0, whose correction is exactly zero even where E / v or E L overflows
    solenoid = SolenoidSpec(flux=flux, radius=0.1)
    assume(loop_geometry(loop, solenoid).clearance > solenoid.radius)
    expected = ab_phase(ParticleSpec(charge, 1.0, 0.6), solenoid, loop)
    assert ab_phase(ParticleSpec(charge, mass, speed), solenoid, loop).hex() == expected.hex()


def test_a_radius_column_needs_a_loop_of_one_arc():
    radius = np.array([1.0, 2.0])
    two_arcs = LoopPath((arc_segment((0.0, 0.0, 0.0), 2.0, 0.0, math.pi), arc_segment((0.0, 0.0, 0.0), 2.0, math.pi, 0.0)))
    for loop in (rectangle_loop([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]), two_arcs):
        with pytest.raises(GeometryError, match="a column of radii needs a loop of one arc"):
            loop_geometry(loop, None, radius=radius)
        with pytest.raises(GeometryError, match="a column of radii needs a loop of one arc"):
            loop_geometry(loop, SOLENOID, radius=radius)


def test_phase_rows_raise_for_the_first_failing_row():
    geometry = loop_geometry(circle_loop(radius=2.0), SOLENOID)
    with pytest.raises(DomainError, match="a must be nonnegative"):
        phase_rows(geometry, 1.0, 1.0, 0.6, 1.0, np.array([0.01, -0.01, 1e308]))
    with pytest.raises(GupabError, match="not finite"):
        phase_rows(geometry, 1.0, 1.0, 0.6, 1.0, np.array([0.01, 1e308, -0.01]))
    with pytest.raises(DomainError, match="a must be nonnegative"):  # the second row also overflows
        phase_rows(geometry, 1.0, 1.0, 0.6, 1.0, np.array([0.01, -1e308]))
    rows = phase_rows(geometry, 1.0, 1.0, np.array([0.3, 0.6]), 1.0, 0.01)
    assert rows.correction_matrix.shape == (2, 4, 4) and rows.total_phase.shape == (2,)
    # within a row the coil comes first, then a, then finiteness; across rows the first failing row wins
    column = loop_geometry(circle_loop(radius=2.0), SOLENOID, radius=np.array([2.0, 0.05, 2.0]))
    with pytest.raises(GeometryError, match="enters the solenoid"):
        phase_rows(column, 1.0, 1.0, 0.6, 1.0, np.array([0.01, -1e308, -0.01]))
    with pytest.raises(DomainError, match="a must be nonnegative"):
        phase_rows(column, 1.0, 1.0, 0.6, 1.0, np.array([-0.01, 0.01, 0.01]))
    with pytest.raises(GupabError, match="not finite"):
        phase_rows(column, 1.0, 1.0, np.array([1e-320, 0.6, 0.6]), 1.0, 0.01)


# each shared check: (check, values it accepts, values it rejects, message)
_SHARED_CHECKS = {
    "a": (nonnegative_a, [0.0, -0.0, 5e-324, 0.5, 1e308], [-5e-324, -1.0, -1e308, -math.inf], "a must be nonnegative"),
    "m": (positive_mass, [5e-324, 1.0, 1e308], [0.0, -0.0, -1.0, -1e308, math.nan], "m must be positive"),
    "v": (
        subluminal_speed,
        [5e-324, 0.5, 0.9999999999999999],
        [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, math.nan],
        "v must be in (0,1)",
    ),
    "flux": (finite_flux, [0.0, -0.0, 1e308, -1e308], [math.inf, -math.inf, math.nan], "flux must be finite"),
}


@pytest.mark.parametrize("quantity", sorted(_SHARED_CHECKS))
def test_shared_check_on_a_float_and_a_column(quantity):
    check, good, bad, message = _SHARED_CHECKS[quantity]
    for value in good:
        mask, _, _ = check(value)
        assert not mask
        raise_first(check(value))
    for value in bad:
        with pytest.raises(DomainError) as caught:
            raise_first(check(value))
        assert str(caught.value) == message
    rng = np.random.default_rng(len(quantity))
    for _ in range(20):
        column = rng.permutation(good + rng.choice(bad, size=rng.integers(0, 3)).tolist())
        mask, error, text = check(column)
        assert (error, text) == (DomainError, message)
        assert np.array_equal(mask, [value not in good for value in column.tolist()])
        if mask.any():
            with pytest.raises(DomainError, match=re.escape(message)):
                raise_first(check(column))
        else:
            raise_first(check(column))


_LOOP = circle_loop(radius=2.0)
_GRID = gup_algebra.MomentumGrid.uniform(0.5, 2.5, 64)
_SHAPE = "momentum must be a 3-vector or an (..., 3) array of them"
_STATE = gup_algebra.gaussian_state(_GRID)
_CALLERS = [
    ("a must be nonnegative", lambda: GupParameter(a=-1.0)),
    ("a must be nonnegative", lambda: gup_phase_matrix(PARTICLE, _LOOP, -1.0)),
    ("a must be nonnegative", lambda: total_phase(PARTICLE, SOLENOID, _LOOP, -1.0)),
    ("a must be nonnegative", lambda: dispersion([1.0, 0.0, 0.0], 1.0, np.array([0.1, -1.0]))),
    ("a must be nonnegative", lambda: gup_algebra.deform_momentum([1.0, 0.0, 0.0], -1.0)),
    ("a must be nonnegative", lambda: gup_algebra.commutator_target([1.0, 0.0, 0.0], 1, 1, -1.0)),
    ("a must be nonnegative", lambda: gup_algebra.grid_operator_lab(_GRID, -1.0)),
    ("a must be nonnegative", lambda: gup_algebra.uncertainty_check(_GRID, _STATE, [0.1, -1.0])),
    # NaN is not nonnegative either
    ("a must be nonnegative", lambda: GupParameter(a=math.nan)),
    ("a must be nonnegative", lambda: gup_phase_matrix(PARTICLE, _LOOP, math.nan)),
    ("a must be nonnegative", lambda: gup_phase_projected(PARTICLE, _LOOP, math.nan)),
    ("a must be nonnegative", lambda: gup_algebra.uncertainty_check(_GRID, _STATE, math.nan)),
    ("m must be positive", lambda: ParticleSpec(charge=1.0, mass=0.0, speed=0.6)),
    ("m must be positive", lambda: on_shell_spinor([1.0, 0.0, 0.0], np.array([1.0, -1.0]))),
    ("m must be positive", lambda: dispersion([1.0, 0.0, 0.0], 0.0, 0.1)),
    ("v must be in (0,1)", lambda: ParticleSpec(charge=1.0, mass=1.0, speed=1.0)),
    ("flux must be finite", lambda: SolenoidSpec(flux=math.inf, radius=0.1)),
    # an int past the doubles reads as the infinity of its sign
    ("flux must be finite", lambda: SolenoidSpec(flux=10**400, radius=0.1)),
    ("flux must be finite", lambda: SolenoidSpec(flux=-(10**400), radius=0.1)),
    ("m must be positive", lambda: ParticleSpec(charge=1.0, mass=-(10**400), speed=0.6)),
    ("v must be in (0,1)", lambda: ParticleSpec(charge=1.0, mass=1.0, speed=10**400)),
    ("q must be finite", lambda: ParticleSpec(charge=math.nan, mass=1.0, speed=0.6)),
    (_SHAPE, lambda: momenta([1.0, 2.0])),
    (_SHAPE, lambda: dispersion(1.0, 1.0, 0.1)),
    (_SHAPE, lambda: on_shell_spinor(np.zeros((4, 2)), 1.0)),
    (_SHAPE, lambda: gup_algebra.deform_momentum([1.0, 2.0], 0.1)),
    (_SHAPE, lambda: gup_algebra.jacobian_commutator(2.0, 1, 1, 0.1)),
    ("spinor must have four components", lambda: gup_phase_projected(PARTICLE, _LOOP, 0.01, None, np.ones(3))),
    ("spinor must have four components", lambda: total_phase(PARTICLE, SOLENOID, _LOOP, 0.01, None, np.ones(3))),
    ("spinor must be nonzero", lambda: gup_phase_projected(PARTICLE, _LOOP, 0.01, None, np.zeros(4))),
    ("spinor must be nonzero", lambda: total_phase(PARTICLE, SOLENOID, _LOOP, 0.01, None, np.zeros(4))),
    # a value that is not numbers, such as the old projection string, and entries that are not finite doubles
    ("spinor must have four components", lambda: total_phase(PARTICLE, SOLENOID, _LOOP, 0.01, None, "comoving_on_shell")),
    ("spinor must have four components", lambda: gup_phase_projected(PARTICLE, _LOOP, 0.01, None, {"u": 1.0})),
    ("spinor must be finite", lambda: total_phase(PARTICLE, SOLENOID, _LOOP, 0.01, None, (10**400, 0, 0, 0))),
    ("spinor must be finite", lambda: total_phase(PARTICLE, SOLENOID, _LOOP, 0.01, None, (math.nan, 0, 0, 0))),
    ("spinor must be finite", lambda: gup_phase_projected(PARTICLE, _LOOP, 0.01, None, (math.inf, 1, 0, 0))),
]


def test_the_specs_read_an_int_past_the_doubles_as_an_infinity():
    # as an inf: the same record, the same error, and no bare OverflowError
    for mass in (10**400, math.inf):
        with pytest.raises(DomainError, match="^m must be finite$"):
            ParticleSpec(1.0, mass, 0.5)
    for charge in (10**400, math.inf, -(10**400), -math.inf):
        with pytest.raises(DomainError, match="^q must be finite$"):
            ParticleSpec(charge, 1.0, 0.5)
    for radius in (10**400, math.inf):
        with pytest.raises(DomainError, match="^radius must be finite$"):
            SolenoidSpec(1.0, radius)


def test_every_number_reads_a_str_as_the_number_it_spells_and_anything_else_unreadable_as_a_domain_error():
    # one rule for the specs, the loop builders and the coupling: errors.to_float's
    assert ParticleSpec(1.0, 1.0, "0.5") == ParticleSpec(1.0, 1.0, 0.5)
    assert type(ParticleSpec("1", "2.0", "0.5").charge) is float
    assert SolenoidSpec("1.0", 0.1) == SolenoidSpec(1.0, 0.1)
    assert circle_loop(radius="2.0") == circle_loop(radius=2.0)
    assert GupParameter("0.1") == GupParameter(0.1)
    for build in (
        lambda: ParticleSpec(1.0, 1.0, "abc"),
        lambda: ParticleSpec(None, 1.0, 0.5),
        lambda: SolenoidSpec("abc", 0.1),
        lambda: circle_loop(radius="abc"),
        lambda: GupParameter(None),
    ):
        with pytest.raises(DomainError, match="^not a number: "):
            build()
    for value in ("abc", {"x": 1.0}, [[1.0, 2.0], [3.0]]):
        with pytest.raises(DomainError, match="^not a number or an array of numbers: "):
            to_floats(value)


@pytest.mark.parametrize("message, call", _CALLERS)
def test_every_caller_reports_the_shared_message(message, call):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("loop", [_LOOP, polyline_loop([(2.0, 0.0, 0.0), (-1.0, 2.0, 0.0), (-1.0, -2.0, 0.0)])])
@pytest.mark.parametrize("quad", [np.array([0.0, 0.0, 1.0, 0.0]), "fixed"])
def test_quad_must_be_a_quadrature_spec_even_where_nothing_is_integrated(loop, quad):
    # lines and arcs take closed forms that read no quad, so the check cannot wait for an integral
    calls = [
        lambda: total_phase(PARTICLE, SOLENOID, loop, 0.01, quad),
        lambda: ab_phase(PARTICLE, SOLENOID, loop, quad),
        lambda: gup_phase_matrix(PARTICLE, loop, 0.01, quad),
        lambda: gup_phase_projected(PARTICLE, loop, 0.01, quad),
    ]
    for call in calls:
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == "quad must be a QuadratureSpec"
