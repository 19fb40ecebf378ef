import math
import re
import warnings

import numpy as np
import pytest
from helpers import (
    dense_commutator_residual,
    exact_brackets,
    exact_deformed,
    exact_factor,
    reference_bracket_deviations,
    reference_lab_fields,
    reference_position,
    reference_uncertainty_check,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gupab.errors import DomainError, GupabError, SingularInputError
from gupab.gup_algebra import (
    _BOUNDARY_MARGIN,
    _MAX_GRID_POINTS,
    MomentumGrid,
    _bracket_deviations,
    _position,
    _real_brackets,
    _trapezoid_weights,
    commutator_consistency_exponent,
    commutator_target,
    consistency_exponents,
    deform_momentum,
    deformation_factor,
    gaussian_state,
    grid_operator_lab,
    jacobian_commutator,
    uncertainty_check,
)

# Regression value frozen from a converged run of the lab itself
# ([1, 2] grid, 256 points, a = 0.05, default probe).
LAB_RESIDUAL_256_A005 = 3.018884822828527e-4


def test_deform_identity_at_zero_coupling():
    p0 = np.array([0.3, -1.2, 0.7])
    assert np.array_equal(deform_momentum(p0, 0.0), p0)


def test_deform_worked_value():
    # independent scalar evaluation: 1 - 0.1 + 2 * 0.01 = 0.92
    assert np.allclose(deform_momentum((1.0, 0.0, 0.0), 0.1), [0.92, 0.0, 0.0], atol=1e-15)


def test_deform_fixes_zero_vector():
    for a in (0.0, 0.05, 0.3):
        assert np.array_equal(deform_momentum((0.0, 0.0, 0.0), a), np.zeros(3))


def test_deform_preserves_direction():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p0 = rng.uniform(-2.0, 2.0, size=3)
        out = deform_momentum(p0, rng.uniform(0.0, 0.3))
        assert np.max(np.abs(np.cross(out, p0))) < 1e-14
        # scaling factor is positive: discriminant of 1 - x + 2x^2 is negative
        assert out @ p0 >= 0.0


def test_deform_rejects_negative_coupling():
    with pytest.raises(DomainError):
        deform_momentum((1.0, 0.0, 0.0), -0.1)


def test_target_canonical_limit():
    assert commutator_target((0.0, 0.0, 0.0), 1, 1, 0.0) == 1j
    assert commutator_target((1.0, 2.0, 3.0), 1, 2, 0.0) == 0.0


def test_target_worked_value():
    # frozen from scalar evaluation: p = 0.92, 1 - 0.1*(0.92+0.92) + 0.01*(4*0.8464)
    value = commutator_target((1.0, 0.0, 0.0), 1, 1, 0.1)
    assert value == pytest.approx(0.849856j, abs=1e-15)


def test_target_vanishing_cross_term():
    for a in (0.01, 0.2):
        assert commutator_target((1.0, 0.0, 0.0), 2, 3, a) == 0.0


def test_jacobian_canonical_limit():
    assert jacobian_commutator((0.0, 0.0, 0.0), 2, 2, 0.0) == 1j
    assert jacobian_commutator((0.5, 0.5, 0.5), 1, 3, 0.0) == 0.0


def test_jacobian_worked_value():
    value = jacobian_commutator((1.0, 0.0, 0.0), 1, 1, 0.1)
    assert value == pytest.approx(0.86j, abs=1e-15)


def test_jacobian_target_gap_worked_value():
    gap = jacobian_commutator((1.0, 0.0, 0.0), 1, 1, 0.1) - commutator_target((1.0, 0.0, 0.0), 1, 1, 0.1)
    assert abs(gap) == pytest.approx(0.010144, abs=1e-12)


def test_singular_inputs_rejected():
    with pytest.raises(SingularInputError):
        commutator_target((0.0, 0.0, 0.0), 1, 1, 0.1)
    with pytest.raises(SingularInputError):
        jacobian_commutator((0.0, 0.0, 0.0), 1, 1, 0.1)


def test_bracket_symmetry_under_index_swap():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p0 = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(p0) < 0.1:
            continue
        a = rng.uniform(0.01, 0.2)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                t_ij = commutator_target(p0, i, j, a)
                t_ji = commutator_target(p0, j, i, a)
                assert abs(t_ij - t_ji) <= 1e-15
                j_ij = jacobian_commutator(p0, i, j, a)
                j_ji = jacobian_commutator(p0, j, i, a)
                assert abs(j_ij - j_ji) <= 1e-15


def test_consistency_exponent_is_cubic():
    rng = np.random.default_rng(37)
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        p0 = direction * rng.uniform(0.1, 2.0)
        exponent = commutator_consistency_exponent(p0)
        assert 2.7 <= exponent <= 3.3


def test_momentum_grid_invariants():
    grid = MomentumGrid.uniform(1.0, 2.0, 128)
    assert grid.n == 128
    assert grid.h == pytest.approx(1.0 / 127.0, rel=1e-15)
    steps = np.diff(grid.points)
    assert np.max(np.abs(steps - grid.h)) < 1e-12 * grid.h
    with pytest.raises(DomainError):
        MomentumGrid.uniform(0.0, 2.0, 64)  # half-line requires p_min > 0
    with pytest.raises(DomainError):
        MomentumGrid(np.array([1.0, 1.1, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]))  # nonuniform


def test_lab_rejects_bad_inputs():
    grid = MomentumGrid.uniform(1.0, 2.0, 32)
    with pytest.raises(DomainError):
        grid_operator_lab(grid, 0.0)  # too few points
    grid = MomentumGrid.uniform(1.0, 2.0, 128)
    with pytest.raises(DomainError):
        grid_operator_lab(grid, 0.3)  # a * p_max = 0.6 >= 0.5
    cases = [
        (lambda: MomentumGrid(np.linspace(1.0, 2.0, 7)), "grid needs at least 8 points in one dimension"),
        (lambda: MomentumGrid(np.linspace(0.0, 2.0, 64)), "grid must live on the positive half-line (p_min > 0)"),
        (lambda: uncertainty_check(MomentumGrid.uniform(1.0, 2.0, 64), np.ones(5), 0.1), "state must match the grid size"),
        (lambda: commutator_consistency_exponent(np.array([0.3, -1.2, 0.7]), (0.1,)), "need at least two positive a values"),
        # repeated values fit no slope: distinct a values are counted
        (lambda: commutator_consistency_exponent(np.array([0.3, -1.2, 0.7]), (0.1, 0.1)), "need at least two positive a values"),
        (lambda: consistency_exponents(np.array([0.3, -1.2, 0.7]), (0.01, 0.01, 0.01)), "need at least two positive a values"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == message


def test_lab_canonical_pair_second_order():
    report = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 256), 0.0)
    assert 1.7 <= report.discretization_order <= 2.3
    assert np.isnan(report.gup_scaling_exponent)
    assert report.max_residual_interior > 0.0


def test_lab_scaling_exponent_across_couplings():
    for a in (1e-1, 1e-2, 1e-3):
        report = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 128), a)
        assert 2.7 <= report.gup_scaling_exponent <= 3.3


def test_lab_regression_value():
    report = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 256), 0.05)
    assert report.max_residual_interior < 1e-3
    assert report.max_residual_interior == pytest.approx(LAB_RESIDUAL_256_A005, rel=1e-6)
    assert 1.7 <= report.discretization_order <= 2.3  # second order at fixed coupling too


def test_report_json_schema():
    report = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 128), 0.05)
    assert report.grid_points == 128
    # with no deformation there is no scaling in a to measure
    assert not math.isfinite(grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 128), 0.0).gup_scaling_exponent)


def test_uncertainty_gaussian_equality_at_zero_coupling():
    grid = MomentumGrid.uniform(0.5, 2.5, 2048)
    state = gaussian_state(grid)
    report = uncertainty_check(grid, state, 0.0)
    assert report.holds
    assert abs(report.lhs - report.rhs) / report.rhs < 1e-3
    assert report.rhs == 0.5


def test_uncertainty_deformed_gaussian():
    grid = MomentumGrid.uniform(0.5, 2.5, 2048)
    state = gaussian_state(grid)  # centred at p = 1.5
    a = 0.01
    report = uncertainty_check(grid, state, a)
    assert report.holds
    # independent moment computation from the sampled density
    g = grid.points * (1.0 - a * grid.points + 2.0 * a**2 * grid.points**2)
    density = np.abs(state) ** 2
    norm = grid.h * float(np.sum(density))
    mean_p = grid.h * float(np.sum(density * g)) / norm
    mean_p_sq = grid.h * float(np.sum(density * g * g)) / norm
    assert report.mean_p == pytest.approx(mean_p, rel=1e-12)
    assert report.rhs == pytest.approx(0.5 * (1.0 - 2.0 * a * mean_p + 4.0 * a**2 * mean_p_sq), rel=1e-12)
    assert report.mean_p == pytest.approx(1.5 * (1.0 - a * 1.5 + 2.0 * a**2 * 1.5**2), rel=1e-2)


def test_uncertainty_random_states_hold():
    grid = MomentumGrid.uniform(0.5, 2.5, 1024)
    weights = _trapezoid_weights(grid.n, grid.h)
    rng = np.random.default_rng(41)
    for _ in range(100):
        state = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        state /= np.sqrt(np.sum(weights * np.abs(state) ** 2))
        report = uncertainty_check(grid, state, rng.uniform(0.0, 0.19), tolerance=1e-6)
        assert report.holds


def test_uncertainty_rejects_unnormalized_state():
    grid = MomentumGrid.uniform(0.5, 2.5, 256)
    with pytest.raises(DomainError):
        uncertainty_check(grid, np.ones(grid.n, dtype=complex), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_uncertainty_rejects_non_finite_state(bad):
    # a NaN amplitude gives a NaN norm, which no normalization tolerance test rejects
    grid = MomentumGrid.uniform(0.5, 2.5, 64)
    state = gaussian_state(grid).astype(complex)
    state[3] = bad
    with pytest.raises(DomainError, match="state must be finite"):
        uncertainty_check(grid, state, 0.0)
    stack = np.stack([gaussian_state(grid), state])
    with pytest.raises(DomainError, match="state must be finite"):
        uncertainty_check(grid, stack, 0.05)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("a", [0.0, 0.05])
def test_lab_residual_matches_dense_commutator(n, a):
    # Both sides subtract terms of size |p psi| / 2h ~ n, so their rounding
    # differs by ~n eps, about 1e-9 of the O(h^2) residual at n = 512.
    grid = MomentumGrid.uniform(1.0, 2.0, n)
    oracle = dense_commutator_residual(grid.points, _BOUNDARY_MARGIN, a)
    assert grid_operator_lab(grid, a).max_residual_interior == pytest.approx(oracle, rel=1e-8)


def test_consistency_exponent_takes_momentum_arrays():
    # the lab's exponent is the consistency exponent over its interior momenta (p, 0, 0)
    p = np.linspace(1.0, 2.0, 40)
    momenta = np.stack([p, np.zeros_like(p), np.zeros_like(p)], axis=-1)
    a_values = (0.05, 0.05 / np.sqrt(10.0), 0.005)
    devs = [
        max(abs(jacobian_commutator(row, 1, 1, a) - commutator_target(row, 1, 1, a)) for row in momenta)
        for a in a_values
    ]
    slope = np.polyfit(np.log(a_values), np.log(devs), 1)[0]
    assert commutator_consistency_exponent(momenta, a_values) == pytest.approx(slope, rel=1e-12)


_LOG_A = st.lists(st.floats(-9.0, -3.0), min_size=2, max_size=4).filter(
    lambda xs: np.min(np.diff(np.sort(xs))) >= 0.1  # distinct enough for a well-posed fit
)


@settings(max_examples=100, deadline=None)
@given(
    momenta=arrays(float, st.integers(1, 6).map(lambda k: (k, 3)), elements=st.floats(-3.0, 3.0)).filter(
        lambda p: np.all(np.linalg.norm(p, axis=-1) > 0.1)
    ),
    log_a=_LOG_A,
)
def test_consistency_exponents_match_polyfit_per_row(momenta, log_a):
    a_values = np.exp(log_a)
    slopes = consistency_exponents(momenta, a_values)
    assert slopes.shape == momenta.shape[:-1]
    for row, slope in zip(momenta, slopes):
        devs = []
        for a in a_values:
            pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
            devs.append(max(abs(jacobian_commutator(row, i, j, a) - commutator_target(row, i, j, a)) for i, j in pairs))
        assert slope == pytest.approx(np.polyfit(np.log(a_values), np.log(devs), 1)[0], rel=1e-12)
        assert commutator_consistency_exponent(row, a_values) == pytest.approx(slope, rel=1e-15)


def test_uncertainty_stack_matches_single_states():
    grid = MomentumGrid.uniform(0.5, 2.5, 256)
    weights = _trapezoid_weights(grid.n, grid.h)
    rng = np.random.default_rng(43)
    states = rng.normal(size=(3, 4, grid.n)) + 1j * rng.normal(size=(3, 4, grid.n))
    states /= np.sqrt(np.sum(weights * np.abs(states) ** 2, axis=-1))[..., None]
    states[0, 0] = gaussian_state(grid)
    a = rng.uniform(0.0, 0.19, size=(3, 4))
    # the default tolerance, and one that fails half of the stack
    margin = uncertainty_check(grid, states, a)
    for tolerance, holding in ((1e-3 / 2.0, 12), (-float(np.median(margin.lhs - margin.rhs)), 6)):
        stack = uncertainty_check(grid, states, a, tolerance=tolerance)
        assert stack.holds.shape == stack.lhs.shape == (3, 4)
        assert np.count_nonzero(stack.holds) == holding
        for index in np.ndindex(3, 4):
            single = uncertainty_check(grid, states[index], a[index], tolerance=tolerance)
            assert isinstance(single.lhs, float) and isinstance(single.holds, bool)
            assert single.holds == stack.holds[index]
            for name in ("delta_x", "delta_p", "mean_p", "mean_p_sq", "lhs", "rhs"):
                assert getattr(stack, name)[index] == pytest.approx(getattr(single, name), rel=1e-13), name
    shared = uncertainty_check(grid, states, 0.05)
    assert shared.rhs.shape == (3, 4)
    with pytest.raises(DomainError):
        uncertainty_check(grid, states, -a)
    with pytest.raises(DomainError):
        uncertainty_check(grid, 2.0 * states, a)


_MOMENTA = arrays(
    float,
    array_shapes(min_dims=1, max_dims=2, max_side=4).map(lambda shape: shape + (3,)),
    elements=st.floats(-3.0, 3.0),
).filter(lambda p: np.all(np.linalg.norm(p, axis=-1) > 0.0))


@settings(max_examples=100, deadline=None)
@given(
    momenta=_MOMENTA,
    a=st.one_of(st.just(0.0), st.floats(1e-6, 0.3)),
    i=st.sampled_from([1, 2, 3]),
    j=st.sampled_from([1, 2, 3]),
)
def test_array_brackets_match_scalar_calls(momenta, a, i, j):
    for bracket in (commutator_target, jacobian_commutator):
        values = bracket(momenta, i, j, a)
        assert values.shape == momenta.shape[:-1]
        for index in np.ndindex(values.shape):
            assert bracket(momenta[index], i, j, a) == values[index]


def test_array_brackets_keep_their_errors():
    momenta = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for bracket in (commutator_target, jacobian_commutator):
        with pytest.raises(SingularInputError):
            bracket(momenta, 1, 1, 0.1)
        assert np.array_equal(bracket(momenta, 2, 2, 0.0), [1j, 1j])
        with pytest.raises(DomainError):
            bracket(momenta, 1, 4, 0.1)
        with pytest.raises(DomainError):
            bracket(np.ones((2, 2)), 1, 1, 0.1)
        with pytest.raises(DomainError):
            bracket(momenta[:1], 1, 1, -0.1)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x.reshape(-1).view(np.int64), y.reshape(-1).view(np.int64))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _states(draw):
    """A finite real or complex (..., n) stack, n >= 2, with every double a coordinate may hold, signed zeros too.

    It is laid out in C or Fortran order, since the stencil runs on the stack flattened.
    """
    shape = draw(array_shapes(min_dims=0, max_dims=2, max_side=4)) + (draw(st.integers(2, 40)),)
    if draw(st.booleans()):
        psi = draw(arrays(float, shape, elements=_FINITE))
    else:
        psi = draw(arrays(float, shape + (2,), elements=_FINITE)).view(complex)[..., 0]
    return np.asfortranarray(psi) if draw(st.booleans()) else psi


@settings(max_examples=100, deadline=None)
@given(psi=_states(), h=st.floats(min_value=5e-324, max_value=1e308))
def test_position_matches_the_complex_division_stencil_bit_for_bit(psi, h):
    with np.errstate(all="ignore"):  # a huge psi or a tiny h overflows on both sides alike
        assert _same_bits(_position(psi, h), reference_position(psi, h))


_WIDE_MOMENTA = arrays(
    float,
    array_shapes(min_dims=1, max_dims=3, max_side=4).map(lambda shape: shape + (3,)),
    elements=st.floats(-1e6, 1e6),
).filter(lambda p: np.all(np.linalg.norm(p, axis=-1) > 0.0))
_STRENGTHS = st.floats(min_value=1e-300, max_value=1e3)


@settings(max_examples=100, deadline=None)
@given(momenta=_WIDE_MOMENTA, a_values=st.lists(_STRENGTHS, min_size=2, max_size=4, unique=True))
def test_bracket_deviations_match_the_per_a_loop_bit_for_bit(momenta, a_values):
    with np.errstate(all="ignore"):  # a deviation may round to 0, whose log the reference takes as -inf
        old = reference_bracket_deviations(momenta, a_values)
    if np.isneginf(old[1]).any():  # where the deviations take no log, and raise
        with pytest.raises(DomainError, match="rounds to 0"):
            _bracket_deviations(momenta, a_values)
        return
    new = _bracket_deviations(momenta, a_values)
    assert _same_bits(new[0], old[0]) and _same_bits(new[1], old[1])


@st.composite
def _normalized_stacks(draw):
    """A grid of 8 to 300 points and a trapezoid-normalized real or complex (..., n) stack on it, with 0 to 2 leading axes.

    The stack is laid out in C or Fortran order; its a is a scalar, a float
    or a 0-d array, or one a per row.
    """
    # a span of at least 2 above p_min <= 2 keeps the 300-point spacing uniform within MomentumGrid's 1e-12
    p_min = draw(st.floats(0.01, 2.0))
    grid = MomentumGrid.uniform(p_min, p_min + draw(st.floats(2.0, 10.0)), draw(st.integers(8, 300)))
    lead = draw(array_shapes(min_dims=0, max_dims=2, max_side=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(lead + (grid.n,))
    if draw(st.booleans()):
        psi = psi + 1j * rng.standard_normal(lead + (grid.n,))
    psi *= (1.0 / np.sqrt(np.sum(_trapezoid_weights(grid.n, grid.h) * np.abs(psi) ** 2, axis=-1)))[..., None]
    psi = np.asfortranarray(psi) if draw(st.booleans()) else psi
    strengths = st.floats(0.0, 0.19)
    a = draw(st.one_of(strengths, strengths.map(np.float64), arrays(float, lead, elements=strengths)))
    return grid, psi, a


def _same_report(new, old):
    """Every field of two ``UncertaintyReport``s of one type, shape and dtype, bit for bit."""
    for name in old._fields:
        x, y = getattr(new, name), getattr(old, name)
        if type(x) is not type(y) or np.shape(x) != np.shape(y) or np.asarray(x).dtype != np.asarray(y).dtype:
            return False
        if np.asarray(x).tobytes() != np.asarray(y).tobytes():
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(case=_normalized_stacks(), tolerance=st.sampled_from([1e-3 / 2.0, 1e-6]))
def test_uncertainty_check_matches_the_allocating_kernel_bit_for_bit(case, tolerance):
    grid, psi, a = case
    assert _same_report(uncertainty_check(grid, psi, a, tolerance), reference_uncertainty_check(grid, psi, a, tolerance))


_LAB_FIELDS = ("max_residual_interior", "discretization_order", "gup_scaling_exponent")


@settings(max_examples=50, deadline=None)
@given(
    p_min=st.floats(0.1, 2.0),
    span=st.floats(1.0, 4.0),
    n=st.integers(64, 300),
    share=st.one_of(st.just(0.0), st.floats(1e-6, 0.99)),
    order=st.permutations(_LAB_FIELDS),
)
def test_lazy_lab_fields_match_the_eager_lab_bit_for_bit(p_min, span, n, share, order):
    # each field is measured on first read, whichever is read first, and then kept; at a tiny a a deviation
    # may round to 0, and the slope raises on both sides alike
    grid = MomentumGrid.uniform(p_min, p_min + span, n)
    report = grid_operator_lab(grid, share * 0.5 / grid.points[-1])
    eager = reference_lab_fields(grid, report.a)
    measured = [name for name in _LAB_FIELDS if not isinstance(eager[name], DomainError)]
    for name in order + order:
        if name in measured:
            assert getattr(report, name).hex() == eager[name].hex(), name
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(str(eager[name]))}$"):
                getattr(report, name)
    assert all(name in vars(report) for name in measured)


@pytest.mark.filterwarnings("error")
def test_a_slope_whose_deviation_rounds_to_0_is_a_domain_error():
    # the lab at a = 2.5e-7 fits down to a = 2.5e-8, where the brackets agree to double precision at some grid
    # momenta: no log(0) warning, and no slope that is not finite
    report = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 64), 2.5e-7)
    momentum = [1.0 + 2.0 / 63.0, 0.0, 0.0]  # the third grid point, whose deviation rounds to 0 at a = 2.5e-8
    for call in (
        lambda: report.gup_scaling_exponent,
        lambda: consistency_exponents([[1.0, 0.0, 0.0], momentum], (2.5e-7, 2.5e-8)),
        lambda: commutator_consistency_exponent(momentum, (2.5e-7, 2.5e-8)),
    ):
        with pytest.raises(DomainError, match=r"^the bracket deviation rounds to 0 at some a: a \|p0\| is too small for a slope$"):
            call()


_GRID64 = MomentumGrid.uniform(0.5, 2.5, 64)
_PAST = 10**400  # an int past the largest double


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: deform_momentum([1.0, 0.0, 0.0], _PAST), id="deform_momentum-int"),
        pytest.param(lambda: deform_momentum([1.0, 0.0, 0.0], 1e400), id="deform_momentum-inf"),
        pytest.param(lambda: jacobian_commutator([1.0, 0.0, 0.0], 1, 1, _PAST), id="jacobian_commutator-int"),
        pytest.param(lambda: commutator_target([1.0, 0.0, 0.0], 1, 1, math.inf), id="commutator_target-inf"),
        pytest.param(lambda: commutator_consistency_exponent([1.0, 0.0, 0.0], (_PAST, 0.1)), id="exponent-int"),
        pytest.param(lambda: consistency_exponents([[1.0, 0.0, 0.0]], (0.1, math.inf)), id="exponents-inf"),
        pytest.param(lambda: grid_operator_lab(_GRID64, _PAST), id="grid_operator_lab-int"),
        pytest.param(lambda: uncertainty_check(_GRID64, gaussian_state(_GRID64), _PAST), id="uncertainty_check-int"),
        pytest.param(lambda: uncertainty_check(_GRID64, gaussian_state(_GRID64), math.inf), id="uncertainty_check-inf"),
        pytest.param(lambda: uncertainty_check(_GRID64, gaussian_state(_GRID64), [0.1, _PAST]), id="uncertainty_check-row"),
    ],
)
def test_an_a_past_the_doubles_or_infinite_is_a_domain_error(call):
    # no bare OverflowError and no RuntimeWarning: the one finite check every entry makes
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == "a must be finite"


@pytest.mark.filterwarnings("error")
def test_deform_momentum_takes_its_norm_without_overflow():
    # the norm of a scaled copy: a finite answer is returned, and the bits where the raw norm is finite
    assert deform_momentum([1e300, 1e300, 0.0], 0.0).tolist() == [1e300, 1e300, 0.0]
    assert deform_momentum([1e300, -1e300, 0.0], 1e-320).tolist() == [1e300, -1e300, 0.0]
    rng = np.random.default_rng(11)
    p0 = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100.0, 100.0, size=(200, 1))
    for a in (0.0, 0.1, 1e-50):
        with np.errstate(over="ignore"):
            raw = p0 * deformation_factor(np.linalg.norm(p0, axis=-1, keepdims=True), a)
        finite = np.isfinite(raw).all(axis=-1)
        assert deform_momentum(p0[finite], a).tobytes() == raw[finite].tobytes()


@pytest.mark.filterwarnings("error")
def test_grid_bounds_past_the_doubles_are_a_domain_error():
    for p_max in (_PAST, math.inf, 1e400):
        with pytest.raises(DomainError) as caught:
            MomentumGrid.uniform(0.5, p_max, 64)
        assert str(caught.value) == "grid bounds must be finite"
    for p_min, p_max in ((_PAST, _PAST + 1), (math.nan, 2.0), (0.5, -_PAST)):
        with pytest.raises(DomainError) as caught:
            MomentumGrid.uniform(p_min, p_max, 64)
        assert str(caught.value) == "require 0 < p_min < p_max"


def test_an_a_given_as_a_str_is_read_as_the_number_it_spells():
    # as errors.to_floats reads every number of the library, dispersion's coupling among them
    p0 = [1.0, 0.0, 0.0]
    assert jacobian_commutator(p0, 1, 1, "0.1") == jacobian_commutator(p0, 1, 1, 0.1)
    assert np.array_equal(deform_momentum(p0, "0.1"), deform_momentum(p0, 0.1))
    assert commutator_consistency_exponent(p0, ("0.1", "0.01")) == commutator_consistency_exponent(p0, (0.1, 0.01))


def _flat_state(grid):
    """The constant state, trapezoid-normalized on the grid."""
    return np.full(grid.n, 1.0 / math.sqrt(np.sum(_trapezoid_weights(grid.n, grid.h))), dtype=complex)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, quantity",
    [
        pytest.param(lambda: deform_momentum([1e200, 0.0, 0.0], 1e200), "deformed momentum", id="deform_momentum"),
        pytest.param(lambda: deform_momentum([1e300, 1e300, 0.0], 0.1), "deformed momentum", id="deform_momentum-norm"),
        pytest.param(lambda: jacobian_commutator([1e200, 0.0, 0.0], 1, 1, 1e200), "jacobian bracket", id="jacobian_commutator"),
        pytest.param(lambda: commutator_target([1e200, 0.0, 0.0], 1, 1, 1e200), "target bracket", id="commutator_target"),
        pytest.param(
            lambda: commutator_consistency_exponent([1e300, 0.0, 0.0], (0.1, 0.01)), "jacobian bracket", id="consistency_exponent"
        ),
        pytest.param(
            lambda: uncertainty_check(grid := MomentumGrid.uniform(0.5, 1e300, 64), _flat_state(grid), 1e10),
            "uncertainty bound",
            id="uncertainty_check",
        ),
    ],
)
def test_a_result_that_overflows_is_a_gupab_error(call, quantity):
    # finite inputs whose products pass the largest double: no RuntimeWarning, and no inf or NaN returned
    with pytest.raises(GupabError) as caught:
        call()
    assert str(caught.value) == f"{quantity} is not finite: the inputs overflow double precision"


@pytest.mark.filterwarnings("error")
def test_a_grid_point_count_that_is_not_an_int_in_range_is_a_domain_error(monkeypatch):
    message = f"grid point count must be an integer in [8, {_MAX_GRID_POINTS}]"
    assert _MAX_GRID_POINTS == 2**20
    for n in (64.0, True, "64", None, 7, -1, _MAX_GRID_POINTS + 1, 10**400):
        with pytest.raises(DomainError) as caught:
            MomentumGrid.uniform(0.5, 2.5, n)
        assert str(caught.value) == message
    assert MomentumGrid.uniform(0.5, 2.5, np.int64(8)).n == 8
    # the cap itself is accepted: checked by value, with linspace stubbed so that nothing large is allocated
    points, asked = np.arange(1.0, 9.0), []
    monkeypatch.setattr(np, "linspace", lambda start, stop, num: asked.append(num) or points)
    MomentumGrid.uniform(0.5, 2.5, _MAX_GRID_POINTS)
    assert asked == [_MAX_GRID_POINTS]


@pytest.mark.filterwarnings("error")
def test_a_tiny_nonzero_momentum_is_not_taken_for_zero():
    # its squares underflow to 0, so its norm is taken on a power-of-2-scaled copy
    assert jacobian_commutator([1e-170, 0.0, 0.0], 1, 1, 0.1) == 1j
    assert commutator_target([1e-170, 0.0, 0.0], 1, 1, 0.1) == 1j
    # -a p1 p2 / |p| + 4 a^2 p1 p2 at p1 = p2 = 1e-170, a = 1e150
    expected = -1e150 * 1e-170 / math.sqrt(2.0) + 4e300 * 1e-340
    assert math.isclose(jacobian_commutator([1e-170, 1e-170, 0.0], 1, 2, 1e150).imag, expected, rel_tol=1e-15)
    with pytest.raises(DomainError, match="rounds to 0"):  # a slope needs a deviation that does not round to 0
        commutator_consistency_exponent([1e-300, 0.0, 0.0], (0.1, 0.01))
    with pytest.raises(SingularInputError, match="needs \\|p0\\| > 0"):  # the zero momentum still has no bracket
        jacobian_commutator([0.0, -0.0, 0.0], 1, 1, 0.1)


def _lab_fields(grid, a):
    lab = grid_operator_lab(grid, a)
    return [getattr(lab, name) for name in _LAB_FIELDS]


_UNIT_LAB = _lab_fields(MomentumGrid.uniform(1.0, 2.0, 64), 0.49 / 2.0)


@settings(max_examples=30, deadline=None)
@given(log_c=st.floats(-300.0, 150.0))
@example(log_c=-300.0)  # the probe's squared offsets underflow to 0 / 0 in p
@example(log_c=-155.0)  # 2 a a and 4 a a p_i overflow in a and p
@example(log_c=150.0)
def test_the_lab_is_scale_free_at_a_fixed_a_p_max(log_c):
    # the probe, the stencil and the brackets are functions of p / c and a c alone, so the lab on [c, 2c] at
    # a = 0.49 / (2c) is the lab on [1, 2] at a = 0.245, whatever c: no square of c is formed
    c = 10.0**log_c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fields = _lab_fields(MomentumGrid.uniform(c, 2.0 * c, 64), 0.49 / (2.0 * c))
    np.testing.assert_allclose(fields, _UNIT_LAB, rtol=1e-9, atol=0.0)


_T_AT_049 = 0.49 * (1.0 - 0.49 + 2.0 * 0.49**2)  # t = s f(s) at s = 0.49


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, expected",
    [
        # 2 a a p p underflows to 0 in a and p, where a p = 1 and the factor is 2
        pytest.param(lambda: deform_momentum([1e170, 0.0, 0.0], 1e-170), [2e170, 0.0, 0.0], id="deform_at_s_1"),
        # 2 s^2 = 2e320 passes the largest double at s = 1e160, where p0 times it, 2e180, does not
        pytest.param(lambda: deform_momentum([1e-140, 0.0, 0.0], 1e300), [2e180, 0.0, 0.0], id="deform_at_s_1e160"),
        # f(1) + 1 (4 - 1) at s = 1
        pytest.param(lambda: jacobian_commutator([1e170, 0.0, 0.0], 1, 1, 1e-170), 5j, id="jacobian_at_s_1"),
        # 4 a a p_i overflows in a and p, where f(0.49) + 0.49 (4 0.49 - 1) = 0.9902 + 0.4704
        pytest.param(
            lambda: jacobian_commutator([1e-155, 0.0, 0.0], 1, 1, 0.49 / 1e-155), 1.4606j, id="jacobian_at_s_049"
        ),
        # a a |p|^2 overflows in a and p, where 1 - t + t^2 + t (3 t - 1) = 1 - 2 t + 4 t^2
        pytest.param(
            lambda: commutator_target([1e-155, 0.0, 0.0], 1, 1, 0.49 / 1e-155),
            1j * (1.0 - 2.0 * _T_AT_049 + 4.0 * _T_AT_049**2),
            id="target_at_s_049",
        ),
    ],
)
def test_brackets_and_deformations_whose_a_a_leaves_the_doubles_return_their_finite_answer(call, expected):
    np.testing.assert_allclose(call(), expected, rtol=1e-14, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_the_lab_on_a_grid_whose_squares_underflow_gives_the_unit_grids_fields():
    # on [c, 2c] at a the lab is the lab on [1, 2] at a c; at c = 1e-300 the probe's squared offsets underflow in p
    fields = ("max_residual_interior", "discretization_order")
    lab = grid_operator_lab(MomentumGrid.uniform(1e-300, 2e-300, 64), 0.1)
    unit = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 64), 0.1 * 1e-300)
    np.testing.assert_allclose([getattr(lab, name) for name in fields], [getattr(unit, name) for name in fields], rtol=1e-9)


@pytest.mark.filterwarnings("error")
def test_a_deformation_factor_whose_two_a_a_overflows_is_taken_in_a_p():
    # a p = 0.49, so the factor is 1 - 0.49 + 2 (0.49)^2 = 0.9902, though 2 a a passes the largest double
    a = 0.49 / 2e-155
    assert deformation_factor(2e-155, a) == pytest.approx(0.9902, rel=1e-15)
    deformed = deform_momentum([[2e-155, 0.0, 0.0], [0.0, -1e-155, 0.0]], a)
    factors = [0.9902, 1.0 - 0.245 + 2.0 * 0.245**2]  # a p = 0.49 and 0.245
    np.testing.assert_allclose(deformed, [[2e-155 * factors[0], 0.0, 0.0], [0.0, -1e-155 * factors[1], 0.0]], rtol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p_min, p_max", [(1e-300, 2e-300), (1.0, 1e170), (0.5, 1e300), (1e-160, 2e-160), (3e154, 6e154)])
def test_a_gaussian_state_whose_squares_underflow_or_overflow_is_taken_in_units_of_the_width(p_min, p_max):
    # the state is scale-free: on a grid scaled by c it is the unit grid's state over sqrt(c). The form in p,
    # exp(-(p - center)^2 / (4 width^2)), is not finite on the first three grids, and 0.7% and 0.06% off on the last two
    grid, unit = MomentumGrid.uniform(p_min, p_max, 64), MomentumGrid.uniform(1.0, p_max / p_min, 64)
    np.testing.assert_allclose(gaussian_state(grid) * math.sqrt(p_min), gaussian_state(unit), rtol=1e-12, atol=0.0)


# Bounds, in ulps of max(|x|, 1) for the exact x, on the factor and the brackets against the 60-digit oracle. Each
# is about twice the worst of 36,000 random draws over the property's ranges (3, 5 and 14 ulps): the rounding of
# s = a |p0| enters each entry times its condition number in s, which reaches 6 for the target's t^2 ~ 4 s^6.
_ORACLE_ULPS = {"factor": 6.0, "jacobian": 8.0, "target": 24.0}


def _ulps(x, exact, floor=1.0):
    """The largest |x - exact|, in ulps of max(|exact|, floor); 0 where both are the same infinity."""
    x, exact = np.asarray(x), np.asarray(exact)
    gap = np.where(x == exact, 0.0, np.abs(x - exact))
    return float(np.max(gap / np.spacing(np.maximum(np.abs(exact), floor))))


@settings(max_examples=200, deadline=None)
@given(
    direction=arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(lambda d: np.max(np.abs(d)) >= 1e-3),
    log_mag=st.floats(-300.0, 300.0),
    log_s=st.floats(-6.0, 1.0),
)
def test_brackets_and_deformation_factor_hold_the_exact_oracle(direction, log_mag, log_s):
    # |p0| from 1e-300 to 1e300 and a |p0| from 1e-6 to 10, the oracle taking the very floats the kernels take
    mag = 10.0**log_mag
    p0, a = direction * (mag / np.linalg.norm(direction)), 10.0**log_s / mag
    for kind in ("jacobian", "target"):
        assert _ulps(_real_brackets(p0, a, kind), exact_brackets(p0, a, kind)) <= _ORACLE_ULPS[kind], kind
    assert _ulps(deformation_factor(mag, a), exact_factor(mag, a)) <= _ORACLE_ULPS["factor"]


# magnitudes from 1e-300 to 1e300, either sign, and both zeros
_EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(lambda pair: pair[0] * 10.0 ** pair[1]),
)


def _outcome(call):
    """call()'s value, asserted finite, or the GupabError that call raises."""
    try:
        value = call()
    except GupabError as error:
        return error
    assert np.isfinite(value).all()
    return value


@settings(max_examples=200, deadline=None)
@given(
    momenta=arrays(float, st.integers(1, 4).map(lambda rows: (rows, 3)), elements=_EXTREME),
    a=st.one_of(st.just(0.0), _EXTREME.map(abs).filter(lambda a: a > 0.0)),
    i=st.integers(1, 3),
    j=st.integers(1, 3),
)
# 2 a a p p underflows in a and p, where the answers are [2e170, 0, 0] and 5j
@example(momenta=np.array([[1e170, 0.0, 0.0]]), a=1e-170, i=1, j=1)
# 4 a a p_i and a a |p|^2 overflow in a and p, where the answers are 1.4606j and 0.97127j
@example(momenta=np.array([[1e-155, 0.0, 0.0]]), a=0.49 / 1e-155, i=1, j=1)
# B = s (4 s - 1) passes the largest double at s = 7e153, where the largest entry, about 3.3 s^2, does not
@example(momenta=np.array([[1.0, 1.0, 1.0]]), a=7e153 / math.sqrt(3.0), i=1, j=1)
# 2 s^2 passes the largest double at s = 1e160, where the deformed momentum, 2e180, does not
@example(momenta=np.array([[1e-140, 0.0, 0.0]]), a=1e300, i=1, j=1)
def test_momenta_of_any_size_give_finite_values_or_a_gupab_error(momenta, a, i, j):
    calls = (
        lambda: deform_momentum(momenta, a),
        lambda: jacobian_commutator(momenta, i, j, a),
        lambda: commutator_target(momenta, i, j, a),
        lambda: commutator_consistency_exponent(momenta, (a, a / 10.0)),
        lambda: consistency_exponents(momenta),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = [_outcome(call) for call in calls]
    if not np.any(momenta, axis=-1).all():  # only the zero momentum is singular
        return
    assert not any(isinstance(outcome, SingularInputError) for outcome in outcomes)
    # a deformed momentum is returned wherever the oracle's is finite, and is the oracle's, within the factor's
    # bound and a rounding of the product
    exact = [exact_deformed(row, a) for row in momenta]
    if isinstance(outcomes[0], GupabError):
        assert not np.isfinite(exact).all()
    else:
        assert _ulps(outcomes[0], exact, floor=0.0) <= _ORACLE_ULPS["factor"] + 1.0
    # a bracket is the oracle's entry, and an error only where an entry of the oracle's leaves the doubles
    for outcome, kind in zip(outcomes[1:3], ("jacobian", "target")):
        exact = np.stack([exact_brackets(row, a, kind) for row in momenta])
        if isinstance(outcome, GupabError):
            assert not np.isfinite(exact).all(), kind
        else:
            assert np.all(outcome.real == 0.0)
            assert _ulps(outcome.imag, exact[:, i - 1, j - 1]) <= _ORACLE_ULPS[kind], kind


@settings(max_examples=100, deadline=None)
@given(
    log_p_min=st.floats(-300.0, 300.0),
    log_span=st.floats(-300.0, 150.0),
    n=st.integers(64, 256),
    share=st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
)
def test_grids_of_any_span_give_finite_lab_fields_or_a_gupab_error(log_p_min, log_span, n, share):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p_min = 10.0**log_p_min
        try:
            grid = MomentumGrid.uniform(p_min, p_min + 10.0**log_span, n)
            lab = grid_operator_lab(grid, share * 0.49 / grid.points[-1])
        except GupabError:
            return
        names = ["max_residual_interior", "discretization_order"] + (["gup_scaling_exponent"] if lab.a > 0.0 else [])
        for name in names:
            _outcome(lambda: getattr(lab, name))
