import math

import numpy as np
import pytest
from helpers import dense_commutator_residual
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gupab.errors import DomainError, SingularInputError
from gupab.gup_algebra import (
    _BOUNDARY_MARGIN,
    MomentumGrid,
    _trapezoid_weights,
    commutator_consistency_exponent,
    commutator_target,
    consistency_exponents,
    deform_momentum,
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
