import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupab.clifford import (
    MINKOWSKI_METRIC,
    FourVector,
    alpha,
    beta,
    gamma,
    on_shell_spinor,
    slash,
)
from gupab.errors import DomainError
from gupab.gup_algebra import commutator_target, deform_momentum, jacobian_commutator
from gupab.phase_engine import dispersion

I4 = np.eye(4)


def anticommutator(a, b):
    return a @ b + b @ a


def test_alpha3_first_row():
    assert np.array_equal(alpha(3)[0], np.array([0, 0, 1, 0], dtype=complex))


def test_alpha_squares_to_identity():
    for i in (1, 2, 3):
        assert np.array_equal(alpha(i) @ alpha(i), I4.astype(complex))


def test_alpha_anticommutators_vanish_off_diagonal():
    # direct 4x4 multiplication, no symbolic shortcuts
    assert np.array_equal(anticommutator(alpha(1), alpha(2)), np.zeros((4, 4)))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            expected = 2.0 * (1.0 if i == j else 0.0) * I4
            assert np.array_equal(anticommutator(alpha(i), alpha(j)), expected.astype(complex))


def test_alpha_index_range():
    for bad in (0, 4, -1):
        with pytest.raises(DomainError):
            alpha(bad)


def test_beta_is_involution_and_traceless():
    b = beta()
    assert np.array_equal(b, np.diag([1, 1, -1, -1]).astype(complex))
    assert np.array_equal(b @ b, I4.astype(complex))
    assert np.trace(b) == 0


def test_beta_anticommutes_with_alpha():
    b = beta()
    for i in (1, 2, 3):
        assert np.array_equal(anticommutator(b, alpha(i)), np.zeros((4, 4)))


def test_gamma0_is_beta():
    assert np.array_equal(gamma(0), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma_anticommutators_exact():
    # exhaustive over all 16 pairs, zero residual expected
    for mu in range(4):
        for nu in range(4):
            expected = 2.0 * MINKOWSKI_METRIC[mu, nu] * I4
            result = anticommutator(gamma(mu), gamma(nu))
            assert np.array_equal(result, expected.astype(complex))


def test_spatial_gamma_squares_to_minus_identity():
    assert np.array_equal(gamma(1) @ gamma(1), (-I4).astype(complex))


def test_gamma_index_range():
    with pytest.raises(DomainError):
        gamma(4)


def test_constructors_return_fresh_arrays():
    g = gamma(1)
    g[0, 0] = 99.0
    assert gamma(1)[0, 0] == 0.0


def test_four_vector_minkowski_square():
    p = FourVector(2.0, 1.0, 0.0, 0.0)
    assert p.square() == 3.0
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = rng.uniform(-3.0, 3.0, size=4)
        p = FourVector(*c)
        expected = c[0] ** 2 - c[1] ** 2 - c[2] ** 2 - c[3] ** 2
        assert p.square() == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_slash_rest_frame():
    m = 1.7
    assert np.array_equal(slash(FourVector(m, 0.0, 0.0, 0.0)), m * gamma(0))


def test_slash_square_worked_value():
    p = FourVector(2.0, 1.0, 0.0, 0.0)
    assert np.allclose(slash(p) @ slash(p), 3.0 * I4, atol=1e-14)


def test_slash_linearity():
    p = FourVector(1.0, 0.5, -0.25, 2.0)
    q = FourVector(-0.5, 1.5, 0.75, -1.0)
    p_plus_q = FourVector(p.t + q.t, p.x + q.x, p.y + q.y, p.z + q.z)
    assert np.array_equal(slash(p_plus_q), slash(p) + slash(q))


def test_slash_square_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = FourVector(*rng.uniform(-2.0, 2.0, size=4))
        sq = slash(p) @ slash(p)
        scale = max(abs(p.square()), 1.0)
        assert np.max(np.abs(sq - p.square() * I4)) / scale < 1e-12


def test_batched_slash_matches_per_row():
    rng = np.random.default_rng(17)
    components = rng.uniform(-2.0, 2.0, size=(5, 6, 4))
    batch = FourVector(*np.moveaxis(components, -1, 0))
    stack = slash(batch)
    assert stack.shape == (5, 6, 4, 4)
    for index in np.ndindex(5, 6):
        row = FourVector(*components[index])
        assert np.array_equal(stack[index], slash(row))
        assert batch.square()[index] == row.square()
    spatial = FourVector.from_spatial(components[..., 0], components[..., 1:])
    assert np.array_equal(slash(spatial), stack)
    assert FourVector.from_spatial(1.5, components[0, 0, 1:]) == FourVector(1.5, *components[0, 0, 1:])


def test_alpha_dot_unit_vector_squares_to_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a_n = n[0] * alpha(1) + n[1] * alpha(2) + n[2] * alpha(3)
        assert np.max(np.abs(a_n @ a_n - I4)) < 1e-14


def test_rest_frame_spinor():
    u = on_shell_spinor((0.0, 0.0, 0.0), 1.0, "particle1")
    assert np.allclose(u, [1, 0, 0, 0], atol=1e-15)


def test_spinor_eigenvector_against_eigendecomposition():
    # oracle: numpy eigendecomposition of the 4x4 slash matrix
    p3 = np.array([0.0, 0.0, 0.75])
    m = 1.0
    energy = np.sqrt(p3 @ p3 + m * m)
    sl = slash(FourVector.from_spatial(energy, p3))
    u = on_shell_spinor(p3, m)
    assert np.max(np.abs(sl @ u - m * u)) <= 1e-12
    eigenvalues, vectors = np.linalg.eig(sl)
    positive = np.isclose(eigenvalues, m, atol=1e-12)
    assert np.count_nonzero(positive) == 2
    basis = vectors[:, positive]
    # u lies in the positive-mass eigenspace
    projection = basis @ (basis.conj().T @ u)
    assert np.max(np.abs(projection - u)) < 1e-12


def test_spinor_branches_orthonormal():
    rng = np.random.default_rng(19)
    for _ in range(25):
        p3 = rng.uniform(-1.5, 1.5, size=3)
        m = rng.uniform(0.3, 2.0)
        u1 = on_shell_spinor(p3, m, "particle1")
        u2 = on_shell_spinor(p3, m, "particle2")
        assert abs(np.vdot(u1, u1) - 1.0) < 1e-12
        assert abs(np.vdot(u2, u2) - 1.0) < 1e-12
        assert abs(np.vdot(u1, u2)) < 1e-12


def test_spinor_on_shell_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p3 = rng.uniform(-2.0, 2.0, size=3)
        m = rng.uniform(0.2, 2.0)
        energy = np.sqrt(p3 @ p3 + m * m)
        sl = slash(FourVector.from_spatial(energy, p3))
        for branch in ("particle1", "particle2"):
            u = on_shell_spinor(p3, m, branch)
            assert np.max(np.abs(sl @ u - m * u)) <= 1e-12 * max(m, 1.0)


def test_spinor_domain_errors():
    with pytest.raises(DomainError):
        on_shell_spinor((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        on_shell_spinor((0.0, 0.0, 0.0), 1.0, "antiparticle")


@pytest.mark.parametrize("branch", ["particle1", "particle2"])
def test_batched_spinors_match_per_row(branch):
    rng = np.random.default_rng(29)
    momenta = rng.uniform(-2.0, 2.0, size=(64, 3))
    momenta[0] = 0.0  # rest frame row
    batch = on_shell_spinor(momenta, 0.7, branch)
    assert batch.shape == (64, 4)
    rows = np.array([on_shell_spinor(p3, 0.7, branch) for p3 in momenta])
    np.testing.assert_allclose(batch, rows, rtol=0.0, atol=1e-15)
    stacked = on_shell_spinor(momenta.reshape(8, 8, 3), 0.7, branch)
    np.testing.assert_allclose(stacked.reshape(64, 4), rows, rtol=0.0, atol=1e-15)
    masses = rng.uniform(0.2, 2.0, size=64)  # one mass per momentum
    rows = np.array([on_shell_spinor(p3, m, branch) for p3, m in zip(momenta, masses)])
    np.testing.assert_allclose(on_shell_spinor(momenta, masses, branch), rows, rtol=0.0, atol=1e-15)
    with pytest.raises(DomainError):
        on_shell_spinor(momenta, np.where(np.arange(64) == 5, 0.0, masses), branch)


def test_spinor_shape_errors():
    for bad in (1.0, (1.0, 2.0), np.zeros((4, 2))):
        with pytest.raises(DomainError):
            on_shell_spinor(bad, 1.0)


_PAULI = np.stack([alpha(i)[:2, 2:] for i in (1, 2, 3)])  # the off-diagonal blocks of alpha_i
_ORDINARY = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))


@settings(max_examples=300, deadline=None)
@given(
    p3=st.lists(_ORDINARY, min_size=3, max_size=3),
    m=st.floats(1e-3, 1e3),
    branch=st.sampled_from(["particle1", "particle2"]),
)
def test_spinor_keeps_the_bits_of_the_unscaled_formula(p3, m, branch):
    # the spinor is formed in units of a power of 2, which leaves ordinary momenta bit for bit as before
    p3 = np.array(p3)
    chi = np.array([1.0, 0.0] if branch == "particle1" else [0.0, 1.0], dtype=complex)
    sigma_p = np.tensordot(p3, _PAULI, axes=(-1, 0))
    energy = np.sqrt(np.sum(p3 * p3, axis=-1) + m * m)
    u = np.concatenate([chi, (sigma_p @ chi) / (energy + m)[..., None]])
    assert on_shell_spinor(p3, m, branch).tobytes() == (u / np.linalg.norm(u, axis=-1, keepdims=True)).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    p3=st.lists(st.lists(_ORDINARY, min_size=3, max_size=3), min_size=1, max_size=8),
    m=st.floats(1e-3, 1e3),
    branch=st.sampled_from(["particle1", "particle2"]),
)
def test_batched_spinors_keep_the_bits_of_the_tensordot_formula(p3, m, branch):
    # sigma.p is one matrix product with the Pauli matrices as rows; np.tensordot forms the same sums
    p3 = np.array(p3)
    chi = np.array([1.0, 0.0] if branch == "particle1" else [0.0, 1.0], dtype=complex)
    sigma_p = np.tensordot(p3, _PAULI, axes=(-1, 0))
    energy = np.sqrt(np.sum(p3 * p3, axis=-1) + m * m)
    lower = (sigma_p @ chi) / (energy + m)[..., None]
    u = np.concatenate([np.broadcast_to(chi, lower.shape), lower], axis=-1)
    assert on_shell_spinor(p3, m, branch).tobytes() == (u / np.linalg.norm(u, axis=-1, keepdims=True)).tobytes()


@pytest.mark.parametrize("p3", [(1e308, 1e308, 0.0), (1.7e308, 0.0, 0.0), (1e150, 1e150, 0.0), (0.0, -1e300, 1e300)])
@pytest.mark.parametrize("branch", ["particle1", "particle2"])
def test_spinor_at_huge_momenta_is_the_ultrarelativistic_limit(p3, branch):
    # |p|^2 overflows at the first two: the spinor is still (chi, sigma.p_hat chi) / sqrt(2), with no warning
    chi = np.array([1.0, 0.0] if branch == "particle1" else [0.0, 1.0], dtype=complex)
    direction = np.array(p3) / 1e300 / np.linalg.norm(np.array(p3) / 1e300)
    sigma = np.tensordot(direction, _PAULI, axes=(0, 0))
    expected = np.concatenate([chi, sigma @ chi]) / np.sqrt(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = on_shell_spinor(p3, 1.0, branch)
    np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "p3",
    [(np.inf, 0.0, 0.0), (0.0, -np.inf, 0.0), (0.0, 0.0, np.nan), [(0.3, 0.1, 0.0), (np.inf, 0.0, 0.0)], [10**400, 0, 0]],
)
def test_spinor_of_a_non_finite_momentum_is_a_domain_error(p3):
    # clifford.momenta makes the check, for the dispersion, the deformation map and the brackets as well;
    # an int beyond the doubles reads as infinite
    calls = (
        lambda: on_shell_spinor(p3, 1.0),
        lambda: dispersion(p3, 1.0, 0.0),
        lambda: deform_momentum(p3, 0.1),
        lambda: jacobian_commutator(p3, 1, 1, 0.1),
        lambda: commutator_target(p3, 1, 1, 0.1),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="^momentum must be finite$"):
                call()


@pytest.mark.parametrize("m", [1e400, 10**400], ids=["float", "int"])
def test_spinor_of_an_infinite_mass_is_at_rest(m):
    # an int mass beyond the doubles reads as infinite, as a float one does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = on_shell_spinor([1, 0, 0], m)
    assert np.array_equal(u, [1.0, 0.0, 0.0, 0.0])
