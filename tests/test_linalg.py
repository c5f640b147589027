import math

import numpy as np
import pytest

from helpers import bures_distance, fidelity, psd_sqrt, pure_state_fidelity
from leakyqkd.linalg import density_factor, factor_fidelities, require_hermitian
from leakyqkd.validation import jacobi_eigenvalues


def random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def eigenvalues(rho):
    """The eigenvalues of rho in ascending order, as `density_factor` gives
    them: its squared column norms."""
    return np.sum(np.abs(density_factor(rho)) ** 2, axis=0)


def test_identity_eigenvalues():
    assert np.allclose(eigenvalues(np.eye(3) / 3.0), 1.0 / 3.0)


def test_analytic_two_by_two():
    assert np.allclose(eigenvalues(np.array([[0.5, 0.5], [0.5, 0.5]])), [0.0, 1.0])


def test_eigen_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    for _ in range(4):
        rho = random_density(rng, 6)
        assert np.max(np.abs(eigenvalues(rho) - jacobi_eigenvalues(rho))) < 1e-9


def test_eigen_reconstruction_and_orthonormality():
    # rho = A A^H with orthogonal columns in ascending norm
    rng = np.random.default_rng(8)
    rho = random_density(rng, 7)
    a = density_factor(rho)
    gram = a.conj().T @ a
    assert np.max(np.abs(a @ a.conj().T - rho)) <= 1e-10
    assert np.max(np.abs(gram - np.diag(gram.diagonal()))) <= 1e-10
    assert np.all(np.diff(gram.diagonal().real) >= 0)


def test_non_hermitian_rejected_with_asymmetry():
    with pytest.raises(ValueError, match="asymmetry"):
        density_factor(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_factor_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="sigma is not PSD"):
        density_factor(np.diag([1.0 + 1e-6, -1e-6]), "sigma")


def test_density_factor_of_a_stack_is_that_of_each_matrix():
    # a (2, 3, d, d) stack, one `eigh` call: bitwise the factor of each matrix
    # alone; every check holds per matrix, so one bad matrix fails the stack
    rng = np.random.default_rng(11)
    stack = np.array([[random_density(rng, 4) for _ in range(3)] for _ in range(2)])
    factors = density_factor(stack)
    for index in np.ndindex(2, 3):
        assert factors[index].tobytes() == density_factor(stack[index]).tobytes()
    for bad, match in ((np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0]), "not PSD"),
                       (np.diag([0.5, 0.5, 1e-7, 0.0]), "trace")):
        broken = stack.copy()
        broken[1, 2] = bad
        with pytest.raises(ValueError, match=match):
            density_factor(broken)
    broken = stack.copy()
    broken[0, 0] *= 1e4  # Hermitian: its scale must not loosen the check of the others
    broken[1, 2] += np.triu(np.full((4, 4), 1e-6), 1)
    with pytest.raises(ValueError, match="asymmetry"):
        density_factor(broken)


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_self_consistency():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = raw @ raw.conj().T
    root = psd_sqrt(h)
    assert np.max(np.abs(root @ root - h)) < 1e-9 * max(1.0, np.max(np.abs(h)))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -1e-6]))


def test_quartic_root_composition():
    rng = np.random.default_rng(10)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = raw @ raw.conj().T
    root = psd_sqrt(h)
    quartic = psd_sqrt(root)
    assert np.max(np.abs(quartic @ quartic - root)) < 1e-8


def test_self_fidelity_is_one():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 4)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_pure_state_half_overlap():
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho = np.outer(zero, zero)
    sigma = np.outer(plus, plus)
    assert fidelity(rho, sigma) == pytest.approx(0.5, abs=1e-12)
    assert pure_state_fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_matches_svd_route():
    # independent route: F = (sum of singular values of sqrt(rho) sqrt(sigma))^2
    rng = np.random.default_rng(12)
    for _ in range(4):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        ours = fidelity(rho, sigma)
        svd = float(np.sum(np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False)) ** 2)
        assert ours == pytest.approx(svd, abs=1e-8)
        assert ours == pytest.approx(fidelity(sigma, rho), abs=1e-8)


def random_factor(rng, dim, rank):
    raw = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return raw / np.linalg.norm(raw)


def test_factor_fidelity_matches_eigh_route_on_low_rank_states():
    # fidelity() factors each state through eigh; the factor form takes any
    # factor, here with non-orthogonal columns.  The states have full rank
    # in their space: eigh would otherwise keep square roots of rounding
    # noise in the null space, ~1e-10 in F
    rng = np.random.default_rng(15)
    pairs = [(random_factor(rng, rank, rank), random_factor(rng, rank, rank))
             for rank in (1, 2, 3) for _ in range(6)]
    alone = [float(factor_fidelities([pair])[0]) for pair in pairs]
    for (a, b), ours in zip(pairs, alone):
        eigh_route = fidelity(a @ a.conj().T, b @ b.conj().T)
        assert abs(ours - eigh_route) <= 1e-13
    # one call for every pair, one SVD per shape, and a stack: bitwise the calls alone
    assert [float(f) for f in factor_fidelities(pairs)] == alone
    [stacked] = factor_fidelities([(np.stack([a for a, _ in pairs[-6:]]),
                                    np.stack([b for _, b in pairs[-6:]]))])
    assert stacked.tolist() == alone[-6:]


def test_factor_fidelity_of_pure_states_is_the_overlap():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, b = random_factor(rng, 6, 1), random_factor(rng, 6, 1)
        [ours] = factor_fidelities([(a, b)])
        assert abs(float(ours) - pure_state_fidelity(a[:, 0], b[:, 0])) <= 1e-15


def test_factor_fidelity_of_identical_factors_is_exactly_one():
    rng = np.random.default_rng(16)
    for rank in (1, 2, 3):
        a = random_factor(rng, 5, rank)
        assert factor_fidelities([(a, a), (a, a.copy())]) == [1.0, 1.0]


def test_fidelity_of_graded_spectrum_state_with_itself():
    # eigenvalues 1 ... 1e-8: square roots of rounding noise in
    # sqrt(rho) rho sqrt(rho) would show up at the 1e-9 level
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    unitary, _ = np.linalg.qr(raw)
    weights = 10.0 ** -np.arange(0.0, 10.0, 2.0)
    rho = (unitary * (weights / weights.sum())) @ unitary.conj().T
    assert abs(1.0 - fidelity(rho, rho)) <= 1e-13


def test_fidelity_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        fidelity(np.eye(2), np.diag([0.5, 0.5]))


def test_projection_fidelity_identity():
    # F(rho, Pi rho Pi / t) = t for a projector Pi
    rng = np.random.default_rng(13)
    rho = random_density(rng, 5)
    keep = 3
    projected = np.zeros_like(rho)
    projected[:keep, :keep] = rho[:keep, :keep]
    t = float(np.trace(projected).real)
    assert fidelity(rho, projected / t) == pytest.approx(t, abs=1e-8)


def test_bures_identical_and_orthogonal():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-8)
    assert bures_distance(rho, sigma) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_bures_triangle_inequality():
    rng = np.random.default_rng(14)
    for _ in range(5):
        a, b, c = (random_density(rng, 3) for _ in range(3))
        assert bures_distance(a, c) <= bures_distance(a, b) + bures_distance(b, c) + 1e-10


def test_require_hermitian_returns_exact_hermitian_part():
    h = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    out = require_hermitian(h)
    assert np.max(np.abs(out - out.conj().T)) == 0.0
