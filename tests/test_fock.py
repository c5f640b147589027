import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakyqkd.fock import (basis_index, coherent_sectors, enumerate_basis, leak_count,
                           leak_truncated_subbasis)

LEAK5 = {2, 3, 4}


def test_single_photon_basis_is_one_excitation_per_mode():
    basis = enumerate_basis(1, 5, LEAK5)
    assert basis.dim == 5
    assert all(sum(c) == 1 for c in basis.configs)


def test_four_photon_five_mode_dimension():
    assert enumerate_basis(4, 5, LEAK5).dim == 70  # binomial(8, 4)


def test_counts_match_brute_force_enumeration():
    basis = enumerate_basis(2, 4, {2, 3})
    brute = {c for c in itertools.product(range(3), repeat=4) if sum(c) == 2}
    assert basis.dim == 10
    assert set(basis.configs) == brute


def test_leak_ordering_is_monotone():
    basis = enumerate_basis(3, 5, LEAK5)
    counts = [leak_count(c, basis.leak_modes) for c in basis.configs]
    assert counts == sorted(counts)


def test_index_roundtrip_all_configs():
    basis = enumerate_basis(3, 5, LEAK5)
    for i, cfg in enumerate(basis.configs):
        assert basis_index(basis, cfg) == i


def test_index_rejects_wrong_total_and_length():
    basis = enumerate_basis(2, 5, LEAK5)
    with pytest.raises(ValueError):
        basis_index(basis, (1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        basis_index(basis, (1, 1, 0, 0))


def test_index_matches_linear_scan():
    basis = enumerate_basis(2, 5, LEAK5)
    cfg = (0, 0, 1, 0, 1)
    assert basis_index(basis, cfg) == list(basis.configs).index(cfg)


def test_vacuum_leak_truncation_keeps_signal_prefix():
    basis = enumerate_basis(2, 5, LEAK5)
    sub = leak_truncated_subbasis(basis, 0)
    assert sub.configs == ((2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0))
    # truncation is a prefix of the parent ordering
    assert basis.configs[:sub.dim] == sub.configs


def test_full_cut_returns_everything():
    basis = enumerate_basis(3, 5, LEAK5)
    assert leak_truncated_subbasis(basis, 3).configs == basis.configs


def test_truncation_matches_filter_oracle():
    basis = enumerate_basis(3, 5, LEAK5)
    sub = leak_truncated_subbasis(basis, 1)
    expected = {c for c in basis.configs if leak_count(c, LEAK5) <= 1}
    assert set(sub.configs) == expected


def test_stratum_sizes_sum_to_full_dimension():
    basis = enumerate_basis(4, 5, LEAK5)
    sizes = [sum(1 for c in basis.configs if leak_count(c, LEAK5) == m) for m in range(5)]
    assert sum(sizes) == basis.dim


@settings(max_examples=50, derandomize=True)
@given(n=st.integers(0, 4), k=st.integers(1, 5))
def test_dimension_formula(n, k):
    basis = enumerate_basis(n, k, set(range(2, k)))
    assert basis.dim == math.comb(n + k - 1, k - 1)


def test_coherent_block_trace_is_poisson():
    basis = enumerate_basis(2, 3)
    alphas = np.array([0.3 + 0.1j, -0.2j, 0.05])
    total = float(np.sum(np.abs(alphas) ** 2))
    vec = coherent_sectors(alphas[:, None], [basis], math.exp(-total / 2.0))[0][:, 0]
    block = np.outer(vec, vec.conj())
    expected = math.exp(-total) * total ** 2 / 2.0
    assert np.trace(block).real == pytest.approx(expected, rel=1e-12)
    assert np.max(np.abs(block - block.conj().T)) < 1e-15


def direct_components(alphas, basis):
    return np.array([[np.prod([a ** c / math.sqrt(math.factorial(c))
                               for a, c in zip(column, config)])
                      for column in alphas.T] for config in basis.configs])


def test_coherent_sectors_match_direct_products():
    rng = np.random.default_rng(3)
    alphas = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    full = [enumerate_basis(n, 5, LEAK5) for n in range(5)]
    # truncated n = 3, 4 sectors, and a lone sector whose parents are not requested
    for bases in (full[:3] + [leak_truncated_subbasis(full[3], 1),
                              leak_truncated_subbasis(full[4], 1)],
                  [leak_truncated_subbasis(full[4], 2)], [full[0]]):
        weight = rng.uniform(0.1, 1.0, size=7)
        for basis, comp in zip(bases, coherent_sectors(alphas, bases, vacuum=weight)):
            expected = direct_components(alphas, basis) * weight
            assert comp.shape == (basis.dim, 7)
            assert np.max(np.abs(comp - expected)) <= 1e-13 * np.max(np.abs(expected))
