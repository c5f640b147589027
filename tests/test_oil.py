import math

import numpy as np
import pytest

from helpers import fidelity, mixed_state, setting_intensity, state_block, state_vector
from leakyqkd import oil
from leakyqkd.coin import bb84_pair_overlap
from leakyqkd.fock import basis_index
from leakyqkd.linalg import factor_fidelities
from leakyqkd.validation import oil_block_oracle


def make_params(omega=0.01, mu_in=0.5):
    return oil.params_for_intensities(mu_in, 0.2 * mu_in, 1e-4, omega=omega)


def emitted_block(key, params, n):
    """Sub-normalised n-photon block of the setting `key` (bit, basis,
    intensity): the outer product of its `oil.emission_sectors` entry."""
    bit, *slot = key
    vec = oil.emission_sectors(params)[n][:, oil.SLOTS.index(tuple(slot)), bit]
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

def test_key_basis_phase_pairs():
    params = make_params()
    s0 = oil.setting_phases(0, "Z", "I0", params)
    s1 = oil.setting_phases(1, "Z", "I0", params)
    assert (s0.phi12, s0.phi23) == (math.pi / 2, math.pi / 2)
    assert (s1.phi12, s1.phi23) == (-math.pi / 2, -math.pi / 2)


def test_key_basis_rejects_decoys():
    with pytest.raises(ValueError, match="no decoy intensities"):
        oil.setting_phases(0, "Z", "I1", make_params())


def test_vacuum_kappa_gives_empty_bins():
    params = oil.OilParams(mu_in=0.5, omega=0.0, kappas={"I0": 0.0, "I2": 1.0})
    setting = oil.setting_phases(0, "X", "I2", params)
    assert setting_intensity(setting, params) == pytest.approx(0.0, abs=1e-12)


def test_test_basis_bit1_at_full_kappa_zero():
    params = make_params()
    setting = oil.setting_phases(1, "X", "I0", params)
    assert (setting.phi12, setting.phi23) == (math.pi, 0.0)
    amps = oil.amplitudes([setting], params)[:, 0]
    assert abs(amps[0]) == pytest.approx(0.0, abs=1e-12)  # early bin dark
    assert abs(amps[1]) ** 2 == pytest.approx(params.mu_in, abs=1e-12)


def test_phase_sum_is_bit_independent_at_signal_intensity():
    params = make_params()
    sums = set()
    for bit in (0, 1):
        for basis_label in ("Z", "X"):
            s = oil.setting_phases(bit, basis_label, "I0", params)
            sums.add(round(math.cos(s.phi12 + s.phi23), 12))
    assert len(sums) == 1  # phi12 + phi23 = pi mod 2 pi for all four


def test_kappa_inversion_roundtrip():
    mu_in = 0.7
    for target in (0.7, 0.3, 0.01, 1e-4):
        kappa = oil.kappa_for_intensity(target, mu_in)
        assert oil.intensity_of_kappa(kappa, mu_in) == pytest.approx(target, abs=1e-12)
    kappas = [oil.kappa_for_intensity(t, mu_in) for t in (0.6, 0.3, 0.1)]
    assert kappas == sorted(kappas)  # intensity decreases with kappa


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def test_vacuum_block_scalar():
    params = make_params()
    setting = oil.setting_phases(0, "Z", "I0", params)
    block = emitted_block((0, "Z", "I0"), params, 0)
    mu = setting_intensity(setting, params)
    assert block[0, 0].real == pytest.approx(math.exp(-(mu + 2 * params.omega)), abs=1e-14)


def test_leak_free_key_single_photon_phase():
    params = oil.OilParams(mu_in=0.4, omega=0.0)
    setting = oil.setting_phases(0, "Z", "I0", params)
    vec = state_vector(setting, params, 1)
    basis = oil.oil_basis(1)
    e_idx = basis_index(basis, (1, 0, 0, 0))
    l_idx = basis_index(basis, (0, 1, 0, 0))
    ratio = vec[l_idx] / vec[e_idx]
    assert ratio == pytest.approx(np.exp(1j * math.pi / 2), abs=1e-12)
    assert abs(vec[e_idx]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_poisson_traces():
    params = make_params(omega=0.02)
    setting = oil.setting_phases(0, "X", "I1", params)
    mu = setting_intensity(setting, params)
    lam = mu + 2 * params.omega
    for n in range(4):
        block = emitted_block((0, "X", "I1"), params, n)
        assert np.trace(block).real == pytest.approx(
            math.exp(-lam) * lam ** n / math.factorial(n), rel=1e-12)
    probs = oil.photon_probabilities(mu, params.omega, 20)
    assert probs.sum() >= 1.0 - 1e-6


def test_leak_free_states_have_no_leak_support():
    params = make_params(omega=0.0, mu_in=0.4)
    block = emitted_block((0, "Z", "I0"), params, 2)
    basis = oil.oil_basis(2)
    for i, cfg in enumerate(basis.configs):
        if cfg[2] + cfg[3] > 0:
            assert np.max(np.abs(block[i, :])) < 1e-15


def test_block_matches_phase_average_oracle():
    params = make_params(omega=0.02)
    for bit in (0, 1):
        for basis_label, intensity in (("Z", "I0"), ("X", "I1")):
            setting = oil.setting_phases(bit, basis_label, intensity, params)
            for n in (1, 2):
                ours = emitted_block((bit, basis_label, intensity), params, n)
                reference = oil_block_oracle(setting, params, n, phase_nodes=128)
                assert np.max(np.abs(ours - reference)) < 1e-10


def test_mixed_state_unit_trace():
    params = make_params()
    rho = mixed_state("X", "I1", params, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_key_test_indistinguishability_at_signal_intensity():
    for omega in (0.0, 1e-4, 1e-2):
        params = make_params(omega=omega)
        rho_key = mixed_state("Z", "I0", params, 1)
        rho_test = mixed_state("X", "I0", params, 1)
        assert np.max(np.abs(rho_key - rho_test)) <= 1e-10
        assert fidelity(rho_key, rho_test) == pytest.approx(1.0, abs=1e-10)


def test_leak_free_key_mixture_is_maximally_mixed_qubit():
    params = oil.OilParams(mu_in=0.4, omega=0.0)
    rho = mixed_state("Z", "I0", params, 1)
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)
    assert rho[1, 1].real == pytest.approx(0.5, abs=1e-12)
    assert abs(rho[0, 1]) < 1e-14


def test_leakage_marginal_is_setting_independent_at_signal_intensity():
    params = make_params(omega=0.02)
    basis = oil.oil_basis(1)

    def leak_marginal(block):
        out = {}
        for i, ci in enumerate(basis.configs):
            for k, ck in enumerate(basis.configs):
                if ci[:2] == ck[:2]:
                    key = (ci[2], ci[3], ck[2], ck[3])
                    out[key] = out.get(key, 0.0) + block[i, k]
        return out

    marginals = []
    for bit in (0, 1):
        for basis_label in ("Z", "X"):
            marginals.append(leak_marginal(emitted_block((bit, basis_label, "I0"), params, 1)))
    for other in marginals[1:]:
        for key, value in marginals[0].items():
            assert abs(other[key] - value) < 1e-14


# Global phases aligning the four key/test n=1 states so that the
# bit-entangled Z and X states coincide exactly (they purify the same
# mixed state); makes the coin overlap Re<psi_Z|psi_X> = 1 for any
# (mu_in, omega), which the rate takes as exact.
OVERLAP_PHASES = {(0, "Z"): -math.pi / 4.0, (1, "Z"): math.pi / 4.0,
                  (0, "X"): 0.0, (1, "X"): -math.pi / 2.0}


def test_single_photon_overlap_is_unity_for_all_parameters():
    for mu_in, omega in ((0.5, 0.0), (0.5, 0.02), (0.9, 1e-4), (0.05, 0.01)):
        params = oil.params_for_intensities(mu_in, 0.2 * mu_in, 1e-4, omega=omega)
        sector = oil.emission_sectors(params)[1]
        vecs = {}
        for (bit, basis_label), phase in OVERLAP_PHASES.items():
            vec = sector[:, oil.SLOTS.index((basis_label, "I0")), bit]
            vecs[(bit, basis_label)] = vec / np.linalg.norm(vec) * np.exp(1j * phase)
        overlap = bb84_pair_overlap(vecs[(0, "Z")], vecs[(1, "Z")], vecs[(0, "X")],
                                    vecs[(1, "X")])
        assert overlap.real == pytest.approx(1.0, abs=1e-12)
        assert abs(overlap.imag) < 1e-12


# ---------------------------------------------------------------------------
# Array form: every setting's sectors at once
# ---------------------------------------------------------------------------

def driver_params(att_db):
    """The defaults of the injection-locked rate at attenuation att_db."""
    return oil.params_for_intensities(0.5, 0.1, 1e-4, omega=10.0 ** (-att_db / 10.0) * 0.25)


def mixture_factor(sector, slot):
    """Unit-norm factor of the equal-bit mixture of one slot of an
    `oil.emission_sectors` sector: its slice, scaled."""
    cols = sector[:, oil.SLOTS.index(slot)]
    return cols / np.linalg.norm(cols)


def test_emission_sector_columns_are_the_setting_blocks():
    params = make_params(omega=0.02)
    for n, sector in enumerate(oil.emission_sectors(params)):
        assert sector.shape == (oil.oil_basis(n).dim, len(oil.SLOTS), 2)
        for k, (basis_label, intensity) in enumerate(oil.SLOTS):
            for bit in (0, 1):
                block = state_block(oil.setting_phases(bit, basis_label, intensity, params),
                                    params, n)
                vec = sector[:, k, bit]
                assert np.max(np.abs(np.outer(vec, vec.conj()) - block)) <= 1e-15


def test_mixture_factors_square_to_the_mixed_states():
    params = make_params(omega=0.02)
    for n, sector in enumerate(oil.emission_sectors(params)):
        for slot in oil.SLOTS:
            factor = mixture_factor(sector, slot)
            rho = mixed_state(*slot, params, n)
            assert np.max(np.abs(factor @ factor.conj().T - rho)) <= 1e-14


@pytest.mark.parametrize("att_db", [30.0, 120.0])
def test_factor_fidelities_agree_with_mixed_state_fidelities(att_db):
    params = driver_params(att_db)
    for n, sector in enumerate(oil.emission_sectors(params)):
        for i, j in (("I0", "I1"), ("I0", "I2"), ("I1", "I2")):
            [ours] = factor_fidelities([(mixture_factor(sector, ("X", i)),
                                         mixture_factor(sector, ("X", j)))])
            reference = fidelity(mixed_state("X", i, params, n), mixed_state("X", j, params, n))
            assert abs(float(ours) - reference) <= 1e-14

