import math

import numpy as np
import pytest

from helpers import (expected_yield, partial_trace_reference_error, region_average,
                     trace_out_leakage)
from leakyqkd import channel, oil, passive
from leakyqkd.channel import ChannelParams, transmittance
from leakyqkd.fock import leak_truncated_subbasis


def make_channel(distance, **kwargs):
    return ChannelParams(distance_km=distance, **kwargs)


def test_transmittance_values():
    assert transmittance(make_channel(0.0)) == 1.0
    assert transmittance(make_channel(50.0)) == pytest.approx(0.1, rel=1e-12)
    assert transmittance(make_channel(100.0)) == pytest.approx(0.01, rel=1e-12)
    assert transmittance(make_channel(50.0, detector_efficiency=0.5)) == pytest.approx(0.05)


def test_reference_yields():
    chan = make_channel(50.0, p_dark=1e-6)
    y = channel.reference_yields(4, chan)
    assert y[0] == pytest.approx(1.0 - (1.0 - 1e-6) ** 2, rel=1e-9)
    assert np.all(np.diff(y) > 0)
    perfect = channel.reference_yields(3, make_channel(0.0, p_dark=0.0))
    assert np.allclose(perfect[1:], 1.0)
    y2 = channel.reference_yields(2, make_channel(50.0, p_dark=1e-6))
    assert y2[2] == pytest.approx(1.0 - (1.0 - 1e-6) ** 2 * 0.81, rel=1e-9)


def test_beamsplitter_block_unitary_and_single_photon():
    for m in range(5):
        u = channel.beamsplitter_block(m)
        assert np.max(np.abs(u @ u.T - np.eye(m + 1))) < 1e-12
    u1 = channel.beamsplitter_block(1)
    # symmetric input (|10>+|01>)/sqrt(2) exits fully in port 0
    vec_in = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = u1 @ vec_in
    assert abs(out[0]) == pytest.approx(1.0, abs=1e-12)


def test_error_projector_vacuum_value():
    p_d = 1e-6
    diag = channel.error_projector_diagonal(0, 0.3, p_d)
    assert diag[0] == pytest.approx(p_d * (1 - p_d) + 0.5 * p_d ** 2, rel=1e-9)


def test_perfect_test_state_has_no_error():
    chan = make_channel(0.0, p_dark=0.0)
    basis = passive.passive_basis(1)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)  # (|10> + |01>)/sqrt(2)
    rho = np.outer(vec, vec.conj())
    assert channel.reference_error(rho, basis, chan, bit=0, interfere=True) == pytest.approx(
        0.0, abs=1e-12)
    # the orthogonal state always errors
    assert channel.reference_error(rho, basis, chan, bit=1, interfere=True) == pytest.approx(
        1.0, abs=1e-12)


def test_reference_error_against_click_enumeration():
    # brute-force enumeration over detected photon counts and dark counts
    rng = np.random.default_rng(3)
    chan = make_channel(30.0, p_dark=0.01)
    eta = transmittance(chan)
    basis = passive.passive_basis(2)
    diag_entries = rng.uniform(0.1, 1.0, size=basis.dim)
    diag_entries /= diag_entries.sum()
    rho = np.diag(diag_entries).astype(complex)
    ours = channel.reference_error(rho, basis, chan, bit=0, interfere=False)
    brute = 0.0
    for i, cfg in enumerate(basis.configs):
        j, k = cfg[0], cfg[1]  # photons reaching the correct / error detectors
        for det_c in range(j + 1):
            for det_e in range(k + 1):
                p_det = (math.comb(j, det_c) * eta ** det_c * (1 - eta) ** (j - det_c)
                         * math.comb(k, det_e) * eta ** det_e * (1 - eta) ** (k - det_e))
                for dark_c in (0, 1):
                    for dark_e in (0, 1):
                        p_dark = ((chan.p_dark if dark_c else 1 - chan.p_dark)
                                  * (chan.p_dark if dark_e else 1 - chan.p_dark))
                        click_c = det_c > 0 or dark_c
                        click_e = det_e > 0 or dark_e
                        weight = 1.0 if (click_e and not click_c) else (
                            0.5 if (click_e and click_c) else 0.0)
                        brute += diag_entries[i] * p_det * p_dark * weight
    assert ours == pytest.approx(brute, abs=1e-12)


def test_trace_out_leakage_preserves_trace():
    params = passive.PassiveParams(mu_max=0.5, omega=0.01,
                                   geometry=passive.RegionGeometry(delta_theta_z=0.1))
    rho, _, _ = region_average(passive.RegionSpec(0, "X", "I0"), 2, params,
                               nodes=(12, 12, 12))
    blocks = trace_out_leakage(rho, passive.passive_basis(2))
    total = sum(np.trace(b).real for b in blocks.values())
    assert total == pytest.approx(1.0, abs=1e-10)


def _differential_bases():
    for n in range(5):
        yield passive.passive_basis(n)
        for cut in range(n):
            yield leak_truncated_subbasis(passive.passive_basis(n), cut)
        yield oil.oil_basis(n)


def test_reference_error_matches_partial_trace_route():
    # Tr[rho W] against tracing out the leakage modes block by block, on
    # random non-diagonal states of full, leak-truncated and oil bases
    rng = np.random.default_rng(11)
    chan = make_channel(30.0, p_dark=0.01)
    for basis in _differential_bases():
        amp = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
        rho = amp @ amp.conj().T
        rho /= np.trace(rho).real
        for bit in (0, 1):
            for interfere in (False, True):
                ours = channel.reference_error(rho, basis, chan, bit, interfere)
                ref = partial_trace_reference_error(rho, basis, chan, bit, interfere)
                assert abs(ours - ref) <= 1e-14, (basis.n, basis.dim, bit, interfere)
                w = channel._error_operator(basis.configs, basis.leak_modes,
                                            transmittance(chan), chan.p_dark, bit, interfere)
                assert np.max(np.abs(w - w.T)) <= 1e-15
                eig = np.linalg.eigvalsh(w)
                assert eig.min() >= -1e-14 and eig.max() <= 1.0 + 1e-14


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def test_gain_hits_dark_floor_at_zero_transmittance():
    chan = make_channel(0.0, p_dark=1e-6)
    obs = channel.oil_point_observables(1e-9, math.pi / 2, "Z", 0, chan)
    floor = 1.0 - (1.0 - 1e-6) ** 2
    assert obs.gain == pytest.approx(floor, rel=1e-3)
    assert obs.error_rate == pytest.approx(0.5, abs=1e-3)


def test_oil_observables_examples():
    chan = make_channel(50.0, p_dark=1e-6)
    mu = 0.4
    obs = channel.oil_point_observables(mu, math.pi / 2, "Z", 0, chan)
    assert obs.gain == pytest.approx(1.0 - (1.0 - 1e-6) ** 2 * math.exp(-0.1 * mu), rel=1e-12)
    perfect = channel.oil_point_observables(mu, math.pi / 2, "Z", 0, make_channel(50.0, p_dark=0.0))
    assert perfect.error_gain == pytest.approx(0.0, abs=1e-15)
    vacuum = channel.oil_point_observables(0.0, 0.0, "X", 0, chan)
    assert vacuum.gain == pytest.approx(1.0 - (1.0 - 1e-6) ** 2, rel=1e-9)


def test_oil_test_basis_observables_do_not_depend_on_the_bit():
    # read by time of arrival, each bit's signal lands in its own bin: the
    # injection-locked estimation builds one set of test-basis observables
    chan = make_channel(50.0, p_dark=1e-6)
    for mu in (1e-4, 0.1, 0.5):
        zero, one = (channel.oil_point_observables(mu, 0.0, "X", bit, chan) for bit in (0, 1))
        assert zero == one


def test_outcome_gains_partition_gain():
    chan = make_channel(50.0)
    obs = channel.oil_point_observables(0.4, math.pi / 2, "Z", 1, chan)
    assert obs.outcome_gain(True) + obs.outcome_gain(False) == pytest.approx(obs.gain, abs=1e-15)
    assert 0.0 <= obs.error_gain <= obs.gain <= 1.0


def test_passive_observables_bit_symmetry_and_bounds():
    geometry = passive.RegionGeometry(delta_theta_z=0.12)
    nodes0 = passive.build_region_nodes(0, "Z", "I0", geometry, 0.5, (16, 16, 16))
    nodes1 = passive.build_region_nodes(1, "Z", "I0", geometry, 0.5, (16, 16, 16))
    chan = make_channel(50.0)
    obs0 = channel.passive_point_observables(nodes0, 0, "Z", chan)
    obs1 = channel.passive_point_observables(nodes1, 1, "Z", chan)
    assert obs0.gain == pytest.approx(obs1.gain, rel=1e-9)
    assert obs0.error_gain == pytest.approx(obs1.error_gain, rel=1e-6)
    assert 0.0 <= obs0.error_gain <= obs0.gain <= 1.0


def test_tiny_key_window_kills_key_errors():
    geometry = passive.RegionGeometry(delta_theta_z=0.01)
    nodes = passive.build_region_nodes(0, "Z", "I0", geometry, 0.5, (16, 16, 16))
    obs = channel.passive_point_observables(nodes, 0, "Z", make_channel(50.0, p_dark=1e-12))
    assert obs.error_rate < 1e-4


def test_decoy_identity_reproduces_gain():
    # sum_n p_n * true yield_n / error_n telescopes back to the observables
    geometry = passive.RegionGeometry(delta_theta_z=0.12)
    params = passive.PassiveParams(mu_max=0.5, omega=0.004, geometry=geometry)
    chan = make_channel(50.0)
    for bit in (0, 1):
        region = passive.RegionSpec(bit, "X", "I0")
        node_sets = passive.region_nodes_for(region, geometry, 0.5, (24, 24, 24))
        moments = passive.region_moments(region, params, node_sets=node_sets)
        yields, errors = channel.passive_true_statistics(node_sets, params, chan, 20,
                                                         bit=bit)
        probs = moments.photon_probabilities()
        obs = channel.passive_point_observables(node_sets[0], bit, "X", chan)
        assert float(np.dot(probs[:21], yields)) == pytest.approx(obs.gain, abs=1e-12)
        assert float(np.dot(probs[:21], errors)) == pytest.approx(obs.error_gain, abs=1e-12)


def test_true_statistics_against_density_matrix_route():
    # the amplitude-level statistics agree with Tr[rho Pi] on full matrices
    geometry = passive.RegionGeometry(delta_theta_z=0.12)
    params = passive.PassiveParams(mu_max=0.5, omega=0.004, geometry=geometry, leak_cuts={})
    chan = make_channel(50.0)
    region = passive.RegionSpec(0, "X", "I0")
    node_sets = passive.region_nodes_for(region, geometry, 0.5, (16, 16, 16))
    moments = passive.region_moments(region, params, node_sets=node_sets)
    yields, errors = channel.passive_true_statistics(node_sets, params, chan, 2, bit=0)
    for n in (1, 2):
        rho = moments.normalized_block(n)
        basis = moments.bases[n]
        assert expected_yield(rho, basis, chan) == pytest.approx(
            float(yields[n]), abs=1e-10)
        gamma = channel.reference_error(rho, basis, chan, bit=0, interfere=True)
        assert gamma == pytest.approx(float(errors[n]), abs=1e-10)
