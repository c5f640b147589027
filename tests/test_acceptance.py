"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The statistical comparisons use fixed seeds so the suite is
deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from helpers import (mixed_state, oil_monte_carlo_estimate, projected_fidelity_bound,
                     textbook_decoy_bound)
from leakyqkd import channel, coin, driver, lp, oil, passive, validation
from leakyqkd.linalg import fidelity

INTENSITIES = ("I0", "I1", "I2")
BASES = ("Z", "X")


def report(number, text, passed=True):
    print(f"\n{'PASS' if passed else 'FAIL'}  criterion {number}: {text}")
    assert passed, f"criterion {number}: {text}"


PASSIVE_PARAMS = passive.PassiveParams(
    mu_max=0.5, omega=0.005, geometry=passive.RegionGeometry(delta_theta_z=0.15))


# ---------------------------------------------------------------------------
# 1. Monte-Carlo oracle agreement on state construction
# ---------------------------------------------------------------------------

def _mc_z_scores(seed, samples_signal, samples_decoy):
    """Unique-entry z-scores (quadrature vs Monte-Carlo) over all regions.

    Only the upper triangle is compared (Hermitian redundancy); entries
    that are structurally zero on both routes are skipped.
    """
    scores = []
    for basis_label in BASES:
        for intensity in INTENSITIES:
            samples = samples_signal if intensity == "I0" else samples_decoy
            region = passive.RegionSpec(None, basis_label, intensity)
            moments = passive.region_moments(region, PASSIVE_PARAMS, nodes=(48, 48, 48))
            for n in range(3):
                mc = passive.monte_carlo_region_estimate(PASSIVE_PARAMS, region, n,
                                                         samples, seed)
                seed += 1
                quad = moments.blocks[n] / moments.mass
                upper = np.triu_indices(quad.shape[0])
                z_re = np.abs(quad.real - mc.block_mean.real) / np.maximum(mc.block_se_real, 1e-14)
                z_im = np.abs(quad.imag - mc.block_mean.imag) / np.maximum(mc.block_se_imag, 1e-14)
                live_re = ((np.abs(quad.real) > 1e-13) | (mc.block_se_real > 1e-13))[upper]
                live_im = ((np.abs(quad.imag) > 1e-13) | (mc.block_se_imag > 1e-13))[upper]
                scores.extend(z_re[upper][live_re].tolist())
                scores.extend(z_im[upper][live_im].tolist())
                scores.append(abs(moments.mass - mc.region_mass) / mc.mass_se)
                scores.append(abs(moments.traces[n] / moments.mass - mc.trace_mean)
                              / max(mc.trace_se, 1e-14))
    return np.array(scores)


def test_criterion_1_state_construction_matches_monte_carlo():
    start = time.time()

    def calibrated(z):
        # ~1.5e3 correlated z-scores: their max exceeds 3 on a fair share of
        # draws, so the gate bounds the max and the excess rate instead;
        # systematic quadrature bias is checked deterministically against
        # exact region masses in test_passive.py
        return float(z.max()) <= 4.5 and float(np.mean(z > 3.0)) <= 0.01

    scores = _mc_z_scores(seed=105_000, samples_signal=1_500_000, samples_decoy=5_000_000)
    worst = float(scores.max())
    guard = _mc_z_scores(seed=20_240, samples_signal=1_000_000, samples_decoy=3_000_000)
    bias_free = calibrated(guard)
    # injection-locked transmitter: sampling the seed phase reproduces the
    # analytic blocks exactly within each photon sector
    params = oil.params_for_intensities(0.5, 0.1, 1e-4, omega=0.005)
    oil_worst = 0.0
    oil_seed = 1
    for bit in (0, 1):
        for basis_label, intensity in (("Z", "I0"), ("X", "I0"), ("X", "I1"), ("X", "I2")):
            setting = oil.setting_phases(bit, basis_label, intensity, params)
            for n in range(3):
                mean, se = oil_monte_carlo_estimate(setting, params, n, 10_000, oil_seed)
                oil_seed += 1
                analytic = oil.state_block(setting, params, n)
                deviation = np.abs(analytic - mean)
                assert np.all(deviation <= 3.0 * se + 1e-12)
                oil_worst = max(oil_worst, float(np.max(deviation)))
    elapsed = time.time() - start
    report(1, f"worst z = {worst:.2f}, {np.mean(scores > 3.0):.2%} above 3 over "
              f"{scores.size} comparisons; bias guard clean; injection-locked max "
              f"deviation {oil_worst:.1e}; {elapsed:.0f}s",
           calibrated(scores) and bias_free and elapsed <= 600.0)


# ---------------------------------------------------------------------------
# 2. Normalisation suite
# ---------------------------------------------------------------------------

def test_criterion_2_normalisation_suite():
    worst_tail = 0.0
    worst_herm = 0.0
    worst_eig = 0.0
    worst_trace = 0.0
    for basis_label in BASES:
        for intensity in INTENSITIES:
            for bit in (0, 1, None):
                region = passive.RegionSpec(bit, basis_label, intensity)
                moments = passive.region_moments(region, PASSIVE_PARAMS, nodes=(24, 24, 24))
                worst_tail = max(worst_tail, 1.0 - float(moments.photon_probabilities().sum()))
                for n in range(PASSIVE_PARAMS.n_cut + 1):
                    rho = moments.normalized_block(n)
                    scale = max(1.0, float(np.max(np.abs(rho))))
                    worst_herm = max(worst_herm,
                                     float(np.max(np.abs(rho - rho.conj().T))) / scale)
                    worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(rho).min()))
                    worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
    params = oil.params_for_intensities(0.5, 0.1, 1e-4, omega=0.01)
    for basis_label, intensity in (("Z", "I0"), ("X", "I0"), ("X", "I1"), ("X", "I2")):
        mu = params.intensity(intensity)
        worst_tail = max(worst_tail,
                         1.0 - float(oil.photon_probabilities(mu, params.omega, 20).sum()))
        for n in range(3):
            rho = mixed_state(basis_label, intensity, params, n)
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(rho).min()))
            worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
    passed = (worst_tail <= 1e-6 and worst_herm <= 1e-12
              and worst_eig <= 1e-9 and worst_trace <= 1e-8)
    report(2, f"photon tails <= 1e-6 (worst {worst_tail:.1e}), hermiticity "
              f"{worst_herm:.1e}, min eigenvalue >= -{worst_eig:.1e}, "
              f"trace error {worst_trace:.1e}", passed)


# ---------------------------------------------------------------------------
# 3. Fidelity-bound soundness
# ---------------------------------------------------------------------------

def test_criterion_3_fidelity_bound_soundness():
    corpus_geometry = passive.RegionGeometry(delta_theta_z=0.12, t1=0.9, t2=0.45)
    worst_slack = 0.0
    worst_gap = 0.0
    for omega, geometry, check_gap in ((0.01, corpus_geometry, True),
                                       (0.01, PASSIVE_PARAMS.geometry, False),
                                       (1e-4, PASSIVE_PARAMS.geometry, False)):
        params = passive.PassiveParams(mu_max=1.2 if check_gap else 0.5, omega=omega,
                                       geometry=geometry, leak_cuts={})
        states = {}
        for basis_label in BASES:
            for intensity in INTENSITIES:
                moments = passive.region_moments(passive.RegionSpec(0, basis_label, intensity),
                                                 params, nodes=(16, 16, 16))
                states[(basis_label, intensity)] = moments
        for basis_label in BASES:
            for idx, i in enumerate(INTENSITIES):
                for j in INTENSITIES[idx + 1:]:
                    for n in (1, 2):
                        rho_i = states[(basis_label, i)].normalized_block(n)
                        rho_j = states[(basis_label, j)].normalized_block(n)
                        counts = states[(basis_label, i)].bases[n].leak_counts()
                        exact = fidelity(rho_i, rho_j)
                        bound = projected_fidelity_bound(rho_i, rho_j, counts, cut=1)
                        worst_slack = max(worst_slack, bound - exact)
                        if check_gap:
                            worst_gap = max(worst_gap, exact - bound)
    report(3, f"bound <= exact + 1e-8 (worst slack {worst_slack:.1e}); corpus gap "
              f"<= 0.05 at leakage 0.01 with single-leak truncation (worst {worst_gap:.3f})",
           worst_slack <= 1e-8 and worst_gap <= 0.05)


# ---------------------------------------------------------------------------
# 4. Coin-function suite
# ---------------------------------------------------------------------------

def test_criterion_4_coin_function_suite():
    for y in np.linspace(0.0, 1.0, 11):
        assert coin.transfer_curve(float(y), 1.0, +1) == pytest.approx(float(y), abs=1e-12)
        assert coin.transfer_curve(float(y), 1.0, -1) == pytest.approx(float(y), abs=1e-12)
    assert coin.transfer_bound(0.05, 0.9, "L") == 0.0
    assert coin.transfer_bound(0.95, 0.9, "U") == 1.0
    worked = coin.transfer_bound(0.2, 0.9, "U")
    assert abs(worked - 0.5) <= 1e-12
    ys = np.linspace(0.0, 1.0, 1000)
    for z in (0.02, 0.3, 0.62, 0.9, 0.99, 0.9999, 1.0):
        for y_ref in (0.0, 2e-6, 0.01, 0.15, 0.5, 0.85, 0.99, 1.0):
            for side, sign in (("L", 1.0), ("U", -1.0)):
                line = coin.tangent_line(z, y_ref, side)
                values = np.array([coin.transfer_bound(float(y), z, side) for y in ys])
                lines = line.intercept + line.slope * ys
                assert np.all(sign * (values - lines) >= -1e-12)
    report(4, "identity transfer at unit fidelity, piecewise branches, tangent "
              f"dominance on a 1000-point grid, worked value {worked!r}")


# ---------------------------------------------------------------------------
# 5. LP soundness and tightness
# ---------------------------------------------------------------------------

def _assignment_violation(spec, x):
    lhs = spec.a @ x
    return float(np.max(np.where(spec.upper, lhs - spec.b, spec.b - lhs), initial=0.0))


def _passive_truth_check(config, distance, att, nodes):
    """Feasibility and soundness, against the model, of the four programs
    the pipeline solves."""
    source = driver.passive_source(config, att, nodes)
    est = driver._passive_estimation(config, source, distance)
    chan = driver._channel(config, distance)
    params = source.params
    n_cut = config.n_cut
    grid = (nodes, nodes, nodes)
    worst = 0.0

    truth_union = {}
    for basis_label in BASES:
        for i in INTENSITIES:
            node_sets = passive.region_nodes_for(passive.RegionSpec(None, basis_label, i),
                                                 params.geometry, params.mu_max, grid)
            yields, _ = channel.passive_true_statistics(node_sets, params, chan, n_cut)
            truth_union[(basis_label, i)] = yields

    # baseline yield programs
    y_true_1 = {}
    for basis_label in BASES:
        spec = est.yield_specs[basis_label]
        # the columns Y_I_n, intensity-major
        x = np.concatenate([truth_union[(basis_label, i)][:n_cut + 1] for i in INTENSITIES])
        worst = max(worst, _assignment_violation(spec, x))
        solution = lp.solve(spec)
        assert solution.status == "optimal"
        y_true_1[basis_label] = x[spec.variables.index("Y_I0_1")]
        worst = max(worst, solution.value - y_true_1[basis_label])

    # baseline bit-error programs
    truth_bit = {}
    for a in (0, 1):
        for i in INTENSITIES:
            node_sets = passive.region_nodes_for(passive.RegionSpec(a, "X", i),
                                                 params.geometry, params.mu_max, grid)
            truth_bit[(a, i)] = channel.passive_true_statistics(node_sets, params, chan,
                                                                n_cut, bit=a)
    for a in (0, 1):
        spec = est.error_specs[f"bit-{a} error"]
        x = np.concatenate([truth_bit[(a, i)][1][:n_cut + 1] for i in INTENSITIES])
        worst = max(worst, _assignment_violation(spec, x))
        solution = lp.solve(spec)
        assert solution.status == "optimal"
        worst = max(worst, x[spec.variables.index("Y_I0_1")] - solution.value)
    return worst, y_true_1


def test_criterion_5_lp_soundness_and_tightness():
    config = driver.ProtocolConfig(transmitter="passive", analysis="baseline",
                                   mu_max=0.5, delta_theta_z=0.12)
    worst = 0.0
    for distance, att in ((25.0, 40.0), (50.0, 90.0), (50.0, 50.0), (75.0, 120.0)):
        violation, _ = _passive_truth_check(config, distance, att, nodes=24)
        worst = max(worst, violation)

    # unit-fidelity instances reproduce the textbook three-intensity bound
    ok, detail_decoy = True, ""
    for mu0, mu1, mu2, eta in ((0.5, 0.1, 0.002, 0.1), (0.7, 0.05, 1e-4, 0.01)):
        probs = np.array([[math.exp(-mu) * mu ** n / math.factorial(n) for n in range(5)]
                          for mu in (mu0, mu1, mu2)])
        gains = np.array([1.0 - (1.0 - 1e-6) ** 2 * math.exp(-eta * mu) for mu in (mu0, mu1, mu2)])
        refs = 1.0 - (1.0 - 1e-6) ** 2 * (1.0 - eta) ** np.arange(5)
        ours = lp.solve(lp.yield_program(gains, probs, np.ones((3, 5)), refs)).value
        textbook = textbook_decoy_bound(dict(zip(INTENSITIES, probs)),
                                        dict(zip(INTENSITIES, gains)), 4)
        ok &= abs(ours - textbook) <= 1e-6
        detail_decoy = f"decoy deviation {abs(ours - textbook):.1e}"

    vertex_ok, vertex_detail = validation.check_lp_vertex_oracle(seed=6, cases=100)
    report(5, f"channel-truth slack {worst:.1e} <= 1e-7; {detail_decoy}; {vertex_detail}",
           worst <= 1e-7 and ok and vertex_ok)


# ---------------------------------------------------------------------------
# 6. Injection-locked indistinguishability
# ---------------------------------------------------------------------------

def test_criterion_6_oil_indistinguishability():
    worst = 0.0
    for omega in (0.0, 1e-4, 1e-2):
        params = oil.params_for_intensities(0.5, 0.1, 1e-4, omega=omega)
        rho_key = mixed_state("Z", "I0", params, 1)
        rho_test = mixed_state("X", "I0", params, 1)
        worst = max(worst, float(np.max(np.abs(rho_key - rho_test))))
    config = driver.ProtocolConfig(transmitter="oil", mu_in=0.5, mu_i1=0.1, mu_i2=1e-4)
    rep = driver.key_rate(config, 50.0, 120.0)
    transfer_identity = (rep.details["fid_zx"] >= 1.0 - 1e-9
                         and rep.y1_lower == pytest.approx(rep.details["y_lower"]["X"],
                                                           abs=1e-12))
    report(6, f"max |rho_key - rho_test| = {worst:.1e} <= 1e-10; unit-fidelity "
              "yield transfer exercised", worst <= 1e-10 and transfer_identity)


# ---------------------------------------------------------------------------
# 7. Figure-trend reproduction
# ---------------------------------------------------------------------------

def _optimized_ladder(config, distance, att_values):
    """Optimise along increasing attenuation, keeping the best parameters
    seen so far as a warm-start candidate (the rate is attenuation-monotone
    at fixed parameters, so this preserves the physical ordering that a
    finite search could otherwise scramble)."""
    rates = {}
    best_params = config
    for att in att_values:
        candidates = []
        optimized, rep = driver.optimize_point(best_params, distance, att)
        candidates.append((rep.rate, optimized, rep))
        if best_params is not config:
            rep_prev = driver.key_rate(best_params, distance, att)
            candidates.append((rep_prev.rate, best_params, rep_prev))
        candidates.sort(key=lambda item: item[0])
        rate, best_params, _ = candidates[-1]
        rates[att] = rate
    return rates


def test_criterion_7_figure_trends():
    start = time.time()
    att_values = (30.0, 50.0, 70.0, 90.0, 105.0, 120.0)
    ladder_atts = (30.0, 50.0, 70.0, 90.0, 120.0)

    passive_config = driver.ProtocolConfig(transmitter="passive", analysis="refined",
                                           mu_max=0.5, delta_theta_z=0.1)
    passive_rates = _optimized_ladder(passive_config, 50.0, att_values)
    oil_config = driver.ProtocolConfig(transmitter="oil", mu_in=0.5, mu_i1=0.1, mu_i2=1e-4)
    oil_rates = _optimized_ladder(oil_config, 50.0, att_values)

    checks = []
    for rates, name in ((passive_rates, "passive"), (oil_rates, "oil")):
        ladder = [rates[a] for a in ladder_atts]
        checks.append(all(b >= a - 1e-12 for a, b in zip(ladder, ladder[1:])))
        checks.append(rates[30.0] < rates[120.0])
    checks.append(passive_rates[90.0] >= 0.5 * passive_rates[120.0])
    checks.append(passive_rates[120.0] - passive_rates[105.0]
                  <= 0.05 * passive_rates[120.0])
    _, oil_far = driver.optimize_point(oil_config, 100.0, 120.0)
    checks.append(oil_far.rate > 0.0)
    elapsed = time.time() - start
    passed = all(checks) and elapsed <= 1800.0
    report(7, "rates nondecreasing in attenuation for both transmitters; "
              f"passive R(90)/R(120) = {passive_rates[90.0] / passive_rates[120.0]:.3f} >= 0.5; "
              f"plateau gap {(passive_rates[120.0] - passive_rates[105.0]) / passive_rates[120.0]:.4f}"
              f" <= 0.05; R(30) < R(120); injection-locked R(100 km) = {oil_far.rate:.2e} > 0; "
              f"{elapsed:.0f}s <= 30 min", passed)


# ---------------------------------------------------------------------------
# 8. Refined-analysis dominance
# ---------------------------------------------------------------------------

def test_criterion_8_refined_dominance():
    strictly_better = False
    worst_deficit = 0.0
    for distance in (25.0, 50.0):
        for att in (90.0, 120.0):
            base_cfg = driver.ProtocolConfig(transmitter="passive", analysis="baseline",
                                             mu_max=0.5, delta_theta_z=0.1)
            ref_cfg = dataclasses.replace(base_cfg, analysis="refined")
            base = driver.key_rate(base_cfg, distance, att, nodes=24).rate
            refined = driver.key_rate(ref_cfg, distance, att, nodes=24).rate
            worst_deficit = max(worst_deficit, base - refined)
            strictly_better |= refined > base + 1e-12
    report(8, f"refined >= baseline - 1e-9 at every point (worst deficit "
              f"{worst_deficit:.1e}) and strictly better somewhere",
           worst_deficit <= 1e-9 and strictly_better)


# ---------------------------------------------------------------------------
# 9. Roundtrip/inversion suite
# ---------------------------------------------------------------------------

def test_criterion_9_roundtrip_suite():
    ok, detail = validation.check_phase_roundtrip(seed=1, samples=10_000)
    report(9, detail, ok)


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_criterion_10_byte_identical_output():
    config = driver.ProtocolConfig(
        transmitter="passive", analysis="baseline", mu_max=0.5, delta_theta_z=0.12,
        quadrature_nodes=16, distances_km=(50.0,), att_db=(70.0, 120.0))
    first = driver.reports_to_csv(driver.sweep(config))
    second = driver.reports_to_csv(driver.sweep(config))
    oil_config = driver.ProtocolConfig(transmitter="oil", distances_km=(50.0, 100.0),
                                       att_db=(120.0,))
    third = driver.reports_to_csv(driver.sweep(oil_config))
    fourth = driver.reports_to_csv(driver.sweep(oil_config))
    report(10, "byte-identical CSV across repeated runs for both transmitters",
           first.encode() == second.encode() and third.encode() == fourth.encode())
