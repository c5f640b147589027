import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (fidelity, leak_counts, projected_fidelity_bound, region_average,
                     scalar_safe_reference, scalar_tangent, transfer_curve)
from leakyqkd import coin, passive

probabilities = st.floats(0.0, 1.0, allow_nan=False)
SIDES = ("L", "U")  # the side axis of `coin.tangent_lines`


def test_fidelity_one_collapses_curves_to_identity():
    for y in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert transfer_curve(y, 1.0, +1) == pytest.approx(y, abs=1e-12)
        assert transfer_curve(y, 1.0, -1) == pytest.approx(y, abs=1e-12)


def test_fidelity_zero_gives_complement():
    assert transfer_curve(0.3, 0.0, +1) == pytest.approx(0.7, abs=1e-12)
    assert transfer_curve(0.3, 0.0, -1) == pytest.approx(0.7, abs=1e-12)


def test_worked_plus_minus_values():
    assert transfer_curve(0.2, 0.9, +1) == pytest.approx(0.5, abs=1e-12)
    assert transfer_curve(0.2, 0.9, -1) == pytest.approx(0.02, abs=1e-12)


def test_piecewise_flat_branches():
    assert coin.transfer_bound(0.05, 0.9, "L") == 0.0  # y <= 1 - z
    assert coin.transfer_bound(0.95, 0.9, "U") == 1.0  # y >= z
    assert coin.transfer_bound(0.2, 0.9, "U") == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=200, derandomize=True)
@given(y=probabilities, z=probabilities)
def test_envelope_ordering(y, z):
    low = coin.transfer_bound(y, z, "L")
    high = coin.transfer_bound(y, z, "U")
    assert low <= high + 1e-12
    assert -1e-12 <= low and high <= 1.0 + 1e-12


@settings(max_examples=200, derandomize=True)
@given(y=st.floats(0.001, 0.999), yp=st.floats(0.001, 0.999), z=st.floats(0.0, 1.0))
def test_envelopes_consistent_with_bloch_inequality(y, yp, z):
    # whenever (y, y') satisfies the coin inequality, y' is inside the envelopes
    lhs = math.sqrt(z)
    rhs = math.sqrt(y * yp) + math.sqrt((1.0 - y) * (1.0 - yp))
    if lhs <= rhs:
        assert coin.transfer_bound(y, z, "L") <= yp + 1e-9
        assert yp <= coin.transfer_bound(y, z, "U") + 1e-9


def test_tangent_identity_line_at_unit_fidelity():
    lines = coin.tangent_lines(1.0, 0.5)
    assert lines.slope.tolist() == pytest.approx([1.0, 1.0], abs=1e-12)
    assert lines.intercept.tolist() == pytest.approx([0.0, 0.0], abs=1e-12)


def test_tangent_touches_envelope():
    # at the reference itself, or where the kink and edge nudges move it
    for z in (0.3, 0.9, 0.999):
        for k, side in enumerate(SIDES):
            for raw in (0.4, 1.0 - z if side == "L" else z, 0.0, 1.0):
                y_ref = scalar_safe_reference(raw, z, side)
                lines = coin.tangent_lines(z, raw)
                assert lines.evaluate(y_ref)[k] == pytest.approx(
                    coin.transfer_bound(y_ref, z, side), abs=1e-12)


def test_tangent_slope_matches_finite_difference():
    # both sides, on the smooth and on the flat branch, for each reference
    # alone and for all at once
    z, y_ref = (g.ravel() for g in np.meshgrid((0.3, 0.9), (0.05, 0.2, 0.5, 0.8, 0.95)))
    h = 1e-6
    for k, side in enumerate(SIDES):
        flat = y_ref < 1.0 - z if side == "L" else y_ref > z
        assert flat.any() and not flat.all()
        numeric = (coin.transfer_bound(y_ref + h, z, side)
                   - coin.transfer_bound(y_ref - h, z, side)) / (2.0 * h)
        assert coin.tangent_lines(z, y_ref).slope[k] == pytest.approx(numeric, abs=1e-6)
        singles = [float(coin.tangent_lines(float(z_k), float(y_k)).slope[k])
                   for z_k, y_k in zip(z, y_ref)]
        assert singles == pytest.approx(numeric.tolist(), abs=1e-6)


def test_tangent_dominance_on_grid():
    ys = np.linspace(0.0, 1.0, 1000)
    for z in (0.05, 0.5, 0.9, 0.999, 1.0):
        for y_ref in (0.0, 1e-4, 0.2, 0.5, 0.97, 1.0, 1.0 - z, z):
            lines = coin.tangent_lines(z, y_ref)
            for y in ys:
                y = float(y)
                low, high = lines.evaluate(y)
                assert low <= coin.transfer_bound(y, z, "L") + 1e-12
                assert high >= coin.transfer_bound(y, z, "U") - 1e-12


def test_tangent_nudges_kink_and_edge_references():
    # 0 and 1 clip to KINK_SHIFT and 1 - KINK_SHIFT; a reference within
    # KINK_TOL of the kink moves KINK_SHIFT onto the smooth branch
    shift, near = coin.KINK_SHIFT, 0.5 * coin.KINK_TOL
    for k, (side, kink) in enumerate((("L", 1.0 - 0.9), ("U", 0.9))):
        nudged = kink + shift if side == "L" else kink - shift
        for raw, ref in ((0.0, shift), (1.0, 1.0 - shift), (kink, nudged),
                         (kink + near, nudged), (kink - near, nudged)):
            got, want = coin.tangent_lines(0.9, raw), coin.tangent_lines(0.9, ref)
            assert (got.slope[k], got.intercept[k]) == (want.slope[k], want.intercept[k])


def test_tangent_rejects_kink_reference():
    # the kink 1 - z sits at the upper clip bound, where no shift clears it
    with pytest.raises(ValueError, match="kink"):
        coin.tangent_lines(1e-6, 1.0 - 1e-6)


def _uncleared(z, y_ref, side):
    """Whether the nudged reference still sits at an interior kink."""
    kink = 1.0 - z if side == "L" else z
    return abs(scalar_safe_reference(y_ref, z, side) - kink) < coin.KINK_TOL and 0.0 < kink < 1.0


# raw references: anywhere in [0, 1], or within KINK_TOL of the kink
references = st.one_of(probabilities.map(lambda y: (y, None)),
                       st.floats(-coin.KINK_TOL, coin.KINK_TOL, exclude_min=True,
                                 exclude_max=True).map(lambda offset: (None, offset)))


@settings(max_examples=200, derandomize=True)
@given(entries=st.lists(st.tuples(probabilities, references), min_size=1, max_size=12),
       side=st.sampled_from(("L", "U")))
def test_array_tangents_equal_scalar_tangents_bit_for_bit(entries, side):
    entries = [(z, y if offset is None else (1.0 - z if side == "L" else z) + offset)
               for z, (y, offset) in entries]
    # both sides are computed: an entry either side cannot take raises
    entries = [(z, y) for z, y in entries if not any(_uncleared(z, y, s) for s in SIDES)]
    if not entries:
        return
    k = SIDES.index(side)
    z, y = (np.array(column) for column in zip(*entries))
    expected = [scalar_tangent(z_k, scalar_safe_reference(y_k, z_k, side), side)
                for z_k, y_k in entries]
    batch = coin.tangent_lines(z, y)
    assert list(zip(batch.slope[k].tolist(), batch.intercept[k].tolist())) == expected
    singles = [coin.tangent_lines(z_k, y_k) for z_k, y_k in entries]
    assert [(float(line.slope[k]), float(line.intercept[k])) for line in singles] == expected


@settings(max_examples=50, derandomize=True)
@given(z=st.floats(1e-6 - 0.5 * coin.KINK_TOL, 1e-6 + 0.5 * coin.KINK_TOL),
       side=st.sampled_from(("L", "U")), k=st.integers(0, 3))
def test_array_tangents_reject_what_scalar_tangents_reject(z, side, k):
    # a kink within KINK_TOL of a clip bound: the nudge cannot clear it,
    # whether the reference sits at the kink or at the edge beyond it
    kink = 1.0 - z if side == "L" else z
    for bad in (kink, 1.0 if side == "L" else 0.0):
        assert _uncleared(z, bad, side)
        fids, refs = np.full(4, 0.5), np.full(4, 0.3)
        fids[k], refs[k] = z, bad
        with pytest.raises(ValueError, match="kink"):
            coin.tangent_lines(z, bad)
        with pytest.raises(ValueError, match="kink"):
            coin.tangent_lines(fids, refs)


def test_yield_transfer_limits():
    # the interval the envelopes give the other yield: a point at fidelity 1,
    # all of [0, 1] at fidelity 0
    def interval(y, z):
        return tuple(coin.transfer_bound(y, z, side) for side in ("L", "U"))

    assert interval(0.37, 1.0) == pytest.approx((0.37, 0.37), abs=1e-12)
    assert interval(0.4, 0.0) == (0.0, 1.0)
    assert interval(0.2, 0.9) == pytest.approx((0.02, 0.5), abs=1e-12)


def test_coin_adjusted_fidelity_cases():
    assert coin.coin_adjusted_fidelity(1.0, 0.01) == pytest.approx(1.0, abs=1e-12)
    assert coin.coin_adjusted_fidelity(0.999, 0.01) == pytest.approx(0.81, abs=1e-12)
    # a degenerate bound is a value, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coin.coin_adjusted_fidelity(0.9, 0.05) == 0.0


def test_phase_error_upper_cases():
    assert coin.phase_error_upper(0.02, 1.0) == pytest.approx(0.02, abs=1e-12)
    assert coin.phase_error_upper(0.3, 0.0) == 1.0
    assert coin.phase_error_upper(0.2, 0.9) == pytest.approx(0.5, abs=1e-12)


def test_phase_error_monotonicity():
    es = np.linspace(0.0, 1.0, 21)
    fps = np.linspace(0.0, 1.0, 21)
    for fp in fps:
        values = [coin.phase_error_upper(float(e), float(fp)) for e in es]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    for e in es:
        values = [coin.phase_error_upper(float(e), float(fp)) for fp in fps]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Projection-based fidelity lower bound
# ---------------------------------------------------------------------------

#: geometry whose intensity windows dominate the leakage scale 0.01, so
#: single-leak-photon truncation stays tight (the default windows sit at
#: the leakage scale, where even exact cross-intensity fidelities collapse
#: and no truncation bound can stay within 0.05 of them)
CORPUS_GEOMETRY = dict(mu_max=1.2, t1=0.9, t2=0.45)


def _passive_region_state(bit, basis_label, intensity, omega, n,
                          mu_max=0.5, t1=0.05, t2=0.01):
    geometry = passive.RegionGeometry(delta_theta_z=0.12, t1=t1, t2=t2)
    params = passive.PassiveParams(mu_max=mu_max, omega=omega, geometry=geometry,
                                   leak_cuts={})
    region = passive.RegionSpec(bit, basis_label, intensity)
    moments = passive.region_moments(region, params, nodes=(16, 16, 16), n_tail=n)
    return moments.normalized_block(n), moments.bases[n]


def test_bound_equals_exact_without_truncation():
    rho_i, basis = _passive_region_state(0, "X", "I0", 0.01, 2)
    rho_j, _ = _passive_region_state(0, "X", "I1", 0.01, 2)
    counts = leak_counts(basis)
    bound = projected_fidelity_bound(rho_i, rho_j, counts, cut=2)
    assert bound == pytest.approx(fidelity(rho_i, rho_j), abs=1e-8)


def test_bound_sound_even_at_harsh_leakage():
    # default windows with leakage at the window scale: wide gaps are
    # expected, but the bound must never exceed the exact value
    for pair in (("I0", "I1"), ("I0", "I2"), ("I1", "I2")):
        for n in (1, 2):
            rho_i, basis = _passive_region_state(0, "X", pair[0], 0.01, n)
            rho_j, _ = _passive_region_state(0, "X", pair[1], 0.01, n)
            bound = projected_fidelity_bound(rho_i, rho_j, leak_counts(basis), cut=1)
            assert bound <= fidelity(rho_i, rho_j) + 1e-8


def test_bound_never_exceeds_exact_and_gap_small():
    for basis_label in ("Z", "X"):
        for pair in (("I0", "I1"), ("I0", "I2"), ("I1", "I2")):
            for n in (1, 2):
                rho_i, basis = _passive_region_state(0, basis_label, pair[0], 0.01, n,
                                                     **CORPUS_GEOMETRY)
                rho_j, _ = _passive_region_state(0, basis_label, pair[1], 0.01, n,
                                                 **CORPUS_GEOMETRY)
                counts = leak_counts(basis)
                exact = fidelity(rho_i, rho_j)
                bound = projected_fidelity_bound(rho_i, rho_j, counts, cut=1)
                assert bound <= exact + 1e-8
                assert exact - bound <= 0.05


def test_leak_free_states_lose_nothing_under_projection():
    rho_i, basis = _passive_region_state(0, "X", "I0", 0.0, 2)
    rho_j, _ = _passive_region_state(0, "X", "I1", 0.0, 2)
    counts = leak_counts(basis)
    bound = projected_fidelity_bound(rho_i, rho_j, counts, cut=0)
    assert bound == pytest.approx(fidelity(rho_i, rho_j), abs=1e-10)


def test_identical_states_bound():
    rho, basis = _passive_region_state(0, "Z", "I0", 0.01, 2)
    counts = leak_counts(basis)
    bound = projected_fidelity_bound(rho, rho, counts, cut=1)
    assert bound <= 1.0
    assert bound > 0.99
    assert projected_fidelity_bound(rho, rho, counts, cut=2) == pytest.approx(1.0, abs=1e-10)


def test_bures_chain_bound_zero_floor():
    assert coin.bures_chain_bound(0.5, 0.5, 0.1) == 0.0


# ---------------------------------------------------------------------------
# Purification overlaps
# ---------------------------------------------------------------------------

def _rank_one(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def test_perfect_bb84_overlap_is_one():
    zero, one = np.eye(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    eig = {(0, "Z"): coin.state_eigendata(_rank_one(zero)),
           (1, "Z"): coin.state_eigendata(_rank_one(one)),
           (0, "X"): coin.state_eigendata(_rank_one(plus)),
           (1, "X"): coin.state_eigendata(_rank_one(minus))}
    assert coin.purification_overlap(eig).real == pytest.approx(1.0, abs=1e-12)
    assert coin.bb84_pair_overlap(zero, one, plus,
                                  coin.fix_vector_gauge(minus)).real == pytest.approx(1.0, abs=1e-12)


def closed_form_overlap(q):
    """Two-level closed form with matched-phase convention, equal ranks."""
    q0z, q1z, q0x, q1x = q
    head = (math.sqrt(q0z * q0x) + math.sqrt(q0z * q1x)
            + math.sqrt(q1z * q0x) + math.sqrt(q1z * q1x))
    tail = (math.sqrt((1 - q0z) * (1 - q0x)) + math.sqrt((1 - q0z) * (1 - q1x))
            + math.sqrt((1 - q1z) * (1 - q0x)) + math.sqrt((1 - q1z) * (1 - q1x)))
    return 0.25 * (head + tail)


def test_general_overlap_matches_closed_form_for_qubit_states():
    # leak-free qubit states diagonal in their own bases reproduce the
    # two-level closed form
    qs = (0.97, 0.95, 0.91, 0.93)
    zero, one = np.eye(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    rho = {(0, "Z"): qs[0] * _rank_one(zero) + (1 - qs[0]) * _rank_one(one),
           (1, "Z"): qs[1] * _rank_one(one) + (1 - qs[1]) * _rank_one(zero),
           (0, "X"): qs[2] * _rank_one(plus) + (1 - qs[2]) * _rank_one(minus),
           (1, "X"): qs[3] * _rank_one(minus) + (1 - qs[3]) * _rank_one(plus)}
    eig = {key: coin.state_eigendata(value) for key, value in rho.items()}
    value = coin.purification_overlap(eig).real
    assert value == pytest.approx(closed_form_overlap(qs), abs=1e-10)


def test_equal_ranks_give_unit_overlap():
    q = 0.9
    assert closed_form_overlap((q, q, q, q)) == pytest.approx(1.0, abs=1e-12)


def test_small_eigenvalue_phases_are_insignificant():
    rng = np.random.default_rng(21)
    dim = 5
    base = {}
    for key in ((0, "Z"), (1, "Z"), (0, "X"), (1, "X")):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rho = 0.999999 * _rank_one(vec)
        rho = rho + (1 - np.trace(rho).real) * np.eye(dim) / dim
        base[key] = coin.state_eigendata(rho)
    plain = coin.purification_overlap(base).real
    phases = coin.default_purification_phases(dim)
    phases[(0, "X")] = phases[(0, "X")].copy()
    phases[(0, "X")][3] = math.pi  # rank >= 2 with weight < 1e-6
    flipped = coin.purification_overlap(base, phases).real
    assert abs(plain - flipped) < 1e-5


def test_gauge_fix_anchors_first_near_maximal_component():
    vec = np.array([-0.70710678, 0.70710679, 1e-8j])
    out = coin.fix_vector_gauge(vec)
    assert out[0].real > 0.0
    assert abs(out[0].imag) < 1e-12


# ---------------------------------------------------------------------------
# Key/opp split: the two dominant eigenvectors of `state_eigendata`
# ---------------------------------------------------------------------------

def test_split_of_maximally_mixed_qubit():
    eig = coin.state_eigendata(np.eye(2) / 2.0)
    assert eig.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert eig.weights[0] - eig.weights[1] < 1e-12  # the degenerate case
    assert 1.0 - eig.weights.sum() == pytest.approx(0.0, abs=1e-12)


def test_split_of_rank_one_state():
    vec = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    eig = coin.state_eigendata(np.outer(vec, vec.conj()))
    assert eig.weights == pytest.approx([1.0, 0.0], abs=1e-12)


def test_split_residual_is_psd():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    eig = coin.state_eigendata(rho)
    (q_key, q_opp), v_key, v_opp = eig.weights[:2], eig.vectors[:, 0], eig.vectors[:, 1]
    rest = rho - q_key * np.outer(v_key, v_key.conj()) - q_opp * np.outer(v_opp, v_opp.conj())
    assert np.linalg.eigvalsh(rest).min() > -1e-9


def test_split_of_small_key_region():
    geometry = passive.RegionGeometry(delta_theta_z=0.02)
    params = passive.PassiveParams(mu_max=0.5, omega=0.0, geometry=geometry)
    rho, _, _ = region_average(passive.RegionSpec(0, "Z", "I0"), 1, params,
                               nodes=(16, 16, 16))
    eig = coin.state_eigendata(rho)
    assert eig.weights[0] > 0.99
    assert abs(eig.vectors[0, 0]) ** 2 > 0.99
