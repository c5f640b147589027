"""Fibre channel and threshold-detector model for the simulated observables.

Bob uses an active receiver with two identical threshold detectors: time
of arrival in one basis, 50:50 interference of the two time bins in the
other.  Dark counts fire each detector independently with probability
p_dark per gate; double clicks are assigned to a random bit.  Detector
efficiency is folded into the overall transmittance.  Leakage pulses sit
in time slots Bob never gates on, so they do not affect his statistics.

Provides the observed gains / error-gains for both transmitters, and the
reference yields and bit-error probabilities at which the linear
programs linearise the coin envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import NPhotonBasis
from .passive import RegionNodes


@dataclass(frozen=True)
class ChannelParams:
    """Fibre loss, dark counts, detection efficiency."""

    distance_km: float
    alpha_db_per_km: float = 0.2
    p_dark: float = 1e-6
    detector_efficiency: float = 1.0

    def __post_init__(self):
        if self.distance_km < 0.0:
            raise ValueError("distance must be >= 0")
        if not self.alpha_db_per_km >= 0.0:
            raise ValueError("alpha_db_per_km must be >= 0")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError("p_dark must be in [0, 1)")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in (0, 1]")


def transmittance(params: ChannelParams) -> float:
    """Overall transmittance: fibre law times detector efficiency."""
    return params.detector_efficiency * 10.0 ** (-params.alpha_db_per_km * params.distance_km / 10.0)


@dataclass(frozen=True)
class ObservablePoint:
    """Observed gain and error-gain product of one (bit, basis, intensity)."""

    gain: float
    error_gain: float

    @property
    def error_rate(self) -> float:
        return self.error_gain / self.gain if self.gain > 0.0 else 0.0

    def outcome_gain(self, error_outcome: bool) -> float:
        """Gain of one announced bit outcome (double clicks split evenly)."""
        return self.error_gain if error_outcome else self.gain - self.error_gain


def _click_observables(no_click_corr, no_click_err, p_dark, weights=None):
    """Gain and error-gain from per-point photon-survival factors.

    Random double-click assignment gives, with A/B the full no-click
    probabilities of the correct/error detectors,
    E*Q = (1-B) A + (1-A)(1-B)/2 = Q/2 + (A - B)/2; the difference term
    carries a single dark-count survival factor.
    """
    q_d = 1.0 - p_dark
    if weights is None:
        mean = lambda x: float(x)
    else:
        total = float(np.sum(weights))
        mean = lambda x: float(np.dot(weights, x) / total)
    gain = 1.0 - q_d * q_d * mean(no_click_corr * no_click_err)
    error_gain = 0.5 * gain - 0.5 * q_d * (mean(no_click_err) - mean(no_click_corr))
    return ObservablePoint(gain=gain, error_gain=max(0.0, error_gain))


def passive_point_observables(nodes: RegionNodes, bit: int, basis: str,
                              params: ChannelParams) -> ObservablePoint:
    """Region-averaged gain and error-gain of one passive (bit, basis) box."""
    eta = transmittance(params)
    theta, phi, mu = nodes.theta, nodes.phi, nodes.mu
    if basis == "Z":
        intensity_e = eta * mu * np.cos(theta / 2.0) ** 2
        intensity_l = eta * mu * np.sin(theta / 2.0) ** 2
        corr, err = (intensity_e, intensity_l) if bit == 0 else (intensity_l, intensity_e)
    else:
        visible = np.sin(theta) * np.cos(phi)
        port0 = eta * mu * (1.0 + visible) / 2.0
        port1 = eta * mu * (1.0 - visible) / 2.0
        corr, err = (port0, port1) if bit == 0 else (port1, port0)
    return _click_observables(np.exp(-corr), np.exp(-err), params.p_dark, nodes.weight)


def oil_point_observables(mu: float, relative_phase: float, basis: str, bit: int,
                          params: ChannelParams) -> ObservablePoint:
    """Gain and error-gain of one injection-locked setting.

    Key-basis states interfere with reference phase pi/2 (bit 0 fully
    constructive); test-basis states are read by time of arrival with
    all signal intensity in the bit's own bin.
    """
    eta = transmittance(params)
    if basis == "Z":
        visible = math.cos(relative_phase - math.pi / 2.0)
        port0 = eta * mu * (1.0 + visible) / 2.0
        port1 = eta * mu * (1.0 - visible) / 2.0
        corr, err = (port0, port1) if bit == 0 else (port1, port0)
    else:
        corr, err = eta * mu, 0.0
    return _click_observables(math.exp(-corr), math.exp(-err), params.p_dark)


def reference_yields(n_max: int, params: ChannelParams) -> np.ndarray:
    """Expected n-photon yields of an ideal lossy channel, n = 0..n_max."""
    eta = transmittance(params)
    n = np.arange(n_max + 1)
    return 1.0 - (1.0 - params.p_dark) ** 2 * (1.0 - eta) ** n


# ---------------------------------------------------------------------------
# Reference bit-error probabilities (diagonal click projectors)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def beamsplitter_block(m: int) -> np.ndarray:
    """50:50 beamsplitter unitary on the m-photon two-mode sector.

    Sector basis ordered by descending first-mode occupation:
    index i <-> |m - i, i>.  Output mode 0 is the symmetric port.
    """
    dim = m + 1
    out = np.zeros((dim, dim))
    for col in range(dim):
        k = m - col  # photons entering mode 0
        poly = np.zeros(dim)
        # (c + d)^k (c - d)^(m-k), collect coefficient of c^j d^(m-j)
        for p in range(k + 1):
            for q in range(m - k + 1):
                j = p + q
                poly[j] += math.comb(k, p) * math.comb(m - k, q) * (-1.0) ** (m - k - q)
        for j in range(dim):
            row = m - j
            out[row, col] = (poly[j] / math.sqrt(2.0) ** m
                             * math.sqrt(math.factorial(j) * math.factorial(m - j))
                             / math.sqrt(math.factorial(k) * math.factorial(m - k)))
    return out


def error_projector_diagonal(m: int, eta: float, p_dark: float) -> np.ndarray:
    """Diagonal of the bit-error POVM element on the m-photon sector.

    Entry i (state |m - i> correct-mode, |i> error-mode): probability of
    "click in error detector only, or double click assigned wrongly".
    """
    j = np.arange(m + 1)
    survive = 1.0 - eta
    no_corr = (1.0 - p_dark) * survive ** (m - j)
    no_err = (1.0 - p_dark) * survive ** j
    both = no_corr * no_err
    return no_corr - both + 0.5 * (1.0 - no_corr - no_err + both)


@lru_cache(maxsize=64)
def _error_operators(basis: NPhotonBasis, eta: float, p_dark: float,
                     interfere: bool) -> np.ndarray:
    """Bit-error POVM elements W [bit] on the sector of `basis`, Tr[rho W] =
    error, read-only; keyed on the basis object, which hashes by identity
    (see `fock._ladder`).

    W acts trivially on the leakage modes: entry (i, k) is nonzero only
    when configurations i and k share their leakage occupations and their
    signal photon number m, and then it is (U^T D U)[l_i, l_k], with l the
    late-mode occupation, D the diagonal click projector oriented to the
    bit and U the beamsplitter block when the basis is read
    interferometrically (the identity otherwise).  Assumes exactly two
    signal modes.
    """
    signal = [i for i in range(basis.k) if i not in basis.leak_modes]
    if len(signal) != 2:
        raise ValueError("expected exactly two signal modes")
    e_idx, l_idx = signal
    leak_sorted = sorted(basis.leak_modes)
    blocks: dict[tuple, list[int]] = {}
    for i, c in enumerate(basis.configs):
        key = (c[e_idx] + c[l_idx], tuple(c[j] for j in leak_sorted))
        blocks.setdefault(key, []).append(i)
    out = np.zeros((2, basis.dim, basis.dim))
    for (m, _), members in blocks.items():
        diag = error_projector_diagonal(m, eta, p_dark)
        u = beamsplitter_block(m) if interfere else np.eye(m + 1)
        late = [basis.configs[i][l_idx] for i in members]
        for bit, oriented in enumerate((diag, diag[::-1])):
            out[bit][np.ix_(members, members)] = ((u.T * oriented) @ u)[np.ix_(late, late)]
    out.flags.writeable = False
    return out


def reference_errors(states, bases, eta: float, p_dark: float, interfere: bool) -> np.ndarray:
    """Expected bit-error probabilities Tr[Re(rho) W] [bit, n] of the states
    states[n][bit] on bases[n] at transmittance `eta`, each with its own bit's
    operator W (`_error_operators`), which ignores the leakage modes, where Bob
    never gates, and applies the click projectors of the basis readout,
    interferometric or by time of arrival."""
    return np.array([(rho.real * _error_operators(basis, eta, p_dark, interfere))
                     .reshape(2, -1).sum(-1) for rho, basis in zip(states, bases)]).T


def passive_true_statistics(node_sets, params, chan: ChannelParams, n_max: int,
                            bit: int = 0):
    """Exact channel-model yields and error probabilities per photon number.

    Works directly with the coherent amplitudes at each quadrature node,
    so it needs no density matrices and no leakage truncation: photon
    placements are multinomial given the total count, which turns every
    click probability into a power of per-node intensities.  Returns
    (yields, error_probs) arrays over n = 0..n_max for the region covered
    by `node_sets`; error probabilities, of the interferometric readout,
    are oriented to `bit`.  As the channel-truth oracle it evaluates all
    four sign branches, so that it does not rely on the phi-symmetry of
    the quadrature it checks.
    """
    from .passive import BRANCHES, _branch_amplitudes

    eta = transmittance(chan)
    q_d = 1.0 - chan.p_dark
    trace_n = np.zeros(n_max + 1)
    no_click_n = np.zeros(n_max + 1)
    no_corr_n = np.zeros(n_max + 1)
    no_err_n = np.zeros(n_max + 1)

    def accumulate(target, base, rate):
        acc = base.copy()
        target[0] += acc.sum()
        for m in range(1, n_max + 1):
            acc = acc * (rate / m)
            target[m] += acc.sum()

    for nodes in node_sets:
        for s_e, s_l in BRANCHES:
            amp, mu_leak = _branch_amplitudes(nodes.theta, nodes.phi, nodes.mu,
                                              s_e, s_l, params.omega, params.mu_max)
            total = nodes.mu + mu_leak
            base = 0.25 * nodes.weight * np.exp(-total)
            i_plus = 0.5 * np.abs(amp[0] + amp[1]) ** 2
            i_minus = 0.5 * np.abs(amp[0] - amp[1]) ** 2
            i_corr, i_err = (i_plus, i_minus) if bit == 0 else (i_minus, i_plus)
            accumulate(trace_n, base, total)
            accumulate(no_click_n, base, total - eta * nodes.mu)
            accumulate(no_corr_n, base, total - eta * i_corr)
            accumulate(no_err_n, base, total - eta * i_err)

    yields = 1.0 - q_d * q_d * no_click_n / trace_n
    # error-only click plus half of double clicks
    errors = (q_d * no_corr_n - q_d * q_d * no_click_n
              + 0.5 * (trace_n - q_d * no_corr_n - q_d * no_err_n
                       + q_d * q_d * no_click_n)) / trace_n
    return yields, errors

