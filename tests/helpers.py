"""Reference formulas that only the tests use.

Each one restates a quantity the package computes another way (a region
state from `region_moments`, the four-branch block at one target point
that the two-branch quadrature must sum to, a leakage intensity from the
branch amplitudes, the leakage photon counts of a basis, a click
probability from the channel statistics, an injection-locked state from
its own amplitudes instead of from the sectors of every setting, or from
sampled seed phases, every setting's Fock sectors and the injection-locked
fidelities and error references on them instead of in closed form, a PSD
square root from one eigensolve, a coin tangent in
scalar arithmetic instead of on arrays, a reference bit error by partial
trace over the leakage modes instead of from one click operator, the
region of one target point, the textbook decoy bound that the yield
program reduces to at unit fidelity, a simplex pivot over the whole
tableau, the fidelity of two density matrices or of two pure states
instead of from the factors `linalg.factor_fidelities` takes, the smooth
coin branches without the envelopes' flat parts, the basic values of an
LP basis in exact rational arithmetic, a config hash through
`dataclasses.asdict`), so that a test can check the two against each
other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from leakyqkd import coin, lp, oil, passive
from leakyqkd.channel import (beamsplitter_block, error_projector_diagonal, reference_errors,
                              transmittance)
from leakyqkd.coin import _check_unit_interval, _curve, _scalar, bures_chain_bound
from leakyqkd.fock import coherent_sectors, leak_count
from leakyqkd.linalg import (PSD_EIGENVALUE_FLOOR, bures_from_fidelity, density_factor,
                             factor_fidelities, require_hermitian)
from leakyqkd.validation import vertex_enumeration_optimum


class ConvergenceError(RuntimeError):
    """Raised when quadrature refinement disagrees beyond tolerance."""

    def __init__(self, message, coarse, fine):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


def region_average(region, n, params, nodes=passive.DEFAULT_NODES, refine_check=False,
                   refine_rtol=2e-3):
    """Normalised n-photon region state, its photon probability, and p_Omega.

    With `refine_check` the quadrature is repeated at doubled resolution
    and a ConvergenceError carrying both estimates is raised when the
    relative change in (mass, photon probability) exceeds `refine_rtol`.
    """
    if n > params.n_cut:
        raise ValueError(f"n={n} exceeds n_cut={params.n_cut}")
    moments = passive.region_moments(region, params, nodes=nodes, n_tail=max(20, n))
    result = (moments.normalized_block(n), float(moments.traces[n] / moments.mass), moments.mass)
    if refine_check:
        fine = passive.region_moments(region, params, nodes=tuple(2 * x for x in nodes),
                                      n_tail=max(20, n))
        fine_result = (fine.normalized_block(n), float(fine.traces[n] / fine.mass), fine.mass)
        rel_mass = abs(result[2] - fine_result[2]) / fine_result[2]
        rel_pn = abs(result[1] - fine_result[1]) / max(fine_result[1], 1e-300)
        if max(rel_mass, rel_pn) > refine_rtol:
            raise ConvergenceError(
                f"quadrature not converged on {region}: mass drift {rel_mass:.2e}, "
                f"p_n drift {rel_pn:.2e}", result, fine_result)
    return result


def joint_pdf(point, mu_max):
    """Classical density of (theta, phi, mu); phi is uniform on (-pi, pi].

    The density diverges on the surfaces mu_e = mu_max and mu_l = mu_max;
    evaluation there is rejected.
    """
    g_e = 1.0 - point.mu * math.cos(point.theta / 2.0) ** 2 / mu_max
    g_l = 1.0 - point.mu * math.sin(point.theta / 2.0) ** 2 / mu_max
    if g_e <= 0.0 or g_l <= 0.0:
        raise ValueError("density evaluated on or beyond its singular boundary")
    return 1.0 / (2.0 * math.pi * mu_max * math.pi ** 2 * math.sqrt(g_e) * math.sqrt(g_l))


def leakage_functions(point, signs, omega, mu_max):
    """Phase offsets (C, S), interference amplitude r, its phase h, and mu_L."""
    half_e, half_l = passive._half_angles(point, mu_max)
    c_off = signs[0] * half_e
    s_off = signs[1] * half_l
    r = math.sqrt(omega * (1.0 + math.cos(point.phi + c_off + s_off)) / 2.0)
    h = math.atan2(-math.sin(c_off) + math.sin(point.phi + s_off),
                   math.cos(c_off) + math.cos(point.phi + s_off))
    return c_off, s_off, r, h, omega + r * r


def photon_number_block(point, n: int, omega: float, mu_max: float, basis=None) -> np.ndarray:
    """Branch-averaged sub-normalised n-photon block at one target point.

    Trace equals the branch average of e^-(mu+mu_L) (mu+mu_L)^n / n!.
    """
    if basis is None:
        basis = passive.passive_basis(n)
    if basis.k != passive.MODE_COUNT:
        raise ValueError(f"expected a {passive.MODE_COUNT}-mode basis, got k={basis.k}")
    if basis.n != n:
        raise ValueError(f"basis is for n={basis.n}, requested n={n}")
    # one column per sign branch
    s_e, s_l = (np.array(signs, dtype=float) for signs in zip(*passive.BRANCHES))
    amp, mu_leak = passive._branch_amplitudes(
        np.full(4, float(point.theta)), np.full(4, float(point.phi)),
        np.full(4, float(point.mu)), s_e, s_l, omega, mu_max)
    comp = coherent_sectors(amp, [basis])[0]
    return (comp * (0.25 * np.exp(-(point.mu + mu_leak)))) @ comp.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr[sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    Both arguments must be unit-trace PSD matrices of the same dimension;
    `factor_fidelities` of their `density_factor`s.
    """
    a, b = density_factor(rho, "rho"), density_factor(sigma, "sigma")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(factor_fidelities([(a, b)])[0])


def pure_state_fidelity(psi: np.ndarray, chi: np.ndarray) -> float:
    """|<psi|chi>|^2 for normalised state vectors."""
    return float(abs(np.vdot(psi, chi)) ** 2)


def leak_counts(basis) -> np.ndarray:
    """Leakage photon number of each configuration of `basis`."""
    return np.array([leak_count(c, basis.leak_modes) for c in basis.configs])


def projected_fidelity_bound(rho_i, rho_j, counts, cut):
    """Fidelity lower bound keeping only entries with <= cut leakage photons.

    `counts` gives the leakage photon number of each basis index;
    the basis ordering must make the kept entries a contiguous prefix.
    With cut >= max leak count the bound equals the exact fidelity.
    """
    keep = int(np.searchsorted(counts, cut + 0.5))
    if keep == 0:
        raise ValueError("projection annihilates the state (no kept entries)")
    t_i = float(np.trace(rho_i[:keep, :keep]).real)
    t_j = float(np.trace(rho_j[:keep, :keep]).real)
    if t_i <= 0.0 or t_j <= 0.0:
        raise ValueError("projection annihilates one of the states")
    f_proj = fidelity(rho_i[:keep, :keep] / t_i, rho_j[:keep, :keep] / t_j)
    return bures_chain_bound(min(1.0, t_i), min(1.0, t_j), f_proj)


def expected_yield(rho, basis, params):
    """Click probability of one n-photon state under a channel.

    Only signal-mode photons can reach the detectors; leakage photons are
    lost, so the no-click probability depends on the signal photon number
    distribution alone.
    """
    eta = transmittance(params)
    signal = [i for i in range(basis.k) if i not in basis.leak_modes]
    diag = rho.diagonal().real
    no_click = sum(diag[i] * (1.0 - eta) ** sum(cfg[j] for j in signal)
                   for i, cfg in enumerate(basis.configs))
    return 1.0 - (1.0 - params.p_dark) ** 2 * no_click


def trace_out_leakage(rho: np.ndarray, basis) -> dict[int, np.ndarray]:
    """Partial trace over the leakage modes of a sector operator.

    Returns {m: block} over the signal-photon number m, each block on the
    two-mode sector basis |m - i, i>.  Assumes exactly two signal modes.
    """
    out = {}
    for m, (rows, cols, dst_rows, dst_cols) in _leakage_trace_plan(basis.configs,
                                                                   basis.leak_modes):
        blk = np.zeros((m + 1, m + 1), dtype=complex)
        np.add.at(blk, (dst_rows, dst_cols), rho[rows, cols])
        out[m] = blk
    return out


@lru_cache(maxsize=64)
def _leakage_trace_plan(configs: tuple, leak_modes: frozenset) -> tuple:
    """Index plan of `trace_out_leakage`: per signal-photon number m, the
    entries (i, k) of rho that share their leakage occupations and the
    block entry they add to, in row-major order of (i, k)."""
    k_modes = len(configs[0])
    signal = [i for i in range(k_modes) if i not in leak_modes]
    if len(signal) != 2:
        raise ValueError("expected exactly two signal modes")
    e_idx, l_idx = signal
    leak_sorted = sorted(leak_modes)
    plan: dict[int, list] = {}
    for i, ci in enumerate(configs):
        mi = ci[e_idx] + ci[l_idx]
        leak_i = tuple(ci[j] for j in leak_sorted)
        for k, ck in enumerate(configs):
            if tuple(ck[j] for j in leak_sorted) == leak_i and ck[e_idx] + ck[l_idx] == mi:
                plan.setdefault(mi, []).append((i, k, ci[l_idx], ck[l_idx]))
    return tuple((m, tuple(np.array(col, dtype=np.intp) for col in zip(*entries)))
                 for m, entries in plan.items())


def partial_trace_reference_error(rho, basis, params, bit, interfere):
    """`channel.reference_errors` by partial trace: leakage modes are traced
    out, each signal block is rotated into the measurement eigenbasis when
    the basis is read interferometrically, and the diagonal click
    projectors are applied with the correct detector oriented to `bit`."""
    eta = transmittance(params)
    blocks = trace_out_leakage(rho, basis)
    total = 0.0
    for m, blk in blocks.items():
        if interfere:
            u = beamsplitter_block(m)
            blk = u @ blk @ u.T
        diag = blk.diagonal().real
        if bit == 1:
            diag = diag[::-1]
        total += float(np.dot(error_projector_diagonal(m, eta, params.p_dark), diag))
    return total


def bures_distance(rho, sigma):
    """Bures distance d_B = sqrt(2 (1 - sqrt(F)))."""
    return bures_from_fidelity(fidelity(rho, sigma))


def setting_intensity(setting, params):
    """Signal intensity mu_e + mu_l of one injection-locked setting."""
    return (params.mu_in * (1.0 + math.cos(setting.phi12)) / 2.0
            + params.mu_in * (1.0 + math.cos(setting.phi23)) / 2.0)


def state_vector(setting, params, n):
    """Normalised pure n-photon state of one injection-locked setting
    (n >= 1), in the phase convention of the printed amplitudes."""
    vec = _setting_components(oil.amplitudes([setting], params)[:, 0], n)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("n-photon component has zero weight")
    return vec / norm


def _setting_components(alphas, n):
    """Un-normalised n-photon components of one injection-locked coherent
    amplitude vector."""
    return coherent_sectors(alphas[:, None], [oil.oil_basis(n)])[0][:, 0]


def state_block(setting, params, n):
    """Sub-normalised n-photon block of one injection-locked setting's
    emitted state, from its amplitudes alone instead of from the
    `emission_sectors` of every setting.

    Trace is Poisson: e^-(mu + 2 omega) (mu + 2 omega)^n / n!.
    """
    alphas = oil.amplitudes([setting], params)[:, 0]
    v = _setting_components(alphas, n)
    return math.exp(-float(np.sum(np.abs(alphas) ** 2))) * np.outer(v, v.conj())


# axis 1 of `emission_sectors`: the key basis at I0, the test basis at every intensity
SLOTS = (("Z", "I0"), ("X", "I0"), ("X", "I1"), ("X", "I2"))


def emission_sectors(params, n_cut: int = 4) -> list[np.ndarray]:
    """Sub-normalised n-photon components of every injection-locked setting,
    n = 0..n_cut.

    One (dim_n, 4, 2) array per n from a single `coherent_sectors` call,
    entry [:, k, bit] for the setting (bit, *SLOTS[k]), with the
    coherent-state normalisation folded into the vacuum: an entry's outer
    product with itself is that setting's sub-normalised n-photon block, of
    trace e^-(mu + 2 omega) (mu + 2 omega)^n / n!, and the slice [:, k] is a
    factor of slot k's equal-bit mixture, up to its norm.
    """
    alphas = oil.amplitudes([oil.setting_phases(bit, basis, i, params)
                             for basis, i in SLOTS for bit in (0, 1)], params)
    vacuum = np.exp(-0.5 * np.sum(np.abs(alphas) ** 2, axis=0))
    return [sector.reshape(-1, len(SLOTS), 2) for sector in coherent_sectors(
        alphas, [oil.oil_basis(n) for n in range(n_cut + 1)], vacuum)]


def fock_route_inputs(params, n_cut: int, eta: float, p_dark: float):
    """The injection-locked decoy inputs on the Fock sectors of
    `emission_sectors`: the INTENSITY_PAIRS fidelities [group, pair, n] of
    the test-basis bit mixtures (group 0) and of each bit's settings
    (groups 1 and 2) from `factor_fidelities`, and each bit's error
    references [bit, n] from the click operators of `reference_errors`,
    read by time of arrival."""
    first, second = lp.PAIR_ENDS.T
    fids, refs = [], []
    for n, sector in enumerate(emission_sectors(params, n_cut)):
        t = np.moveaxis(sector[:, 1:], 0, 1)  # [I, dim, bit]
        pure = t / np.linalg.norm(t, axis=1, keepdims=True)
        factors = np.stack([t / np.linalg.norm(t, axis=(1, 2), keepdims=True),
                            pure * [1.0, 0.0], pure * [0.0, 1.0]])
        fids.append(factor_fidelities([(factors[:, first], factors[:, second])])[0])
        v = pure[0].T  # [bit, dim] of I0
        refs.append(reference_errors([v[:, :, None] * v.conj()[:, None, :]], [oil.oil_basis(n)],
                                     eta, p_dark, interfere=False)[:, 0])
    return np.stack(fids, axis=-1), np.array(refs).T


def mixed_state(basis_label, intensity, params, n):
    """Normalised equal-bit mixture of two injection-locked n-photon
    settings, from their `state_block`s."""
    blocks = [state_block(oil.setting_phases(bit, basis_label, intensity, params), params, n)
              for bit in (0, 1)]
    mix = 0.5 * (blocks[0] + blocks[1])
    tr = float(np.trace(mix).real)
    if tr <= 0.0:
        raise ValueError("mixture has zero weight in this photon sector")
    rho = mix / tr
    return (rho + rho.conj().T) / 2.0


def transfer_curve(y, fid, sign: int):
    """Smooth branches y + (1-z)(1-2y) +/- 2 sqrt(z(1-z) y(1-y))."""
    y = _check_unit_interval(y, "y")
    z = _check_unit_interval(fid, "fidelity")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return _scalar(_curve(y, z, sign))


def scalar_safe_reference(y_ref, fid, side):
    """The reference `coin.tangent_lines` takes its tangent at, for one
    entry: its clip to the interior and its nudge off the kink, in scalar
    arithmetic."""
    lo, hi = coin.KINK_SHIFT, 1.0 - coin.KINK_SHIFT
    y = min(hi, max(lo, y_ref))
    kink = 1.0 - fid if side == "L" else fid
    if abs(y - kink) < coin.KINK_TOL:
        y = min(hi, max(lo, kink + coin.KINK_SHIFT if side == "L" else kink - coin.KINK_SHIFT))
    return y


def scalar_tangent(fid, y_ref, side):
    """(slope, intercept) of `coin.tangent_lines` at one reference inside
    (0, 1) and off the kink, in scalar arithmetic."""
    z = min(1.0, max(0.0, fid))
    sign = -1 if side == "L" else +1
    if (y_ref <= 1.0 - z) if side == "L" else (y_ref >= z):  # flat branch
        value, slope = (0.0 if side == "L" else 1.0), 0.0
    else:
        radical = 2.0 * math.sqrt(max(0.0, z * (1.0 - z) * y_ref * (1.0 - y_ref)))
        value = y_ref + (1.0 - z) * (1.0 - 2.0 * y_ref) + sign * radical
        slope = ((2.0 * z - 1.0) + sign * math.sqrt(z * (1.0 - z)) * (1.0 - 2.0 * y_ref)
                 / math.sqrt(y_ref * (1.0 - y_ref)))
    return slope, value - slope * y_ref


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix (negative noise clamped to zero)."""
    values, v = np.linalg.eigh(require_hermitian(matrix))
    if values[0] < PSD_EIGENVALUE_FLOOR * max(1.0, float(values[-1])):
        raise ValueError(f"matrix is not PSD: eigenvalue {values[0]:.3e}")
    out = (v * np.sqrt(np.clip(values, 0.0, None))) @ v.conj().T
    return (out + out.conj().T) / 2.0


def classify_region(point, geometry, mu_max):
    """Post-selection outcome (a `passive.RegionSpec`) for one target point,
    or None if inconclusive."""
    bit, basis, intensity = passive._classify_arrays(
        np.atleast_1d(point.theta), np.atleast_1d(point.phi),
        np.atleast_1d(point.mu), geometry, mu_max)
    if bit[0] < 0 or intensity[0] < 0:
        return None
    return passive.RegionSpec(bit=int(bit[0]), basis=passive.BASES[int(basis[0])],
                              intensity=passive.INTENSITIES[int(intensity[0])])


def oil_monte_carlo_estimate(setting, params, n: int, samples: int, seed: int):
    """Monte-Carlo over the uniform seed phase: per-sample n-photon block.

    Within a fixed photon-number sector the seed phase cancels exactly,
    so the sampled mean matches the analytic block with zero variance;
    the estimate still exercises the sampling route end to end.
    Returns (mean block, per-entry standard error of the real part).
    """
    rng = np.random.default_rng(seed)
    basis = oil.oil_basis(n)
    base = oil.amplitudes([setting], params)[:, 0]
    norm = math.exp(-float(np.sum(np.abs(base) ** 2)))
    mean = np.zeros((basis.dim, basis.dim), dtype=complex)
    sq = np.zeros((basis.dim, basis.dim))
    for phase in rng.uniform(0.0, 2.0 * math.pi, size=samples):
        vec = _setting_components(base * np.exp(1j * phase), n)
        block = norm * np.outer(vec, vec.conj())
        mean += block
        sq += block.real ** 2
    mean /= samples
    var = np.clip(sq / samples - mean.real ** 2, 0.0, None)
    return mean, np.sqrt(var / samples)


def textbook_decoy_bound(probs: dict, gains: dict, n_cut: int) -> float:
    """Shared-yield three-intensity decoy bound on the single-photon yield.

    Standard decoy program: one yield variable per photon number, common
    to all intensities; solved exactly by vertex enumeration.
    """
    n_vars = n_cut + 1
    p = np.array([probs[label][:n_vars] for label in lp.INTENSITIES], dtype=float)
    q = np.array([gains[label] for label in lp.INTENSITIES], dtype=float)
    return vertex_enumeration_optimum(lp.LinearProgram(
        variables=tuple(f"Y_{n}" for n in range(n_vars)), sense="min", c=np.eye(n_vars)[1],
        a=np.repeat(p, 2, axis=0), b=np.column_stack([q, q - (1.0 - p.sum(axis=1))]).ravel(),
        upper=np.tile([True, False], len(q))))


def asdict_config_hash(config) -> str:
    """`driver.config_hash` through `dataclasses.asdict`, which copies the
    config recursively."""
    text = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def dense_pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """`lp._pivot` as a dense update: every row with a nonzero factor, over
    every column."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    nz = np.flatnonzero(factors)
    tableau[nz] -= np.outer(factors[nz], tableau[row])
    basis[row] = col


def joint_refined_error_program(outcome_gains: np.ndarray, probs: np.ndarray,
                                fidelities: np.ndarray, references: np.ndarray,
                                weights: np.ndarray, tag_fidelities: np.ndarray,
                                cross_bit: np.ndarray) -> lp.LinearProgram:
    """The refined bit-error program over both bits as one program, whose
    two independent blocks `lp.refined_error_program` builds one at a time.

    Variables carry (bit a, Bob outcome b, intensity, photon number or
    tag), and so do the inputs, in that axis order: outcome_gains
    (2, 2, 3) and references (2, 2, n+1) by (a, b); probs, fidelities
    (2, 3, n+1), weights and tag_fidelities (2, 3, 2) of the same-bit
    states by a, as in `refined_yield_program`; cross_bit (2, 3, 2)
    [a, I, t]: fidelity between eigenstate t of bit a and eigenstate 1 - t
    of bit 1 - a.  Columns: Y{a}{b}_I_n for each (a, b) in turn, then
    Y{a}{b}_I_t likewise.  Objective: maximise the average, over bits, of
    the key-eigenstate probability of the error outcome b = 1 - a at I0.
    """
    outcomes = ((0, 0), (0, 1), (1, 0), (1, 1))
    variables, rows = [], []
    cols, tag_cols = (np.array([lp._add_columns(variables, "Y%d%d" % ab, entries)
                                for ab in outcomes]).reshape(2, 2, len(lp.INTENSITIES), -1)
                      for entries in (range(probs.shape[-1]), lp.TAGS))
    for a, b in outcomes:
        lp._decoy_block(rows, cols[a, b], outcome_gains[a, b], probs[a], fidelities[a],
                        references[a, b])
        lp._tag_block(rows, cols[a, b], tag_cols[a, b], weights[a], tag_fidelities[a],
                      references[a, b, 1])
    # per outcome and intensity: key of bit a -> opp of bit 1 - a, then opp -> key
    b, i, a, t = np.indices((2, len(lp.INTENSITIES), 2, 2)).reshape(4, -1)
    lp._sandwich(rows, np.stack([tag_cols[a, b, i, t], tag_cols[1 - a, b, i, 1 - t]], axis=1),
                 cross_bit[a, i, t], references[a, b, 1])
    objective = {tag_cols[0, 1, 0, 0]: 0.5, tag_cols[1, 0, 0, 0]: 0.5}
    return lp._fill(lp._pattern(variables, objective, rows), ("max",), rows)[0]


def exact_basic_values(program: lp.LinearProgram, basis) -> dict:
    """{column: value} of the basic columns of `basis` on the standard form
    `lp.solve` builds for `program` (its rows, a >= row negated, then one box
    row x_j <= 1 per variable; columns: the variables, then one slack per
    row), solved in exact rational arithmetic on the program's floats.

    The slack columns are unit columns, so Gaussian elimination in
    Fractions runs on the block of the structural columns and the rows
    without a basic slack; the result is then checked exactly against
    every row of the basis."""
    m_con, n = program.a.shape
    sign = np.where(program.upper, 1.0, -1.0)
    rows = [[Fraction(float(v)) for v in sign[i] * program.a[i]] for i in range(m_con)]
    rows += [[Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    rhs = [Fraction(float(v)) for v in sign * program.b] + [Fraction(1)] * n
    cols = [int(j) for j in basis if j < n]
    slack_rows = [int(j) - n for j in basis if j >= n]
    free = sorted(set(range(m_con + n)) - set(slack_rows))
    assert len(set(basis.tolist())) == len(basis) and len(free) == len(cols)
    # [block | rhs] in Fractions, reduced to the identity by Gauss-Jordan elimination
    work = [[rows[i][j] for j in cols] + [rhs[i]] for i in free]
    for k in range(len(cols)):
        pivot = next(r for r in range(k, len(cols)) if work[r][k] != 0)
        work[k], work[pivot] = work[pivot], work[k]
        work[k] = [v / work[k][k] for v in work[k]]
        for r in range(len(cols)):
            if r != k and work[r][k] != 0:
                work[r] = [v - work[r][k] * w for v, w in zip(work[r], work[k])]
    values = {j: work[k][-1] for k, j in enumerate(cols)}
    for i in slack_rows:
        values[n + i] = rhs[i] - sum(rows[i][j] * values[j] for j in cols)
    for i in range(m_con + n):  # every row: its structural part plus its slack
        assert sum(rows[i][j] * values[j] for j in cols) + values.get(n + i, 0) == rhs[i]
    return values
