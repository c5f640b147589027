"""Independent numerical oracles for the pipeline's derived quantities.

Each check recomputes a quantity along a second, independent route
(brute-force enumeration, direct series expansion, Monte-Carlo sampling,
vertex enumeration) and compares.  The CLI `validate` subcommand runs
them all; the test suite calls them individually.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import channel as channel_mod
from . import coin, driver, lp, oil, passive
from .fock import basis_index, enumerate_basis
from .linalg import density_factor, factor_fidelities


# ---------------------------------------------------------------------------
# Independent elementary oracles
# ---------------------------------------------------------------------------

def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Cyclic complex Jacobi eigenvalues; independent of LAPACK."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-15:
                    continue
                off = max(off, abs(apq))
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + math.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                a = rot.conj().T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(a.diagonal().real)


def vertex_enumeration_optimum(program: lp.LinearProgram):
    """Exact optimum of `program` by enumerating its basic feasible points.

    Only for tiny programs; the hyperplane pool is all constraint
    boundaries plus the faces of the unit box.
    """
    n_vars = len(program.variables)
    planes = np.vstack([program.a, np.repeat(np.eye(n_vars), 2, axis=0)])
    levels = np.concatenate([program.b, np.tile([0.0, 1.0], n_vars)])
    signs = np.where(program.upper, 1.0, -1.0)  # rows as signs * a x <= signs * b
    best = None
    for combo in map(list, itertools.combinations(range(len(planes)), n_vars)):
        a = planes[combo]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, levels[combo])
        if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
            continue
        if np.any(signs * (program.a @ x - program.b) > 1e-9):
            continue
        value = float(np.dot(program.c, x))
        if best is None or (value < best if program.sense == "min" else value > best):
            best = value
    return best


# ---------------------------------------------------------------------------
# Direct-expansion state oracles
# ---------------------------------------------------------------------------

def _full_tensor_average(amplitude_sets, mode_cut: int):
    """Average pure-state projector over explicit global-phase samples.

    amplitude_sets: iterable of (weight, amplitudes (k,) complex) with
    absolute phases included.  Returns the averaged density matrix on
    the full truncated tensor basis (mode_cut + 1 levels per mode).
    """
    levels = mode_cut + 1
    sets = list(amplitude_sets)
    out = np.zeros((levels ** len(sets[0][1]),) * 2, dtype=complex)
    fact = np.array([math.factorial(m) for m in range(levels)])
    for weight, alphas in sets:
        vec = np.ones(1)
        for alpha in alphas:
            vec = np.kron(vec, alpha ** np.arange(levels) / np.sqrt(fact)
                          * math.exp(-abs(alpha) ** 2 / 2.0))
        out += weight * np.outer(vec, vec.conj())
    return out


def _extract_sector(full: np.ndarray, basis, mode_cut: int) -> np.ndarray:
    idx = [np.ravel_multi_index(cfg, (mode_cut + 1,) * basis.k) for cfg in basis.configs]
    return full[np.ix_(idx, idx)]


def passive_block_oracle(point: passive.TargetPoint, n: int, omega: float,
                         mu_max: float, phase_nodes: int = 512) -> np.ndarray:
    """n-photon block by explicit global-phase averaging of the raw state.

    Builds the full (truncated) five-mode tensor state from the inverted
    pulse phases for each sign branch, averages the projector over the
    reference phase numerically, and cuts out the n-photon sector.
    """
    basis = passive.passive_basis(n)
    sets = []
    for phase in (np.arange(phase_nodes) + 0.5) * (2.0 * math.pi / phase_nodes):
        for signs in passive.BRANCHES:
            p1, p2, p3, p4 = passive.invert_phases(point, phase, signs, mu_max)
            alphas = np.array([
                math.sqrt(point.mu_e) * np.exp(1j * phase),
                math.sqrt(point.mu_l) * np.exp(1j * (point.phi + phase)),
                math.sqrt(omega / 2.0) * np.exp(1j * p1),
                0.5 * math.sqrt(omega) * (np.exp(1j * p2) + np.exp(1j * p3)),
                math.sqrt(omega / 2.0) * np.exp(1j * p4),
            ])
            sets.append((0.25 / phase_nodes, alphas))
    full = _full_tensor_average(sets, mode_cut=n)
    return _extract_sector(full, basis, mode_cut=n)


def oil_block_oracle(setting, params, n: int, phase_nodes: int = 512) -> np.ndarray:
    """n-photon block by explicit numeric averaging of the seed phase."""
    basis = oil.oil_basis(n)
    base = oil.amplitudes([setting], params)[:, 0]
    sets = [(1.0 / phase_nodes, base * np.exp(1j * phase))
            for phase in (np.arange(phase_nodes) + 0.5) * (2.0 * math.pi / phase_nodes)]
    full = _full_tensor_average(sets, mode_cut=n)
    return _extract_sector(full, basis, mode_cut=n)


# ---------------------------------------------------------------------------
# Density normalisation and box-frequency oracles
# ---------------------------------------------------------------------------

def total_density_mass(mu_max: float, n_theta: int = 800, n_u: int = 800) -> float:
    """Quadrature of the target-variable density over its full support."""
    d_theta = math.pi / n_theta
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    c2 = np.cos(thetas / 2.0) ** 2
    s2 = np.sin(thetas / 2.0) ** 2
    big = np.maximum(c2, s2)
    small = np.minimum(c2, s2)
    d_u = 1.0 / n_u
    uu = (np.arange(n_u) + 0.5) * d_u
    mu = mu_max * (1.0 - uu[None, :] ** 2) / big[:, None]
    integrand = (2.0 / (math.pi ** 2 * big[:, None])
                 / np.sqrt(1.0 - mu * small[:, None] / mu_max))
    return float(np.sum(integrand) * d_theta * d_u)


def density_box_mass(mu_max: float, theta_box, phi_box, mu_box, n_grid: int = 600) -> float:
    """Quadrature of the density over an axis-aligned box away from the
    singular surfaces."""
    t_lo, t_hi = theta_box
    m_lo, m_hi = mu_box
    d_t = (t_hi - t_lo) / n_grid
    d_m = (m_hi - m_lo) / n_grid
    thetas = t_lo + (np.arange(n_grid) + 0.5) * d_t
    mus = m_lo + (np.arange(n_grid) + 0.5) * d_m
    c2 = np.cos(thetas / 2.0) ** 2
    s2 = np.sin(thetas / 2.0) ** 2
    ge = 1.0 - np.outer(mus, c2) / mu_max
    gl = 1.0 - np.outer(mus, s2) / mu_max
    if np.any(ge <= 0.0) or np.any(gl <= 0.0):
        raise ValueError("box touches the singular surface; move it inward")
    f = 1.0 / (mu_max * math.pi ** 2 * np.sqrt(ge * gl))
    phi_fraction = (phi_box[1] - phi_box[0]) / (2.0 * math.pi)
    return float(np.sum(f) * d_t * d_m * phi_fraction)


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------

def check_eigen_oracle(seed: int = 0) -> tuple[bool, str]:
    """The squared column norms of `density_factor` (the eigenvalues, in
    ascending order) on random density matrices against Jacobi sweeps."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        ours = np.sum(np.abs(density_factor(rho)) ** 2, axis=0)
        reference = jacobi_eigenvalues(rho)
        worst = max(worst, float(np.max(np.abs(ours - reference))))
    return worst < 1e-9, f"max eigenvalue deviation {worst:.2e}"


def check_basis_enumeration() -> tuple[bool, str]:
    for n, k in ((2, 4), (3, 5), (4, 5)):
        basis = enumerate_basis(n, k, leak_modes=range(2, k))
        brute = {tuple(c) for c in itertools.product(range(n + 1), repeat=k)
                 if sum(c) == n}
        if set(basis.configs) != brute or basis.dim != math.comb(n + k - 1, k - 1):
            return False, f"enumeration mismatch at n={n}, k={k}"
        for i, cfg in enumerate(basis.configs):
            if basis_index(basis, cfg) != i:
                return False, "index roundtrip failed"
    return True, "counts and roundtrips match brute force"


def check_phase_roundtrip(seed: int = 1, samples: int = 10_000) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    mu_max = 0.7
    worst = 0.0
    for _ in range(samples):
        raw = rng.uniform(0.0, 2.0 * math.pi, size=4)
        point = passive.target_from_phases(*raw, mu_max)
        for signs in passive.BRANCHES:
            back = passive.invert_phases(point, point.phi_e, signs, mu_max)
            again = passive.target_from_phases(*back, mu_max)
            worst = max(worst,
                        abs(again.theta - point.theta),
                        abs(passive.wrap_phase(again.phi - point.phi)),
                        abs(again.mu - point.mu))
    return worst < 1e-9, f"worst roundtrip deviation {worst:.2e} over {samples} samples"


def check_density_normalisation(seed: int = 2, samples: int = 1_000_000) -> tuple[bool, str]:
    mu_max = 0.6
    mass = total_density_mass(mu_max)
    if abs(mass - 1.0) > 2e-3:
        return False, f"total mass {mass:.6f}"
    box_theta = (0.4, 1.1)
    box_phi = (-1.0, 0.6)
    box_mu = (0.1 * mu_max, 0.8 * mu_max)
    expected = density_box_mass(mu_max, box_theta, box_phi, box_mu)
    rng = np.random.default_rng(seed)
    theta, phi, mu, *_ = passive.sample_target_variables(rng, samples, mu_max)
    hits = ((theta > box_theta[0]) & (theta < box_theta[1])
            & (phi > box_phi[0]) & (phi < box_phi[1])
            & (mu > box_mu[0]) & (mu < box_mu[1]))
    freq = float(np.mean(hits))
    se = math.sqrt(freq * (1.0 - freq) / samples)
    z = abs(freq - expected) / se
    ok = z < 3.0
    return ok, f"total mass {mass:.6f}; box frequency z={z:.2f}"


def check_block_expansion(seed: int = 3) -> tuple[bool, str]:
    """`passive.region_moments` without leakage cuts on the two nodes
    (theta, +-phi, mu) of weight 1/2 against the mean of the direct
    expansions at phi and -phi."""
    rng = np.random.default_rng(seed)
    mu_max = 0.5
    omega = 0.01
    params = passive.PassiveParams(mu_max=mu_max, omega=omega, leak_cuts={},
                                   geometry=passive.RegionGeometry(delta_theta_z=0.1))
    worst = 0.0
    for _ in range(2):
        theta, phi, mu = (float(rng.uniform(0.3, 2.8)), float(rng.uniform(-3.0, 3.0)),
                          float(rng.uniform(0.1, 0.9) * mu_max))
        pair = passive.RegionNodes(theta=np.full(2, theta), phi=np.array([phi, -phi]),
                                   mu=np.full(2, mu), weight=np.full(2, 0.5))
        ours = passive.region_moments(passive.RegionSpec(0, "Z", "I0"), params,
                                      node_sets=[pair]).blocks
        for n in (1, 2):
            reference = sum(0.5 * passive_block_oracle(passive.TargetPoint(theta, p, mu), n,
                                                       omega, mu_max) for p in (phi, -phi))
            worst = max(worst, float(np.max(np.abs(ours[n] - reference))))
    return worst < 1e-10, f"max block deviation {worst:.2e}"


def check_bit_symmetry(nodes: int = 8) -> tuple[bool, str]:
    """Own-quadrature moments of the Z bit-1 boxes of the default passive source
    at 10 dB, at `nodes`, against `passive.mirrored_moments` of the bit-0 route
    on the mirror image (pi - theta, -phi) of the same nodes: the largest
    deviation relative to each block's largest entry, or to the mass."""
    params = driver._passive_params(driver.ProtocolConfig(transmitter="passive"), 10.0)
    worst = 0.0
    for i in driver.INTENSITIES:
        box = passive.build_region_nodes(1, "Z", i, params.geometry, params.mu_max,
                                         passive.box_orders(params, 1, "Z", i, nodes))
        mirror = passive.RegionNodes(math.pi - box.theta, -box.phi, box.mu, box.weight)
        own = passive.region_moments(passive.RegionSpec(1, "Z", i), params, node_sets=[box])
        swapped = passive.mirrored_moments(passive.region_moments(
            passive.RegionSpec(0, "Z", i), params, node_sets=[mirror]))
        worst = max(worst, float(np.max(np.abs(own.traces - swapped.traces))) / own.mass,
                    *(float(np.max(np.abs(block - swapped.blocks[n])) / np.max(np.abs(block)))
                      for n, block in own.blocks.items()))
    return worst <= 1e-12, f"largest relative deviation {worst:.2e}"


def check_oil_expansion() -> tuple[bool, str]:
    """`oil.sector_fidelities` and `channel.arrival_reference_errors` of the
    injection-locked test-basis settings against `factor_fidelities` and
    `reference_errors` (of both bits) on their Fock expansion
    (`oil_block_oracle`), n = 0..2."""
    params = oil.params_for_intensities(0.5, 0.2, 1e-4, omega=0.02)
    chan = channel_mod.ChannelParams(distance_km=25.0)
    unit, (first, second) = oil.unit_amplitudes(params), lp.PAIR_ENDS.T
    fids = oil.sector_fidelities(unit[:, first], unit[:, second], 2)
    refs = channel_mod.arrival_reference_errors(abs(unit[0, 0, 0]) ** 2, 2, chan)
    worst_f = worst_r = 0.0
    for n in range(3):
        blocks = np.array([[oil_block_oracle(oil.setting_phases(bit, "X", i, params), params, n)
                            for bit in (0, 1)] for i in oil.INTENSITIES])  # [I, bit, dim, dim]
        blocks /= np.trace(blocks, axis1=-2, axis2=-1).real[..., None, None]
        # the supports: a bit mixture's top two eigenvectors, a setting's top one
        factors = (density_factor(blocks.mean(axis=1))[..., -2:],
                   density_factor(blocks[:, 0])[..., -1:])
        expanded = factor_fidelities([(f[first], f[second]) for f in factors])
        worst_f = max(worst_f, float(np.max(np.abs(np.array(expanded) - fids[..., n]))))
        errors = channel_mod.reference_errors([blocks[0]], [oil.oil_basis(n)],
                                              channel_mod.transmittance(chan), chan.p_dark, False)
        worst_r = max(worst_r, float(np.max(np.abs(errors / refs[n] - 1.0))))
    return (worst_f <= 4e-15 and worst_r <= 1e-10,
            f"references within {worst_r:.2e} relative, fidelities within {worst_f:.2e}")


def check_region_monte_carlo(seed: int = 5, samples: int = 400_000,
                             regions=None, max_n: int = 2) -> tuple[bool, str]:
    geometry = passive.RegionGeometry(delta_theta_z=0.15)
    params = passive.PassiveParams(mu_max=0.5, omega=0.005, geometry=geometry)
    if regions is None:
        regions = [passive.RegionSpec(0, "Z", "I0"), passive.RegionSpec(0, "X", "I0")]
    worst = 0.0
    for region in regions:
        moments = passive.region_moments(region, params)
        for n in range(max_n + 1):
            mc = passive.monte_carlo_region_estimate(params, region, n, samples, seed)
            quad_mean = moments.blocks[n] / moments.mass
            dz_re = np.abs(quad_mean.real - mc.block_mean.real) / np.maximum(mc.block_se_real, 1e-14)
            dz_im = np.abs(quad_mean.imag - mc.block_mean.imag) / np.maximum(mc.block_se_imag, 1e-14)
            mask_re = (np.abs(quad_mean.real) > 1e-13) | (mc.block_se_real > 1e-13)
            mask_im = (np.abs(quad_mean.imag) > 1e-13) | (mc.block_se_imag > 1e-13)
            if np.any(mask_re):
                worst = max(worst, float(np.max(dz_re[mask_re])))
            if np.any(mask_im):
                worst = max(worst, float(np.max(dz_im[mask_im])))
            z_mass = abs(moments.mass - mc.region_mass) / mc.mass_se
            z_trace = abs(moments.traces[n] / moments.mass - mc.trace_mean) / max(mc.trace_se, 1e-14)
            worst = max(worst, z_mass, z_trace)
        seed += 1
    return worst < 3.0, f"worst z-score {worst:.2f}"


def check_quadrature_convergence(nodes: int | None = None) -> tuple[bool, str]:
    """Region masses and photon-number traces of the 12 boxes of the default
    passive source at 10 dB (strong leakage: 16 phi nodes on the Z boxes)
    on the pipeline's grid at `nodes` (`passive.box_orders`) against twice
    the larger of `nodes` and the pipeline's order on every axis (on b, each
    a panel's own order), to 1e-10: the fine grid raises the derived b and
    phi orders as well as the a axis."""
    config = driver.ProtocolConfig(transmitter="passive")
    nodes = config.quadrature_nodes if nodes is None else nodes
    params = driver._passive_params(config, 10.0)
    worst = 0.0
    for basis in driver.BASES:
        for intensity in driver.INTENSITIES:
            for bit in driver.BITS:
                region = passive.RegionSpec(bit, basis, intensity)
                orders = passive.box_orders(params, bit, basis, intensity, nodes)
                coarse, fine = (passive.region_moments(region, params, node_sets=[
                    passive.build_region_nodes(bit, basis, intensity, params.geometry,
                                               params.mu_max, grid)])
                    for grid in (orders, tuple(2 * np.maximum(nodes, n) for n in orders)))
                worst = max(worst, abs(coarse.mass - fine.mass) / fine.mass,
                            float(np.max(np.abs(coarse.photon_probabilities()
                                                - fine.photon_probabilities()))))
    return worst <= 1e-10, f"{nodes} vs {2 * nodes} nodes: largest mass/trace drift {worst:.1e}"


def random_program(rng) -> lp.LinearProgram:
    """A random feasible program: 3-5 variables and 4-8 <= rows, each with
    slack at a common interior point of the unit box."""
    n = int(rng.integers(3, 6))
    m = int(rng.integers(4, 9))
    interior = rng.uniform(0.2, 0.8, size=n)
    a = rng.normal(size=(m, n))
    slack = rng.uniform(0.05, 0.5, size=m)
    b = a @ interior + slack
    c = rng.normal(size=n)
    sense = "min" if rng.integers(2) == 0 else "max"
    return lp.LinearProgram(variables=tuple(f"x{i}" for i in range(n)), sense=sense, c=c, a=a,
                            b=b, upper=np.ones(m, dtype=bool))


def check_lp_vertex_oracle(seed: int = 6, cases: int = 100) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        program = random_program(rng)
        got = lp.solve(program)
        reference = vertex_enumeration_optimum(program)
        if got.status != "optimal" or reference is None:
            return False, "solver or oracle failed on a feasible program"
        worst = max(worst, abs(got.value - reference))
    return worst < 1e-7, f"max optimum deviation {worst:.2e} over {cases} programs"


def check_tangent_dominance(grid: int = 1000) -> tuple[bool, str]:
    ys, y_refs = np.linspace(0.0, 1.0, grid), np.array([1e-4, 0.01, 0.2, 0.5, 0.8, 0.97])
    for z in (0.03, 0.3, 0.62, 0.9, 0.99, 0.999, 1.0):
        # [side, y_ref, y]: the tangents lie below the lower envelope, above the upper
        gaps = (np.stack([coin.transfer_bound(ys, z, side) for side in ("L", "U")])[:, None]
                - coin.tangent_lines(z, y_refs[:, None]).evaluate(ys))
        below = np.argwhere(np.array([1.0, -1.0])[:, None, None] * gaps < -1e-12)
        if below.size:
            _, r, y = below[0]
            return False, f"dominance violated at z={z}, y_ref={y_refs[r]}, y={ys[y]}"
    return True, "all tangent lines dominate their envelopes"


def check_channel_truth_feasibility(nodes: int = 32) -> tuple[bool, str]:
    """Model-generated observables admit the model's own yields/errors."""
    config = driver.ProtocolConfig(transmitter="passive", analysis="baseline",
                                   mu_max=0.45, delta_theta_z=0.12)
    slack = _channel_truth_slack(config, 50.0, 60.0, nodes)
    return slack < 1e-7, f"worst constraint violation {slack:.2e}"


def _channel_truth_slack(config, distance: float, att: float, nodes: int) -> float:
    """Largest amount by which the model's own yields violate a yield
    program the pipeline solves, or by which its bound exceeds the true
    single-photon yield."""
    source = driver.passive_source(config, att, nodes)
    est = driver._passive_estimation(config, source, distance)
    chan = driver._channel(config, distance)
    n_cut = config.n_cut
    worst = 0.0
    for basis, spec in est.yield_specs.items():
        truth = []  # the columns Y_I_n of the yield program, intensity-major
        for i in driver.INTENSITIES:
            node_sets = passive.region_nodes_for(passive.RegionSpec(None, basis, i),
                                                 source.params.geometry, source.params.mu_max,
                                                 (nodes, nodes, nodes))
            yields, _ = channel_mod.passive_true_statistics(node_sets, source.params, chan, n_cut)
            truth.extend(yields[:n_cut + 1])
        x = np.array(truth)
        worst = max(worst, _constraint_violation(spec, x))
        solution = lp.solve(spec)
        if solution.status != "optimal":
            return math.inf
        y1 = x[spec.variables.index("Y_I0_1")]
        if solution.value > y1 + 1e-7:
            worst = max(worst, solution.value - y1)
    return worst


def _constraint_violation(spec: lp.LinearProgram, x: np.ndarray) -> float:
    lhs = spec.a @ x
    return float(np.max(np.where(spec.upper, lhs - spec.b, spec.b - lhs), initial=0.0))


def _brute_error(n_corr: int, n_err: int, eta: float, p_dark: float) -> float:
    """Bit-error probability of n_corr / n_err photons at the correct / error
    detectors, by enumerating detected photons and dark counts."""
    total = 0.0
    for det_c in range(n_corr + 1):
        for det_e in range(n_err + 1):
            p_det = (math.comb(n_corr, det_c) * eta ** det_c * (1 - eta) ** (n_corr - det_c)
                     * math.comb(n_err, det_e) * eta ** det_e * (1 - eta) ** (n_err - det_e))
            for dark_c in (0, 1):
                for dark_e in (0, 1):
                    p_dk = ((p_dark if dark_c else 1 - p_dark)
                            * (p_dark if dark_e else 1 - p_dark))
                    click_c = det_c > 0 or dark_c
                    click_e = det_e > 0 or dark_e
                    if click_e and not click_c:
                        err = 1.0
                    elif click_e and click_c:
                        err = 0.5
                    else:
                        err = 0.0
                    total += p_det * p_dk * err
    return total


def check_reference_error_brute(seed: int = 7) -> tuple[bool, str]:
    """`reference_errors` read by time of arrival on non-diagonal states of a
    passive basis, whose configurations carry every split of up to three
    signal photons (the diagonal click projectors), and on pure states of the
    injection-locked bases, all with leakage photons, against click
    enumeration (leakage photons never reach Bob)."""
    rng = np.random.default_rng(seed)
    eta, p_dark, worst = 0.35, 0.01, 0.0
    # random states of either bit: mixed on a passive basis, pure on the injection-locked ones
    bases = [passive.passive_basis(3), *(oil.oil_basis(n) for n in range(4))]
    states = []
    for b in bases:
        shape = (2, b.dim, b.dim if b.k == passive.MODE_COUNT else 1)
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = amp @ amp.conj().swapaxes(1, 2)
        states.append(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])
    ours = channel_mod.reference_errors(states, bases, eta, p_dark, False)
    for k, (b, rho) in enumerate(zip(bases, states)):
        for bit in (0, 1):
            brute = sum(float(rho[bit, i, i].real) * _brute_error(c[bit], c[1 - bit], eta, p_dark)
                        for i, c in enumerate(b.configs))
            worst = max(worst, abs(ours[bit, k] - brute))
    return worst < 1e-12, f"max deviation {worst:.2e}"


ALL_CHECKS = (
    ("eigen-oracle", check_eigen_oracle),
    ("basis-enumeration", check_basis_enumeration),
    ("phase-roundtrip", check_phase_roundtrip),
    ("density-normalisation", check_density_normalisation),
    ("passive-block-expansion", check_block_expansion),
    ("oil-block-expansion", check_oil_expansion),
    ("passive-bit-symmetry", check_bit_symmetry),
    ("region-monte-carlo", check_region_monte_carlo),
    ("quadrature-convergence", check_quadrature_convergence),
    ("lp-vertex-oracle", check_lp_vertex_oracle),
    ("tangent-dominance", check_tangent_dominance),
    ("channel-truth-feasibility", check_channel_truth_feasibility),
    ("reference-error-brute", check_reference_error_brute),
)


def run_all(seed: int = 20240, samples: int = 200_000, fast: bool = False) -> bool:
    """Run every oracle check, print one pass/fail line each."""
    all_ok = True
    for name, func in ALL_CHECKS:
        kwargs = {}
        if name == "region-monte-carlo":
            kwargs = {"seed": seed, "samples": max(10_000, samples // (4 if fast else 1))}
        elif name == "phase-roundtrip":
            kwargs = {"seed": seed, "samples": 2_000 if fast else 10_000}
        elif name == "density-normalisation":
            kwargs = {"seed": seed, "samples": max(10_000, samples)}
        elif name == "lp-vertex-oracle":
            kwargs = {"seed": seed, "cases": 30 if fast else 100}
        elif name == "channel-truth-feasibility":
            kwargs = {"nodes": 24 if fast else 32}
        try:
            ok, detail = func(**kwargs)
        except Exception as exc:  # a crashed oracle is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print("validation " + ("passed" if all_ok else "FAILED"))
    return all_ok
