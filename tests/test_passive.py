import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from helpers import (ConvergenceError, classify_region, joint_pdf, leakage_functions,
                     photon_number_block, region_average)
from leakyqkd import channel, driver, passive
from leakyqkd.fock import coherent_sectors
from leakyqkd.validation import (check_quadrature_convergence, density_box_mass,
                                 passive_block_oracle, total_density_mass)

MU_MAX = 0.5
GEOMETRY = passive.RegionGeometry(delta_theta_z=0.15)


def make_params(omega=0.005, **kwargs):
    return passive.PassiveParams(mu_max=MU_MAX, omega=omega, geometry=GEOMETRY, **kwargs)


# ---------------------------------------------------------------------------
# Target variables
# ---------------------------------------------------------------------------

def test_equal_phases_give_balanced_point():
    point = passive.target_from_phases(0.0, 0.0, 0.0, 0.0, MU_MAX)
    assert point.mu_e == pytest.approx(MU_MAX, abs=1e-12)
    assert point.mu_l == pytest.approx(MU_MAX, abs=1e-12)
    assert point.theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert point.phi == pytest.approx(0.0, abs=1e-12)


def test_opposite_phases_empty_early_bin():
    point = passive.target_from_phases(0.0, math.pi, 0.0, 0.0, MU_MAX)
    assert point.mu_e == pytest.approx(0.0, abs=1e-12)
    assert point.theta == pytest.approx(math.pi, abs=1e-9)


def test_intensity_split_identity():
    point = passive.target_from_phases(0.3, 1.2, -0.4, 2.2, MU_MAX)
    assert point.mu_e + point.mu_l == pytest.approx(point.mu, abs=1e-12)


def test_invert_phases_trivial_cases():
    point = passive.TargetPoint(theta=math.pi / 2, phi=0.0, mu=2.0 * MU_MAX)
    phases = passive.invert_phases(point, 0.7, (1, 1), MU_MAX)
    # arccos near its endpoint amplifies double-precision noise to ~1e-8
    assert all(p == pytest.approx(0.7, abs=1e-7) for p in phases)

    point = passive.TargetPoint(theta=math.pi / 2, phi=0.0, mu=MU_MAX)
    p1, p2, _, _ = passive.invert_phases(point, 0.0, (1, 1), MU_MAX)
    assert p1 - p2 == pytest.approx(math.pi / 2, abs=1e-12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw=st.tuples(*[st.floats(0.0, 2.0 * math.pi - 1e-9)] * 4))
def test_roundtrip_all_sign_branches(raw):
    point = passive.target_from_phases(*raw, MU_MAX)
    for signs in passive.BRANCHES:
        back = passive.invert_phases(point, point.phi_e, signs, MU_MAX)
        again = passive.target_from_phases(*back, MU_MAX)
        assert abs(again.theta - point.theta) < 1e-9
        assert abs(passive.wrap_phase(again.phi - point.phi)) < 1e-9
        assert abs(again.mu - point.mu) < 1e-9


def test_invert_rejects_out_of_range_point():
    point = passive.TargetPoint(theta=0.0, phi=0.0, mu=1.5 * MU_MAX)  # mu_e > mu_max
    with pytest.raises(ValueError):
        passive.invert_phases(point, 0.0, (1, 1), MU_MAX)


def test_even_slot_amplitudes_match_interferometer_outputs():
    raw = (0.3, 1.2, -0.4, 2.2)
    point = passive.target_from_phases(*raw, MU_MAX)
    amp_e = math.sqrt(MU_MAX) / 2.0 * abs(np.exp(1j * raw[0]) + np.exp(1j * raw[1]))
    amp_l = math.sqrt(MU_MAX) / 2.0 * abs(np.exp(1j * raw[2]) + np.exp(1j * raw[3]))
    assert amp_e == pytest.approx(math.sqrt(point.mu_e), abs=1e-12)
    assert amp_l == pytest.approx(math.sqrt(point.mu_l), abs=1e-12)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------

def test_density_is_phase_uniform_and_theta_symmetric():
    point_a = passive.TargetPoint(theta=1.0, phi=0.3, mu=0.4 * MU_MAX)
    point_b = passive.TargetPoint(theta=1.0, phi=-2.0, mu=0.4 * MU_MAX)
    assert joint_pdf(point_a, MU_MAX) == joint_pdf(point_b, MU_MAX)
    mirrored = passive.TargetPoint(theta=math.pi - 1.0, phi=0.3, mu=0.4 * MU_MAX)
    assert joint_pdf(point_a, MU_MAX) == pytest.approx(
        joint_pdf(mirrored, MU_MAX), rel=1e-12)


def test_density_rejects_singular_surface():
    with pytest.raises(ValueError):
        joint_pdf(passive.TargetPoint(theta=0.0, phi=0.0, mu=MU_MAX), MU_MAX)


def test_density_total_mass_is_one():
    assert total_density_mass(MU_MAX) == pytest.approx(1.0, abs=2e-3)


def test_density_matches_sampled_box_frequency():
    box_theta, box_phi, box_mu = (0.4, 1.1), (-1.0, 0.6), (0.1 * MU_MAX, 0.8 * MU_MAX)
    expected = density_box_mass(MU_MAX, box_theta, box_phi, box_mu)
    rng = np.random.default_rng(42)
    samples = 1_000_000
    theta, phi, mu, *_ = passive.sample_target_variables(rng, samples, MU_MAX)
    hits = ((theta > box_theta[0]) & (theta < box_theta[1])
            & (phi > box_phi[0]) & (phi < box_phi[1])
            & (mu > box_mu[0]) & (mu < box_mu[1]))
    freq = float(np.mean(hits))
    se = math.sqrt(freq * (1.0 - freq) / samples)
    assert abs(freq - expected) < 3.0 * se


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    geometry = passive.RegionGeometry(delta_theta_z=0.1, delta_theta_x=0.11,
                                      delta_phi_x=0.09, t1=0.05, t2=0.01)
    spec = classify_region(
        passive.TargetPoint(theta=0.05, phi=1.0, mu=0.9 * MU_MAX), geometry, MU_MAX)
    assert (spec.bit, spec.basis, spec.intensity) == (0, "Z", "I0")
    spec = classify_region(
        passive.TargetPoint(theta=math.pi / 2, phi=0.05, mu=0.03 * MU_MAX), geometry, MU_MAX)
    assert (spec.bit, spec.basis, spec.intensity) == (0, "X", "I1")
    assert classify_region(
        passive.TargetPoint(theta=math.pi / 2, phi=math.pi / 2, mu=0.5 * MU_MAX),
        geometry, MU_MAX) is None


def test_classify_bit1_x_wraps_branch_cut():
    geometry = passive.RegionGeometry(delta_theta_z=0.1)
    spec = classify_region(
        passive.TargetPoint(theta=math.pi / 2, phi=-math.pi + 0.05, mu=0.4 * MU_MAX),
        geometry, MU_MAX)
    assert (spec.bit, spec.basis) == (1, "X")


# ---------------------------------------------------------------------------
# Leakage functions and photon blocks
# ---------------------------------------------------------------------------

def test_leakage_vanishes_without_leak_intensity():
    point = passive.TargetPoint(theta=1.0, phi=0.5, mu=0.3)
    _, _, r, _, mu_leak = leakage_functions(point, (1, 1), 0.0, MU_MAX)
    assert r == 0.0 and mu_leak == 0.0


def test_leakage_at_full_intensity_balanced_point():
    omega = 0.01
    for phi in (0.0, 1.1, -2.0):
        point = passive.TargetPoint(theta=math.pi / 2, phi=phi, mu=2.0 * MU_MAX)
        c_off, s_off, r, _, mu_leak = leakage_functions(point, (1, -1), omega, MU_MAX)
        assert abs(c_off) < 1e-7 and abs(s_off) < 1e-7
        assert r ** 2 == pytest.approx(omega * (1.0 + math.cos(phi)) / 2.0, abs=1e-9)
        assert mu_leak == pytest.approx(omega + r ** 2, abs=1e-15)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(raw=st.tuples(*[st.floats(0.0, 2.0 * math.pi - 1e-9)] * 4))
def test_leak_intensity_matches_pulse_amplitudes(raw):
    # mu_L reconstructed from the raw pulse amplitudes of the split-pulse
    # leakage state
    omega = 0.02
    point = passive.target_from_phases(*raw, MU_MAX)
    phases = passive.invert_phases(point, point.phi_e, (1, 1), MU_MAX)
    amp1 = math.sqrt(omega / 2.0) * np.exp(1j * phases[0])
    amp3 = 0.5 * math.sqrt(omega) * (np.exp(1j * phases[1]) + np.exp(1j * phases[2]))
    amp5 = math.sqrt(omega / 2.0) * np.exp(1j * phases[3])
    expected = abs(amp1) ** 2 + abs(amp3) ** 2 + abs(amp5) ** 2
    _, _, _, _, mu_leak = leakage_functions(point, (1, 1), omega, MU_MAX)
    assert mu_leak == pytest.approx(expected, abs=1e-12)


def pair_blocks(point, omega):
    """`region_moments` blocks, without leakage cuts, on the two nodes
    (theta, +-phi, mu) of weight 1/2: the real part of the four-branch
    block at the point."""
    nodes = passive.RegionNodes(theta=np.full(2, point.theta),
                                phi=np.array([point.phi, -point.phi]),
                                mu=np.full(2, point.mu), weight=np.full(2, 0.5))
    return passive.region_moments(passive.RegionSpec(0, "Z", "I0"),
                                  make_params(omega, leak_cuts={}), node_sets=[nodes]).blocks


def test_leak_free_single_photon_block_is_pure_qubit():
    mu = 0.3
    point = passive.TargetPoint(theta=math.pi / 2, phi=0.0, mu=mu)
    block = pair_blocks(point, 0.0)[1]
    vec = np.zeros(5, dtype=complex)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)
    expected = math.exp(-mu) * mu * np.outer(vec, vec.conj())
    assert np.max(np.abs(block - expected)) < 1e-14


def test_vacuum_block_value():
    omega = 0.01
    point = passive.TargetPoint(theta=1.0, phi=0.7, mu=0.2)
    block = pair_blocks(point, omega)[0]
    expected = 0.0
    for signs in passive.BRANCHES:
        _, _, _, _, mu_leak = leakage_functions(point, signs, omega, MU_MAX)
        expected += 0.25 * math.exp(-(point.mu + mu_leak))
    assert block.shape == (1, 1)
    assert block[0, 0].real == pytest.approx(expected, abs=1e-15)


def test_block_matches_direct_expansion_oracle():
    point = passive.TargetPoint(theta=1.2, phi=-0.8, mu=0.21)
    mirror = passive.TargetPoint(theta=1.2, phi=0.8, mu=0.21)
    blocks = pair_blocks(point, 0.01)
    for n in (1, 2):
        reference = sum(0.5 * passive_block_oracle(p, n, 0.01, MU_MAX, phase_nodes=128)
                        for p in (point, mirror))
        assert np.max(np.abs(blocks[n] - reference)) < 1e-10


def test_branch_average_order_invariance():
    # the four branches summed in reverse order against the two-branch kernel
    point = passive.TargetPoint(theta=1.2, phi=-0.8, mu=0.21)
    basis = passive.passive_basis(1)
    total = np.zeros((5, 5), dtype=complex)
    for s_e, s_l in ((-1, -1), (-1, 1), (1, -1), (1, 1)):  # reversed order
        amp, mu_leak = passive._branch_amplitudes(
            np.atleast_1d(point.theta), np.atleast_1d(point.phi),
            np.atleast_1d(point.mu), s_e, s_l, 0.01, MU_MAX)
        vec = coherent_sectors(amp, [basis])[0][:, 0]
        total += 0.25 * math.exp(-(point.mu + float(mu_leak[0]))) * np.outer(vec, vec.conj())
    assert np.max(np.abs(total.real - pair_blocks(point, 0.01)[1])) < 1e-15


# ---------------------------------------------------------------------------
# Region quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bit, basis", [(0, "Z"), (0, "X"), (1, "X")])
def test_region_moments_match_per_node_block_sum(bit, basis):
    # the two-branch kernel against the four-branch block at every node
    params = make_params()
    nodes = passive.build_region_nodes(bit, basis, "I0", GEOMETRY, MU_MAX, (8, 8, 8))
    moments = passive.region_moments(passive.RegionSpec(bit, basis, "I0"), params,
                                     node_sets=[nodes])
    assert moments.mass == pytest.approx(nodes.mass, rel=1e-15)
    for n in range(params.n_cut + 1):
        basis_n = params.block_basis(n)
        expected = sum(w * photon_number_block(passive.TargetPoint(t, p, m), n,
                                               params.omega, MU_MAX, basis=basis_n)
                       for t, p, m, w in zip(nodes.theta, nodes.phi, nodes.mu, nodes.weight))
        assert moments.bases[n].configs == basis_n.configs
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(moments.blocks[n] - expected)) <= 1e-13 * scale, n
    # the n = 3, 4 blocks are leakage-truncated, the full traces are not
    assert moments.trace_fraction(3) < 1.0 and moments.trace_fraction(4) < 1.0


def test_mirrored_point_block_is_the_swapped_block():
    # theta -> pi - theta, phi -> -phi maps the block to P block P^T, P the
    # configuration permutation that swaps modes e <-> l and 1 <-> 5
    params = make_params(omega=0.05)
    point = passive.TargetPoint(theta=0.4, phi=0.9, mu=0.3)
    mirror = passive.TargetPoint(theta=math.pi - point.theta, phi=-point.phi, mu=point.mu)
    bases = {n: params.block_basis(n) for n in range(params.n_cut + 1)}
    assert bases[4].dim < passive.passive_basis(4).dim  # leak-truncated
    blocks = {n: photon_number_block(point, n, params.omega, MU_MAX, basis=b)
              for n, b in bases.items()}
    swapped = passive.mirrored_moments(passive.RegionMoments(1.0, np.ones(1), blocks, bases))
    for n, basis in bases.items():
        order = [basis.configs.index((c[1], c[0], c[4], c[3], c[2])) for c in basis.configs]
        expected = photon_number_block(mirror, n, params.omega, MU_MAX, basis=basis)
        assert np.max(np.abs(blocks[n][np.ix_(order, order)] - expected)) <= 1e-14, n
        assert np.max(np.abs(swapped.blocks[n] - expected)) <= 1e-14, n


@pytest.mark.parametrize("att_db", [10.0, 120.0])
def test_z_bit_one_moments_are_the_swapped_bit_zero_moments(att_db):
    """Each Z box on its own grid, at the default source and a-axis order
    (at 16 nodes that order's own error on the I0 boxes, up to 2e-9 on the
    n = 4 block, would exceed the 1e-10 checked here)."""
    params = driver._passive_params(driver.ProtocolConfig(transmitter="passive"), att_db)
    nodes = passive.DEFAULT_NODES[0]
    for i in passive.INTENSITIES:
        own, bit0 = (passive.region_moments(passive.RegionSpec(bit, "Z", i), params, node_sets=[
            passive.build_region_nodes(bit, "Z", i, params.geometry, params.mu_max,
                                       passive.box_orders(params, bit, "Z", i, nodes))])
            for bit in (1, 0))
        swapped = passive.mirrored_moments(bit0)
        assert swapped.mass == pytest.approx(own.mass, rel=1e-10, abs=0.0)
        assert np.max(np.abs(swapped.traces - own.traces)) <= 1e-10 * own.mass
        for n, block in own.blocks.items():
            assert np.max(np.abs(swapped.blocks[n] - block)) <= 1e-10 * np.max(np.abs(block)), n


@pytest.mark.parametrize("att_db", [10.0, 120.0])
def test_z_bit_one_observables_are_the_bit_zero_ones(att_db):
    """The mirror swaps the Z boxes and the correct and error detectors
    together, so a source reads Z bit 1's gain and error gain from Z bit 0:
    on each box's own grid at the default orders they agree within 1e-10 of
    the gain, on a short and a long channel."""
    params = driver._passive_params(driver.ProtocolConfig(transmitter="passive"), att_db)
    for i in passive.INTENSITIES:
        own, bit0 = (passive.build_region_nodes(bit, "Z", i, params.geometry, params.mu_max,
                                                passive.box_orders(params, bit, "Z", i,
                                                                   passive.DEFAULT_NODES[0]))
                     for bit in (1, 0))
        for distance_km in (0.0, 100.0):
            chan = channel.ChannelParams(distance_km=distance_km)
            got, want = (channel.passive_point_observables(nodes, bit, "Z", chan)
                         for nodes, bit in ((own, 1), (bit0, 0)))
            assert abs(got.gain - want.gain) <= 1e-10 * want.gain, (i, distance_km)
            assert abs(got.error_gain - want.error_gain) <= 1e-10 * want.gain, (i, distance_km)


def _exact_region_mass(bit, basis, intensity, geometry):
    """Region probability as one adaptive 1-D integral over a = phi1 - phi2.

    a and b = phi3 - phi4 are uniform on the circle, mu_e = mu_max cos^2(a/2)
    and mu_l = mu_max cos^2(b/2).  At fixed a, the windows on
    tan^2(theta/2) = mu_l / mu_e and on mu / mu_max leave one interval of
    v = cos^2(b/2); phi is uniform and enters as a factor.
    """
    g = geometry
    if basis == "Z":
        edge = math.tan(g.delta_theta_z / 2.0) ** 2
        ratio, share = ((0.0, edge) if bit == 0 else (1.0 / edge, math.inf)), 1.0
    else:
        ratio = tuple(math.tan((math.pi / 2.0 + s * g.delta_theta_x) / 2.0) ** 2 for s in (-1, 1))
        share = g.delta_phi_x / math.pi
    t_lo, t_hi = {"I0": (g.t1, 2.0), "I1": (g.t2, g.t1), "I2": (0.0, g.t2)}[intensity]

    def b_length(a):
        u = math.cos(a / 2.0) ** 2
        v_lo = max(0.0, ratio[0] * u, t_lo - u)
        v_hi = min(1.0, ratio[1] * u if ratio[1] < math.inf else 1.0, t_hi - u)
        if v_hi <= v_lo:
            return 0.0
        return 2.0 * (math.acos(math.sqrt(v_lo)) - math.acos(math.sqrt(v_hi)))

    value, _ = integrate.quad(b_length, 0.0, math.pi, epsabs=1e-16, epsrel=1e-13, limit=1000)
    return share * value / math.pi ** 2


@pytest.mark.parametrize("geometry", [GEOMETRY, passive.RegionGeometry(delta_theta_z=0.1)])
def test_region_masses_match_exact_integral(geometry):
    for basis in ("Z", "X"):
        for intensity in ("I0", "I1", "I2"):
            for bit in (0, 1):
                exact = _exact_region_mass(bit, basis, intensity, geometry)
                nodes = passive.build_region_nodes(bit, basis, intensity, geometry, MU_MAX)
                assert nodes.mass == pytest.approx(exact, rel=1e-10, abs=0.0), \
                    (bit, basis, intensity)


def _box_nodes(params, bit, basis, intensity, orders):
    return passive.build_region_nodes(bit, basis, intensity, params.geometry, params.mu_max,
                                      orders)


def _box_moments(params, bit, basis, intensity, orders):
    return passive.region_moments(passive.RegionSpec(bit, basis, intensity), params,
                                  node_sets=[_box_nodes(params, bit, basis, intensity, orders)])


def _moment_drift(coarse, fine):
    """Largest relative change of mass, traces (per unit mass) and blocks."""
    drift = max(abs(coarse.mass - fine.mass) / fine.mass,
                float(np.max(np.abs(coarse.traces - fine.traces))) / fine.mass)
    for n, block in fine.blocks.items():
        drift = max(drift, float(np.max(np.abs(coarse.blocks[n] - block)) / np.max(np.abs(block))))
    return drift


# the default source at three attenuations, then the optimizer's bracket
# corners (mu_max, delta_theta_z) at the strongest of them
QUADRATURE_CASES = (
    [pytest.param(att_db, MU_MAX, GEOMETRY.delta_theta_z, id=str(att_db))
     for att_db in (120.0, 30.0, 10.0)]
    + [pytest.param(10.0, mu_max, dtz, id=f"10.0-mu_max{mu_max}-dtz{dtz}")
       for mu_max in (0.05, 1.5) for dtz in (0.01, 0.5)])


@pytest.mark.parametrize("att_db, mu_max, delta_theta_z", QUADRATURE_CASES)
def test_default_quadrature_matches_forty_nodes(att_db, mu_max, delta_theta_z):
    """The pipeline's orders (`box_orders` at the default n) against 40 nodes
    on every axis: moments, and the gains and error gains (relative to the
    gain) of a short and a long channel."""
    params = passive.PassiveParams(mu_max=mu_max, omega=mu_max * 10.0 ** (-att_db / 10.0),
                                   geometry=passive.RegionGeometry(delta_theta_z=delta_theta_z))
    channels = [channel.ChannelParams(distance_km=d) for d in (0.0, 100.0)]
    for basis in ("Z", "X"):
        for intensity in ("I0", "I1", "I2"):
            for bit in (0, 1):
                box = (bit, basis, intensity)
                production = passive.box_orders(params, *box, passive.DEFAULT_NODES[0])
                coarse, fine = (_box_nodes(params, *box, orders)
                                for orders in (production, (40,) * 3))
                drift = _moment_drift(*(passive.region_moments(passive.RegionSpec(*box), params,
                                                               node_sets=[nodes])
                                        for nodes in (coarse, fine)))
                assert drift <= 1e-10, (box, drift)
                for chan in channels:
                    got, want = (channel.passive_point_observables(nodes, bit, basis, chan)
                                 for nodes in (coarse, fine))
                    # both are differences of terms of the gain's size or, for
                    # the gain, 1 minus a mean of no-click factors near 1, which
                    # rounds at ~1e-15 on either grid
                    for field in ("gain", "error_gain"):
                        assert abs(getattr(got, field) - getattr(want, field)) \
                            <= 1e-10 * want.gain + 1e-14, (box, chan, field)


def _window_form(bit, basis, intensity, geometry, a):
    """The active term of v_lo = max(0, r_lo u, t_lo - u) and of
    v_hi = min(1, r_hi u, t_hi - u) at a, and whether v_lo < v_hi."""
    (r_lo, r_hi), (t_lo, t_hi) = (passive._ratio_window(bit, basis, geometry),
                                  passive._mu_window(intensity, geometry))
    u = math.cos(a / 2.0) ** 2
    lo, hi = (0.0, r_lo * u, t_lo - u), (1.0, r_hi * u, t_hi - u)
    return int(np.argmax(lo)), int(np.argmin(hi)), max(lo) < min(hi)


@pytest.mark.parametrize("delta_theta_z", [driver.ProtocolConfig().delta_theta_z, 0.01, 0.5])
def test_a_panels_end_only_where_a_limit_switches(delta_theta_z):
    """Every interior edge of the a panels switches the active term of v_lo
    or v_hi, or the support; no panel holds a switch.  The default geometry,
    then those of the bracket corners of QUADRATURE_CASES (the a axis does
    not depend on mu_max).  Each edge is recovered from its panel: the a
    weights sum to a1 - a0, and the nodes sit at a0 + (a1 - a0)(1 - cos pi t)/2."""
    geometry = passive.RegionGeometry(delta_theta_z=delta_theta_z)
    n = passive.DEFAULT_NODES[0]
    s = 0.5 * (1.0 - np.cos(math.pi * passive._gauss_legendre(n, 0.0, 1.0)[0]))
    counts = {}
    for basis in ("Z", "X"):
        for intensity in ("I0", "I1", "I2"):
            for bit in (0, 1):
                box = (bit, basis, intensity)
                u, w_a, _, _ = passive._a_axis(*box, geometry, n)
                counts[box] = len(u)
                a = 2.0 * np.arccos(np.sqrt(u))
                widths = w_a.sum(axis=1)
                starts, ends = a[:, 0] - widths * s[0], a[:, -1] + widths * (1.0 - s[-1])
                for row in a:
                    assert len({_window_form(*box, geometry, x) for x in row}) == 1, box
                    assert _window_form(*box, geometry, row[0])[2], box
                for end, start in zip(ends[:-1], starts[1:]):
                    if start - end > 1e-9:  # a gap without support in between
                        assert not _window_form(*box, geometry, 0.5 * (end + start))[2], box
                    else:
                        assert (_window_form(*box, geometry, end - 1e-7)
                                != _window_form(*box, geometry, start + 1e-7)), (box, end)
    assert counts[(0, "X", "I0")] == counts[(1, "X", "I0")] == 3
    assert counts[(0, "X", "I1")] == counts[(1, "X", "I1")] == 3


def test_box_orders_stay_within_bounds_and_shrink_with_the_window():
    n = passive.DEFAULT_NODES[0]
    for att_db in (120.0, 10.0):
        omega = MU_MAX * 10.0 ** (-att_db / 10.0)
        previous = None
        for dtz, dtx, dphi in [(0.5, 0.3, 0.5), (0.3, 0.2, 0.3), (0.15, 0.11, 0.09),
                               (0.05, 0.05, 0.03), (0.01, 0.01, 0.01)]:
            geometry = passive.RegionGeometry(delta_theta_z=dtz, delta_theta_x=dtx,
                                              delta_phi_x=dphi)
            params = passive.PassiveParams(mu_max=MU_MAX, omega=omega, geometry=geometry)
            orders = {}
            for basis in ("Z", "X"):
                for intensity in ("I0", "I1", "I2"):
                    for bit in (0, 1):
                        n_a, n_phi, n_b = passive.box_orders(params, bit, basis, intensity, n)
                        u = passive._a_axis(bit, basis, intensity, geometry, n)[0]
                        assert n_a == n and len(n_b) == len(u)
                        assert all(passive.MIN_NODES <= n_panel <= n for n_panel in n_b)
                        if basis == "Z":
                            assert n_phi == passive.periodic_phi_nodes(params)
                        else:
                            assert passive.MIN_NODES <= n_phi <= n
                        orders[(bit, basis, intensity)] = (n_phi, max(n_b))
            if previous is not None:
                assert all(o[0] <= p[0] and o[1] <= p[1]
                           for o, p in zip(orders.values(), previous.values())), dtz
            previous = orders
    params = make_params()
    assert set(passive.box_orders(params, 1, "Z", "I0", passive.MIN_NODES)[2]) \
        == {passive.MIN_NODES}
    with pytest.raises(ValueError):
        passive.box_orders(params, 1, "Z", "I0", passive.MIN_NODES - 1)


@pytest.mark.parametrize("att_db", [120.0, 10.0])
def test_periodic_phi_rule_is_converged(att_db):
    params = make_params(omega=MU_MAX * 10.0 ** (-att_db / 10.0))
    for intensity in ("I0", "I1", "I2"):
        for bit in (0, 1):
            orders = passive.box_orders(params, bit, "Z", intensity, passive.DEFAULT_NODES[0])
            finer = (orders[0], orders[1] + 8, orders[2])
            drift = _moment_drift(_box_moments(params, bit, "Z", intensity, orders),
                                  _box_moments(params, bit, "Z", intensity, finer))
            assert drift <= 1e-13, (bit, intensity, drift)


def test_quadrature_convergence_check_flags_a_coarse_grid():
    ok, detail = check_quadrature_convergence(nodes=6)
    assert not ok and detail.startswith("6 vs 12 nodes")


def test_region_moments_reject_phi_asymmetric_nodes():
    params = make_params()
    region = passive.RegionSpec(0, "X", "I0")
    nodes = passive.build_region_nodes(0, "X", "I0", GEOMETRY, MU_MAX, (6, 6, 6))
    passive.region_moments(region, params, node_sets=[nodes])
    shifted = passive.RegionNodes(theta=nodes.theta, phi=nodes.phi + 0.01, mu=nodes.mu,
                                  weight=nodes.weight)
    with pytest.raises(ValueError, match="symmetric"):
        passive.region_moments(region, params, node_sets=[shifted])
    reweighted = passive.RegionNodes(theta=nodes.theta, phi=nodes.phi, mu=nodes.mu,
                                     weight=nodes.weight * (1.0 + 1e-3 * (nodes.phi > 0)))
    with pytest.raises(ValueError, match="symmetric"):
        passive.region_moments(region, params, node_sets=[reweighted])


def test_region_average_contract():
    params = make_params()
    region = passive.RegionSpec(0, "Z", "I0")
    rho, p_n, mass = region_average(region, 1, params, nodes=(24, 24, 24))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-9
    assert 0.0 < p_n < 1.0 and 0.0 < mass < 1.0


def test_small_key_region_single_photon_is_early_bin():
    geometry = passive.RegionGeometry(delta_theta_z=0.02)
    params = passive.PassiveParams(mu_max=MU_MAX, omega=0.0, geometry=geometry)
    rho, _, _ = region_average(passive.RegionSpec(0, "Z", "I0"), 1, params,
                               nodes=(16, 16, 16))
    values, vectors = np.linalg.eigh(rho)
    top = vectors[:, -1]
    assert abs(top[0]) ** 2 > 0.99


def test_photon_probabilities_sum_to_one():
    params = make_params()
    for basis_label in ("Z", "X"):
        for intensity in ("I0", "I1", "I2"):
            region = passive.RegionSpec(None, basis_label, intensity)
            moments = passive.region_moments(region, params, nodes=(16, 16, 16))
            assert moments.photon_probabilities().sum() >= 1.0 - 1e-6


def test_region_masses_sum_below_one():
    params = make_params()
    total = 0.0
    for basis_label in ("Z", "X"):
        for intensity in ("I0", "I1", "I2"):
            moments = passive.region_moments(passive.RegionSpec(None, basis_label, intensity),
                                             params, nodes=(16, 16, 16))
            total += moments.mass
    assert total < 1.0


def test_union_region_equals_sum_of_bits():
    params = make_params()
    parts = [passive.region_moments(passive.RegionSpec(b, "X", "I0"), params,
                                    nodes=(16, 16, 16)) for b in (0, 1)]
    union = passive.region_moments(passive.RegionSpec(None, "X", "I0"), params,
                                   nodes=(16, 16, 16))
    combined = passive.combine_moments(parts)
    assert union.mass == pytest.approx(combined.mass, rel=1e-12)
    assert np.max(np.abs(union.blocks[1] - combined.blocks[1])) < 1e-15


def test_leakage_continuity_towards_zero():
    region = passive.RegionSpec(0, "Z", "I0")
    base, _, _ = region_average(region, 1, make_params(omega=0.0), nodes=(16, 16, 16))
    previous = None
    for omega in (1e-3, 1e-6, 1e-9):
        rho, _, _ = region_average(region, 1, make_params(omega=omega), nodes=(16, 16, 16))
        deviation = float(np.max(np.abs(rho[:2, :2] - base[:2, :2])))
        if previous is not None:
            assert deviation < previous
        previous = deviation
    assert previous < 1e-7


def test_refine_check_passes_at_sane_resolution():
    params = make_params()
    region_average(passive.RegionSpec(0, "Z", "I0"), 1, params,
                   nodes=(24, 24, 24), refine_check=True)


def test_convergence_error_carries_both_estimates():
    params = make_params()
    with pytest.raises(ConvergenceError) as err:
        region_average(passive.RegionSpec(0, "X", "I0"), 1, params,
                       nodes=(4, 4, 4), refine_check=True, refine_rtol=1e-9)
    assert err.value.coarse is not None and err.value.fine is not None


def test_empty_region_raises():
    geometry = passive.RegionGeometry(delta_theta_z=0.05, t1=1.9, t2=1.8)
    params = passive.PassiveParams(mu_max=MU_MAX, omega=0.0, geometry=geometry)
    with pytest.raises(passive.EmptyRegionError):
        passive.region_moments(passive.RegionSpec(0, "Z", "I0"), params, nodes=(8, 8, 8))


def test_block_request_beyond_cut_rejected():
    params = make_params()
    with pytest.raises(ValueError):
        region_average(passive.RegionSpec(0, "Z", "I0"), params.n_cut + 1, params)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

def test_monte_carlo_matches_quadrature():
    params = make_params()
    region = passive.RegionSpec(0, "Z", "I0")
    moments = passive.region_moments(region, params, nodes=(32, 32, 32))
    mc = passive.monte_carlo_region_estimate(params, region, 1, 300_000, seed=5)
    assert abs(moments.mass - mc.region_mass) <= 3.0 * mc.mass_se
    assert abs(moments.traces[1] / moments.mass - mc.trace_mean) <= 3.0 * mc.trace_se
    quad = moments.blocks[1] / moments.mass
    z_re = np.abs(quad.real - mc.block_mean.real) / np.maximum(mc.block_se_real, 1e-14)
    mask = (np.abs(quad.real) > 1e-13) | (mc.block_se_real > 1e-13)
    assert float(np.max(z_re[mask])) <= 3.0


def test_monte_carlo_seed_repeatability():
    params = make_params()
    region = passive.RegionSpec(0, "X", "I0")
    a = passive.monte_carlo_region_estimate(params, region, 1, 50_000, seed=3)
    b = passive.monte_carlo_region_estimate(params, region, 1, 50_000, seed=3)
    assert a.accepted == b.accepted
    assert np.array_equal(a.block_mean, b.block_mean)


def test_monte_carlo_leak_entries_vanish_without_leakage():
    params = make_params(omega=0.0)
    region = passive.RegionSpec(0, "X", "I0")
    mc = passive.monte_carlo_region_estimate(params, region, 1, 50_000, seed=4)
    leak_rows = slice(2, 5)
    bound = 3.0 * mc.block_se_real[leak_rows, :] + 1e-15
    assert np.all(np.abs(mc.block_mean[leak_rows, :].real) <= bound)


def test_monte_carlo_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        passive.monte_carlo_region_estimate(make_params(), passive.RegionSpec(0, "Z", "I0"),
                                            1, 100, seed=1)
