"""End-to-end key-rate pipelines, parameter optimisation, and sweeps.

Passive pipeline: build region quadratures, assemble photon-number
states and observables, bound cross-intensity fidelities, run the yield
and bit-error programs, transfer the test-basis error to a phase-error
bound through the coin overlap, and evaluate the asymptotic rate.  The
refined variant additionally splits single-photon states into their two
dominant eigenvectors and keys on the dominant one.  Everything up to the
LP inputs that does not depend on the distance (quadrature, fidelities,
key/opp splits, coin overlap) forms a `PassiveSource`, built once per
attenuation and shared by every distance of a grid.

Injection-locked pipeline: analytic states (no quadrature), decoys in
the test basis only, key-basis yield recovered through the coin transfer
(the single-photon key/test mixtures coincide, so the transfer is the
identity).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import coin, lp, oil, passive
from .lp import InfeasibleProgramError
from .linalg import fidelity, pure_state_fidelity

BITS = (0, 1)
BASES = ("Z", "X")
INTENSITIES = ("I0", "I1", "I2")
INTENSITY_PAIRS = tuple(itertools.combinations(INTENSITIES, 2))
# point failures a sweep records instead of raising
FAILURES = (InfeasibleProgramError, passive.EmptyRegionError)


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy with the 0 log 0 = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class OptimizerSettings:
    """Golden-section coordinate-descent settings."""

    passes: int = 2
    iterations: int = 6
    search_nodes: int = 8
    mu_max_bracket: tuple = (0.05, 1.5)
    delta_theta_z_bracket: tuple = (0.01, 0.5)
    oil_intensity_bracket: tuple = (1e-3, 1.0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Full run configuration; mirrors the JSON config file."""

    transmitter: str = "passive"
    analysis: str = "baseline"
    n_cut: int = 4
    quadrature_nodes: int = passive.DEFAULT_NODES[0]
    # passive source
    mu_max: float = 0.5
    delta_theta_z: float = 0.1
    delta_theta_x: float = 0.11
    delta_phi_x: float = 0.09
    t1: float = 0.05
    t2: float = 0.01
    # injection-locked source (test-basis intensity ladder)
    mu_in: float = 0.5
    mu_i1: float = 0.1
    mu_i2: float = 1e-4
    # channel
    alpha_db_per_km: float = 0.2
    p_dark: float = 1e-6
    detector_efficiency: float = 1.0
    f_ec: float = 1.16
    # sifting probabilities (asymptotic limit)
    p_zb: float = 1.0
    p_zazb: float = 1.0
    # sweep grids
    distances_km: tuple = (50.0,)
    att_db: tuple = (120.0,)
    seed: int = 1
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):
        if self.transmitter not in ("passive", "oil"):
            raise ValueError(f"unknown transmitter {self.transmitter!r}")
        if self.analysis not in ("baseline", "refined"):
            raise ValueError(f"unknown analysis {self.analysis!r}")
        if self.transmitter == "oil" and self.analysis == "refined":
            raise ValueError("the refined analysis applies to the passive transmitter only")
        for name in ("p_zb", "p_zazb"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.n_cut < 1:
            raise ValueError("n_cut must be >= 1")


def config_from_dict(data: dict) -> ProtocolConfig:
    """Build a config from a JSON document, rejecting unknown keys."""
    data = dict(data)
    known = {f.name for f in dataclasses.fields(ProtocolConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "optimizer" in data and isinstance(data["optimizer"], dict):
        opt_known = {f.name for f in dataclasses.fields(OptimizerSettings)}
        opt_unknown = set(data["optimizer"]) - opt_known
        if opt_unknown:
            raise ValueError(f"unknown optimizer keys: {sorted(opt_unknown)}")
        opt = dict(data["optimizer"])
        for name in ("mu_max_bracket", "delta_theta_z_bracket", "oil_intensity_bracket"):
            if name in opt:
                opt[name] = tuple(opt[name])
        data["optimizer"] = OptimizerSettings(**opt)
    for name in ("distances_km", "att_db"):
        if name in data:
            data[name] = tuple(data[name])
    return ProtocolConfig(**data)


def config_to_dict(config: ProtocolConfig) -> dict:
    out = dataclasses.asdict(config)
    out["distances_km"] = list(config.distances_km)
    out["att_db"] = list(config.att_db)
    for name in ("mu_max_bracket", "delta_theta_z_bracket", "oil_intensity_bracket"):
        out["optimizer"][name] = list(out["optimizer"][name])
    return out


def config_hash(config: ProtocolConfig) -> str:
    text = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class KeyRateReport:
    """One pipeline evaluation with every intermediate bound on record."""

    transmitter: str
    distance_km: float
    att_db: float
    analysis: str
    rate: float
    rate_raw: float
    y1_lower: float
    e_ph_upper: float
    e_x_upper: float
    f_prime: float
    gain_key: float
    error_key: float
    p_region_key: float
    p1_given_region: float
    q_key_weight: float
    status: str = "ok"
    details: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    CSV_FIELDS = ("transmitter", "distance_km", "att_db", "analysis", "R", "Y1L",
                  "eph_U", "eX_U", "F_prime", "Q_key", "E_key", "p_omega",
                  "p1_omega", "q_key", "R_raw", "status", "lp_iterations",
                  "nodes", "config_hash")

    def csv_row(self) -> str:
        cells = (self.transmitter, repr(float(self.distance_km)), repr(float(self.att_db)),
                 self.analysis, repr(self.rate), repr(self.y1_lower), repr(self.e_ph_upper),
                 repr(self.e_x_upper), repr(self.f_prime), repr(self.gain_key),
                 repr(self.error_key), repr(self.p_region_key), repr(self.p1_given_region),
                 repr(self.q_key_weight), repr(self.rate_raw), self.status,
                 str(self.provenance.get("lp_iterations", 0)),
                 str(self.provenance.get("nodes", "")),
                 str(self.provenance.get("config_hash", "")))
        return ",".join(cells)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def csv_header() -> str:
    return ",".join(KeyRateReport.CSV_FIELDS)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _geometry(config: ProtocolConfig) -> passive.RegionGeometry:
    return passive.RegionGeometry(delta_theta_z=config.delta_theta_z,
                                  delta_theta_x=config.delta_theta_x,
                                  delta_phi_x=config.delta_phi_x,
                                  t1=config.t1, t2=config.t2)


def _channel(config: ProtocolConfig, distance_km: float) -> channel_mod.ChannelParams:
    return channel_mod.ChannelParams(distance_km=distance_km,
                                     alpha_db_per_km=config.alpha_db_per_km,
                                     p_dark=config.p_dark,
                                     detector_efficiency=config.detector_efficiency,
                                     f_ec=config.f_ec)


def _solve_or_raise(spec: lp.LinearProgramSpec, label: str, lp_log: list) -> float:
    """Solve one program and append its record (see `_provenance`) to `lp_log`."""
    solution = lp.solve(spec)
    lp_log.append({"label": label, "status": solution.status, "attempts": solution.attempts,
                   "relaxation": solution.relaxation, "iterations": solution.iterations,
                   "rows": len(spec.constraints), "cols": len(spec.variables)})
    if solution.status != "optimal":
        raise InfeasibleProgramError(f"{label} program is {solution.status}")
    return float(solution.value)


def _recorded(diagnostics: list, func, *args, label: str = ""):
    """func(*args), with the warnings it raises (degenerate bounds) recorded
    in `diagnostics`, prefixed by `label`, instead of raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = func(*args)
    diagnostics.extend(f"{label}{w.message}" for w in caught)
    return result


def _rate_from_bounds(p_region: float, p1: float, q_weight: float, y1: float,
                      e_ph: float, gain: float, error_rate: float,
                      sift: float, f_ec: float) -> tuple[float, float]:
    privacy = 1.0 - binary_entropy(min(0.5, e_ph))
    raw = sift * p_region * (p1 * q_weight * y1 * privacy
                             - gain * f_ec * binary_entropy(error_rate))
    return max(0.0, raw), raw


def _cross_fidelity(mom_i, mom_j, n: int) -> float:
    """Exact fidelity on full blocks; projection chain bound on truncated ones."""
    rho_i = mom_i.normalized_block(n)
    rho_j = mom_j.normalized_block(n)
    f_proj = fidelity(rho_i, rho_j)
    t_i = mom_i.trace_fraction(n)
    t_j = mom_j.trace_fraction(n)
    if t_i >= 1.0 - 1e-12 and t_j >= 1.0 - 1e-12:
        return f_proj
    return coin.bures_chain_bound(t_i, t_j, f_proj)


# ---------------------------------------------------------------------------
# Passive pipeline: a distance-independent source stage, built once per
# attenuation, and a per-distance channel stage
# ---------------------------------------------------------------------------

def _passive_params(config: ProtocolConfig, att_db: float) -> passive.PassiveParams:
    omega = config.mu_max * 10.0 ** (-att_db / 10.0)
    return passive.PassiveParams(mu_max=config.mu_max, omega=omega,
                                 geometry=_geometry(config), n_cut=config.n_cut)


def _region_nodes(params: passive.PassiveParams, nodes: int, bit: int, basis: str,
                  intensity: str) -> passive.RegionNodes:
    phi_nodes = passive.periodic_phi_nodes(params) if basis == "Z" else nodes
    return passive.build_region_nodes(bit, basis, intensity, params.geometry,
                                      params.mu_max, (nodes, phi_nodes, nodes))


def _passive_moments(params: passive.PassiveParams, nodes: int) -> tuple[dict, dict]:
    """Region quadrature: moments of every (bit, basis, intensity) box and
    of every bit-union (basis, intensity)."""
    moments_bit = {}
    for basis in BASES:
        for intensity in INTENSITIES:
            for bit in BITS:
                region = passive.RegionSpec(bit=bit, basis=basis, intensity=intensity)
                moments_bit[(bit, basis, intensity)] = passive.region_moments(
                    region, params,
                    node_sets=[_region_nodes(params, nodes, bit, basis, intensity)])
    moments_union = {(basis, i): passive.combine_moments([moments_bit[(b, basis, i)]
                                                          for b in BITS])
                     for basis in BASES for i in INTENSITIES}
    return moments_bit, moments_union


def _yield_probs_fids(moments_union: dict, basis: str, n_cut: int) -> tuple[dict, dict]:
    probs = {i: moments_union[(basis, i)].photon_probabilities()[:n_cut + 1]
             for i in INTENSITIES}
    fids = {(i, j, n): _cross_fidelity(moments_union[(basis, i)], moments_union[(basis, j)], n)
            for i, j in INTENSITY_PAIRS for n in range(n_cut + 1)}
    return probs, fids


@dataclass(frozen=True)
class PassiveSource:
    """Distance-independent part of a passive evaluation at one attenuation.

    Everything here follows from the source parameters, the attenuation
    and the quadrature grid alone, so one source serves every distance.
    The quadrature nodes themselves are not kept (tens of MB at the
    default grid); the channel stage rebuilds them box by box.

    Keys: `yield_probs[basis][I]`, `yield_fids[basis][(I, J, n)]` of the
    bit-union states; `probs_bit[(a, I)]`, `fids_bit[(I, J, a, n)]` of the
    test-basis bit-a states.  The refined analysis adds the bit-averaged
    key/opp `splits[basis][I]` with `tag_fids[basis][(I, J, tag)]` and
    `cross_tag[basis][I]`, and the per-bit test-basis `splits_bit[(a, I)]`
    with `tag_fids_bit[(I, J, a, tag)]` and
    `cross_bit[(a, a', I, tag, tag')]`; they are empty for the baseline.
    `diagnostics` holds the degenerate-bound warnings of the source stage;
    every report built from the source lists them.
    """

    analysis: str
    params: passive.PassiveParams
    nodes: int
    moments_bit: dict
    moments_union: dict
    yield_probs: dict
    yield_fids: dict
    probs_bit: dict
    fids_bit: dict
    splits: dict
    tag_fids: dict
    cross_tag: dict
    splits_bit: dict
    tag_fids_bit: dict
    cross_bit: dict
    overlap: complex
    q_weight: float
    build_s: float
    diagnostics: tuple


def passive_source(config: ProtocolConfig, att_db: float,
                   nodes: int | None = None) -> PassiveSource:
    """Region quadrature and every source-only bound input at one attenuation."""
    start = time.perf_counter()
    nodes = config.quadrature_nodes if nodes is None else nodes
    n_cut = config.n_cut
    params = _passive_params(config, att_db)
    moments_bit, moments_union = _passive_moments(params, nodes)
    yield_probs, yield_fids = {}, {}
    for basis in BASES:
        yield_probs[basis], yield_fids[basis] = _yield_probs_fids(moments_union, basis, n_cut)
    probs_bit = {(a, i): moments_bit[(a, "X", i)].photon_probabilities()[:n_cut + 1]
                 for a in BITS for i in INTENSITIES}
    fids_bit = {(i, j, a, n): _cross_fidelity(moments_bit[(a, "X", i)],
                                              moments_bit[(a, "X", j)], n)
                for a in BITS for i, j in INTENSITY_PAIRS for n in range(n_cut + 1)}
    splits, tag_fids, cross_tag = {}, {}, {}
    splits_bit, tag_fids_bit, cross_bit = {}, {}, {}
    diagnostics: list = []
    if config.analysis == "baseline":
        eigendata = {(a, b): coin.state_eigendata(moments_bit[(a, b, "I0")].normalized_block(1))
                     for a in BITS for b in BASES}
        overlap = coin.purification_overlap(eigendata)
        q_weight = 1.0
    else:
        bit_splits = {(a, basis, i): _recorded(diagnostics, lp.key_opp_split,
                                               moments_bit[(a, basis, i)].normalized_block(1),
                                               label=f"{basis}:{i} bit {a}: ")
                      for basis in BASES for i in INTENSITIES for a in BITS}
        for basis in BASES:
            taus = {}
            splits[basis] = {}
            for i in INTENSITIES:
                split0, split1 = bit_splits[(0, basis, i)], bit_splits[(1, basis, i)]
                splits[basis][i] = lp.KeyOppSplit(q_key=0.5 * (split0.q_key + split1.q_key),
                                                  q_opp=0.5 * (split0.q_opp + split1.q_opp),
                                                  v_key=split0.v_key, v_opp=split0.v_opp)
                for tag in ("key", "opp"):
                    v0 = getattr(split0, f"v_{tag}")
                    v1 = getattr(split1, f"v_{tag}")
                    taus[(i, tag)] = 0.5 * (np.outer(v0, v0.conj()) + np.outer(v1, v1.conj()))
            cross_tag[basis] = {i: fidelity(taus[(i, "key")], taus[(i, "opp")])
                                for i in INTENSITIES}
            tag_fids[basis] = {(i, j, tag): fidelity(taus[(i, tag)], taus[(j, tag)])
                               for i, j in INTENSITY_PAIRS for tag in ("key", "opp")}
        splits_bit = {(a, i): bit_splits[(a, "X", i)] for a in BITS for i in INTENSITIES}
        tag_fids_bit = {(i, j, a, tag): pure_state_fidelity(getattr(splits_bit[(a, i)], f"v_{tag}"),
                                                            getattr(splits_bit[(a, j)], f"v_{tag}"))
                        for a in BITS for i, j in INTENSITY_PAIRS for tag in ("key", "opp")}
        cross_bit = {(a, a2, i, t, t2): pure_state_fidelity(getattr(splits_bit[(a, i)], f"v_{t}"),
                                                            getattr(splits_bit[(a2, i)], f"v_{t2}"))
                     for i in INTENSITIES for a, a2 in ((0, 1), (1, 0))
                     for t, t2 in (("key", "opp"), ("opp", "key"))}
        splits_z = [bit_splits[(a, "Z", "I0")] for a in BITS]
        overlap = coin.bb84_pair_overlap(splits_z[0].v_key, splits_z[1].v_key,
                                         splits_bit[(0, "I0")].v_key,
                                         splits_bit[(1, "I0")].v_key)
        q_weight = 0.5 * (splits_z[0].q_key + splits_z[1].q_key)
    return PassiveSource(
        analysis=config.analysis, params=params, nodes=nodes, moments_bit=moments_bit,
        moments_union=moments_union, yield_probs=yield_probs, yield_fids=yield_fids,
        probs_bit=probs_bit, fids_bit=fids_bit, splits=splits, tag_fids=tag_fids,
        cross_tag=cross_tag, splits_bit=splits_bit, tag_fids_bit=tag_fids_bit,
        cross_bit=cross_bit, overlap=overlap, q_weight=q_weight,
        build_s=time.perf_counter() - start, diagnostics=tuple(diagnostics))


@dataclass
class PassiveComputation:
    """Region moments with the observables of one channel."""

    params: passive.PassiveParams
    channel: channel_mod.ChannelParams
    moments_bit: dict
    moments_union: dict
    observables_bit: dict
    gains_union: dict


def _with_channel(params: passive.PassiveParams, nodes: int, moments_bit: dict,
                  moments_union: dict, chan: channel_mod.ChannelParams) -> PassiveComputation:
    """Observables of every region box under `chan`, on nodes rebuilt box by box."""
    observables_bit = {}
    for basis in BASES:
        for intensity in INTENSITIES:
            for bit in BITS:
                observables_bit[(bit, basis, intensity)] = channel_mod.passive_point_observables(
                    _region_nodes(params, nodes, bit, basis, intensity), bit, basis, chan)
    gains_union = {(basis, i): sum(moments_bit[(b, basis, i)].mass
                                   * observables_bit[(b, basis, i)].gain for b in BITS)
                   / moments_union[(basis, i)].mass
                   for basis in BASES for i in INTENSITIES}
    return PassiveComputation(params=params, channel=chan, moments_bit=moments_bit,
                              moments_union=moments_union, observables_bit=observables_bit,
                              gains_union=gains_union)


def passive_computation(config: ProtocolConfig, distance_km: float, att_db: float,
                        nodes: int) -> PassiveComputation:
    params = _passive_params(config, att_db)
    moments_bit, moments_union = _passive_moments(params, nodes)
    return _with_channel(params, nodes, moments_bit, moments_union,
                         _channel(config, distance_km))


def _passive_yield_inputs(comp: PassiveComputation, basis: str, n_cut: int):
    gains = {i: comp.gains_union[(basis, i)] for i in INTENSITIES}
    return (gains, *_yield_probs_fids(comp.moments_union, basis, n_cut))


def _passive_error_references(comp: PassiveComputation, bit: int, n_cut: int) -> np.ndarray:
    """Expected bit-error probabilities of the I0 test-basis states."""
    moments = comp.moments_bit[(bit, "X", "I0")]
    out = np.empty(n_cut + 1)
    for n in range(n_cut + 1):
        out[n] = channel_mod.reference_error(moments.normalized_block(n) * moments.trace_fraction(n),
                                             moments.bases[n], comp.channel,
                                             bit=bit, interfere=True)
    return out


def passive_key_rate(config: ProtocolConfig, distance_km: float, att_db: float,
                     nodes: int | None = None,
                     source: PassiveSource | None = None) -> KeyRateReport:
    """Baseline or refined passive evaluation at one grid point.

    `source`, from `passive_source` with the same config, attenuation and
    grid, skips the quadrature; without it the source is built here.
    """
    nodes = config.quadrature_nodes if nodes is None else nodes
    shared = source is not None
    if source is None:
        source = passive_source(config, att_db, nodes)
    elif (source.analysis, source.params, source.nodes) != (
            config.analysis, _passive_params(config, att_db), nodes):
        raise ValueError("passive source was built for another configuration, "
                         "attenuation or grid")
    start = time.perf_counter()
    report = _passive_channel_stage(config, source, distance_km, att_db)
    report.provenance["timings"] = {"source_s": source.build_s, "source_shared": shared,
                                    "channel_s": time.perf_counter() - start}
    return report


def _passive_channel_stage(config: ProtocolConfig, source: PassiveSource,
                           distance_km: float, att_db: float) -> KeyRateReport:
    comp = _with_channel(source.params, source.nodes, source.moments_bit,
                         source.moments_union, _channel(config, distance_km))
    lp_log: list = []
    n_cut = config.n_cut
    nodes = source.nodes
    references = channel_mod.reference_yields(n_cut, comp.channel)
    refined = config.analysis == "refined"

    y_lower = {}
    for basis in BASES:
        gains = {i: comp.gains_union[(basis, i)] for i in INTENSITIES}
        probs, fids = source.yield_probs[basis], source.yield_fids[basis]
        if not refined:
            spec = lp.yield_program(gains, probs, fids, references, n_cut)
        else:
            spec = lp.refined_yield_program(gains, probs, fids, references, n_cut,
                                            source.splits[basis], source.tag_fids[basis],
                                            source.cross_tag[basis])
        y_lower[basis] = min(1.0, max(0.0, _solve_or_raise(spec, f"{basis} yield", lp_log)))
    y_test = y_lower["X"]

    # test-basis bit-error bound
    error_refs = {a: _passive_error_references(comp, a, n_cut) for a in BITS}
    if not refined:
        gamma_upper = {}
        for a in BITS:
            error_gains = {i: comp.observables_bit[(a, "X", i)].error_gain for i in INTENSITIES}
            probs_bit = {i: source.probs_bit[(a, i)] for i in INTENSITIES}
            fids_bit = {(i, j, n): f for (i, j, b, n), f in source.fids_bit.items() if b == a}
            spec = lp.bit_error_program(error_gains, probs_bit, fids_bit, error_refs[a], n_cut)
            gamma_upper[a] = min(1.0, max(0.0, _solve_or_raise(spec, f"bit-{a} error", lp_log)))
        gamma_key = 0.5 * (gamma_upper[0] + gamma_upper[1])
    else:
        outcome_gains = {(a, b, i): comp.observables_bit[(a, "X", i)].outcome_gain(b != a)
                         for a in BITS for b in BITS for i in INTENSITIES}

        def err_reference(a: int, b: int, n: int) -> float:
            gamma = float(error_refs[a][n])
            return gamma if b != a else float(references[n]) - gamma

        spec = lp.refined_error_program(outcome_gains, source.probs_bit, source.fids_bit,
                                        err_reference, n_cut, source.splits_bit,
                                        source.tag_fids_bit, source.cross_bit)
        gamma_key = min(1.0, max(0.0, _solve_or_raise(spec, "refined error", lp_log)))

    key_union = source.moments_union[("Z", "I0")]
    p_region = key_union.mass
    p1 = float(key_union.photon_probabilities()[1])
    gain_key = comp.gains_union[("Z", "I0")]
    if y_test <= 1e-12:
        return _zero_report(config, distance_km, att_db, gain_key, p_region, p1, lp_log,
                            nodes, reason="vanishing test-basis yield bound",
                            diagnostics=source.diagnostics)
    e_x_upper = min(1.0, gamma_key / y_test)

    # coin overlap and phase error
    y_coin = 0.5 * (y_lower["Z"] + y_lower["X"])
    if y_coin <= 0.0:
        return _zero_report(config, distance_km, att_db, gain_key, p_region, p1, lp_log,
                            nodes, reason="vanishing coin yield",
                            diagnostics=source.diagnostics)
    diagnostics = list(source.diagnostics)
    f_prime = _recorded(diagnostics, coin.coin_adjusted_fidelity,
                        float(source.overlap.real), y_coin)
    e_ph_upper = coin.phase_error_upper(e_x_upper, f_prime)

    eq_key = sum(source.moments_bit[(a, "Z", "I0")].mass
                 * comp.observables_bit[(a, "Z", "I0")].error_gain for a in BITS) / p_region
    error_key = eq_key / gain_key if gain_key > 0 else 0.0
    rate, raw = _rate_from_bounds(p_region, p1, source.q_weight, y_lower["Z"], e_ph_upper,
                                  gain_key, error_key, config.p_zb, config.f_ec)
    details = {
        "y_lower": {b: y_lower[b] for b in BASES},
        "gamma_key_upper": gamma_key,
        "overlap_real": float(source.overlap.real),
        "region_mass": {f"{b}:{i}": source.moments_union[(b, i)].mass
                        for b in BASES for i in INTENSITIES},
        "gains": {f"{b}:{i}": comp.gains_union[(b, i)] for b in BASES for i in INTENSITIES},
        "photon_probabilities_key": [float(x) for x in
                                     key_union.photon_probabilities()[:config.n_cut + 1]],
        "omega": source.params.omega,
        "diagnostics": diagnostics,
    }
    return KeyRateReport(
        transmitter="passive", distance_km=distance_km, att_db=att_db,
        analysis=config.analysis, rate=rate, rate_raw=raw, y1_lower=y_lower["Z"],
        e_ph_upper=e_ph_upper, e_x_upper=e_x_upper, f_prime=f_prime,
        gain_key=gain_key, error_key=error_key, p_region_key=p_region,
        p1_given_region=p1, q_key_weight=source.q_weight, details=details,
        provenance=_provenance(config, lp_log, nodes))


def _provenance(config: ProtocolConfig, lp_log: list, nodes: int) -> dict:
    """Config hash, grid, and one record per solved program: label, status,
    attempts, relaxation level, iterations, rows and columns;
    `lp_iterations` (a CSV column) sums the iterations."""
    return {"config_hash": config_hash(config), "nodes": nodes,
            "lp_iterations": sum(r["iterations"] for r in lp_log), "lp": lp_log}


def _zero_report(config, distance_km, att_db, gain_key, p_region, p1, lp_log, nodes,
                 reason, diagnostics=()):
    """Rate-zero report for a point whose yield bound vanished (both transmitters)."""
    return KeyRateReport(
        transmitter=config.transmitter, distance_km=distance_km, att_db=att_db,
        analysis=config.analysis, rate=0.0, rate_raw=0.0, y1_lower=0.0,
        e_ph_upper=0.5, e_x_upper=1.0, f_prime=0.0,
        gain_key=gain_key, error_key=0.0, p_region_key=p_region, p1_given_region=p1,
        q_key_weight=1.0, status=f"zero-rate: {reason}",
        details={"diagnostics": list(diagnostics)},
        provenance=_provenance(config, lp_log, nodes))


# ---------------------------------------------------------------------------
# Injection-locked pipeline
# ---------------------------------------------------------------------------

def oil_key_rate(config: ProtocolConfig, distance_km: float, att_db: float,
                 nodes: int | None = None) -> KeyRateReport:
    """Injection-locked transmitter evaluation at one grid point."""
    eta_im = 10.0 ** (-att_db / 10.0)
    omega = eta_im * config.mu_in / 2.0
    params = oil.params_for_intensities(config.mu_in, config.mu_i1, config.mu_i2,
                                        omega, n_cut=config.n_cut)
    chan = _channel(config, distance_km)
    lp_log: list = []
    n_cut = config.n_cut
    references = channel_mod.reference_yields(n_cut, chan)

    settings = {(a, b, i): oil.setting_phases(a, b, i, params)
                for a in BITS for b in BASES for i in INTENSITIES if b == "X" or i == "I0"}
    intensities = {i: params.intensity(i) for i in INTENSITIES}

    gains = {i: channel_mod.oil_point_observables(intensities[i], 0.0, "X", 0, chan).gain
             for i in INTENSITIES}
    probs = {i: oil.photon_probabilities(intensities[i], omega, n_cut) for i in INTENSITIES}
    mixed = {(i, n): oil.mixed_state("X", i, params, n)
             for i in INTENSITIES for n in range(n_cut + 1)}
    fids = {}
    for idx, i in enumerate(INTENSITIES):
        for j in INTENSITIES[idx + 1:]:
            for n in range(n_cut + 1):
                fids[(i, j, n)] = fidelity(mixed[(i, n)], mixed[(j, n)])
    y_x = min(1.0, max(0.0, _solve_or_raise(
        lp.yield_program(gains, probs, fids, references, n_cut), "X yield", lp_log)))

    gamma_upper = {}
    for a in BITS:
        observables = {i: channel_mod.oil_point_observables(intensities[i], 0.0, "X", a, chan)
                       for i in INTENSITIES}
        error_gains = {i: observables[i].error_gain for i in INTENSITIES}
        vectors = {(i, n): oil.state_vector(settings[(a, "X", i)], params, n)
                   for i in INTENSITIES for n in range(1, n_cut + 1)}
        fids_bit = {}
        for idx, i in enumerate(INTENSITIES):
            for j in INTENSITIES[idx + 1:]:
                fids_bit[(i, j, 0)] = 1.0  # vacuum sector
                for n in range(1, n_cut + 1):
                    fids_bit[(i, j, n)] = pure_state_fidelity(vectors[(i, n)], vectors[(j, n)])
        error_refs = np.empty(n_cut + 1)
        for n in range(n_cut + 1):
            rho = oil.state_block(settings[(a, "X", "I0")], params, n)
            tr = float(np.trace(rho).real)
            error_refs[n] = channel_mod.reference_error(rho / tr, oil.oil_basis(n), chan,
                                                        bit=a, interfere=False)
        spec = lp.bit_error_program(error_gains, probs, fids_bit, error_refs, n_cut)
        gamma_upper[a] = min(1.0, max(0.0, _solve_or_raise(spec, f"bit-{a} error", lp_log)))

    key_obs = channel_mod.oil_point_observables(
        intensities["I0"],
        0.5 * (settings[(0, "Z", "I0")].phi12 + settings[(0, "Z", "I0")].phi23),
        "Z", 0, chan)
    p1 = float(oil.photon_probabilities(intensities["I0"], omega, 1)[1])
    if y_x <= 1e-12:
        return _zero_report(config, distance_km, att_db, key_obs.gain, 1.0, p1, lp_log,
                            nodes or 0, reason="vanishing test-basis yield bound")
    e_x_upper = min(1.0, 0.5 * (gamma_upper[0] + gamma_upper[1]) / y_x)

    # key-basis yield through the coin transfer; the single-photon mixtures
    # of the two bases coincide, so the transfer collapses to the identity
    rho_key = oil.mixed_state("Z", "I0", params, 1)
    rho_test = oil.mixed_state("X", "I0", params, 1)
    if float(np.max(np.abs(rho_key - rho_test))) <= 1e-10:
        fid_zx = 1.0
    else:
        fid_zx = fidelity(rho_key, rho_test)
    y_z = coin.yield_transfer(y_x, fid_zx)[0]

    overlap = oil.single_photon_overlap(params)
    y_coin = 0.5 * (y_z + y_x)
    if y_coin <= 0.0:
        return _zero_report(config, distance_km, att_db, key_obs.gain, 1.0, p1, lp_log,
                            nodes or 0, reason="vanishing coin yield")
    diagnostics: list = []
    f_prime = _recorded(diagnostics, coin.coin_adjusted_fidelity, float(overlap.real), y_coin)
    e_ph_upper = coin.phase_error_upper(e_x_upper, f_prime)

    privacy = 1.0 - binary_entropy(min(0.5, e_ph_upper))
    raw = config.p_zazb * (p1 * y_z * privacy
                           - key_obs.gain * config.f_ec * binary_entropy(key_obs.error_rate))
    details = {
        "y_lower": {"Z": y_z, "X": y_x},
        "overlap_real": float(overlap.real),
        "fid_zx": fid_zx,
        "intensities": intensities,
        "omega": omega,
        "gains": {i: gains[i] for i in INTENSITIES},
        "diagnostics": diagnostics,
    }
    return KeyRateReport(
        transmitter="oil", distance_km=distance_km, att_db=att_db,
        analysis=config.analysis, rate=max(0.0, raw), rate_raw=raw, y1_lower=y_z,
        e_ph_upper=e_ph_upper, e_x_upper=e_x_upper, f_prime=f_prime,
        gain_key=key_obs.gain, error_key=key_obs.error_rate, p_region_key=1.0,
        p1_given_region=p1, q_key_weight=1.0, details=details,
        provenance=_provenance(config, lp_log, nodes or 0))


def key_rate(config: ProtocolConfig, distance_km: float, att_db: float,
             nodes: int | None = None,
             source: PassiveSource | None = None) -> KeyRateReport:
    """One grid point; `source` (passive only) reuses a built passive source."""
    if config.transmitter == "passive":
        return passive_key_rate(config, distance_km, att_db, nodes, source)
    if source is not None:
        raise ValueError("a passive source cannot serve the injection-locked transmitter")
    return oil_key_rate(config, distance_km, att_db, nodes)


# ---------------------------------------------------------------------------
# Optimisation and sweeps
# ---------------------------------------------------------------------------

def _golden_max(func, lo: float, hi: float, iterations: int) -> tuple[float, float]:
    """Deterministic golden-section maximisation on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = func(d)
    return (c, fc) if fc >= fd else (d, fd)


def optimize_point(config: ProtocolConfig, distance_km: float, att_db: float):
    """Coordinate-descent over the source parameters at one grid point.

    Passive: (mu_max, delta_theta_z).  Injection-locked: the two highest
    test-basis intensities (mu_in, mu_i1), the weakest being pinned.
    The search runs on a coarse quadrature grid; the winning parameters
    are re-evaluated at the production grid for the returned report.
    """
    settings = config.optimizer
    cache: dict = {}

    def evaluate(cfg: ProtocolConfig) -> float:
        key = (round(cfg.mu_max, 12), round(cfg.delta_theta_z, 12),
               round(cfg.mu_in, 12), round(cfg.mu_i1, 12))
        if key not in cache:
            if cfg.transmitter == "oil" and (cfg.mu_i1 > cfg.mu_in or cfg.mu_i2 > cfg.mu_in):
                # invalid probe: a decoy above the signal intensity scores zero
                cache[key] = 0.0
            else:
                try:
                    report = key_rate(cfg, distance_km, att_db, nodes=settings.search_nodes)
                    cache[key] = report.rate
                except FAILURES:
                    cache[key] = 0.0
        return cache[key]

    best = config
    if config.transmitter == "passive":
        coordinates = (("mu_max", settings.mu_max_bracket),
                       ("delta_theta_z", settings.delta_theta_z_bracket))
    else:
        coordinates = (("mu_in", settings.oil_intensity_bracket),
                       ("mu_i1", settings.oil_intensity_bracket))
    for _ in range(settings.passes):
        for name, bracket in coordinates:
            lo, hi = bracket
            if name == "mu_i1":
                hi = min(hi, best.mu_in * 0.999)
                lo = max(lo, best.mu_i2 * 1.001)
                if lo >= hi:
                    continue
            value, _ = _golden_max(
                lambda x: evaluate(dataclasses.replace(best, **{name: x})),
                lo, hi, settings.iterations)
            best = dataclasses.replace(best, **{name: value})
    report = key_rate(best, distance_km, att_db)
    if report.rate <= 0.0 and report.status == "ok":
        report.status = "no positive rate over the search grid"
    return best, report


def grid_key_rates(config: ProtocolConfig,
                   tolerate_failures: bool = False) -> list[KeyRateReport]:
    """`key_rate` at every (distance, attenuation) grid point, in grid order.

    The passive source is built once per attenuation, on first use, and
    serves every distance; it lives for this call only.  With
    `tolerate_failures` a point whose estimation fails gets a `failed:`
    report (a source that cannot be built fails every point at its
    attenuation); otherwise the first failure propagates.
    """
    sources: dict = {}
    return _over_grid(config, lambda distance, att: key_rate(
        config, distance, att, source=_shared_source(sources, config, att)), tolerate_failures)


def _over_grid(config: ProtocolConfig, evaluate, tolerate_failures: bool) -> list[KeyRateReport]:
    reports = []
    for distance in config.distances_km:
        for att in config.att_db:
            try:
                reports.append(evaluate(distance, att))
            except FAILURES as exc:
                if not tolerate_failures:
                    raise
                reports.append(_failed_report(config, distance, att, exc))
    return reports


def _shared_source(sources: dict, config: ProtocolConfig, att_db: float):
    """The passive source at `att_db` from `sources`, built there on first
    use; a build failure is kept and raised again for every distance."""
    if config.transmitter != "passive":
        return None
    if att_db not in sources:
        try:
            sources[att_db] = passive_source(config, att_db)
        except FAILURES as exc:
            sources[att_db] = exc
    if isinstance(sources[att_db], Exception):
        raise sources[att_db]
    return sources[att_db]


def _failed_report(config: ProtocolConfig, distance_km: float, att_db: float,
                   exc: Exception) -> KeyRateReport:
    return KeyRateReport(
        transmitter=config.transmitter, distance_km=distance_km, att_db=att_db,
        analysis=config.analysis, rate=0.0, rate_raw=0.0, y1_lower=0.0,
        e_ph_upper=0.5, e_x_upper=1.0, f_prime=0.0, gain_key=0.0,
        error_key=0.0, p_region_key=0.0, p1_given_region=0.0,
        q_key_weight=0.0, status=f"failed: {exc}",
        provenance={"config_hash": config_hash(config)})


def sweep(config: ProtocolConfig, optimize: bool = False) -> list[KeyRateReport]:
    """One report per (distance, attenuation) grid point, in grid order.

    Failures at single points are recorded in the report status and do
    not abort the sweep.  Without `optimize` the passive source is built
    once per attenuation (see `grid_key_rates`).
    """
    if optimize:
        return _over_grid(config, lambda distance, att: optimize_point(config, distance, att)[1],
                          tolerate_failures=True)
    return grid_key_rates(config, tolerate_failures=True)


def reports_to_csv(reports: list[KeyRateReport]) -> str:
    lines = [csv_header()]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"
