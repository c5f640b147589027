"""End-to-end key-rate estimation, parameter optimisation, and sweeps.

Both transmitters run one estimation chain; only the source model
differs.  An input builder turns a source and a channel into an
`_Estimation`: the decoy yield programs by basis, the test-basis error
programs, the coin overlap and the key-basis inputs to the rate.

- `_passive_estimation` starts from a `PassiveSource`: region
  quadratures, photon-number states and cross-intensity fidelities,
  and, for the refined analysis, the split of each single-photon state
  into its two dominant eigenvectors, keyed on the dominant one.  The
  source does not depend on the distance; it is built once per
  attenuation and shared by every distance of a grid.  The builder adds
  the observables of one channel.
- `_oil_estimation` builds the injection-locked inputs from analytic
  states (no quadrature).  Decoys run in the test basis only; the key
  and test single-photon mixtures coincide, so the key-basis yield is
  the test yield.  It is what an optimizer probe repeats, so it costs
  what its arrays cost: one fidelity SVD for every sector, one pass over
  the click operators of its bases, and its three programs written in one
  pass into a pattern built once.

`_pair_fidelities` forms the cross-intensity fidelities of both.
`_estimate` solves the programs, transfers the test-basis error to a
phase-error bound through the coin overlap, evaluates the asymptotic
rate and builds the report.  `key_rate` is the one entry point; it
times the input builder (`inputs_s`) and the solves (`solve_s`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import coin, lp, oil, passive
from .lp import INTENSITIES, InfeasibleProgramError
from .linalg import density_factor, factor_fidelities

BITS = (0, 1)
BASES = ("Z", "X")
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

    def __post_init__(self):
        if self.passes < 1 or self.iterations < 0:
            raise ValueError("need passes >= 1 and iterations >= 0")
        if self.search_nodes < passive.MIN_NODES:
            raise ValueError(f"search_nodes must be >= {passive.MIN_NODES}")
        for name in ("mu_max_bracket", "delta_theta_z_bracket", "oil_intensity_bracket"):
            ends = getattr(self, name)
            if (len(ends) != 2 or any(isinstance(e, bool) for e in ends)
                    or not 0.0 < ends[0] < ends[1] < math.inf):
                raise ValueError(f"{name} must be two numbers with 0 < lo < hi")
        if self.delta_theta_z_bracket[1] >= math.pi / 2.0:
            raise ValueError("delta_theta_z_bracket must end below pi/2")


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
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):  # optimizer probes may put a decoy above the signal: no ladder check
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
        if self.quadrature_nodes < passive.MIN_NODES:
            raise ValueError(f"quadrature_nodes must be >= {passive.MIN_NODES}")
        if not 0.0 < self.mu_max < math.inf:
            raise ValueError("mu_max must be positive and finite")
        for name in ("distances_km", "att_db"):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and 0.0 <= v < math.inf for v in getattr(self, name)):
                raise ValueError(f"{name} must be a list of finite numbers >= 0")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError("f_ec must be finite and >= 1")
        _channel(self, 0.0)  # the checks of the channel and of the passive geometry
        if self.transmitter == "passive":
            _geometry(self)


def _no_oil_source(config: ProtocolConfig) -> bool:
    """Whether the injection-locked intensities describe no source: a signal
    that is not positive and finite, or a decoy outside [0, signal]."""
    decoys = (config.mu_i1, config.mu_i2)
    return config.transmitter == "oil" and not (
        0.0 < config.mu_in < math.inf and all(0.0 <= mu <= config.mu_in for mu in decoys))


def _from_dict(cls, data, what: str):
    """A `cls` dataclass from a JSON object: a list becomes a tuple, a nested
    object fills a dataclass field, and every other value has the type of
    the field's default (an int serves for a float, a bool only for a bool)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    defaults, values = cls(), {}
    for name, value in data.items():
        default = getattr(defaults, name)
        if dataclasses.is_dataclass(default):
            value = _from_dict(type(default), value, name)
        elif isinstance(value, list):
            value = tuple(value)
        if (isinstance(value, bool) is not isinstance(default, bool) or not isinstance(
                value, (int, float) if type(default) is float else type(default))):
            raise ValueError(f"{what} key {name!r} must be of type "
                             f"{type(default).__name__}, got {value!r}")
        values[name] = value
    return cls(**values)


def config_from_dict(data: dict) -> ProtocolConfig:
    """Build a config from a JSON document, rejecting unknown keys, values
    of the wrong type and injection-locked intensities with no source."""
    config = _from_dict(ProtocolConfig, data, "config")
    if _no_oil_source(config):
        raise ValueError("oil intensities need 0 < mu_in < inf and mu_i1, mu_i2 in [0, mu_in]")
    return config


def config_to_dict(config: ProtocolConfig) -> dict:
    """The JSON document of `config`: tuples become lists."""
    return json.loads(json.dumps(dataclasses.asdict(config)))


def config_hash(config: ProtocolConfig) -> str:
    """The first 12 hex digits of the SHA-256 of the config's sorted JSON,
    written from its fields directly: `dataclasses.asdict` costs a probe
    about 0.1 ms.  Memoised on the pickled fields, which keep every type
    and bit the JSON shows (1 and 1.0, 0.0 and -0.0 apart): the probes of
    one optimisation's grid points repeat configs (91 of 213 in one
    `oil-optimize` unit)."""
    return _pickled_hash(pickle.dumps({**vars(config), "optimizer": vars(config.optimizer)}))


@functools.lru_cache(maxsize=256)
def _pickled_hash(fields: bytes) -> str:
    text = json.dumps(pickle.loads(fields), sort_keys=True)
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
                                     detector_efficiency=config.detector_efficiency)


def _solve_or_raise(spec: lp.LinearProgram, label: str, lp_log: list,
                    starts: dict | None = None) -> float:
    """Solve one program, warm from `starts[label]` when `starts` is given (its
    final basis replaces that entry), and append its record (see `_provenance`)
    to `lp_log`; an infeasible program raises with `lp_log` attached."""
    solution = lp.solve(spec) if starts is None else lp.solve(spec, starts.get(label))
    if starts is not None:
        starts[label] = solution.basis
    lp_log.append({"label": label, "status": solution.status, "iterations": solution.iterations,
                   "rows": len(spec.b), "cols": len(spec.variables), "start": solution.start})
    if solution.status != "optimal":
        exc = InfeasibleProgramError(f"{label} program is {solution.status}")
        exc.lp_log = lp_log  # the records up to and including this program
        raise exc
    return float(solution.value)


@dataclass(frozen=True)
class _Estimation:
    """What `_estimate` needs from one transmitter at one grid point.

    `yield_specs` maps a basis to its yield program; the passive
    transmitter has both bases.  The injection-locked one has only "X",
    which bounds its key yield too.  The mean of the `error_specs` maxima
    (label -> program) bounds the test-basis error gain.  Programs are
    solved in dict order.  `sift`, `p_region`, `p1`, `q_weight`, `gain_key`
    and `error_key` feed the rate; `details` holds the transmitter's own
    report fields and `diagnostics` the degenerate-bound notes recorded
    before the programs.
    """

    yield_specs: dict
    error_specs: dict
    overlap: complex
    p_region: float
    p1: float
    q_weight: float
    gain_key: float
    error_key: float
    sift: float
    nodes: int
    details: dict
    diagnostics: tuple = ()


# ---------------------------------------------------------------------------
# Passive inputs: a distance-independent source, built once per
# attenuation, and the observables of one channel
# ---------------------------------------------------------------------------

def _passive_params(config: ProtocolConfig, att_db: float) -> passive.PassiveParams:
    omega = config.mu_max * 10.0 ** (-att_db / 10.0)
    return passive.PassiveParams(mu_max=config.mu_max, omega=omega,
                                 geometry=_geometry(config), n_cut=config.n_cut)


@dataclass(frozen=True)
class PassiveSource:
    """Distance-independent part of a passive evaluation at one attenuation.

    Everything here follows from the source parameters, the attenuation
    and the quadrature grid alone, so one source serves every distance.
    `node_sets[(bit, basis, I)]` keeps the nodes of each box but Z bit 1
    for the channel observables (19,560 nodes, about 0.6 MB, at the
    default source at 120 dB), `moments_bit` the moments of every box
    (Z bit 1 mirrored from Z bit 0), `moments_union[(basis, I)]` those of
    the bit-unions.  The decoy inputs are arrays in the layout of `lp` with a
    leading axis: `probs`, `fids` [basis, I or pair, n] of the
    bit-unions, `probs_bit`, `fids_bit` [bit, I or pair, n] of the
    test-basis boxes.  The refined analysis adds the key/opp `weights`
    [basis, bit, I, tag] of every box, `tag_fids` [basis, pair, tag] and
    `cross_tag` [basis, I] of the bit-averaged eigenstates, and
    `tag_fids_bit` [bit, pair, tag] and `cross_bit` [bit, I, tag] of the
    test-basis ones, read whole by each bit's `lp.refined_error_program`;
    the baseline leaves them None.  `diagnostics` holds the source stage's
    degenerate-bound notes; every report built from the source lists them.
    """

    analysis: str
    params: passive.PassiveParams
    nodes: int
    node_sets: dict
    moments_bit: dict
    moments_union: dict
    probs: np.ndarray
    fids: np.ndarray
    probs_bit: np.ndarray
    fids_bit: np.ndarray
    weights: np.ndarray | None
    tag_fids: np.ndarray | None
    cross_tag: np.ndarray | None
    tag_fids_bit: np.ndarray | None
    cross_bit: np.ndarray | None
    overlap: complex
    q_weight: float
    build_s: float
    diagnostics: tuple


def _pair_fidelities(factors, kept: np.ndarray | None = None) -> np.ndarray:
    """INTENSITY_PAIRS fidelities [group, pair, n] of the states with unit-trace
    factors `factors[n]` [group, I, dim, rank], from one `factor_fidelities`
    call: one SVD for all n whose products share a shape.  Exact where both
    ends keep their whole state (everywhere when `kept` is None), the
    projection chain bound where either keeps a trace fraction
    `kept[group, I, n]` < 1 - 1e-12."""
    first, second = lp.PAIR_ENDS.T
    fids = np.stack(factor_fidelities([(f[:, first], f[:, second]) for f in factors]), axis=-1)
    if kept is None:
        return fids
    ends = kept[:, first], kept[:, second]
    for g, p, n in zip(*np.nonzero(np.minimum(*ends) < 1.0 - 1e-12)):
        fids[g, p, n] = coin.bures_chain_bound(ends[0][g, p, n], ends[1][g, p, n], fids[g, p, n])
    return fids


def _decoy_inputs(groups: list, n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon probabilities and INTENSITY_PAIRS fidelities [group, I or pair,
    n] of groups of three region moments in INTENSITIES order."""
    probs = np.array([[m.photon_probabilities()[:n_cut + 1] for m in group] for group in groups])
    factors = [np.array([[density_factor(m.normalized_block(n)) for m in group]
                         for group in groups]) for n in range(n_cut + 1)]
    kept = np.array([[[m.trace_fraction(n) for n in range(n_cut + 1)] for m in group]
                     for group in groups])
    return probs, _pair_fidelities(factors, kept)


def passive_source(config: ProtocolConfig, att_db: float,
                   nodes: int | None = None) -> PassiveSource:
    """Region quadrature and every source-only bound input at one attenuation."""
    start = time.perf_counter()
    nodes = config.quadrature_nodes if nodes is None else nodes
    n_cut = config.n_cut
    params = _passive_params(config, att_db)
    node_sets = {(bit, basis, i): passive.build_region_nodes(
                     bit, basis, i, params.geometry, params.mu_max,
                     passive.box_orders(params, bit, basis, i, nodes))
                 for basis in BASES for i in INTENSITIES for bit in BITS
                 if (bit, basis) != (1, "Z")}
    moments_bit = {key: passive.region_moments(passive.RegionSpec(*key), params, n_tail=n_cut,
                                               node_sets=[box])
                   for key, box in node_sets.items()}
    moments_bit.update({(1, "Z", i): passive.mirrored_moments(moments_bit[(0, "Z", i)])
                        for i in INTENSITIES})
    moments_union = {(basis, i): passive.combine_moments([moments_bit[(b, basis, i)]
                                                          for b in BITS])
                     for basis in BASES for i in INTENSITIES}
    probs, fids = _decoy_inputs([[moments_union[(b, i)] for i in INTENSITIES] for b in BASES],
                                n_cut)
    probs_bit, fids_bit = _decoy_inputs([[moments_bit[(a, "X", i)] for i in INTENSITIES]
                                         for a in BITS], n_cut)
    weights = tag_fids = cross_tag = tag_fids_bit = cross_bit = None
    diagnostics: list = []
    # spectra of the single-photon states: the baseline's coin overlap reads
    # those of the I0 boxes, the refined analysis those of every box
    refined = config.analysis == "refined"
    eigendata = {(a, b, i): coin.state_eigendata(moments_bit[(a, b, i)].normalized_block(1))
                 for b in BASES for i in (INTENSITIES if refined else ("I0",)) for a in BITS}
    if not refined:
        overlap = coin.purification_overlap({(a, b): eigendata[(a, b, "I0")]
                                             for a in BITS for b in BASES})
        q_weight = 1.0
    else:
        # key and opp: the two dominant eigenpairs of each box, weights [basis,
        # bit, I, tag] and vectors [basis, bit, I, dim, tag]
        weights, vectors = (np.array([[[getattr(eigendata[(a, b, i)], name)[..., :2]
                                        for i in INTENSITIES] for a in BITS] for b in BASES])
                            for name in ("weights", "vectors"))
        diagnostics.extend(
            f"{b}:{i} bit {a}: degenerate key/opp eigenvalues; ordering fixed by gauge"
            for (a, b, i), e in eigendata.items() if e.weights[0] - e.weights[1] < 1e-12)
        # the bit-averaged key and opp eigenstates of each (basis, I) as rank-2
        # factors [v_bit0, v_bit1]/sqrt(2), [tag, basis, I, dim, bit]
        factors = vectors.transpose(4, 0, 2, 3, 1) / math.sqrt(2.0)
        tag_fids = _pair_fidelities(factors)
        # the test-basis eigenvectors as rank-1 factors [tag, bit, I, dim, 1]: same
        # tag across each pair; the other bit's other tag
        test = np.moveaxis(vectors[1], -1, 0)[..., None]
        tag_fids_bit = _pair_fidelities(test)
        cross_tag, cross_bit = factor_fidelities([(factors[0], factors[1]),
                                                  (test, test[::-1, ::-1])])
        cross_bit = np.moveaxis(cross_bit, 0, -1)
        overlap = coin.bb84_pair_overlap(*vectors[:, :, 0, :, 0].reshape(4, -1))
        q_weight = 0.5 * float(weights[0, 0, 0, 0] + weights[0, 1, 0, 0])
    return PassiveSource(
        analysis=config.analysis, params=params, nodes=nodes, node_sets=node_sets,
        moments_bit=moments_bit, moments_union=moments_union, probs=probs, fids=fids,
        probs_bit=probs_bit, fids_bit=fids_bit, weights=weights, tag_fids=tag_fids,
        cross_tag=cross_tag, tag_fids_bit=tag_fids_bit, cross_bit=cross_bit, overlap=overlap,
        q_weight=q_weight, build_s=time.perf_counter() - start,
        diagnostics=tuple(diagnostics))


def _passive_estimation(config: ProtocolConfig, source: PassiveSource,
                        distance_km: float) -> _Estimation:
    """Programs and rate inputs of the passive transmitter at one distance."""
    chan = _channel(config, distance_km)
    observables = {key: channel_mod.passive_point_observables(box, key[0], key[1], chan)
                   for key, box in source.node_sets.items()}
    # the mirror swaps the Z detectors with the boxes: bit 1 reads as bit 0
    observables.update({(1, "Z", i): observables[(0, "Z", i)] for i in INTENSITIES})
    # gains of the bit-union regions, (basis, I)
    gains = np.array([[sum(source.moments_bit[(a, basis, i)].mass
                           * observables[(a, basis, i)].gain for a in BITS)
                       / source.moments_union[(basis, i)].mass for i in INTENSITIES]
                      for basis in BASES])
    n_cut = config.n_cut
    references = channel_mod.reference_yields(n_cut, chan)

    # expected bit-error probabilities [bit, n] of the I0 test-basis states
    test_states = [source.moments_bit[(a, "X", "I0")] for a in BITS]
    error_refs = channel_mod.reference_errors(
        [np.stack([m.normalized_block(n) * m.trace_fraction(n) for m in test_states])
         for n in range(n_cut + 1)], [test_states[0].bases[n] for n in range(n_cut + 1)],
        channel_mod.transmittance(chan), chan.p_dark, interfere=True)
    # gains and references [bit, a, ...] of each bit's error outcome 1 - bit for the
    # states of bit a: the error ones where a == bit, their complements otherwise
    outcome_gains = np.array([[[observables[(a, "X", i)].outcome_gain(a == bit)
                                for i in INTENSITIES] for a in BITS] for bit in BITS])
    outcome_refs = np.array([[error_refs[a] if a == bit else references - error_refs[a]
                              for a in BITS] for bit in BITS])
    # the yield programs of both bases, then each bit's error program
    if config.analysis == "refined":
        specs = [lp.refined_yield_program(
                     gains[s], source.probs[s], source.fids[s], references,
                     0.5 * (source.weights[s, 0] + source.weights[s, 1]),  # over the bits
                     source.tag_fids[s], source.cross_tag[s]) for s in range(len(BASES))]
        specs += [lp.refined_error_program(
                      bit, outcome_gains[bit], source.probs_bit, source.fids_bit,
                      outcome_refs[bit], source.weights[1], source.tag_fids_bit,
                      source.cross_bit) for bit in BITS]
    else:  # in one pass
        specs = lp.decoy_programs(
            np.concatenate([gains, outcome_gains[BITS, BITS]]),
            np.concatenate([source.probs, source.probs_bit]),
            np.concatenate([source.fids, source.fids_bit]),
            np.array([references, references, *outcome_refs[BITS, BITS]]),
            ("min", "min", "max", "max"))

    key_union = source.moments_union[("Z", "I0")]
    p_region = key_union.mass
    gain_key = float(gains[0, 0])
    eq_key = sum(source.moments_bit[(a, "Z", "I0")].mass
                 * observables[(a, "Z", "I0")].error_gain for a in BITS) / p_region
    details = {
        "region_mass": {f"{b}:{i}": source.moments_union[(b, i)].mass
                        for b in BASES for i in INTENSITIES},
        "gains": {f"{b}:{i}": g for b, row in zip(BASES, gains.tolist())
                  for i, g in zip(INTENSITIES, row)},
        "photon_probabilities_key": source.probs[0, 0].tolist(),
        "omega": source.params.omega,
    }
    return _Estimation(
        yield_specs=dict(zip(BASES, specs[:2])),
        error_specs={f"bit-{bit} error": spec for bit, spec in zip(BITS, specs[2:])},
        overlap=source.overlap,
        p_region=p_region, p1=float(key_union.photon_probabilities()[1]),
        q_weight=source.q_weight, gain_key=gain_key,
        error_key=eq_key / gain_key if gain_key > 0 else 0.0, sift=config.p_zb,
        nodes=source.nodes, details=details, diagnostics=source.diagnostics)


# ---------------------------------------------------------------------------
# Injection-locked inputs: analytic states, no quadrature
# ---------------------------------------------------------------------------

def _oil_estimation(config: ProtocolConfig, distance_km: float,
                    att_db: float) -> _Estimation:
    """Programs and rate inputs of the injection-locked transmitter at one
    grid point: decoys in the test basis only, whose yield bound serves
    the key basis too."""
    omega = 10.0 ** (-att_db / 10.0) * config.mu_in / 2.0
    params = oil.params_for_intensities(config.mu_in, config.mu_i1, config.mu_i2,
                                        omega, n_cut=config.n_cut)
    n_cut = config.n_cut
    chan = _channel(config, distance_km)
    references = channel_mod.reference_yields(n_cut, chan)

    intensities = {i: params.intensity(i) for i in INTENSITIES}
    # the test basis is read by time of arrival: both bits see the same
    # observables, with no signal intensity in the wrong bin
    observables = [channel_mod.oil_point_observables(intensities[i], 0.0, "X", 0, chan)
                   for i in INTENSITIES]
    gains = [obs.gain for obs in observables]
    error_gains = np.array([obs.error_gain for obs in observables])
    probs = np.array([oil.photon_probabilities(intensities[i], omega, n_cut)
                      for i in INTENSITIES])
    # unit factors [group, I, dim, 2] per sector: the test-basis bit mixtures, then
    # each bit's setting beside a zero column, which adds only a zero singular value.
    # The sectors share one array, and both norms of a sector reduce its own
    # |t|^2 as `np.linalg.norm` does
    sectors = oil.emission_sectors(params)
    dims = [len(sector) for sector in sectors]
    spans = [slice(end - dim, end) for dim, end in zip(dims, np.cumsum(dims))]
    t = np.concatenate(sectors)[:, 1:].transpose(1, 0, 2)
    power = (t.conj() * t).real
    mixture = np.sqrt([np.add.reduce(power[:, s], axis=(1, 2)) for s in spans])  # [n, I]
    pure = np.sqrt([np.add.reduce(power[:, s], axis=1) for s in spans])  # [n, I, bit]
    factor = np.empty((3, *t.shape), dtype=complex)
    np.divide(t, np.repeat(mixture.T, dims, axis=1)[..., None], out=factor[0])
    np.multiply(t / np.repeat(pure.transpose(1, 0, 2), dims, axis=1), np.eye(2)[:, None, None],
                out=factor[1:])
    factors = [factor[:, :, s] for s in spans]
    fids = _pair_fidelities(factors)
    # each bit's error references, read by time of arrival, from its unit I0 setting v [bit, dim]
    error_refs = channel_mod.reference_errors(
        [v[:, :, None] * v.conj()[:, None, :] for v in (f[[1, 2], 0, :, [0, 1]] for f in factors)],
        [oil.oil_basis(n) for n in range(n_cut + 1)], channel_mod.transmittance(chan),
        chan.p_dark, interfere=False)
    # the yield program of the mixtures and each bit's error program, in one pass
    yield_spec, *error_specs = lp.decoy_programs(
        np.array([gains, error_gains, error_gains]), np.array([probs] * 3), fids,
        np.array([references, *error_refs]), ("min", "max", "max"))

    key_setting = oil.setting_phases(0, "Z", "I0", params)
    key_obs = channel_mod.oil_point_observables(
        intensities["I0"], 0.5 * (key_setting.phi12 + key_setting.phi23), "Z", 0, chan)
    # Two identities the tests check: the key and test single-photon mixtures
    # coincide, so the test yield bound is the key one; with aligning purification
    # phases the bit-entangled key and test states coincide too: the overlap is 1.
    return _Estimation(
        yield_specs={"X": yield_spec},
        error_specs={f"bit-{a} error": spec for a, spec in zip(BITS, error_specs)},
        overlap=1.0, p_region=1.0,
        p1=float(oil.photon_probabilities(intensities["I0"], omega, 1)[1]), q_weight=1.0,
        gain_key=key_obs.gain, error_key=key_obs.error_rate, sift=config.p_zazb, nodes=0,
        details={"intensities": intensities, "omega": omega,
                 "gains": dict(zip(INTENSITIES, gains))})


# ---------------------------------------------------------------------------
# The estimation chain, shared by both transmitters
# ---------------------------------------------------------------------------

def _estimate(config: ProtocolConfig, distance_km: float, att_db: float,
              est: _Estimation, starts: dict | None = None) -> KeyRateReport:
    """Solve the programs (warm from `starts`, see `_solve_or_raise`), bound
    the phase error through the coin overlap and evaluate the rate."""
    lp_log: list = []
    start = time.perf_counter()
    y_lower = {basis: min(1.0, max(0.0, _solve_or_raise(spec, f"{basis} yield", lp_log, starts)))
               for basis, spec in est.yield_specs.items()}
    gammas = [min(1.0, max(0.0, _solve_or_raise(spec, label, lp_log, starts)))
              for label, spec in est.error_specs.items()]
    provenance = _provenance(config, lp_log, est.nodes, time.perf_counter() - start)
    gamma_key = sum(gammas) / len(gammas)
    y_test = y_lower["X"]
    if y_test <= 1e-12:
        return _no_key_report(config, distance_km, att_db,
                              "zero-rate: vanishing test-basis yield bound", provenance, est)
    e_x_upper = min(1.0, gamma_key / y_test)
    y_key = y_lower.get("Z", y_test)
    y_coin = 0.5 * (y_key + y_test)
    if y_coin <= 0.0:
        return _no_key_report(config, distance_km, att_db, "zero-rate: vanishing coin yield",
                              provenance, est)
    diagnostics = list(est.diagnostics)
    f_prime = coin.coin_adjusted_fidelity(float(est.overlap.real), y_coin)
    if f_prime == 0.0:
        diagnostics.append("coin imbalance exceeds yield; phase-error bound degenerates to 1")
    e_ph_upper = coin.phase_error_upper(e_x_upper, f_prime)
    privacy = 1.0 - binary_entropy(min(0.5, e_ph_upper))
    raw = est.sift * est.p_region * (est.p1 * est.q_weight * y_key * privacy
                                     - est.gain_key * config.f_ec * binary_entropy(est.error_key))
    details = {"y_lower": {"Z": y_key, "X": y_test}, "gamma_key_upper": gamma_key,
               "overlap_real": float(est.overlap.real), **est.details,
               "diagnostics": diagnostics}
    return KeyRateReport(
        transmitter=config.transmitter, distance_km=distance_km, att_db=att_db,
        analysis=config.analysis, rate=max(0.0, raw), rate_raw=raw, y1_lower=y_key,
        e_ph_upper=e_ph_upper, e_x_upper=e_x_upper, f_prime=f_prime,
        gain_key=est.gain_key, error_key=est.error_key, p_region_key=est.p_region,
        p1_given_region=est.p1, q_key_weight=est.q_weight, details=details,
        provenance=provenance)


def _provenance(config: ProtocolConfig, lp_log: list, nodes: int, solve_s: float) -> dict:
    """Config hash, grid, one record per solved program (label, status,
    iterations, rows, columns and start, see `lp.solve`), their summed
    `lp_iterations` (a CSV column) and their time, `timings["solve_s"]`."""
    return {"config_hash": config_hash(config), "nodes": nodes,
            "lp_iterations": sum(r["iterations"] for r in lp_log), "lp": lp_log,
            "timings": {"solve_s": solve_s}}


def _no_key_report(config: ProtocolConfig, distance_km: float, att_db: float, status: str,
                   provenance: dict, est: _Estimation | None = None) -> KeyRateReport:
    """Report of a point without a key: every bound at its no-key value.  A
    zero-rate point keeps the key-basis inputs and diagnostics of its
    estimation `est`; a failed point has none and reports zeros."""
    gain, p_region, p1, q_weight = ((est.gain_key, est.p_region, est.p1, est.q_weight)
                                    if est else (0.0, 0.0, 0.0, 0.0))
    return KeyRateReport(
        transmitter=config.transmitter, distance_km=distance_km, att_db=att_db,
        analysis=config.analysis, rate=0.0, rate_raw=0.0, y1_lower=0.0, e_ph_upper=0.5,
        e_x_upper=1.0, f_prime=0.0, gain_key=gain, error_key=0.0, p_region_key=p_region,
        p1_given_region=p1, q_key_weight=q_weight, status=status,
        details={"diagnostics": list(est.diagnostics) if est else []}, provenance=provenance)


def key_rate(config: ProtocolConfig, distance_km: float, att_db: float,
             nodes: int | None = None, source: PassiveSource | None = None,
             starts: dict | None = None) -> KeyRateReport:
    """One grid point, with the stage timings in `provenance["timings"]`:
    `channel_s` from the input builder to the report, of which `inputs_s` in
    the builder and `solve_s` in the programs, and, passive, the source's
    `source_s` and whether it was `source_shared`.

    Passive: `nodes` overrides the config's quadrature grid, and `source`,
    from `passive_source` with the same config, attenuation and grid,
    skips the quadrature.  The injection-locked transmitter uses neither.
    `starts` warm-starts the programs (see `_solve_or_raise`).
    """
    timings = {}
    if config.transmitter == "passive":
        nodes = config.quadrature_nodes if nodes is None else nodes
        shared = source is not None
        if source is None:
            source = passive_source(config, att_db, nodes)
        elif (source.analysis, source.params, source.nodes) != (
                config.analysis, _passive_params(config, att_db), nodes):
            raise ValueError("passive source was built for another configuration, "
                             "attenuation or grid")
        timings = {"source_s": source.build_s, "source_shared": shared}
    elif source is not None:
        raise ValueError("a passive source cannot serve the injection-locked transmitter")
    start = time.perf_counter()
    est = (_oil_estimation(config, distance_km, att_db) if source is None
           else _passive_estimation(config, source, distance_km))
    timings["inputs_s"] = time.perf_counter() - start
    report = _estimate(config, distance_km, att_db, est, starts)
    timings["channel_s"] = time.perf_counter() - start
    report.provenance["timings"] = {**timings, **report.provenance["timings"]}
    return report


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
    The search runs on a coarse quadrature grid, each probe's programs warm
    from the final bases of the previous probe's; the winning parameters are
    re-evaluated, cold, at the production grid for the returned report.  The
    injection-locked transmitter has no grid, so its winning probe's report
    is returned as it is.
    """
    settings = config.optimizer
    probes, bases = {}, {}  # parameters -> report; program label -> its latest final basis

    def probe(cfg: ProtocolConfig) -> KeyRateReport | None:
        key = (round(cfg.mu_max, 12), round(cfg.delta_theta_z, 12),
               round(cfg.mu_in, 12), round(cfg.mu_i1, 12))
        if key not in probes:
            try:  # None, which scores zero: a decoy above the signal, or a failure
                probes[key] = None if _no_oil_source(cfg) else key_rate(
                    cfg, distance_km, att_db, settings.search_nodes, starts=bases)
            except FAILURES:
                probes[key] = None
        return probes[key]

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
                lambda x: getattr(probe(dataclasses.replace(best, **{name: x})), "rate", 0.0),
                lo, hi, settings.iterations)
            best = dataclasses.replace(best, **{name: value})
    oil_winner = probe(best) if config.transmitter == "oil" else None
    report = oil_winner or key_rate(best, distance_km, att_db)
    if report.rate <= 0.0 and report.status == "ok":
        report.status = "no positive rate over the search grid"
    report.details["optimized"] = {name: getattr(best, name) for name in (
        "mu_max", "delta_theta_z", "mu_in", "mu_i1")}
    return best, report


def sweep(config: ProtocolConfig, tolerate_failures: bool = True) -> list[KeyRateReport]:
    """`key_rate` at every (distance, attenuation) grid point, in grid order.

    The passive source is built once per attenuation, on first use, and
    serves every distance; it lives for this call only.  With
    `tolerate_failures` a point whose estimation fails gets a `failed:`
    report (a source that cannot be built fails every point at its
    attenuation); otherwise the first failure propagates.
    """
    sources: dict = {}  # attenuation -> passive source, or the failure building it raised
    reports = []
    for distance in config.distances_km:
        for att in config.att_db:
            try:
                if config.transmitter == "passive" and att not in sources:
                    try:
                        sources[att] = passive_source(config, att)
                    except FAILURES as exc:
                        sources[att] = exc
                if isinstance(sources.get(att), Exception):
                    raise sources[att]
                reports.append(key_rate(config, distance, att, source=sources.get(att)))
            except FAILURES as exc:
                if not tolerate_failures:
                    raise
                reports.append(_no_key_report(
                    config, distance, att, f"failed: {exc}",
                    {"config_hash": config_hash(config), "lp": getattr(exc, "lp_log", [])}))
    return reports


def reports_to_csv(reports: list[KeyRateReport]) -> str:
    lines = [",".join(KeyRateReport.CSV_FIELDS)]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"
