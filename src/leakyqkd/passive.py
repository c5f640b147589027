"""Post-selected states of the passive time-bin transmitter.

Each round is driven by four uniformly random optical phases.  Interfering
consecutive pulses maps them to classical target variables: a polar angle
theta, a relative phase phi between the early (e) and late (l) time bins,
and a total intensity mu.  An internal measurement post-selects boxes in
(theta, phi, mu) space that define the bit, basis and intensity of the
round.  A blocking modulator with finite extinction leaves three weak
leakage pulses (modes 1, 3, 5) whose amplitudes are deterministic
functions of the same phases, with intensity scale omega.

Conditioned on a target point there are four equally likely phase
assignments (two sign choices per time bin), and after averaging the
common optical phase the emitted state decomposes into photon-number
blocks: each block is the n-photon sector of a product coherent-state
projector over the five modes (e, l, 1, 3, 5).  Region states are
averages of those blocks over a post-selection box, evaluated here by
quadrature in the raw phase differences, where the density is uniform
(see `build_region_nodes`), or by a Monte-Carlo oracle that samples the
raw phases.

The quadrature evaluates two of the four branches.  Flipping both signs
and phi, (s_e, s_l, phi) -> (-s_e, -s_l, -phi), conjugates every
coherent amplitude and leaves the leakage intensity unchanged.  Every
quadrature grid is symmetric under phi -> -phi (mod 2 pi), so summed
over the nodes the branch (-1, s) gives the complex conjugate of the
branch (+1, -s): the four-branch average is the real part of twice the
(+1, +1) and (+1, -1) sum, and the region blocks are real symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .fock import (NPhotonBasis, basis_index, coherent_sectors, enumerate_basis,
                   leak_truncated_subbasis)

TWO_PI = 2.0 * math.pi

BITS = (0, 1)
BASES = ("Z", "X")
INTENSITIES = ("I0", "I1", "I2")
BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

MODE_COUNT = 5
LEAK_MODES = frozenset({2, 3, 4})

DEFAULT_NODES = (20, 20, 20)
MIN_NODES = 4
# error bound, per unit of window, that `box_orders` sizes the b and phi rules to
ORDER_TOL = 1e-17
# resolution, in steps per turn, at which node phases are matched to their mirror
PHASE_STEPS = 2 ** 32
_WORK: dict = {}  # `_work`'s buffers, one process-wide set: one `region_moments` at a time
_WORK_SHAPES: list = [None]  # the (bases, chunk) of the call `_WORK` was last sized by


class EmptyRegionError(ValueError):
    """Raised when a post-selection region has zero probability mass."""


@lru_cache(maxsize=None)
def passive_basis(n: int, cut: int | None = None) -> NPhotonBasis:
    """Leakage-sorted n-photon basis over modes (e, l, 1, 3, 5) with at most
    `cut` leakage photons (None: all): one object per (n, cut), so that the
    caches keyed on a basis hit for every source."""
    if cut is None:
        return enumerate_basis(n, MODE_COUNT, LEAK_MODES)
    return passive_basis(n) if cut >= n else leak_truncated_subbasis(passive_basis(n), cut)


@dataclass(frozen=True)
class RegionGeometry:
    """Angular windows and intensity thresholds of the post-selection boxes."""

    delta_theta_z: float
    delta_theta_x: float = 0.11
    delta_phi_x: float = 0.09
    t1: float = 0.05
    t2: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.delta_theta_z < math.pi / 2:
            raise ValueError(f"delta_theta_z={self.delta_theta_z} outside (0, pi/2)")
        if not 0.0 < self.delta_theta_x < math.pi / 2:
            raise ValueError(f"delta_theta_x={self.delta_theta_x} outside (0, pi/2)")
        if not 0.0 < self.delta_phi_x < math.pi:
            raise ValueError(f"delta_phi_x={self.delta_phi_x} outside (0, pi)")
        if not 0.0 < self.t2 < self.t1 < 2.0:
            raise ValueError(f"need 0 < t2 < t1 < 2, got t1={self.t1}, t2={self.t2}")


def _default_leak_cuts() -> dict:
    # full matrices for n <= 2, single leakage photon kept for n in {3, 4}
    return {3: 1, 4: 1}


@dataclass(frozen=True)
class PassiveParams:
    """Source parameters: peak intensity, leakage scale, geometry, cutoffs."""

    mu_max: float
    omega: float
    geometry: RegionGeometry
    n_cut: int = 4
    leak_cuts: dict = field(default_factory=_default_leak_cuts)

    def __post_init__(self):
        if self.mu_max <= 0.0:
            raise ValueError(f"mu_max={self.mu_max} must be positive")
        if not 0.0 <= self.omega <= self.mu_max:
            raise ValueError(f"omega={self.omega} outside [0, mu_max]")
        if self.n_cut < 1:
            raise ValueError("n_cut must be >= 1")

    def block_basis(self, n: int) -> NPhotonBasis:
        """The basis of the n-photon block: at most `leak_cuts[n]` leakage
        photons, or all of them for an n without a cut."""
        return passive_basis(n, self.leak_cuts.get(n))


@dataclass(frozen=True)
class RegionSpec:
    """One post-selection region: bit (None = both), basis, intensity label."""

    bit: int | None
    basis: str
    intensity: str

    def __post_init__(self):
        if self.bit not in (None, 0, 1):
            raise ValueError(f"bit must be 0, 1 or None, got {self.bit}")
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}")
        if self.intensity not in INTENSITIES:
            raise ValueError(f"intensity must be one of {INTENSITIES}")


@dataclass(frozen=True)
class TargetPoint:
    """Classical post-selection outcome (theta, phi, mu) of one round."""

    theta: float
    phi: float
    mu: float
    phi_e: float = 0.0

    @property
    def mu_e(self) -> float:
        return self.mu * math.cos(self.theta / 2.0) ** 2

    @property
    def mu_l(self) -> float:
        return self.mu * math.sin(self.theta / 2.0) ** 2


def wrap_phase(phi):
    """Wrap angles to (-pi, pi]."""
    out = np.mod(np.asarray(phi, dtype=float) + math.pi, TWO_PI) - math.pi
    out = np.where(out == -math.pi, math.pi, out)
    return float(out) if np.isscalar(phi) or out.ndim == 0 else out


def halfway_shift(delta):
    """0 when |delta| <= pi, pi otherwise: corrects the mean-phase branch.

    The mean of two unit phasors e^{i a}, e^{i b} points along
    (a + b)/2 only when |a - b| <= pi; beyond that it flips sign.
    """
    return np.where(np.abs(delta) <= math.pi, 0.0, math.pi)


def target_from_phases(phi1, phi2, phi3, phi4, mu_max) -> TargetPoint:
    """Map the four raw pulse phases to the target variables."""
    mu_e = mu_max * (1.0 + math.cos(phi1 - phi2)) / 2.0
    mu_l = mu_max * (1.0 + math.cos(phi3 - phi4)) / 2.0
    mu = mu_e + mu_l
    if mu > 0.0:
        theta = 2.0 * math.acos(min(1.0, math.sqrt(mu_e / mu)))
    else:
        theta = math.pi / 2.0  # measure-zero corner, any value works
    phi_e = (phi1 + phi2) / 2.0 + float(halfway_shift(phi1 - phi2))
    phi_l = (phi3 + phi4) / 2.0 + float(halfway_shift(phi3 - phi4))
    phi = float(wrap_phase(phi_l - phi_e))
    return TargetPoint(theta=theta, phi=phi, mu=mu, phi_e=float(wrap_phase(phi_e)))


def sample_target_variables(rng, count: int, mu_max: float):
    """`count` uniform draws ph (4, count) of the four raw pulse phases,
    mapped as in `target_from_phases`.  Returns the target variables theta,
    phi, mu, then the bin intensities mu_e, mu_l, the unwrapped early-bin
    phase phi_e and ph."""
    ph = rng.uniform(0.0, TWO_PI, size=(4, count))
    mu_e = mu_max * (1.0 + np.cos(ph[0] - ph[1])) / 2.0
    mu_l = mu_max * (1.0 + np.cos(ph[2] - ph[3])) / 2.0
    mu = mu_e + mu_l
    safe = np.where(mu > 0.0, mu, 1.0)
    theta = 2.0 * np.arccos(np.sqrt(np.clip(mu_e / safe, 0.0, 1.0)))
    phi_e = 0.5 * (ph[0] + ph[1]) + halfway_shift(ph[0] - ph[1])
    phi_l = 0.5 * (ph[2] + ph[3]) + halfway_shift(ph[2] - ph[3])
    phi = wrap_phase(phi_l - phi_e)
    return theta, phi, mu, mu_e, mu_l, phi_e, ph


def _half_angles(point: TargetPoint, mu_max: float) -> tuple[float, float]:
    for part, name in ((point.mu_e, "mu_e"), (point.mu_l, "mu_l")):
        if part > mu_max * (1.0 + 1e-12):
            raise ValueError(f"{name}={part} exceeds mu_max={mu_max}")
    arg_e = min(1.0, max(-1.0, 2.0 * point.mu_e / mu_max - 1.0))
    arg_l = min(1.0, max(-1.0, 2.0 * point.mu_l / mu_max - 1.0))
    return 0.5 * math.acos(arg_e), 0.5 * math.acos(arg_l)


def invert_phases(point: TargetPoint, phi_e: float, signs: tuple[int, int],
                  mu_max: float) -> tuple[float, float, float, float]:
    """One of the four raw-phase assignments consistent with a target point."""
    s_e, s_l = signs
    if s_e not in (1, -1) or s_l not in (1, -1):
        raise ValueError("branch signs must be +1 or -1")
    half_e, half_l = _half_angles(point, mu_max)
    phi1 = phi_e + s_e * half_e
    phi2 = phi_e - s_e * half_e
    phi3 = phi_e + point.phi + s_l * half_l
    phi4 = phi_e + point.phi - s_l * half_l
    return phi1, phi2, phi3, phi4


def _classify_arrays(theta, phi, mu, geometry, mu_max):
    """Bit, basis (0: Z, 1: X) and intensity codes, -1 outside every box; an X
    window wins where it overlaps a Z one, and bit 1 where both X windows do."""
    g = geometry
    phi_w = np.abs(wrap_phase(phi))
    in_x_theta = np.abs(theta - math.pi / 2.0) < g.delta_theta_x
    windows = [in_x_theta & (math.pi - phi_w < g.delta_phi_x), in_x_theta & (phi_w < g.delta_phi_x),
               theta > math.pi - g.delta_theta_z, theta < g.delta_theta_z]
    levels = [mu < g.t2 * mu_max, mu < g.t1 * mu_max, mu < 2.0 * mu_max]
    return tuple(np.select(conditions, codes, -1).astype(np.int8) for conditions, codes in (
        (windows, [1, 0, 1, 0]), (windows, [1, 1, 0, 0]), (levels, [2, 1, 0])))


# ---------------------------------------------------------------------------
# Leakage amplitudes
# ---------------------------------------------------------------------------

def _branch_amplitudes(theta, phi, mu, s_e, s_l, omega, mu_max, out=None):
    """Coherent amplitudes of (e, l, 1, 3, 5) for the sign branches s_e, s_l.

    Returns (amplitudes (5, *shape), leakage intensity mu_L (shape)), into
    `out` if given, for the nodes broadcast against s_l.  The common optical
    phase is factored out; only relative phases matter after the phase average.
    """
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    half_e = 0.5 * np.arccos(np.clip(2.0 * mu * c2 / mu_max - 1.0, -1.0, 1.0))
    half_l = 0.5 * np.arccos(np.clip(2.0 * mu * s2 / mu_max - 1.0, -1.0, 1.0))
    c_off = s_e * half_e
    s_off = s_l * half_l
    shape = np.broadcast_shapes(np.shape(theta), np.shape(s_l))
    amp = np.empty((MODE_COUNT, *shape), complex) if out is None else out
    amp[0] = np.sqrt(mu * c2)
    amp[1] = np.sqrt(mu * s2) * np.exp(1j * phi)
    amp[2] = math.sqrt(omega / 2.0) * np.exp(1j * c_off)
    amp[3] = 0.5 * math.sqrt(omega) * (np.exp(-1j * c_off) + np.exp(1j * (phi + s_off)))
    amp[4] = math.sqrt(omega / 2.0) * np.exp(1j * (phi - s_off))
    mu_leak = omega + np.abs(amp[3]) ** 2
    return amp, mu_leak


# ---------------------------------------------------------------------------
# Region quadrature
# ---------------------------------------------------------------------------

def _ratio_window(bit: int, basis: str, g: RegionGeometry) -> tuple[float, float]:
    """The polar-angle window as a window on tan^2(theta/2) = mu_l / mu_e."""
    if basis == "Z":
        edge = math.tan(g.delta_theta_z / 2.0) ** 2
        return (0.0, edge) if bit == 0 else (1.0 / edge, math.inf)
    return (math.tan(math.pi / 4.0 - g.delta_theta_x / 2.0) ** 2,
            math.tan(math.pi / 4.0 + g.delta_theta_x / 2.0) ** 2)


def _mu_window(intensity: str, g: RegionGeometry) -> tuple[float, float]:
    return {"I0": (g.t1, 2.0), "I1": (g.t2, g.t1), "I2": (0.0, g.t2)}[intensity]


@dataclass(frozen=True)
class RegionNodes:
    """Flattened quadrature nodes and absolute weights for one region box.

    Weights include the classical density and the quadrature weights, so
    sum(weight) is the region probability and expectations are plain
    weighted means.
    """

    theta: np.ndarray
    phi: np.ndarray
    mu: np.ndarray
    weight: np.ndarray

    @property
    def mass(self) -> float:
        return float(np.sum(self.weight))


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, lo, hi):
    """Gauss-Legendre nodes and weights of order n on [lo, hi]; array
    limits give one row of nodes per interval."""
    x, w = _legendre_rule(n)
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def _a_axis(bit: int, basis: str, intensity: str, geometry: RegionGeometry, n_a: int):
    """The a axis of one box (see `build_region_nodes`), as arrays [panel, node]:
    u = cos^2(a/2), the weight of each a node, and the b window (b_lo, b_hi) at each."""
    r_lo, r_hi = _ratio_window(bit, basis, geometry)
    t_lo, t_hi = _mu_window(intensity, geometry)

    def v_limits(u):
        return (np.maximum(np.maximum(0.0, r_lo * u), t_lo - u),
                np.minimum(np.minimum(1.0, r_hi * u), t_hi - u))

    def form(a0, a1):  # the active term of each limit, and the sign of v_hi - v_lo
        u = math.cos(0.25 * (a0 + a1)) ** 2
        lo, hi = (0.0, r_lo * u, t_lo - u), (1.0, r_hi * u, t_hi - u)
        return int(np.argmax(lo)), int(np.argmin(hi)), max(lo) < min(hi)

    kinks = {t / (1.0 + r) for t in (t_lo, t_hi) for r in (r_lo, r_hi)}
    kinks |= {t_lo, t_hi, t_lo - 1.0, t_hi - 1.0} | {1.0 / r for r in (r_lo, r_hi) if r > 0.0}
    edges = [0.0] + sorted({2.0 * math.acos(math.sqrt(u)) for u in kinks if 0.0 < u < 1.0})
    edges.append(math.pi)
    forms = [form(a0, a1) for a0, a1 in zip(edges[:-1], edges[1:])]
    # a candidate edge stays only where the forms on its two sides differ
    cut = [k for k, f in enumerate(forms) if k == 0 or f != forms[k - 1]]
    ends = [edges[k] for k in cut[1:]] + [math.pi]
    kept = np.array([(edges[k], end) for k, end in zip(cut, ends) if forms[k][2]]).reshape(-1, 2, 1)
    if not kept.size:
        raise EmptyRegionError(f"region ({bit}, {basis}, {intensity}) has empty support")
    a0, a1 = kept[:, 0], kept[:, 1]
    t, w_t = _gauss_legendre(n_a, 0.0, 1.0)
    u = np.cos(0.5 * (a0 + 0.5 * (a1 - a0) * (1.0 - np.cos(math.pi * t)))) ** 2
    v_lo, v_hi = v_limits(u)
    return (u, 0.5 * math.pi * (a1 - a0) * np.sin(math.pi * t) * w_t,
            2.0 * np.arccos(np.sqrt(v_hi)), 2.0 * np.arccos(np.sqrt(v_lo)))


def build_region_nodes(bit: int, basis: str, intensity: str, geometry: RegionGeometry,
                       mu_max: float, nodes=DEFAULT_NODES) -> RegionNodes:
    """Quadrature nodes for one (bit, basis, intensity) box, `nodes` = (n_a, n_phi, n_b),
    n_b one order for every a panel or a tuple of one per panel.

    The density is uniform in a = phi1 - phi2, b = phi3 - phi4 and phi.
    With u = cos^2(a/2) = mu_e/mu_max and v = cos^2(b/2) = mu_l/mu_max the
    box is r_lo <= v/u <= r_hi (r = tan^2(theta/2)) and t_lo <= u + v < t_hi,
    so at fixed a, b spans [2 arccos sqrt(v_hi), 2 arccos sqrt(v_lo)] with
    v_lo = max(0, r_lo u, t_lo - u) and v_hi = min(1, r_hi u, t_hi - u).
    The signs of a and b are the branches `region_moments` folds, so only
    a, b >= 0 is integrated:

    - a: panels between the points where the active term of v_lo or of
      v_hi, or the sign of v_hi - v_lo, switches (among u = t/(1+r), t,
      t - 1, 1/r), each with Gauss-Legendre of order n_a in t after
      a = a0 + (a1 - a0)(1 - cos pi t)/2, which smooths the square-root
      behaviour of arccos(sqrt(v)) at the panel edges;
    - b: Gauss-Legendre of the panel's order n_b;
    - phi: Gauss-Legendre of order n_phi on the X windows, the n_phi-point
      trapezoidal rule on the full circle of the Z boxes.

    The pipeline takes the orders from `box_orders`: n_a is its `nodes`,
    the panels' n_b and the X boxes' n_phi follow from their windows
    (19,560 nodes in the nine boxes a default source at 120 dB integrates).

    A node weighs w_a w_b w_phi / (2 pi^3), the density (2 pi)^-3 times
    the four branches, so the weights sum to the region probability.
    """
    n_a, n_p, n_b = nodes
    if min(n_a, n_p, *np.ravel(n_b)) < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes per axis, got {nodes}")
    u, w_a, b_lo, b_hi = _a_axis(bit, basis, intensity, geometry, n_a)
    cols = []  # (theta, mu, weight) of each a panel, a-major; one n_b per panel or for all
    for n, u_p, w_p, lo, hi in zip(np.broadcast_to(n_b, len(u)), u[..., None], w_a[..., None],
                                   b_lo, b_hi):
        b, w_b = _gauss_legendre(int(n), lo, hi)
        v = np.cos(0.5 * b) ** 2
        cols.append(((2.0 * np.arctan2(np.sqrt(v), np.sqrt(u_p))).ravel(),
                     (mu_max * (u_p + v)).ravel(), (w_p * w_b).ravel() / (2.0 * math.pi ** 3)))
    theta_col, mu_col, w_col = map(np.concatenate, zip(*cols))

    if basis == "Z":
        phis = -math.pi + (np.arange(n_p) + 0.5) * (TWO_PI / n_p)
        w_phi = np.full(n_p, TWO_PI / n_p)
    else:
        # the bit-1 window sits across the +-pi branch cut; evaluate it unwrapped
        centre = math.pi * bit
        phis, w_phi = _gauss_legendre(n_p, centre - geometry.delta_phi_x,
                                      centre + geometry.delta_phi_x)
    # tile over the phi axis (density is phi-uniform; states are not)
    return RegionNodes(theta=np.tile(theta_col, n_p), phi=np.repeat(phis, theta_col.size),
                       mu=np.tile(mu_col, n_p), weight=(w_phi[:, None] * w_col).ravel())


def _legendre_order(degree: int, x: float, half_width: float, cap: int) -> int:
    """Smallest Gauss-Legendre order in [MIN_NODES, cap] for a window of
    half-width h and an integrand sum_k c_k e^{i f_k t} with |c_k| <= x^k / k!
    at frequencies f_k = degree + k.

    On e^{i f t} the n-point rule errs by at most
    2h (2h f)^(2n) (n!)^4 / ((2n + 1) ((2n)!)^3) <= 2h * 2 (f h / 2)^(2n) / (2n)!
    (with C(2n, n) >= 4^n / sqrt(4n)); the order is the first whose sum of
    these over the terms, per unit of window, is at most ORDER_TOL.
    """
    coeffs = [1.0]
    while coeffs[-1] > 1e-30:
        coeffs.append(coeffs[-1] * x / len(coeffs))
    for n in range(MIN_NODES, cap):
        log_scale = math.lgamma(2 * n + 1) - math.log(2.0)
        bound = sum(c * math.exp(2 * n * math.log(0.5 * (degree + k) * half_width) - log_scale)
                    for k, c in enumerate(coeffs))
        if bound <= ORDER_TOL:
            return n
    return cap


def box_orders(params: PassiveParams, bit: int, basis: str, intensity: str,
               nodes: int) -> tuple[int, int, tuple]:
    """Quadrature orders (n_a, n_phi, n_b) of one box for `build_region_nodes`,
    n_b a tuple of one order per a panel.

    n_a = `nodes`.  Since half_e = a/2 and half_l = b/2 exactly, at fixed a
    every block entry is a trigonometric polynomial of degree <= n_cut in b
    and in phi (each photon contributes e^{+-i b/2} and e^{i phi} to a
    component), times the weights exp(-(mu_max/2) cos b) and
    exp(-(omega/2) cos(phi + b/2 + a/2)), whose Fourier coefficients are
    bounded by (z/2)^k / k! for z = mu_max/2, omega/2.  So each panel's n_b
    follows from its largest b half-width with x = (mu_max + omega)/4, and the X
    boxes' n_phi from the half-width delta_phi_x with x = omega/4 (see
    `_legendre_order`); both are capped at `nodes`.  The Z boxes keep the
    trapezoidal circle of `periodic_phi_nodes`.
    """
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes per axis, got {nodes}")
    _, _, b_lo, b_hi = _a_axis(bit, basis, intensity, params.geometry, nodes)
    n_b = tuple(_legendre_order(params.n_cut, (params.mu_max + params.omega) / 4.0,
                                0.5 * float(width), nodes) for width in np.max(b_hi - b_lo, 1))
    if basis == "Z":
        return nodes, periodic_phi_nodes(params), n_b
    return nodes, _legendre_order(params.n_cut, params.omega / 4.0,
                                  params.geometry.delta_phi_x, nodes), n_b


def periodic_phi_nodes(params: PassiveParams) -> int:
    """Trapezoid node count N = 2 n_cut + 1 + K for the Z boxes' phi circle.

    Block entries are trigonometric polynomials of degree <= 2 n_cut times
    exp(-(omega/2) cos(phi + c)), with Fourier coefficients
    I_k(omega/2) <= (omega/4)^k / k!; the rule is exact to degree N - 1, so
    taking K as the first k where that bound reaches 1e-17 leaves an
    aliasing error below double-precision rounding.
    """
    x = params.omega / 4.0
    k, term = 1, x
    while term > 1e-17:
        k += 1
        term *= x / k
    return 2 * params.n_cut + 1 + k


def region_nodes_for(region: RegionSpec, geometry: RegionGeometry, mu_max: float,
                     nodes=DEFAULT_NODES) -> list[RegionNodes]:
    bits = BITS if region.bit is None else (region.bit,)
    return [build_region_nodes(b, region.basis, region.intensity, geometry, mu_max, nodes)
            for b in bits]


@dataclass
class RegionMoments:
    """Raw region integrals: mass, block traces, and matrix blocks.

    blocks[n] is the integral of the sub-normalised n-photon block over
    the region (including the classical density), on bases[n]; it is
    real symmetric (see the module docstring) and stored complex; traces[m]
    is the same integral of the full m-photon trace, m = 0..len-1, which
    is exact even when blocks[n] is leakage-truncated.
    """

    mass: float
    traces: np.ndarray
    blocks: dict
    bases: dict

    def photon_probabilities(self) -> np.ndarray:
        return self.traces / self.mass

    def normalized_block(self, n: int) -> np.ndarray:
        block = self.blocks[n]
        tr = float(np.trace(block).real)
        if tr <= 0.0:
            raise EmptyRegionError(f"n={n} block has vanishing trace")
        rho = block / tr
        return (rho + rho.conj().T) / 2.0

    def trace_fraction(self, n: int) -> float:
        """Weight the truncated block keeps of the full n-photon trace."""
        return min(1.0, float(np.trace(self.blocks[n]).real) / float(self.traces[n]))


def combine_moments(parts: list[RegionMoments]) -> RegionMoments:
    """Union of disjoint regions: raw integrals add."""
    first = parts[0]
    return RegionMoments(
        mass=sum(p.mass for p in parts),
        traces=np.sum([p.traces for p in parts], axis=0),
        blocks={n: np.sum([p.blocks[n] for p in parts], axis=0) for n in first.blocks},
        bases=first.bases,
    )


def mirrored_moments(moments: RegionMoments) -> RegionMoments:
    """Z bit-1 moments from the Z bit-0 ones of the same intensity: theta -> pi - theta,
    phi -> -phi and (s_e, s_l) -> (-s_l, -s_e) map the boxes onto each other and, up
    to a global phase, the amplitudes of (e, l, 1, 3, 5) onto those of (l, e, 5, 3, 1).
    Each block becomes P M P^T, P swapping e <-> l and 1 <-> 5 in every configuration
    (leakage counts kept: truncated bases map onto themselves); mass and traces stay."""
    orders = {n: [basis_index(b, (c[1], c[0], c[4], c[3], c[2])) for c in b.configs]
              for n, b in moments.bases.items()}
    return replace(moments, blocks={n: moments.blocks[n][np.ix_(order, order)]
                                    for n, order in orders.items()})


def _work(name: str, shape: tuple) -> np.ndarray:
    """A complex array of `shape` on the buffer `_WORK[name]`, grown on demand and valid
    until the next request: chunk temporaries that stay off the allocator across calls
    of the same bases and chunk (`region_moments` drops them for others)."""
    size = math.prod(shape)
    if name not in _WORK or _WORK[name].size < size:
        _WORK[name] = np.empty(size, complex)
    return _WORK[name][:size].reshape(shape)


def region_moments(region: RegionSpec, params: PassiveParams, nodes=DEFAULT_NODES,
                   n_tail: int = 20, chunk: int = 1024,
                   node_sets: list[RegionNodes] | None = None) -> RegionMoments:
    """Quadrature of mass, photon-number traces and matrix blocks on a region.

    Only the branches (+1, +1) and (+1, -1) are evaluated: on a node set
    that is symmetric under phi -> -phi the other two contribute the
    complex conjugate, so the four-branch average is the real part of
    the two-branch sum (a ValueError rejects any other node set).  Each
    block is then one real matrix product of the float64 view of the
    components, which carry the square root of the node weight.
    """
    if node_sets is None:
        node_sets = region_nodes_for(region, params.geometry, params.mu_max, nodes)
    theta = np.concatenate([s.theta for s in node_sets])
    phi = np.concatenate([s.phi for s in node_sets])
    mu = np.concatenate([s.mu for s in node_sets])
    weight = np.concatenate([s.weight for s in node_sets])
    mass = float(np.sum(weight))
    if mass <= 0.0:
        raise EmptyRegionError(f"region {region} has zero mass")
    _require_phi_symmetric(theta, phi, mu, weight)

    n_tail = max(n_tail, params.n_cut)
    bases = [params.block_basis(n) for n in range(params.n_cut + 1)]
    if _WORK_SHAPES[0] != (bases, chunk):  # buffers of other shapes: size them afresh
        _WORK.clear()
        _WORK_SHAPES[0] = (bases, chunk)
    blocks = [np.zeros((b.dim, b.dim)) for b in bases]
    traces = np.zeros(n_tail + 1)

    for start in range(0, theta.size, chunk):
        sl = slice(start, min(start + chunk, theta.size))
        # the branches s_l = +1, -1 (s_e = +1) side by side along the node axis
        amp, mu_leak = _branch_amplitudes(
            theta[sl], phi[sl], mu[sl], 1.0, np.array([[1.0], [-1.0]]), params.omega,
            params.mu_max, _work("amp", (MODE_COUNT, 2, sl.stop - sl.start)))
        total = (mu[sl] + mu_leak).ravel()
        # 1/4 per branch, doubled for the conjugate pair
        acc = wb = (0.5 * weight[sl] * np.exp(-total.reshape(2, -1))).ravel()
        traces[0] += acc.sum()
        for m in range(1, n_tail + 1):
            acc = acc * (total / m)
            traces[m] += acc.sum()
        for block, comp in zip(blocks, coherent_sectors(amp.reshape(MODE_COUNT, -1), bases,
                                                        vacuum=np.sqrt(wb), work=_work)):
            v = comp.view(np.float64)  # Re(C W C^H) = V V^T with re/im columns
            block += v @ v.T
    return RegionMoments(mass=mass, traces=traces,
                         blocks={n: b.astype(complex) for n, b in enumerate(blocks)},
                         bases=dict(enumerate(bases)))


def _require_phi_symmetric(theta, phi, mu, weight):
    """Reject a node set that phi -> -phi (mod 2 pi) does not map onto itself.

    Phases are compared on a grid of 2**-32 turns.  The nodes at -phi
    must repeat, in the same order, the (theta, mu, weight) of the nodes
    at phi; every grid of `build_region_nodes` does.
    """
    q = np.rint(phi * (PHASE_STEPS / TWO_PI)).astype(np.int64) % PHASE_STEPS
    mirror_q = (-q) % PHASE_STEPS
    index = np.arange(q.size, dtype=np.uint64)
    # sort by phase, then by position: one packed key per node
    order = (np.sort((q.astype(np.uint64) << 32) | index) & 0xFFFFFFFF).astype(np.intp)
    mirror = (np.sort((mirror_q.astype(np.uint64) << 32) | index) & 0xFFFFFFFF).astype(np.intp)
    if not (np.array_equal(q[order], mirror_q[mirror])
            and all(np.array_equal(x[order], x[mirror]) for x in (theta, mu, weight))):
        raise ValueError("node set is not symmetric under phi -> -phi; "
                         "the two-branch quadrature needs it")


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloRegionEstimate:
    """Phase-sampled estimates of one region's n-photon block and weights.

    block_mean estimates the region-conditional mean of the sub-normalised
    block (matching region numerator / mass from quadrature), with per-entry
    standard errors of the real and imaginary parts.
    """

    n: int
    block_mean: np.ndarray
    block_se_real: np.ndarray
    block_se_imag: np.ndarray
    trace_mean: float
    trace_se: float
    region_mass: float
    mass_se: float
    accepted: int
    samples: int


def monte_carlo_region_estimate(params: PassiveParams, region: RegionSpec, n: int,
                                samples: int, seed: int,
                                chunk: int = 200_000) -> MonteCarloRegionEstimate:
    """Estimate region quantities by sampling the raw phases directly.

    Independent of the quadrature path: the leakage amplitudes come from
    the sampled phases themselves, not from the sign-branch formulas.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for meaningful errors")
    rng = np.random.default_rng(seed)
    basis = params.block_basis(n)
    dim = basis.dim
    root_half = math.sqrt(params.omega / 2.0)
    half_root = 0.5 * math.sqrt(params.omega)

    sum_e = np.zeros((dim, dim), dtype=complex)
    sum_e2 = np.zeros((dim, dim), dtype=complex)
    sum_abs2 = np.zeros((dim, dim))
    sum_t = 0.0
    sum_t2 = 0.0
    accepted = 0

    want_bit = -1 if region.bit is None else region.bit
    want_basis = BASES.index(region.basis)
    want_int = INTENSITIES.index(region.intensity)

    done = 0
    while done < samples:
        count = min(chunk, samples - done)
        done += count
        theta, phi, mu, mu_e, mu_l, phi_e, ph = sample_target_variables(rng, count,
                                                                        params.mu_max)
        bit, basis_code, intensity = _classify_arrays(theta, phi, mu,
                                                      params.geometry, params.mu_max)
        mask = (basis_code == want_basis) & (intensity == want_int)
        if want_bit >= 0:
            mask &= bit == want_bit
        else:
            mask &= bit >= 0
        m = int(np.count_nonzero(mask))
        if m == 0:
            continue
        accepted += m
        amp = np.empty((MODE_COUNT, m), dtype=complex)
        amp[0] = np.sqrt(mu_e[mask])
        amp[1] = np.sqrt(mu_l[mask]) * np.exp(1j * phi[mask])
        rot = np.exp(-1j * phi_e[mask])
        amp[2] = root_half * np.exp(1j * ph[0][mask]) * rot
        amp[3] = half_root * (np.exp(1j * ph[1][mask]) + np.exp(1j * ph[2][mask])) * rot
        amp[4] = root_half * np.exp(1j * ph[3][mask]) * rot
        mu_leak = np.sum(np.abs(amp[2:]) ** 2, axis=0)
        total = mu[mask] + mu_leak
        wfac = np.exp(-total)

        comp = coherent_sectors(amp, [basis])[0]
        sum_e += (comp * wfac) @ comp.conj().T
        comp2 = comp * comp
        sum_e2 += (comp2 * wfac ** 2) @ comp2.conj().T
        mags = np.abs(comp) ** 2
        sum_abs2 += (mags * wfac ** 2) @ mags.T
        t = wfac * total ** n / math.factorial(n)
        sum_t += float(t.sum())
        sum_t2 += float((t * t).sum())

    if accepted == 0:
        raise EmptyRegionError(f"no samples landed in region {region}")

    mean = sum_e / accepted
    mean_sq_re = (sum_e2.real + sum_abs2) / (2.0 * accepted)
    mean_sq_im = (sum_abs2 - sum_e2.real) / (2.0 * accepted)
    var_re = np.clip(mean_sq_re - mean.real ** 2, 0.0, None)
    var_im = np.clip(mean_sq_im - mean.imag ** 2, 0.0, None)
    t_mean = sum_t / accepted
    t_var = max(0.0, sum_t2 / accepted - t_mean ** 2)
    p_hat = accepted / samples
    return MonteCarloRegionEstimate(
        n=n,
        block_mean=mean,
        block_se_real=np.sqrt(var_re / accepted),
        block_se_imag=np.sqrt(var_im / accepted),
        trace_mean=t_mean,
        trace_se=math.sqrt(t_var / accepted),
        region_mass=p_hat,
        mass_se=math.sqrt(p_hat * (1.0 - p_hat) / samples),
        accepted=accepted,
        samples=samples,
    )
