"""Quantum-coin bound toolkit.

A virtual qubit ("coin") entangled with two alternative source states
obeys a Bloch-sphere constraint that relates the click statistics of the
two alternatives through their fidelity z:

    sqrt(z) <= sqrt(y y') + sqrt((1 - y)(1 - y')).

Solving for y' gives a convex lower envelope and a concave upper
envelope in y.  This module provides those envelopes, their tangent-line
relaxations (usable inside linear programs), projection-based fidelity
lower bounds via a Bures-distance chain, and the purification overlaps
that feed the phase-error transfer bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import bures_from_fidelity

KINK_TOL = 1e-9
KINK_SHIFT = 1e-6

_INV_2SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))


def _check_unit_interval(value, name: str) -> np.ndarray:
    """`value` clipped to [0, 1], elementwise; anything further out than
    1e-12, or NaN, is an error.  A Python float stays one (the rate's
    scalars), clipped as np.maximum and np.minimum clip it."""
    if type(value) is float:
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise ValueError(f"{name}={value} outside [0, 1]")
        return min(max(0.0, value), 1.0)
    value = np.asarray(value, dtype=float)
    inside = (value >= -1e-12) & (value <= 1.0 + 1e-12)
    if not inside.all():
        raise ValueError(f"{name}={value[~inside][0]} outside [0, 1]")
    return np.minimum(np.maximum(value, 0.0), 1.0)


def _scalar(value):
    """A 0-d result as a Python float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


# The envelope functions take scalars or arrays (broadcast against each
# other) and return a float or an array to match; checks are elementwise.

def _curve(y, z, sign, slope: bool = False):
    """Smooth branches y + (1-z)(1-2y) +/- 2 sqrt(z(1-z) y(1-y)), unchecked and
    array-valued; with `slope`, (value, d/dy), sharing z(1-z) and 1-2y."""
    zz, falling = z * (1.0 - z), 1.0 - 2.0 * y
    value = y + (1.0 - z) * falling + sign * (2.0 * np.sqrt(np.maximum(0.0, zz * y * (1.0 - y))))
    if not slope:
        return value
    return value, (2.0 * z - 1.0) + sign * np.sqrt(zz) * falling / np.sqrt(y * (1.0 - y))


def transfer_bound(y, fid, side: str):
    """Piecewise coin envelopes.

    Lower side: max(0, curve_minus) with the flat branch for y <= 1 - z.
    Upper side: min(1, curve_plus) with the flat branch for y >= z.
    """
    y = _check_unit_interval(y, "y")
    z = _check_unit_interval(fid, "fidelity")
    if side == "L":
        return _scalar(np.where(y > 1.0 - z, _curve(y, z, -1), 0.0))
    if side == "U":
        return _scalar(np.where(y < z, _curve(y, z, +1), 1.0))
    raise ValueError("side must be 'L' or 'U'")


@dataclass(frozen=True)
class TangentLine:
    """Tangent to a coin envelope: line(y) = intercept + slope * y.

    A tangent to the convex lower envelope under-estimates it everywhere;
    a tangent to the concave upper envelope over-estimates it everywhere.
    """

    slope: float | np.ndarray
    intercept: float | np.ndarray

    def evaluate(self, y):
        return self.intercept + self.slope * y


def tangent_lines(fid, y_ref) -> TangentLine:
    """Tangent-line relaxations of the lower and upper coin envelopes at
    y_ref, in one pass: slope and intercept lead with a side axis [L, U],
    and the sides share the checks and z(1 - z).

    Any reference in [0, 1] will do: it is clipped to [KINK_SHIFT,
    1 - KINK_SHIFT], where the slope is finite, and a reference within
    KINK_TOL of the envelope's kink moves KINK_SHIFT onto its smooth
    branch.  A kink that this shift cannot clear, one at a clip bound, is
    an error.
    """
    z = _check_unit_interval(fid, "fidelity")
    ndim = max(np.ndim(z), np.ndim(y_ref))
    lower = np.array([True, False]).reshape(-1, *[1] * ndim)
    kink = np.where(lower, 1.0 - z, z)
    lo, hi = KINK_SHIFT, 1.0 - KINK_SHIFT
    y = np.minimum(np.maximum(y_ref, lo), hi)  # np.clip, without its call overhead
    near = np.abs(y - kink) < KINK_TOL
    if near.any():  # onto the smooth branch; a kink this shift cannot clear is an error
        shifted = np.minimum(np.maximum(kink + np.where(lower, KINK_SHIFT, -KINK_SHIFT), lo), hi)
        y = np.where(near, shifted, y)
        at_kink = (np.abs(y - kink) < KINK_TOL) & (0.0 < kink) & (kink < 1.0)
        if at_kink.any():
            raise ValueError(f"reference point {y[at_kink][0]} sits at the envelope kink "
                             f"{np.broadcast_to(kink, y.shape)[at_kink][0]} and no shift "
                             f"clears it")
    # value and d/dy of the smooth branch; the flat branch is 0 (lower) or 1, slope 0
    value, slope = _curve(y, z, np.where(lower, -1.0, 1.0), slope=True)
    flat = np.where(lower, y <= kink, y >= kink)
    value, slope = np.where(flat, np.where(lower, 0.0, 1.0), value), np.where(flat, 0.0, slope)
    return TangentLine(slope=slope, intercept=value - slope * y)


def coin_adjusted_fidelity(re_overlap: float, y_coin_lower: float) -> float:
    """Effective fidelity (1 - (1 - Re<psi|psi'>)/Y_coin)^2, clamped to [0, 1].

    The coin imbalance is (1 - re_overlap)/2; dividing the full imbalance
    by the coin-round yield lower bound accounts for post-selecting on
    detected rounds.  When the imbalance exceeds the yield the bound
    degenerates: 0 is returned, and the phase-error bound is then 1.
    """
    if not -1.0 - 1e-12 <= re_overlap <= 1.0 + 1e-12:
        raise ValueError(f"overlap {re_overlap} outside [-1, 1]")
    if not 0.0 < y_coin_lower <= 1.0:
        raise ValueError(f"coin yield lower bound {y_coin_lower} outside (0, 1]")
    ratio = (1.0 - min(1.0, re_overlap)) / y_coin_lower
    return 0.0 if ratio > 1.0 else (1.0 - ratio) ** 2


def phase_error_upper(e_x_upper: float, f_prime: float) -> float:
    """Phase-error upper bound: upper coin envelope at the X bit-error rate."""
    return transfer_bound(_check_unit_interval(e_x_upper, "e_x_upper"), f_prime, "U")


# ---------------------------------------------------------------------------
# Projection-based fidelity lower bound (Bures chain)
# ---------------------------------------------------------------------------

def bures_chain_bound(trace_i: float, trace_j: float, projected_fidelity: float) -> float:
    """Lower bound on F(rho_i, rho_j) via projections onto a common subspace.

    trace_i/j are Tr[Pi rho Pi] (the weight each state keeps under the
    projection) and projected_fidelity is the fidelity of the two
    normalised projected states.  Uses F(rho, Pi rho Pi / t) = t and the
    Bures triangle inequality along the three-leg chain.
    """
    for t, name in ((trace_i, "trace_i"), (trace_j, "trace_j")):
        if not 0.0 < t <= 1.0 + 1e-10:
            raise ValueError(f"{name}={t}: projection must keep weight in (0, 1]")
    # snap epsilon-level trace deficits: the square root would otherwise
    # blow machine noise up into sqrt(eps)-sized chain legs
    trace_i = 1.0 if trace_i > 1.0 - 1e-12 else trace_i
    trace_j = 1.0 if trace_j > 1.0 - 1e-12 else trace_j
    chain = (bures_from_fidelity(trace_i)
             + bures_from_fidelity(projected_fidelity)
             + bures_from_fidelity(trace_j))
    root = 1.0 - 0.5 * chain * chain
    return max(0.0, root) ** 2


# ---------------------------------------------------------------------------
# Purification overlaps
# ---------------------------------------------------------------------------

def fix_vector_gauge(vector: np.ndarray) -> np.ndarray:
    """Rotate a state vector so its largest-magnitude entry is real positive.

    Near-ties (within 1e-6 relative) anchor on the lowest index, so the
    gauge is stable for balanced-superposition states whose component
    magnitudes differ only by quadrature noise.  Zero vectors pass through.
    """
    mags = np.abs(vector)
    top = float(np.max(mags))
    if top == 0.0:
        return vector
    idx = int(np.argmax(mags >= top * (1.0 - 1e-6)))
    phase = vector[idx] / abs(vector[idx])
    return vector / phase


def bb84_pair_overlap(z0, z1, x0, x1) -> complex:
    """<psi_Z|psi_X> of two bit-entangled states built from pure emissions.

    psi_beta = (|0_beta>|s_0> + |1_beta>|s_1>)/sqrt(2) with BB84 ancilla
    bases; expanding the ancilla inner products gives the signed sum
    (s00 + s01 + s10 - s11)/(2 sqrt(2)) of emission overlaps.
    """
    return _INV_2SQRT2 * (np.vdot(z0, x0) + np.vdot(z0, x1)
                          + np.vdot(z1, x0) - np.vdot(z1, x1))


@dataclass(frozen=True)
class StateEigenData:
    """Descending eigenvalues and gauge-fixed eigenvectors of one state."""

    weights: np.ndarray
    vectors: np.ndarray  # column j is the eigenvector of weights[j]


def state_eigendata(rho: np.ndarray) -> StateEigenData:
    """Spectral data of a density matrix, sorted descending, gauge fixed."""
    values, vectors = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    order = np.argsort(values)[::-1]
    values = np.clip(values[order], 0.0, None)
    cols = np.stack([fix_vector_gauge(vectors[:, j]) for j in order], axis=1)
    return StateEigenData(weights=values, vectors=cols)


def default_purification_phases(dim: int) -> dict[tuple[int, str], np.ndarray]:
    """Default purification phases: pi on the second eigenvector of the
    (0, Z) and (1, X) states, zero elsewhere."""
    phases = {(a, b): np.zeros(dim) for a in (0, 1) for b in ("Z", "X")}
    if dim > 1:
        phases[(0, "Z")][1] = math.pi
        phases[(1, "X")][1] = math.pi
    return phases


def purification_overlap(eigendata: dict[tuple[int, str], StateEigenData],
                         phases: dict[tuple[int, str], np.ndarray] | None = None) -> complex:
    """<psi_Z|psi_X> for purifications of four mixed single-photon states.

    Each state (bit a, basis beta) is purified against an orthonormal
    shield register with free phases xi, one per eigenvector; matching
    shield indices contract, giving a signed sum over eigenvector ranks
    weighted by sqrt(q q') and the eigenvector overlaps.
    """
    dims = {e.vectors.shape[0] for e in eigendata.values()}
    if len(dims) != 1:
        raise ValueError(f"mismatched state dimensions: {sorted(dims)}")
    dim = dims.pop()
    if phases is None:
        phases = default_purification_phases(dim)

    def purified(a, beta):
        # column j is eigenvector j times sqrt(q_j) e^{i xi_j}; flattening
        # contracts matching shield indices inside `bb84_pair_overlap`
        e = eigendata[(a, beta)]
        xi = np.asarray(phases[(a, beta)], dtype=float)
        return (e.vectors * (np.sqrt(np.maximum(e.weights, 0.0)) * np.exp(1j * xi))).ravel()

    return bb84_pair_overlap(*(purified(a, beta) for beta in ("Z", "X") for a in (0, 1)))
