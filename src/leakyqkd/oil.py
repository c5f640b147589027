"""States of the injection-locked modulator-free transmitter.

Each round emits two signal time bins (early e, late l) carved out of a
single laser pulse by two controlled phase steps phi12 and phi23, plus
two residual leakage pulses (previous P and following F bins) that a
blocking modulator attenuates to intensity omega each.  After averaging
the uniform global phase, the n-photon blocks are coherent-projector
sectors over the four modes (e, l, P, F) with amplitudes

    sqrt(mu_e) e^{i phi12/2},  sqrt(mu_l) e^{i (phi12 + phi23/2)},
    sqrt(omega),               sqrt(omega) e^{i (phi12 + phi23)},

where mu_e = mu_in (1 + cos phi12)/2 and mu_l = mu_in (1 + cos phi23)/2.
The leakage amplitudes follow the conservative split-pulse accounting
(sqrt(omega) per leaked bin, not sqrt(omega/2)), which can only favour
the eavesdropper.

Key basis (one intensity): phase pairs (+pi/2, +pi/2) and (-pi/2, -pi/2).
Test basis (bit in a time bin): (kappa pi, pi) and (pi, kappa pi), with
kappa in [0, 1] selecting the intensity mu_in (1 + cos kappa pi)/2; the
phase sum phi12 + phi23 is bit-independent, and for kappa = 0 also basis
independent, so the leakage marginal reveals nothing about the bit.

At the signal intensity the key and test single-photon mixtures coincide,
and so, with suitable purification phases, do the bit-entangled key and
test states: the rate takes the key yield as the test yield and the coin
overlap as 1.  `emission_sectors` gives every setting on one (`SLOTS`, bit) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import NPhotonBasis, coherent_sectors, enumerate_basis

MODE_COUNT = 4
LEAK_MODES = frozenset({2, 3})
INTENSITIES = ("I0", "I1", "I2")


@lru_cache(maxsize=None)
def oil_basis(n: int) -> NPhotonBasis:
    """n-photon basis over modes (e, l, P, F), leakage-sorted."""
    return enumerate_basis(n, MODE_COUNT, LEAK_MODES)


def intensity_of_kappa(kappa: float, mu_in: float) -> float:
    """Test-basis signal intensity produced by phase fraction kappa."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa={kappa} outside [0, 1]")
    return mu_in * (1.0 + math.cos(kappa * math.pi)) / 2.0


def kappa_for_intensity(mu_target: float, mu_in: float) -> float:
    """Inverse of intensity_of_kappa (monotone on [0, 1])."""
    if not 0.0 <= mu_target <= mu_in:
        raise ValueError(f"target intensity {mu_target} outside [0, mu_in={mu_in}]")
    return math.acos(min(1.0, max(-1.0, 2.0 * mu_target / mu_in - 1.0))) / math.pi


def _default_kappas() -> dict:
    return {"I0": 0.0}


@dataclass(frozen=True)
class OilParams:
    """Source intensity, leakage scale, and the test-basis intensity ladder."""

    mu_in: float
    omega: float
    kappas: dict = field(default_factory=_default_kappas)
    n_cut: int = 4

    def __post_init__(self):
        if self.mu_in <= 0.0:
            raise ValueError("mu_in must be positive")
        if self.omega < 0.0:
            raise ValueError("omega must be >= 0")
        for label, kappa in self.kappas.items():
            if label not in INTENSITIES:
                raise ValueError(f"unknown intensity label {label!r}")
            if not 0.0 <= kappa <= 1.0:
                raise ValueError(f"kappa={kappa} for {label} outside [0, 1]")
        if self.kappas.get("I0", 0.0) != 0.0:
            raise ValueError("I0 must map to kappa = 0 (signal intensity)")
        if self.n_cut < 1:
            raise ValueError("n_cut must be >= 1")

    def intensity(self, label: str) -> float:
        return intensity_of_kappa(self.kappas[label], self.mu_in)


def params_for_intensities(mu_in: float, mu_i1: float, mu_i2: float, omega: float,
                           n_cut: int = 4) -> OilParams:
    """Build OilParams from the three test-basis intensities (I0 = mu_in)."""
    kappas = {"I0": 0.0,
              "I1": kappa_for_intensity(mu_i1, mu_in),
              "I2": kappa_for_intensity(mu_i2, mu_in)}
    return OilParams(mu_in=mu_in, omega=omega, kappas=kappas, n_cut=n_cut)


@dataclass(frozen=True)
class OilSetting:
    """One emission setting: bit, basis, intensity, and its phase pair."""

    bit: int
    basis: str
    intensity: str
    phi12: float
    phi23: float


def setting_phases(bit: int, basis: str, intensity: str, params: OilParams) -> OilSetting:
    """Controlled phase pair for one (bit, basis, intensity) choice.

    The key basis carries no decoys: only I0 is allowed there.
    """
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if basis == "Z":
        if intensity != "I0":
            raise ValueError("no decoy intensities in the key basis")
        sign = 1.0 if bit == 0 else -1.0
        return OilSetting(bit, basis, intensity, sign * math.pi / 2.0, sign * math.pi / 2.0)
    if basis == "X":
        if intensity not in params.kappas:
            raise ValueError(f"intensity {intensity!r} has no configured kappa")
        kappa = params.kappas[intensity]
        if bit == 0:
            return OilSetting(bit, basis, intensity, kappa * math.pi, math.pi)
        return OilSetting(bit, basis, intensity, math.pi, kappa * math.pi)
    raise ValueError("basis must be 'Z' or 'X'")


def setting_amplitudes(setting: OilSetting, params: OilParams) -> np.ndarray:
    """Coherent amplitudes over (e, l, P, F); global phase averaged out."""
    return _amplitudes([setting], params)[:, 0]


def _amplitudes(settings: list, params: OilParams) -> np.ndarray:
    """`setting_amplitudes` [mode, setting] of each of `settings`, in one pass."""
    phi12, phi23 = (np.array([getattr(s, name) for s in settings]) for name in ("phi12", "phi23"))
    root_e, root_l = (np.sqrt([params.mu_in * (1.0 + math.cos(getattr(s, name))) / 2.0
                               for s in settings]) for name in ("phi12", "phi23"))
    root_w = math.sqrt(params.omega)
    out = np.empty((MODE_COUNT, len(settings)), dtype=complex)
    out[0] = root_e * np.exp(0.5j * phi12)
    out[1] = root_l * np.exp(1j * (phi12 + 0.5 * phi23))
    out[2] = root_w
    out[3] = root_w * np.exp(1j * (phi12 + phi23))
    return out


# axis 1 of `emission_sectors`: the key basis at I0, the test basis at every intensity
SLOTS = (("Z", "I0"), ("X", "I0"), ("X", "I1"), ("X", "I2"))


def emission_sectors(params: OilParams) -> list[np.ndarray]:
    """Sub-normalised n-photon components of every setting, n = 0..n_cut.

    One (dim_n, 4, 2) array per n from a single `coherent_sectors` call,
    entry [:, k, bit] for the setting (bit, *SLOTS[k]), with the
    coherent-state normalisation folded into the vacuum: an entry's outer
    product with itself is that setting's sub-normalised n-photon block, of
    trace e^-(mu + 2 omega) (mu + 2 omega)^n / n!, and the slice [:, k] is a
    factor of slot k's equal-bit mixture, up to its norm.
    """
    alphas = _amplitudes([setting_phases(bit, basis, i, params)
                          for basis, i in SLOTS for bit in (0, 1)], params)
    vacuum = np.exp(-0.5 * np.sum(np.abs(alphas) ** 2, axis=0))
    return [sector.reshape(-1, len(SLOTS), 2) for sector in coherent_sectors(
        alphas, [oil_basis(n) for n in range(params.n_cut + 1)], vacuum)]


def photon_probabilities(mu: float, omega: float, n_max: int) -> np.ndarray:
    """Poisson photon-number distribution with mean mu + 2 omega."""
    lam = mu + 2.0 * omega
    out = np.empty(n_max + 1)
    out[0] = math.exp(-lam)
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * lam / n
    return out

