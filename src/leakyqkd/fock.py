"""Photon-number basis bookkeeping for a fixed set of optical modes.

The n-photon sector of k bosonic modes is spanned by occupation vectors
(n_1, ..., n_k) summing to n.  A subset of the modes is designated as
*leakage* modes; bases are ordered so that configurations with fewer
leakage photons come first.  Truncating the operator support to at most
``cut`` leakage photons is then a simple prefix operation on the basis.

Also provides the photon-number components of product coherent states,
built by one recursion over photon number (`coherent_sectors`): the
single state-construction primitive both transmitters use, on whole
arrays of evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _compositions(total: int, parts: int):
    """Yield all occupation tuples of `parts` modes summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def leak_count(config: tuple[int, ...], leak_modes: frozenset[int]) -> int:
    """Total photon number in the leakage modes of one configuration."""
    return sum(config[i] for i in leak_modes)


@dataclass(frozen=True, eq=False)
class NPhotonBasis:
    """Ordered basis of the n-photon sector over k modes.

    Configurations are sorted by ascending leakage photon number, ties
    broken by descending lexicographic order on (non-leak occupations,
    leak occupations), which makes zero-/low-leak blocks contiguous
    prefixes and the ordering bit-reproducible.
    """

    n: int
    k: int
    leak_modes: frozenset[int]
    configs: tuple[tuple[int, ...], ...]
    _index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.configs)


def enumerate_basis(n: int, k: int, leak_modes=()) -> NPhotonBasis:
    """Enumerate the n-photon basis of k modes in leakage-sorted order.

    The basis size is binomial(n + k - 1, k - 1).
    """
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    leak = frozenset(leak_modes)
    if leak and (min(leak) < 0 or max(leak) >= k):
        raise ValueError(f"leak mode indices {sorted(leak)} outside 0..{k - 1}")
    signal = [i for i in range(k) if i not in leak]
    leak_sorted = sorted(leak)

    def key(config):
        n_leak = sum(config[i] for i in leak_sorted)
        return (
            n_leak,
            tuple(-config[i] for i in signal),
            tuple(-config[i] for i in leak_sorted),
        )

    configs = tuple(sorted(_compositions(n, k), key=key))
    index = {c: i for i, c in enumerate(configs)}
    return NPhotonBasis(n=n, k=k, leak_modes=leak, configs=configs, _index=index)


def basis_index(basis: NPhotonBasis, config) -> int:
    """Position of a configuration in the basis ordering."""
    config = tuple(int(x) for x in config)
    if len(config) != basis.k:
        raise ValueError(f"configuration has {len(config)} modes, basis has {basis.k}")
    if sum(config) != basis.n:
        raise ValueError(f"configuration carries {sum(config)} photons, basis sector is n={basis.n}")
    return basis._index[config]


def leak_truncated_subbasis(basis: NPhotonBasis, cut: int) -> NPhotonBasis:
    """Prefix sub-basis with at most `cut` photons in the leakage modes."""
    if cut < 0:
        raise ValueError("leakage cut must be >= 0")
    kept = tuple(c for c in basis.configs if leak_count(c, basis.leak_modes) <= cut)
    index = {c: i for i, c in enumerate(kept)}
    return NPhotonBasis(n=basis.n, k=basis.k, leak_modes=basis.leak_modes,
                        configs=kept, _index=index)


def _parent(config: tuple[int, ...], leak_modes: frozenset[int], below: dict):
    """(parent configuration, mode) with one photon of `mode` removed.

    Prefers a parent already listed on the level below, then a signal
    photon over a leakage photon, then the lowest mode index.
    """
    modes = sorted((j for j, occ in enumerate(config) if occ), key=lambda j: j in leak_modes)
    options = [(config[:j] + (config[j] - 1,) + config[j + 1:], j) for j in modes]
    return next((opt for opt in options if opt[0] in below), options[0])


@lru_cache(maxsize=64)
def _ladder(bases: tuple) -> tuple:
    """Recursion steps from the vacuum up to the highest sector of `bases`,
    keyed on the basis objects, which hash by identity (`eq=False`).

    Level m lists the m-photon basis's configurations first, then the
    parents level m + 1 needs.  Step m (m = 1..top) gives, per row of level
    m, its parent row on level m - 1 and the factor row
    `mode * top + occupation - 1` of the table alphas[mode] / sqrt(occupation).
    """
    leak_modes = bases[0].leak_modes
    if any(b.leak_modes != leak_modes for b in bases):
        raise ValueError("bases disagree on the leakage modes")
    wanted = {b.n: b.configs for b in bases}
    if len(wanted) != len(bases):
        raise ValueError("at most one basis per photon number")
    top = max(wanted)
    rows = list(wanted[top])
    steps = []
    for m in range(top, 0, -1):
        below = list(wanted.get(m - 1, ()))
        index = {c: i for i, c in enumerate(below)}
        parents, factors = [], []
        for config in rows:
            parent, j = _parent(config, leak_modes, index)
            if parent not in index:
                index[parent] = len(below)
                below.append(parent)
            parents.append(index[parent])
            factors.append(j * top + config[j] - 1)
        steps.append((np.array(parents, dtype=np.intp), np.array(factors, dtype=np.intp)))
        rows = below
    return top, tuple(reversed(steps))


def coherent_sectors(alphas: np.ndarray, bases, vacuum=1.0,
                     work=lambda name, shape: np.empty(shape, complex)) -> list[np.ndarray]:
    """Un-normalised amplitudes of product coherent states on several sectors.

    Parameters
    ----------
    alphas : (k, N) complex array
        Per-mode coherent amplitudes, one column per evaluation point.
    bases : sequence of NPhotonBasis
        Bases over the same k modes and leakage modes, one per photon
        number; leakage-truncated bases are allowed.
    vacuum : scalar or (N,) array
        The 0-photon component.  Every component carries it as a factor,
        so a per-column weight can be folded in here.
    work : callable (name, shape) -> complex array
        Where the table, levels and gathers are built; the default allocates.

    Returns
    -------
    One (dim, N) complex array per basis, in order, with rows
        vacuum * prod_j alphas[j]**c_j / sqrt(c_j!)
    for each configuration c.  Each n-photon row is built from one
    (n-1)-photon parent row times alphas[j] / sqrt(c_j), so a sector
    costs one multiply per row.  The coherent-state normalisation
    exp(-|alpha|^2 / 2) is *not* included.
    """
    alphas = np.asarray(alphas, dtype=complex)
    k, count = alphas.shape
    for basis in bases:
        if basis.k != k:
            raise ValueError(f"got {k} amplitudes for a {basis.k}-mode basis")
    top, steps = _ladder(tuple(bases))
    table = np.divide(alphas[:, None, :], np.sqrt(np.arange(1, top + 1))[:, None],
                      out=work("table", (k, top, count))).reshape(-1, count)
    level = work("level0", (1, count))
    level[0] = vacuum
    levels = [level]
    for m, (parents, factors) in enumerate(steps, 1):  # "clip": no buffer behind `out`
        level = np.take(level, parents, 0, work(f"level{m}", (parents.size, count)), "clip")
        level *= np.take(table, factors, 0, work("gather", (factors.size, count)), "clip")
        levels.append(level)
    return [levels[b.n][:b.dim] for b in bases]
