"""Dense complex Hermitian linear algebra used throughout the pipeline.

Small matrices only (dimension <= ~70): the PSD-root factors of density
matrices, the Uhlmann fidelity of two such factors and the Bures
distance, with explicit validation so that malformed operators fail
loudly instead of propagating NaNs.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-8


def require_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part.

    The tolerance is relative to the largest matrix entry (at least 1).
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    asym = float(np.max(np.abs(matrix - matrix.conj().T)))
    if asym > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    return (matrix + matrix.conj().T) / 2.0


def factor_fidelities(pairs) -> list:
    """Uhlmann fidelity of rho = a a^H and sigma = b b^H (unit-norm factors)
    of each (a, b) of `pairs`; stacks (..., d, r) of factors give an array.

    sqrt(F) is the sum of the singular values of a^H b (Jozsa, J. Mod.
    Opt. 41, 2315 (1994)), which move only as much as the inputs, where
    the roots of the eigenvalues of sqrt(rho) sigma sqrt(rho) turn 1e-17
    noise into 1e-9.  Clipped to [0, 1]; identical factors give exactly
    1.  One SVD serves all the pairs whose products a^H b share a shape:
    the batched call runs the same LAPACK routine on each matrix, so each
    result is bitwise that of a call with its pair alone."""
    products = [np.swapaxes(a, -1, -2).conj() @ b for a, b in pairs]
    groups: dict = {}
    for k, product in enumerate(products):
        groups.setdefault(product.shape, []).append(k)
    out = [None] * len(products)
    for members in groups.values():
        root = np.linalg.svd(np.stack([products[k] for k in members]), compute_uv=False).sum(-1)
        same = np.zeros(root.shape, dtype=bool)  # identical factors give exactly 1
        for j, (a, b) in enumerate(pairs[k] for k in members):
            if np.shape(a) == np.shape(b):
                same[j] = (a == b).reshape(*same.shape[1:], -1).all(-1)
        for k, fid in zip(members, np.where(same, 1.0, np.minimum(1.0, root * root))):
            out[k] = fid
    return out


def density_factor(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """PSD-root factor V D (rho = V D^2 V^H, D the roots of the ascending
    eigenvalues) of a unit-trace PSD matrix, for `factor_fidelities`; `name`
    labels the matrix in the errors.

    Eigenvalues in [PSD_EIGENVALUE_FLOOR, 0) are clamped to zero
    (quadrature noise); anything below the floor is an error.
    """
    h = require_hermitian(rho, tol=1e-8)
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.12f}, expected 1 within {TRACE_TOL}")
    values, vectors = np.linalg.eigh(h)
    if values[0] < PSD_EIGENVALUE_FLOOR * max(1.0, float(values[-1])):
        raise ValueError(f"{name} is not PSD: eigenvalue {values[0]:.3e}")
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def bures_from_fidelity(fid: float) -> float:
    fid = min(1.0, max(0.0, fid))
    return math.sqrt(2.0 * (1.0 - math.sqrt(fid)))
