"""Explicit two-stage eigendecomposition of the two-electron tensor.

Stage one eigendecomposes the matrix form of g on the symmetric pair space
(N(N+1)/2 square; g is zero on the rest of the N^2 x N^2 form) and keeps the
n_df leaves of largest eigenvalue magnitude, L^t = sqrt(λ_t) * mat(v_t).
Stage two eigendecomposes each symmetric L^t = U^t diag(W^t) U^t^T, giving
rank-1 cores V^t = W^t ⊗ W^t.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import NonPSDTensor, ValidationError
from .factorization import DoubleFactorization, Thresholds
from .tensors import TwoElectronTensor, _checked_eigh, _packing

logger = logging.getLogger(__name__)

EIG_CLAMP_TOL = 1e-10


def _order_by_magnitude(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort descending by |eigenvalue|; exact ties broken lexicographically.

    Works on one decomposition or a stack of them (vals (..., n), vecs
    (..., n, n)). Each eigenvector's first component of largest magnitude is
    made positive.
    """
    order = np.argsort(-np.abs(vals), axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    pivot = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    vecs = np.where(np.take_along_axis(vecs, pivot, axis=-2) < 0, -vecs, vecs)
    mags = np.abs(vals)
    tied = np.any(mags[..., 1:] == mags[..., :-1], axis=-1)
    for row in map(tuple, np.argwhere(tied)):
        _break_ties(vals[row], vecs[row], mags[row])
    return vals, vecs


def _break_ties(vals: np.ndarray, vecs: np.ndarray, mags: np.ndarray) -> None:
    """Order each run of equal |eigenvalue| by its eigenvectors, in place."""
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and mags[j] == mags[i]:
            j += 1
        if j - i > 1:
            sub = sorted(range(i, j), key=lambda c: tuple(vecs[:, c]))
            vals[i:j] = vals[sub]
            vecs[:, i:j] = vecs[:, sub]
        i = j


def _eigendecompose_matrix_form(gm: np.ndarray, n: int, n_df: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading n_df eigenpairs of g's N^2 x N^2 matrix form.

    ``gm`` is that form or its packed pair-space matrix (``as_packed_matrix``).
    Packed eigenvectors are unpacked to N^2 (divided by the packing weight and
    mirrored to (q, p)) before ordering, so signs and ties follow the full
    form's conventions. Past the N(N+1)/2 pair-space eigenpairs, the full
    form's antisymmetric null space enters as exact zeros.
    """
    if not 1 <= n_df <= n * n:
        raise ValidationError(f"n_df must be in [1, N^2={n * n}], got {n_df}")
    vals, vecs = _checked_eigh(gm, "two-electron matrix form")
    if len(vals) < n * n:
        i, j, w = _packing(n)
        full = np.zeros((n, n, len(vals)))
        full[i, j] = full[j, i] = vecs / w[:, None]
        vecs = full.reshape(n * n, -1)
    vals, vecs = _order_by_magnitude(vals, vecs)
    pad = n_df - len(vals)
    if pad > 0:
        vals, vecs = np.pad(vals, (0, pad)), np.pad(vecs, ((0, 0), (0, pad)))
    return vals[:n_df], vecs[:, :n_df]


def _leaves(vals: np.ndarray, vecs: np.ndarray, n: int) -> list[np.ndarray]:
    """Symmetric leaves sqrt|λ_t| * mat(v_t), one per column."""
    L = (vecs * np.sqrt(np.abs(vals))).T.reshape(-1, n, n)
    # eigenvectors of a symmetric-image matrix; kill roundoff skew
    return list(0.5 * (L + L.transpose(0, 2, 1)))


def first_factorization(g: TwoElectronTensor, n_df: int) -> list[np.ndarray]:
    """Leading n_df symmetric factor matrices of g, requiring g to be PSD.

    The eigendecomposition runs on the packed pair-space matrix
    (``TwoElectronTensor.as_packed_matrix``, N(N+1)/2 square) instead of the
    N^2 x N^2 matrix form, whose other eigenvalues are zero. Eigenvalues
    below -1e-10 raise NonPSDTensor; small negatives are clamped to zero with
    a warning.
    """
    return _psd_leaves(g.as_packed_matrix(), g.n_orbitals, n_df)


def _psd_leaves(gm: np.ndarray, n: int, n_df: int) -> list[np.ndarray]:
    """``first_factorization`` from the matrix form ``gm``, packed or N^2 x N^2."""
    vals, vecs = _eigendecompose_matrix_form(gm, n, n_df)
    if np.any(vals < -EIG_CLAMP_TOL):
        worst = float(vals.min())
        raise NonPSDTensor(f"two-electron matrix form has eigenvalue {worst:.3e} < -1e-10")
    if np.any(vals < 0):
        logger.warning("clamping %d tiny negative eigenvalues to zero", int(np.sum(vals < 0)))
        vals = np.clip(vals, 0.0, None)
    return _leaves(vals, vecs, n)


def signed_first_factorization(g: TwoElectronTensor, n_df: int) -> tuple[list[np.ndarray], list[int]]:
    """First factorization of a possibly indefinite (shifted) tensor.

    Negative eigenvalues are carried as per-leaf signs: g ≈ sum_t s_t L^t ⊗ L^t.
    """
    return _signed_leaves(g.as_packed_matrix(), g.n_orbitals, n_df)


def _signed_leaves(gp: np.ndarray, n: int, n_df: int) -> tuple[list[np.ndarray], list[int]]:
    """``signed_first_factorization`` from the packed matrix form ``gp``."""
    vals, vecs = _eigendecompose_matrix_form(gp, n, n_df)
    signs = [1 if v >= -EIG_CLAMP_TOL else -1 for v in vals]
    vals = np.where(np.abs(vals) < EIG_CLAMP_TOL, 0.0, vals)
    return _leaves(vals, vecs, n), signs


def truncate_factors(w: np.ndarray, delta_df: float, mode: str = "component") -> np.ndarray:
    """Zero out small factor components.

    ``component`` drops |W_k| < delta_df. ``combined`` drops components with
    (sum_k |W_k|) * |W_j| < delta_df, coupling the cut to the leaf's total
    weight.
    """
    w = np.asarray(w, dtype=float)
    if delta_df <= 0:
        return w.copy()
    if mode == "component":
        keep = np.abs(w) >= delta_df
    elif mode == "combined":
        keep = np.sum(np.abs(w)) * np.abs(w) >= delta_df
    else:
        raise ValidationError(f"unknown truncation mode {mode!r}")
    out = w.copy()
    out[~keep] = 0.0
    return out


def second_factorization(
    leaves: list[np.ndarray],
    delta_df: float = 0.0,
    mode: str = "component",
    signs: list[int] | None = None,
) -> DoubleFactorization:
    """Eigendecompose each leaf matrix into (U^t, W^t) and truncate.

    Leaves whose retained rank drops to zero are removed. Eigenvector signs
    and ordering are made deterministic, so identical input yields bit-identical
    output.
    """
    if not leaves:
        raise ValidationError("second_factorization needs at least one leaf")
    shape = np.shape(leaves[0])
    n = shape[0] if shape else 0
    if any(np.shape(L) != (n, n) for L in leaves):
        raise ValidationError("leaf matrices must be symmetric and N x N")
    stack = np.asarray(leaves, dtype=float)
    transposed = stack.transpose(0, 2, 1)
    if np.any(np.max(np.abs(stack - transposed), axis=(1, 2)) > 1e-8):
        raise ValidationError("leaf matrices must be symmetric and N x N")
    if signs is None:
        signs = [1] * len(leaves)
    # an exactly zero leaf has rank 0 whatever the truncation
    nonzero = np.any(stack != 0, axis=(1, 2))
    signs = [s for s, keep in zip(signs, nonzero) if keep]
    symmetric = 0.5 * (stack + transposed)[nonzero]
    vals, vecs = _order_by_magnitude(*_checked_eigh(symmetric, "leaf matrices"))
    rotations, factors, kept_signs, ranks = [], [], [], []
    for u, lam, s in zip(vecs, vals, signs):
        w = truncate_factors(lam, delta_df, mode)
        xi = int(np.count_nonzero(w))
        if xi == 0:
            continue
        rotations.append(u)
        factors.append(w)
        kept_signs.append(int(s))
        ranks.append(xi)
    if not rotations:
        raise ValidationError("all leaves were truncated away; lower delta_df")
    return DoubleFactorization(
        n_orbitals=n,
        method_tag="XDF",
        rotations=tuple(rotations),
        factors=tuple(factors),
        shifts=tuple(0.0 for _ in rotations),
        signs=tuple(kept_signs),
        leaf_ranks=tuple(ranks),
        thresholds=Thresholds(delta_df=delta_df),
    )


def explicit_factorization(
    g: TwoElectronTensor,
    n_df: int,
    delta_df: float = 0.0,
    mode: str = "component",
) -> DoubleFactorization:
    """Convenience pipeline: first + second factorization of a PSD tensor."""
    return second_factorization(first_factorization(g, n_df), delta_df, mode)
