"""Explicit two-stage eigendecomposition of the two-electron tensor.

Stage one eigendecomposes the matrix form of g on the symmetric pair space
(N(N+1)/2 square; g is zero on the rest of the N^2 x N^2 form) and keeps the
n_df leaves of largest eigenvalue magnitude, L^t = sqrt(λ_t) * mat(v_t).
Stage two eigendecomposes each symmetric L^t = U^t diag(W^t) U^t^T, giving
rank-1 cores V^t = W^t ⊗ W^t.
"""

from __future__ import annotations

import functools
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
    (..., m, n)). Each eigenvector's first component of largest magnitude is
    made positive. The eigenvectors are gathered once, in order, as
    contiguous rows, sign-fixed and tie-sorted in place, and returned as a
    transposed view of those rows.
    """
    stack = vecs.reshape(-1, *vecs.shape[-2:])
    batch, flat = np.arange(len(stack))[:, None], vals.reshape(len(stack), -1)
    order = np.argsort(-np.abs(flat), axis=-1, kind="stable")
    flat = flat[batch, order]
    rows = stack.swapaxes(1, 2)[batch, order]
    pivot = np.abs(rows).argmax(axis=-1)
    flip = rows[batch, np.arange(rows.shape[1]), pivot] < 0
    np.negative(rows, out=rows, where=flip[..., None])
    mags = np.abs(flat)
    for b in np.flatnonzero((mags[:, 1:] == mags[:, :-1]).any(axis=-1)):
        _break_ties(flat[b], rows[b], mags[b])
    return flat.reshape(vals.shape), rows.swapaxes(1, 2).reshape(vecs.shape)


def _break_ties(vals: np.ndarray, rows: np.ndarray, mags: np.ndarray) -> None:
    """Order each run of equal |eigenvalue| by its eigenvectors (the rows of ``rows``), in place."""
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and mags[j] == mags[i]:
            j += 1
        if j - i > 1:
            sub = sorted(range(i, j), key=lambda c: tuple(rows[c]))
            vals[i:j] = vals[sub]
            rows[i:j] = rows[sub]
        i = j


def _eigendecompose_matrix_form(gm: np.ndarray, n: int, n_df: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading n_df eigenpairs of g's N^2 x N^2 matrix form.

    ``gm`` is that form or its packed pair-space matrix (``as_packed_matrix``).
    """
    return _leading_pairs(*_checked_eigh(gm, "two-electron matrix form"), n, n_df)


def _check_n_df(n: int, n_df: int) -> None:
    if not 1 <= n_df <= n * n:
        raise ValidationError(f"n_df must be in [1, N^2={n * n}], got {n_df}")


def _leading_pairs(vals: np.ndarray, vecs: np.ndarray, n: int, n_df: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_df leading eigenpairs of g's matrix form from its eigenvalues and eigenvector columns.

    Packed eigenvectors (N(N+1)/2 rows) are unpacked to N^2 (divided by the
    packing weight and mirrored to (q, p)) before ordering, so signs and ties
    follow the full form's conventions. The pairs may be fewer than the
    form's dimension (every missing eigenvalue zero): past them, up to n_df,
    zero pairs enter, as the full form's antisymmetric null space does.
    """
    _check_n_df(n, n_df)
    if vecs.shape[0] < n * n:
        vecs = (vecs / _packing(n)[2][:, None])[_unpacking(n)]
    vals, vecs = _order_by_magnitude(vals, vecs)
    pad = n_df - len(vals)
    if pad > 0:
        vals, vecs = np.concatenate([vals, np.zeros(pad)]), np.hstack([vecs, np.zeros((len(vecs), pad))])
    return vals[:n_df], vecs[:, :n_df]


@functools.lru_cache(maxsize=8)
def _unpacking(n: int) -> np.ndarray:
    """For each (p, q) of an N x N matrix in row-major order, its ``_packing`` pair (min, max); read-only."""
    i, j, _ = _packing(n)
    at = np.empty((n, n), dtype=np.intp)
    at[i, j] = at[j, i] = np.arange(len(i))
    out = at.ravel()
    out.flags.writeable = False
    return out


def _leaves(vals: np.ndarray, vecs: np.ndarray, n: int) -> np.ndarray:
    """Stacked symmetric leaves sqrt|λ_t| * mat(v_t), one per column."""
    L = (vecs * np.sqrt(np.abs(vals))).T.reshape(-1, n, n)
    # eigenvectors of a symmetric-image matrix; kill roundoff skew
    return 0.5 * (L + L.transpose(0, 2, 1))


def first_factorization(g: TwoElectronTensor, n_df: int) -> list[np.ndarray]:
    """Leading n_df symmetric factor matrices of g, requiring g to be PSD.

    The eigendecomposition runs on the packed pair-space matrix
    (``TwoElectronTensor.as_packed_matrix``, N(N+1)/2 square) instead of the
    N^2 x N^2 matrix form, whose other eigenvalues are zero. Eigenvalues
    below -1e-10 raise NonPSDTensor; those of magnitude below 1e-10 are
    roundoff and give zero leaves, as in ``signed_first_factorization``.
    """
    vals, vecs = _eigendecompose_matrix_form(g.as_packed_matrix(), g.n_orbitals, n_df)
    _check_psd(vals)
    return list(_signed_leaves(vals, vecs, g.n_orbitals)[0])  # every sign is +1 past the check


def _check_psd(vals: np.ndarray) -> None:
    if np.any(vals < -EIG_CLAMP_TOL):
        worst = float(vals.min())
        raise NonPSDTensor(f"two-electron matrix form has eigenvalue {worst:.3e} < -1e-10")


def _psd_leaves(gm: np.ndarray, n: int, n_df: int) -> np.ndarray:
    """PSD leaves of the matrix form ``gm``, packed or N^2 x N^2, keeping roundoff ones.

    Small negative eigenvalues are clamped to zero, logged at DEBUG. The
    SCDF/CDF seed uses this, not ``first_factorization``: its optimizers
    amplify roundoff, so their seed leaves stay as they were.
    """
    vals, vecs = _eigendecompose_matrix_form(gm, n, n_df)
    _check_psd(vals)
    if np.any(vals < 0):
        logger.debug("clamping %d tiny negative eigenvalues to zero", int(np.sum(vals < 0)))
        vals = np.clip(vals, 0.0, None)
    return _leaves(vals, vecs, n)


def signed_first_factorization(g: TwoElectronTensor, n_df: int) -> tuple[list[np.ndarray], list[int]]:
    """First factorization of a possibly indefinite (shifted) tensor.

    Negative eigenvalues are carried as per-leaf signs: g ≈ sum_t s_t L^t ⊗ L^t.
    """
    leaves, signs = _signed_leaves(*_eigendecompose_matrix_form(g.as_packed_matrix(), g.n_orbitals, n_df), g.n_orbitals)
    return list(leaves), signs.tolist()


def _signed_leaves(vals: np.ndarray, vecs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked signed leaves of ``_leading_pairs`` output and their ±1 signs; |λ| < 1e-10 gives a zero leaf."""
    signs = np.where(vals >= -EIG_CLAMP_TOL, 1, -1)
    vals = np.where(np.abs(vals) < EIG_CLAMP_TOL, 0.0, vals)
    return _leaves(vals, vecs, n), signs


def truncate_factors(w: np.ndarray, delta_df: float, mode: str = "component") -> np.ndarray:
    """Zero out small factor components, along the last axis of ``w``.

    ``component`` drops |W_k| < delta_df. ``combined`` drops components with
    (sum_k |W_k|) * |W_j| < delta_df, coupling the cut to the leaf's total
    weight. A stack of factor vectors is cut row by row.
    """
    w = np.asarray(w, dtype=float)
    if delta_df <= 0:
        return w.copy()
    if mode == "component":
        keep = np.abs(w) >= delta_df
    elif mode == "combined":
        keep = np.sum(np.abs(w), axis=-1, keepdims=True) * np.abs(w) >= delta_df
    else:
        raise ValidationError(f"unknown truncation mode {mode!r}")
    return np.where(keep, w, 0.0)


_LEAF_SHAPE = "leaf matrices must be symmetric and N x N"


def second_factorization(
    leaves: list[np.ndarray] | np.ndarray,
    delta_df: float = 0.0,
    mode: str = "component",
    signs: list[int] | None = None,
    a2_prime: float = 0.0,
) -> DoubleFactorization:
    """Eigendecompose each leaf matrix into (U^t, W^t) and truncate.

    ``leaves`` is a list or a stack of N x N matrices. Leaves whose retained
    rank drops to zero are removed. Eigenvector signs and ordering are made
    deterministic, so identical input yields bit-identical output. Exactly
    zero leaves skip the eigensolve; a stack of nothing else is refused.
    ``a2_prime`` is the global shift the leaves were taken after, stored in
    the record.
    """
    if len(leaves) == 0:
        raise ValidationError("second_factorization needs at least one leaf")
    try:
        stack = np.asarray(leaves, dtype=float)
    except ValueError as exc:  # leaves of different shapes
        raise ValidationError(_LEAF_SHAPE) from exc
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(_LEAF_SHAPE)
    n = stack.shape[1]
    transposed = stack.transpose(0, 2, 1)
    if np.abs(stack - transposed).max() > 1e-8:
        raise ValidationError(_LEAF_SHAPE)
    signs = np.ones(len(stack), dtype=int) if signs is None else np.asarray(signs, dtype=int)
    symmetric = 0.5 * (stack + transposed)
    # an exactly zero leaf has rank 0 whatever the truncation
    live = (stack != 0).any(axis=(1, 2))
    if not live.any():
        raise ValidationError("every leaf is exactly zero: the two-electron tensor has nothing to factorize")
    vals, vecs = _order_by_magnitude(*_checked_eigh(symmetric[live], "leaf matrices"))
    factors = truncate_factors(vals, delta_df, mode)
    ranks = np.count_nonzero(factors, axis=-1)
    kept = ranks > 0
    if not kept.any():
        raise ValidationError("all leaves were truncated away; lower delta_df")
    return DoubleFactorization(
        n_orbitals=n,
        method_tag="XDF",
        rotations=vecs[kept],
        factors=factors[kept],
        shifts=(0.0,) * int(kept.sum()),
        signs=tuple(signs[live][kept].tolist()),
        leaf_ranks=tuple(ranks[kept].tolist()),
        a2_prime=a2_prime,
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
