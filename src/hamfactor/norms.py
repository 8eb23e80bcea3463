"""Block-encoding 1-norms of factorized Hamiltonians, over one stack of encoded cores.

The encoded core of leaf t is V^t: sign·W ⊗ W − α·1 ⊗ 1 for a rank-1 leaf,
the stored core for a full-rank one. Two conventions are implemented:

* ``lambda_lcu``: the Pauli-LCU norm
  Σ_k |f°_k − a1′| + ½ Σ_t Σ_kl |V^t_kl| − ¼ Σ_t Σ_k |V^t_kk|.
* ``lambda_burg``: the squared-one-body-operator norm
  Σ_k |f°_k − a1′| + ¼ Σ_directions (Σ_k |v_k|)², with W the one direction
  of an unshifted rank-1 leaf and every other core split by one batched
  eigensolve (``_split``; ``shift.signed_split`` is it on one leaf).
"""

from __future__ import annotations

import numpy as np

from .factorization import DoubleFactorization, FullRankFactorization
from .tensors import OneBodyTensors, _checked_eigh
from .xdf import truncate_factors

SPLIT_TOL = 1e-12


def _f_eigs(one_body) -> np.ndarray:
    if isinstance(one_body, OneBodyTensors):
        return one_body.f_eigs
    return np.asarray(one_body, dtype=float)


def one_body_norm(one_body, a1_prime: float = 0.0) -> float:
    """Σ_k |f°_k − a1′|."""
    return float(np.sum(np.abs(_f_eigs(one_body) - a1_prime)))


def _rank1_cores(w: np.ndarray, signs, shifts) -> np.ndarray:
    """Stacked encoded cores sign·W ⊗ W − α·1 ⊗ 1 from stacked W (T, N), signs and shifts (T,)."""
    sign, alpha = (np.asarray(x, dtype=float)[:, None, None] for x in (signs, shifts))
    return sign * (w[:, :, None] * w[:, None, :]) - alpha


def _encoded_cores(fact: DoubleFactorization | FullRankFactorization) -> np.ndarray:
    """(T, N, N) stack of the record's encoded cores, V^t or ``_rank1_cores``."""
    n = fact.n_orbitals
    if isinstance(fact, FullRankFactorization):
        return np.array(fact.cores).reshape(-1, n, n)
    return _rank1_cores(np.array(fact.factors).reshape(-1, n), fact.signs, fact.shifts)


def _split(cores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split Σ_j σ_j v_j ⊗ v_j of each core of a (T, N, N) stack, by one batched eigh.

    Returns the rows v_j = √|λ_j| e_j (K, N), σ_j = sign(λ_j) and each row's core, by core and
    ascending λ; |λ| ≤ ``SPLIT_TOL`` · max(max|core|, 1) is roundoff and dropped.
    """
    sym = 0.5 * (cores + cores.transpose(0, 2, 1))
    vals, vecs = _checked_eigh(sym, "encoded cores")
    scale = np.maximum(np.abs(sym).max(axis=(1, 2), initial=0.0), 1.0)
    core, j = np.nonzero(np.abs(vals) > SPLIT_TOL * scale[:, None])
    lam = vals[core, j]
    return np.sqrt(np.abs(lam))[:, None] * vecs[core, :, j], np.sign(lam).astype(int), core


def two_body_lcu_norm(fact: DoubleFactorization | FullRankFactorization) -> float:
    """½ Σ_t Σ_kl |V^t_kl| − ¼ Σ_t Σ_k |V^t_kk| over encoded cores."""
    total = 0.0
    for v in _encoded_cores(fact):
        total += 0.5 * float(np.sum(np.abs(v))) - 0.25 * float(np.sum(np.abs(np.diag(v))))
    return total


def split_directions(fact: DoubleFactorization | FullRankFactorization) -> np.ndarray:
    """Every squared-one-body direction vector of the encoding, truncated.

    Returns a (K, N) array with one direction per row, in leaf order: W of an
    unshifted rank-1 leaf, the ``_split`` rows of every other encoded core.
    The per-direction nonzero counts are exactly the rotation-angle records
    the data lookup stores.
    """
    if isinstance(fact, FullRankFactorization):
        rows = _split(_encoded_cores(fact))[0]
    else:
        rows = np.array(fact.factors).reshape(-1, fact.n_orbitals)
        shifted = np.array(fact.shifts) != 0.0
        if shifted.any():
            split, _, core = _split(_encoded_cores(fact)[shifted])
            leaf = np.concatenate([np.flatnonzero(~shifted), np.flatnonzero(shifted)[core]])
            rows = np.concatenate([rows[~shifted], split])[np.argsort(leaf, kind="stable")]
    rows = truncate_factors(rows, fact.thresholds.delta_df, "component")
    return rows[np.any(rows, axis=1)]


def _burg_norm(directions: np.ndarray) -> float:
    """¼ Σ_directions (Σ_k |v_k|)² over ``split_directions`` output."""
    return sum(0.25 * s**2 for s in np.sum(np.abs(directions), axis=1).tolist())


def two_body_burg_norm(fact: DoubleFactorization | FullRankFactorization) -> float:
    """¼ Σ_t Σ_directions (Σ_k |v_k|)²; sign of a direction never matters."""
    return _burg_norm(split_directions(fact))


def lambda_lcu(fact: DoubleFactorization | FullRankFactorization, one_body) -> float:
    return one_body_norm(one_body, fact.a1_prime) + two_body_lcu_norm(fact)


def lambda_burg(fact: DoubleFactorization | FullRankFactorization, one_body) -> float:
    return one_body_norm(one_body, fact.a1_prime) + two_body_burg_norm(fact)
