"""Block-encoding 1-norms of factorized Hamiltonians.

Two conventions are implemented:

* ``lambda_lcu``: the Pauli-LCU norm
  Σ_k |f°_k − a1′| + ½ Σ_t Σ_kl |V^t_kl| − ¼ Σ_t Σ_k |V^t_kk|,
  with V^t the encoded core of leaf t (shifts folded in).
* ``lambda_burg``: the squared-one-body-operator norm
  Σ_k |f°_k − a1′| + ¼ Σ_t (Σ_k |W^t_k|)², extended to shifted leaves as
  ¼ [(Σ_k |P^t_k|)² + (Σ_k |Q^t_k|)²] via the rank-2 split.
"""

from __future__ import annotations

import numpy as np

from .factorization import DoubleFactorization, FullRankFactorization
from .shift import signed_split
from .tensors import OneBodyTensors, _checked_eigh
from .xdf import truncate_factors


def _f_eigs(one_body) -> np.ndarray:
    if isinstance(one_body, OneBodyTensors):
        return one_body.f_eigs
    return np.asarray(one_body, dtype=float)


def one_body_norm(one_body, a1_prime: float = 0.0) -> float:
    """Σ_k |f°_k − a1′|."""
    return float(np.sum(np.abs(_f_eigs(one_body) - a1_prime)))


def _encoded_cores(fact: DoubleFactorization) -> list[np.ndarray]:
    cores = []
    for w, alpha, sign in zip(fact.factors, fact.shifts, fact.signs):
        core = sign * np.outer(w, w)
        if alpha != 0.0:
            core = core - alpha * np.ones_like(core)
        cores.append(core)
    return cores


def two_body_lcu_norm(fact: DoubleFactorization | FullRankFactorization) -> float:
    """½ Σ_t Σ_kl |V^t_kl| − ¼ Σ_t Σ_k |V^t_kk| over encoded cores."""
    cores = fact.cores if isinstance(fact, FullRankFactorization) else _encoded_cores(fact)
    total = 0.0
    for v in cores:
        total += 0.5 * float(np.sum(np.abs(v))) - 0.25 * float(np.sum(np.abs(np.diag(v))))
    return total


def split_directions(fact: DoubleFactorization | FullRankFactorization) -> np.ndarray:
    """Every squared-one-body direction vector of the encoding, truncated.

    Returns a (K, N) array with one direction per row, in leaf order. Rank-1
    leaves contribute their split vectors (W, or the P/Q pair when shifted);
    full-rank cores contribute one √|eigenvalue|-scaled eigenvector per kept
    eigendirection. The per-direction nonzero counts are exactly the
    rotation-angle records the data lookup stores.
    """
    delta, n = fact.thresholds.delta_df, fact.n_orbitals
    if isinstance(fact, FullRankFactorization):
        if not fact.cores:
            return np.zeros((0, n))
        cores = np.stack(fact.cores)
        vals, vecs = _checked_eigh(0.5 * (cores + cores.transpose(0, 2, 1)), "full-rank cores")
        # row j of scaled[t] is √|λ_j| times eigenvector j of core t
        rows = (np.sqrt(np.abs(vals))[:, :, None] * vecs.transpose(0, 2, 1)).reshape(-1, n)
    elif not fact.factors:
        return np.zeros((0, n))
    else:
        # an unshifted leaf's one direction is W itself
        rows = np.stack(fact.factors)
        if fact.n_alpha:
            rows = np.concatenate([
                rows[t : t + 1] if alpha == 0.0 else np.reshape([v for v, _ in signed_split(w, alpha, sign)], (-1, n))
                for t, (w, alpha, sign) in enumerate(zip(fact.factors, fact.shifts, fact.signs))
            ])
    rows = truncate_factors(rows, delta, "component")
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
