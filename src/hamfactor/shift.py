"""Particle-number symmetry shifts.

Subtracting S = a1 * N̂_e + a2 * N̂_e² from the Hamiltonian leaves every
fixed-particle-number eigenstate intact up to the known energy offset
a1 * N_e + a2 * N_e², while it can substantially reduce the block-encoding
1-norm. The one-body shift replaces the f° eigenvalues by f° − a1′ with
a1′ = median(f°); the two-body shift removes a2′ δ_pq δ_rs from the tensor
(globally, before factorizing) or α^t 1⊗1 from each rank-1 core (per leaf,
after factorizing), with a2 = (a2′ + Σ_t α^t) / 2.

The global a2′ comes from a scan that factorizes g − a2′ δ_pq δ_rs at each
candidate (``global_two_body_shift``). In the packed pair space every
candidate is gp − a2′ d dᵀ, a rank-1 change of g's matrix form gp, so it
maps into range(gp) + span(d): about 2N dimensions on molecular integrals,
against N(N+1)/2 for gp. gp is eigendecomposed once per scan, and each
candidate solves its matrix projected on that space; the eigenvalues of gp
left out are far below the clamp that would zero them anyway, so the
projection gives the whole eigensolve's leaves. Each candidate is then
scored by exactly one ``norms.two_body_burg_norm`` call on its record.

``signed_split`` and its P/Q view ``split_shifted_factor`` split one leaf's
encoded core by the solve of ``norms``, which imports nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import norms
from .errors import InvalidShiftSplit, NumericalError, ValidationError
from .factorization import DoubleFactorization
from .tensors import TwoElectronTensor, _add_to_pp_rr, _checked_eigh, _freeze, _packing
from .xdf import EIG_CLAMP_TOL, _check_n_df, _leading_pairs, _signed_leaves, second_factorization

SHIFT_SCAN_POINTS = 17
SHIFT_POLISH_TOL = 1e-6
# scan candidates closer than this, relative to the diagonal's largest
# magnitude, shift g by the same matrix up to roundoff and count as one
SHIFT_MERGE_TOL = 1e-12
# eigenvalues of g's pair-space matrix at or below this are left out of the
# shift scan's basis; far below EIG_CLAMP_TOL, which zeroes them anyway
_PROJECTION_FLOOR = 1e-2 * EIG_CLAMP_TOL


@dataclass(frozen=True)
class ShiftCorrection:
    """Coefficients of the subtracted symmetry operator a1 * N̂_e + a2 * N̂_e²."""

    a1: float
    a2: float

    @classmethod
    def from_factorization(cls, fact: DoubleFactorization) -> "ShiftCorrection":
        return cls(a1=fact.a1_prime, a2=0.5 * fact.total_shift)


def correction_energy(correction: ShiftCorrection, n_electrons: int) -> float:
    """Energy to add back to a shifted eigenvalue in the N_e sector."""
    return correction.a1 * n_electrons + correction.a2 * n_electrons**2


@dataclass(frozen=True)
class ShiftedFactorPair:
    """Rank-2 split W ⊗ W − α 1 ⊗ 1 = P ⊗ P − Q ⊗ Q of a shifted leaf core."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(self.p))
        object.__setattr__(self, "q", _freeze(self.q))


def one_body_shift(f_eigs: np.ndarray) -> tuple[float, float]:
    """Optimal one-body shift a1′ = median(f°) and the shifted 1-norm Σ|f° − a1′|.

    The median minimizes the L1 norm, so the returned norm never exceeds Σ|f°|.
    """
    f_eigs = np.asarray(f_eigs, dtype=float)
    if f_eigs.ndim != 1 or f_eigs.size == 0:
        raise ValidationError("f_eigs must be a nonempty vector")
    a1p = float(np.median(f_eigs))
    return a1p, float(np.sum(np.abs(f_eigs - a1p)))


def signed_split(w: np.ndarray, alpha: float, sign: int = 1) -> list[tuple[np.ndarray, int]]:
    """General signed rank decomposition of sign * W ⊗ W − α 1 ⊗ 1.

    Returns [(v_j, σ_j), ...] with the core equal to Σ_j σ_j v_j ⊗ v_j.
    Handles all sign/α combinations (at most two terms): an unshifted leaf
    keeps W, a shifted one is ``norms._split`` of its one encoded core.
    """
    w = np.asarray(w, dtype=float)
    if alpha == 0.0:
        return [(w.copy(), sign)] if np.any(w) else []
    vecs, signs, _ = norms._split(norms._rank1_cores(w[None], [sign], [alpha]))
    return list(zip(vecs, signs.tolist()))


def split_shifted_factor(w: np.ndarray, alpha: float) -> ShiftedFactorPair:
    """Split W ⊗ W − α 1 ⊗ 1 into P ⊗ P − Q ⊗ Q.

    P and Q are the +1 and −1 directions of ``signed_split(w, alpha)``; for
    α = 0 this is P = W, Q = 0. Raises InvalidShiftSplit if the two nonzero
    eigenvalues share a sign (cannot happen for α > 0 with real W, guarded
    anyway).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("factor W must be a nonempty vector")
    if alpha < 0.0:
        raise ValidationError(
            "a P/Q split needs alpha >= 0; signed_split handles signed cores"
        )
    parts = signed_split(w, alpha)
    pos = [v for v, s in parts if s > 0]
    neg = [v for v, s in parts if s < 0]
    if len(pos) > 1 or len(neg) > 1:
        raise InvalidShiftSplit(
            f"core has {len(pos)} positive / {len(neg)} negative directions; "
            "expected at most one of each"
        )
    zero = np.zeros(w.size)
    return ShiftedFactorPair(p=pos[0] if pos else zero, q=neg[0] if neg else zero)


def apply_alpha_threshold(fact: DoubleFactorization, delta_alpha: float) -> DoubleFactorization:
    """Zero out per-leaf shifts with |α^t| < delta_alpha."""
    if delta_alpha < 0:
        raise ValidationError("delta_alpha must be >= 0")
    shifts = tuple(a if abs(a) >= delta_alpha else 0.0 for a in fact.shifts)
    thresholds = replace(fact.thresholds, delta_alpha=delta_alpha)
    return replace(fact, shifts=shifts, thresholds=thresholds)


def shifted_tensor(g: TwoElectronTensor, a2_prime: float) -> TwoElectronTensor:
    """g − a2′ δ_pq δ_rs on a copy of g; g itself, which is immutable, at a2′ = 0."""
    if a2_prime == 0.0:
        return g
    out = np.array(g.g)
    _add_to_pp_rr(out, -a2_prime)
    return TwoElectronTensor(out)


def _shift_basis(gp: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Orthonormal M x r basis Q of range(gp) + span(d), up to eigenvalues of gp below the floor.

    gp's eigenvectors with |λ| > ``_PROJECTION_FLOOR`` come first; the
    normalized part of d orthogonal to them follows, unless d already lies
    in their span.
    """
    vals, vecs = _checked_eigh(gp, "two-electron matrix form")
    q = vecs[:, np.abs(vals) > _PROJECTION_FLOOR]
    rest = d - q @ (q.T @ d)
    rest -= q @ (q.T @ rest)  # a second pass makes it orthogonal to working precision
    norm = float(np.linalg.norm(rest))
    if norm > _PROJECTION_FLOOR * float(np.linalg.norm(d)):
        q = np.column_stack([q, rest / norm])
    return q


def global_two_body_shift(
    g: TwoElectronTensor,
    n_df: int,
    delta_df: float = 0.0,
    mode: str = "component",
) -> tuple[float, DoubleFactorization]:
    """Find a2′ minimizing the von-Burg 1-norm of the shifted eigendecomposition.

    A coarse scan of ``SHIFT_SCAN_POINTS`` points over the range of the
    tensor's (pp|rr) diagonal (plus the unshifted point, the diagonal's median
    and mean) brackets the optimum; golden-section search then polishes it to
    ``SHIFT_POLISH_TOL``. Candidates within ``SHIFT_MERGE_TOL`` of the
    diagonal's largest magnitude of each other count once, so a cluster of
    roundoff-equal shifts (0.0, a (pp|rr) of 1e-160 and a median of 1e-16 on
    a long chain) cannot collapse the bracket. The returned norm never
    exceeds the a2′ = 0 value because 0 is always a scan candidate.

    Every candidate eigendecomposes gp − a2′ d dᵀ, with gp g's packed M x M
    matrix form (M = N(N+1)/2) and d the packed δ_pq δ_rs (1 on the pairs
    (p, p)). gp is eigendecomposed once; ``_shift_basis`` keeps its
    eigenvectors with |λ| > ``_PROJECTION_FLOOR`` and adds d's part
    orthogonal to them, an M x r basis Q with r about 2N on molecular
    integrals. Each candidate solves the r x r matrix
    Qᵀ gp Q − a2′ (Qᵀd)(Qᵀd)ᵀ and lifts its eigenvectors by Q.

    This is the M x M solve up to the eigenvalues left out. Q spans d and the
    kept eigenvectors, so gp − a2′ d dᵀ differs from its projection on Q by
    the left-out part of gp, whose norm is at most ``_PROJECTION_FLOOR``.
    Every eigenvalue moves by at most that, and every eigenpair outside Q has
    |λ| at most that, far below ``EIG_CLAMP_TOL``: the M x M solve clamps
    those into zero leaves too. The leaf count, ranks and signs are those of
    the M x M solve; U and W agree to its roundoff. One ``shifted_xdf``
    serves the scan and the returned record. A gp whose Frobenius norm
    overflows, or a basis that gp does not map into itself to
    ``EIG_CLAMP_TOL`` on gp's scale, raises NumericalError.

    Each objective evaluation is exactly one ``norms.two_body_burg_norm``
    call on that evaluation's ``DoubleFactorization``, made from here, so a
    trace counts the scan's evaluations as that function's calls under this
    one.
    """
    n = g.n_orbitals
    _check_n_df(n, n_df)
    i, j, _ = _packing(n)
    gp, d = g.as_packed_matrix(), (i == j).astype(float)  # d: packed δ_pq δ_rs
    scale = float(np.linalg.norm(gp))
    if not np.isfinite(scale):
        raise NumericalError("two-electron matrix form overflows when squared; the shift scan needs its norm")
    basis = _shift_basis(gp, d)
    image = gp @ basis
    core, dq = basis.T @ image, basis.T @ d
    # gp maps range(basis) into itself up to the floor and roundoff
    residual = float(np.linalg.norm(image - basis @ core))
    if not residual <= EIG_CLAMP_TOL * max(scale, 1.0):
        raise NumericalError(f"shift-scan projection of the two-electron matrix form is inexact: residual {residual:.3e}")
    core, ddq = 0.5 * (core + core.T), np.outer(dq, dq)

    def shifted_xdf(a2p: float) -> DoubleFactorization:
        vals, y = _checked_eigh(core - a2p * ddq, "two-electron matrix form")
        # past the r projected pairs come only zero leaves, which second_factorization drops
        leaves, signs = _signed_leaves(*_leading_pairs(vals, basis @ y, n, min(n_df, len(vals))), n)
        return second_factorization(leaves, delta_df, mode, signs=signs, a2_prime=float(a2p))

    def objective(a2p: float) -> float:
        try:
            fact = shifted_xdf(a2p)
        except ValidationError:  # every leaf zero or truncated away: no record at this shift
            if a2p == 0.0:
                raise
            return np.inf
        return norms.two_body_burg_norm(fact)

    diag = np.einsum("pprr->pr", g.g).ravel()
    lo, hi = float(diag.min()), float(diag.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5 * max(abs(lo), 1.0), hi + 0.5 * max(abs(hi), 1.0)
    resolution = SHIFT_MERGE_TOL * max(abs(lo), abs(hi))
    candidates = []
    for c in sorted(set(np.linspace(lo, hi, SHIFT_SCAN_POINTS).tolist() + [0.0, float(np.median(diag)), float(diag.mean())])):
        if candidates and c - candidates[-1] <= resolution:
            if c == 0.0:  # 0.0 stands for its cluster, so the scan keeps the unshifted point
                candidates[-1] = 0.0
            continue
        candidates.append(c)
    values = [objective(c) for c in candidates]
    best = int(np.argmin(values))
    left = candidates[max(best - 1, 0)]
    right = candidates[min(best + 1, len(candidates) - 1)]
    if right > left:
        res = minimize_scalar(
            objective, bracket=None, bounds=(left, right), method="bounded",
            options={"xatol": SHIFT_POLISH_TOL},
        )
        polished, polished_val = float(res.x), float(res.fun)
    else:
        polished, polished_val = candidates[best], values[best]
    if polished_val > values[best]:
        polished, polished_val = candidates[best], values[best]
    return polished, shifted_xdf(polished)
