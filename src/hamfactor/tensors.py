"""Core tensor types: two-electron integrals, derived one-body data, synthetic instances.

Conventions used throughout the package:

* ``g[p, q, r, s]`` is the chemists'-notation two-electron integral (pq|rs)
  with the full 8-fold permutation symmetry
  (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq).
* One-body data is reduced to the effective matrix
  ``f = k + sum_r g[p, q, r, r]`` with ``k = h - 0.5 * sum_r g[p, r, r, q]``,
  whose eigendecomposition ``f = U° diag(f°) U°^T`` feeds the block-encoding
  one-body term and the 1-norms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError

SYMMETRY_TOL = 1e-10
_SYMMETRY_BLOCK = 1 << 14  # most entries of one slice of g in _slices


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float64 C-contiguous array of ``a``; ``a`` itself when it already is one."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable:
        return a
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


def _checked_eigh(a: np.ndarray, what: str, lowest: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """eigh of ``a``; a non-finite matrix or spectrum, or no convergence, raises NumericalError.

    np.linalg.eigh gives every pair; ``lowest=m`` asks scipy for the m lowest only.
    """
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} has non-finite entries")
    try:
        if lowest is None:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals, vecs = scipy.linalg.eigh(a, subset_by_index=[0, lowest - 1], check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of {what} failed: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NumericalError(f"{what} has non-finite eigenvalues; its entries overflow")
    return vals, vecs


@functools.lru_cache(maxsize=8)
def _packing(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Isometric packing of an n x n symmetric matrix M.

    Returns the upper-triangle indices (i ≤ j) and the weights w (1 on, √2
    off the diagonal) for which the vector w·M[i, j] has M's Frobenius norm.
    The arrays are cached per n and read-only.
    """
    i, j = np.triu_indices(n)
    out = i, j, np.where(i == j, 1.0, np.sqrt(2.0))
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _unpacking(n: int) -> np.ndarray:
    """For each (p, q) of an N x N matrix in row-major order, its ``_packing`` pair (min, max); read-only."""
    i, j, _ = _packing(n)
    at = np.empty((n, n), dtype=np.intp)
    at[i, j] = at[j, i] = np.arange(len(i))
    out = at.ravel()
    out.flags.writeable = False
    return out


def _unpack_pairs(packed: np.ndarray, n: int, axis: int) -> np.ndarray:
    """Packed pairs along a non-negative ``axis`` back to the N² entries (p, q), row-major, each divided by its weight."""
    at = _unpacking(n)
    out = np.take(packed, at, axis=axis)
    out /= _packing(n)[2][at].reshape((-1,) + (1,) * (out.ndim - axis - 1))
    return out


def _add_to_pp_rr(g: np.ndarray, value: float) -> None:
    """g += value·δ_pq δ_rs in place on a C-contiguous N⁴ array: only the (pp|rr) entries change."""
    n = len(g)
    pp = np.arange(n) * (n + 1)  # the pairs (p, p) of the N² x N² matrix form
    g.reshape(n * n, n * n)[np.ix_(pp, pp)] += value


def _slices(n: int) -> list[slice]:
    """Slices p:p + step of an N⁴ tensor's first index: at most _SYMMETRY_BLOCK entries each, or one p.

    The whole tensor is one slice up to N = 11, and each p its own from N = 21.
    """
    step = max(1, _SYMMETRY_BLOCK // max(n, 1) ** 3)
    return [slice(p, p + step) for p in range(0, n, step)]


def check_two_electron_symmetry(g: np.ndarray, tol: float = SYMMETRY_TOL) -> float:
    """Return the maximum deviation of g from its 8-fold symmetry images.

    The three generating permutations (pq|rs) → (qp|rs), (pq|sr), (rs|pq) are
    compared on the slices of ``_slices``, so no temporary grows as N⁴.
    Raises ValidationError if g holds a non-finite entry (which every
    deviation test would let through, since max(0.0, nan) is 0.0) or if the
    deviation exceeds ``tol``.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 4 or len(set(g.shape)) != 1:
        raise ValidationError(f"two-electron tensor must be N^4, got shape {g.shape}")
    dev = 0.0
    for p in _slices(g.shape[0]):
        gp = g[p]
        if not np.all(np.isfinite(gp)):
            raise ValidationError("two-electron tensor has non-finite entries")
        for image in (g[:, p].transpose(1, 0, 2, 3), gp.transpose(0, 1, 3, 2), g[:, :, p].transpose(2, 3, 0, 1)):
            dev = max(dev, float(np.max(np.abs(gp - image))))
    if dev > tol:
        raise ValidationError(
            f"two-electron tensor violates 8-fold symmetry by {dev:.3e} (tol {tol:.1e})"
        )
    return dev


@dataclass(frozen=True)
class TwoElectronTensor:
    """Chemists'-notation two-electron tensor with validated 8-fold symmetry."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        check_two_electron_symmetry(g)
        object.__setattr__(self, "g", _freeze(g))

    @property
    def n_orbitals(self) -> int:
        return self.g.shape[0]

    def as_matrix(self) -> np.ndarray:
        """The tensor reshaped to the symmetric N^2 x N^2 matrix g[(pq),(rs)]."""
        n = self.n_orbitals
        return self.g.reshape(n * n, n * n)

    def as_packed_matrix(self) -> np.ndarray:
        """The matrix form on the symmetric pair space: M x M with M = N(N+1)/2.

        Rows and columns are the pairs p ≤ q of ``_packing``, weighted √2 off
        the diagonal. The packing is an isometry of symmetric N x N matrices,
        and g has no component on antisymmetric ones, so this matrix carries
        every nonzero eigenpair of ``as_matrix()``.
        """
        n = self.n_orbitals
        i, j, w = _packing(n)
        pair = i * n + j
        return self.as_matrix()[np.ix_(pair, pair)] * np.outer(w, w)


@dataclass(frozen=True)
class OneBodyTensors:
    """One-body data derived from (h, g, e_nuc).

    Attributes:
        k: chemists'-form one-body matrix h - 0.5 * sum_r g[p,r,r,q].
        f: effective one-body matrix k + sum_r g[p,q,r,r].
        f_eigs: eigenvalues f° of f, ascending.
        e_nuc: nuclear repulsion energy.
    """

    k: np.ndarray
    f: np.ndarray
    f_eigs: np.ndarray
    e_nuc: float

    def __post_init__(self):
        for name in ("k", "f", "f_eigs"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n_orbitals(self) -> int:
        return self.f.shape[0]


def derive_one_body(h: np.ndarray, g: TwoElectronTensor, e_nuc: float = 0.0) -> OneBodyTensors:
    """Reduce (h, g, e_nuc) to the effective one-body data used downstream.

    Raises ValidationError if h or e_nuc is not finite, h is not symmetric
    within 1e-10 or shapes disagree, and NumericalError if f overflows.
    """
    h = np.asarray(h, dtype=float)
    n = g.n_orbitals
    if h.shape != (n, n):
        raise ValidationError(f"one-body matrix shape {h.shape} does not match N={n}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("one-body matrix has non-finite entries")
    if not np.isfinite(e_nuc):
        raise ValidationError(f"nuclear repulsion energy {e_nuc} is not finite")
    if np.max(np.abs(h - h.T)) > SYMMETRY_TOL:
        raise ValidationError("one-body matrix is not symmetric within 1e-10")
    k = h - 0.5 * np.einsum("prrq->pq", g.g)
    f = k + np.einsum("pqrr->pq", g.g)
    f = 0.5 * (f + f.T)  # exact symmetrization against roundoff
    eigs, _ = _checked_eigh(f, "one-body matrix f")  # not eigvalsh: it differs in the last bits, and records store f°
    return OneBodyTensors(k=k, f=f, f_eigs=eigs, e_nuc=float(e_nuc))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random exactly-factorizable PSD two-electron tensor."""

    n_orbitals: int
    n_components: int
    rng_seed: int
    coulomb_weight: float = 0.0

    def __post_init__(self):
        if self.n_orbitals < 1 or self.n_components < 0 or not self.rng_seed >= 0:
            raise ValidationError("n_orbitals must be >= 1, n_components >= 0 and rng_seed >= 0")


def tensor_from_components(components: list[np.ndarray]) -> TwoElectronTensor:
    """Assemble g = sum_c L^c ⊗ L^c from symmetric component matrices."""
    if not components:
        raise ValidationError("at least one component matrix is required")
    n = components[0].shape[0]
    g = np.zeros((n, n, n, n))
    for L in components:
        L = np.asarray(L, dtype=float)
        if L.shape != (n, n) or np.max(np.abs(L - L.T)) > SYMMETRY_TOL:
            raise ValidationError("components must be symmetric N x N matrices")
        g += np.einsum("pq,rs->pqrs", L, L)
    return TwoElectronTensor(g)


def synthesize_instance(spec: SyntheticSpec) -> tuple[TwoElectronTensor, list[np.ndarray]]:
    """Build a PSD tensor from seeded random symmetric components.

    Returns the tensor together with the exact component list for oracle use.
    With ``coulomb_weight > 0`` the first component is biased toward the
    identity, giving the tensor a Coulomb-like (pp|rr) backbone so that
    particle-number shifts have realistic leverage.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_orbitals
    components = []
    for c in range(spec.n_components):
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        L = 0.5 * (a + a.T)
        if c == 0 and spec.coulomb_weight > 0:
            L = spec.coulomb_weight * np.eye(n) + L
        components.append(L)
    return tensor_from_components(components), components


def frobenius_error(a: TwoElectronTensor | np.ndarray, b: TwoElectronTensor | np.ndarray) -> float:
    """||a − b||_F, summed over the slices of ``_slices``; NumericalError if it overflows."""
    ga = a.g if isinstance(a, TwoElectronTensor) else np.asarray(a)
    gb = b.g if isinstance(b, TwoElectronTensor) else np.asarray(b)
    squares = 0.0  # one slice sums as np.linalg.norm does
    with np.errstate(over="ignore"):  # an overflow raises below
        for p in _slices(len(ga)):
            diff = (ga[p] - gb[p]).ravel()
            squares += diff.dot(diff)
    error = float(np.sqrt(squares))
    if not np.isfinite(error):
        raise NumericalError(f"Frobenius error is {error}; the tensors' difference overflows")
    return error
