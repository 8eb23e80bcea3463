"""Exact-diagonalization oracle: dense matrices and one spin block, from one pair operator.

Builds the qubit Hamiltonian under the Jordan-Wigner convention: qubit i is
spin orbital i, orbital-major with the up block first (orbital p maps to
qubits p and p+N). Every builder assembles one form,

    H = e_nuc + sum k_pq E_pq + 1/2 sum g_pqrs E_pq E_rs,

from the raw integrals (k the one-body coefficient adapted to the bare
product form) or from a factorization's encoded integrals. Expanding the
block encoding's squared one-body terms 1/2 sigma_j (c_j − n_j)^2 of every
``signed_split`` direction shows that the encoded Hamiltonian is this form
with g = g̃ − (a2′ + Σ_t α^t) δ_pq δ_rs and k = f − a1′·1 − Σ_r g̃_pqrr, where
g̃ = reconstruct_tensor(fact) (``encoded_integrals``). So the oracle reads a
factorization only through its reconstruction and its shift fields; the
squared-direction construction itself is kept as a test reference.

Every basis (a whole sector, the whole Fock space or one spin block) is a
``Basis``: sorted occupation strings and one sparse pair operator
T = [F_1 ... F_M] over the M = N(N+1)/2 pairs p ≤ q, F_pq = E_pq + E_qp
(F_pp = E_pp). T is filled from one table of every nonzero <row|E_pq|col>,
found for all states at once by bit masks, popcount parities and a sorted
search. On the pair form (k_a, G_ab) of (k, g), H is built from T alone:
densely as e·I + sum_a k_a F_a + 1/2 T·A, A stacking the blocks
sum_b G_ab F_b, or matrix-free as sigma = e·c + K c + 1/2 T(G(T^T c)), the
symmetric F_a making T^T their stack.

Agreement of the builds is the ground truth for factorization fidelity and
for the shift-correction identity:

* ``build_from_integrals`` / ``build_from_factorization`` give a dense
  matrix over a whole particle-number sector (capped at 14 qubits) or the
  whole Fock space (12 qubits), for tests that compare matrices.
* ``block_ground_level`` solves any (k, g, e_nuc) on one ``spin_block``, as
  ``verify --fci`` does for its exact, encoded and bare Hamiltonians: dense
  and for the lowest eigenpairs only up to DENSE_BLOCK_STATES states, by an
  ARPACK Lanczos solve (``eigsh``) of the matrix-free product past that.
  Blocks over MAX_BLOCK_STATES states are refused.

Ground levels come from the spin block with 2M_s = N_e mod 2, not from the
whole sector. H is built from the spin-summed E_pq, so it conserves each
spin's electron count and commutes with S^2: the sector matrix is block
diagonal in 2M_s = n_up − n_down, and every spin multiplet has a member with
2M_s = N_e mod 2. That one block therefore holds the sector's ground energy,
and its eigenvectors, padded with zeros, are eigenvectors of the whole sector
matrix. An overlap of a vector in the block with the ground level is
unchanged by dropping the level's other M_s members: the level's projector
commutes with S_z, so it maps the block into itself. The block's states are
the products of the C(N, n_up) up strings and C(N, n_down) down strings with
n_up = ceil(N_e/2), the determinant-CI layout of Knowles & Handy (1984);
spin-conserving hops map the block into itself, so its T is closed.

A ground level holds every eigenvalue within LEVEL_TOL·max(1, |E0|) of E0.
Both solvers ask for the m lowest pairs and double m until the last one lies
outside the level, so a degeneracy inside the block comes back whole (for
Lanczos, as far as it resolves the copies of a repeated eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NumericalError, ValidationError
from .factorization import DoubleFactorization, reconstruct_tensor
from .shift import shifted_tensor
from .tensors import OneBodyTensors, TwoElectronTensor, _checked_eigh, _packing

MAX_QUBITS = 14
MAX_FULL_SPACE_QUBITS = 12
# past this many states a spin block is solved matrix-free
DENSE_BLOCK_STATES = 2000
# N=10 at half filling (63504 states) fits; N=11 (213444) does not
MAX_BLOCK_STATES = 100_000
LEVEL_TOL = 1e-8
# eigsh residual bound relative to |E|: an energy is off by at most its square over the gap
EIGSH_TOL = 1e-8


@dataclass(frozen=True)
class DenseHamiltonian:
    matrix: np.ndarray
    basis: tuple[int, ...]
    n_spin_orbitals: int
    sector: int | str


def _transitions(n: int, states: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, pq, signs) of every nonzero <row|E_pq|col> over sorted states.

    Each entry is a spin-orbital hop Q -> P of E_pq = a^dag_p↑ a_q↑ + a^dag_p↓ a_q↓:
    Q occupied, P empty once Q is, with the Jordan-Wigner sign of the occupied
    orbitals below Q, then below P. Both spins of a diagonal E_pp hit one
    (row, col, pq); building a matrix sums them.
    """
    pq = np.tile(np.arange(n * n), 2)
    spin = np.repeat([0, n], n * n)  # up block, then down block
    hop_p, hop_q = (np.stack(np.divmod(pq, n)) + spin)[:, :, None]
    stripped = states & ~(1 << hop_q)
    target = stripped | (1 << hop_p)
    hop, cols = np.nonzero((stripped != states) & (target != stripped))
    below = np.bitwise_count(states & ((1 << hop_q) - 1)) + np.bitwise_count(stripped & ((1 << hop_p) - 1))
    rows = np.searchsorted(states, target[hop, cols])
    return rows, cols, pq[hop], np.where(below[hop, cols] & 1, -1.0, 1.0)


@dataclass(frozen=True)
class Basis:
    """Sorted occupation strings and T, d x M·d, whose block a (columns a·d on) is F_a.

    Pairs run in ``_packing`` order; E_pq^T = E_qp makes every F_a symmetric.
    """

    states: np.ndarray
    pairs: sp.csr_matrix


def _basis(n: int, states: np.ndarray) -> Basis:
    """The states and T, filled straight from ``_transitions`` and sorted by row once."""
    rows, cols, pq, signs = _transitions(n, states)
    p, q, _ = _packing(n)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[p, q] = pair[q, p] = np.arange(len(p))
    d = len(states)
    # E_pq and E_qp (p ≠ q) hop in opposite directions, so their entries never
    # meet; both spins of E_pp meet on the diagonal and are summed
    pairs = sp.csr_matrix((signs, (rows, pair.ravel()[pq] * d + cols)), shape=(d, len(p) * d))
    return Basis(states, pairs)


def _operator_basis(n: int, sector: int | str) -> Basis:
    """The sector's (or the whole Fock space's) sorted occupation strings and their T."""
    n_qubits = 2 * n
    cap = MAX_QUBITS if sector != "all" else MAX_FULL_SPACE_QUBITS
    if n_qubits > cap:
        raise ValidationError(
            f"{n_qubits} spin orbitals exceed the dense bound ({cap} qubits"
            f"{' without a sector' if sector == 'all' else ''})"
        )
    states = np.arange(1 << n_qubits)
    if sector != "all":
        if not isinstance(sector, (int, np.integer)):
            raise ValidationError(f"sector must be an electron count or 'all', got {sector!r}")
        if sector < 0 or sector > n_qubits:
            raise ValidationError(f"sector {sector} is empty for {n_qubits} spin orbitals")
        states = states[np.bitwise_count(states) == sector]
    return _basis(n, states)


def _pair_integrals(k: np.ndarray, garr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k_pair, G): k and g read on the pairs p ≤ q of ``_packing``, symmetrized.

    A k asymmetric in p <-> q enters as (k + k^T)/2, as the symmetrized H reads it.
    """
    p, q, _ = _packing(k.shape[0])
    gpair = garr[p, q][:, p, q]
    return (0.5 * (k + k.T))[p, q], 0.5 * (gpair + gpair.T)


def _pair_sums(pairs: sp.csr_matrix, weights: np.ndarray) -> sp.csr_matrix:
    """The blocks sum_b weights[a, b] F_b stacked by a (row a·d + row), as one CSR.

    T's row-sorted ``indptr``/``indices``/``data`` give every block directly.
    """
    d = pairs.shape[0]
    b, cols = np.divmod(pairs.indices, d)
    data = np.take(weights, b, axis=1)  # C order, so scipy does not copy it
    data *= pairs.data
    starts = (np.arange(len(weights))[:, None] * pairs.nnz + pairs.indptr[:-1]).ravel()
    return sp.csr_matrix(
        (data.ravel(), np.tile(cols, len(weights)), np.append(starts, data.size)),
        shape=(len(weights) * d, d),
    )


def _dense_matrix(k: np.ndarray, garr: np.ndarray, e_nuc: float, basis: Basis) -> np.ndarray:
    """Dense e_nuc + sum_a k_a F_a + 1/2 T·A over the basis, A stacking sum_b G_ab F_b."""
    kpair, gpair = _pair_integrals(k, garr)
    d, pairs = len(basis.states), basis.pairs
    ham = sp.identity(d, format="csr") * float(e_nuc)
    ham = ham + _pair_sums(pairs, kpair[None, :]) + 0.5 * (pairs @ _pair_sums(pairs, gpair))
    dense = ham.toarray()
    dense += dense.T  # numpy buffers the overlapping transpose
    dense *= 0.5
    return dense


def _assemble(k: np.ndarray, garr: np.ndarray, e_nuc: float, sector: int | str) -> DenseHamiltonian:
    n = k.shape[0]
    basis = _operator_basis(n, sector)
    return DenseHamiltonian(_dense_matrix(k, garr, e_nuc, basis), tuple(basis.states.tolist()), 2 * n, sector)


def build_from_integrals(
    k: np.ndarray, g, e_nuc: float = 0.0, sector: int | str = "all"
) -> DenseHamiltonian:
    """Dense H = e_nuc + sum k_pq E_pq + 1/2 sum g_pqrs E_pq E_rs.

    ``k`` is the bare-product one-body coefficient (h already reduced by
    the half exchange trace), ``g`` the chemists'-convention tensor; a raw
    array passes the 8-fold symmetry check of ``TwoElectronTensor``.
    """
    k = np.asarray(k, dtype=float)
    garr = (g if isinstance(g, TwoElectronTensor) else TwoElectronTensor(g)).g
    n = k.shape[0]
    if garr.shape != (n, n, n, n):
        raise ValidationError("one- and two-body dimensions disagree")
    return _assemble(k, garr, e_nuc, sector)


def encoded_integrals(
    fact: DoubleFactorization, f: np.ndarray, reconstruction: TwoElectronTensor | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(k, g) of the encoded Hamiltonian a block encoding implements.

    g = g̃ − (a2′ + Σα) δ_pq δ_rs and k = f − a1′·1 − Σ_r g̃_pqrr, with
    g̃ = reconstruct_tensor(fact); pass ``reconstruction`` to reuse one.
    Restoring the shifts is exactly correction_energy on every eigenvalue.
    """
    n = fact.n_orbitals
    if f.shape[0] != n:
        raise ValidationError("factorization and one-body dimensions disagree")
    g = reconstruct_tensor(fact) if reconstruction is None else reconstruction
    k = f - fact.a1_prime * np.eye(n) - np.einsum("pqrr->pq", g.g)
    return k, shifted_tensor(g, fact.total_shift).g


def build_from_factorization(
    fact: DoubleFactorization, one_body: OneBodyTensors, sector: int | str = "all"
) -> DenseHamiltonian:
    """Dense matrix of the encoded Hamiltonian (see ``encoded_integrals``)."""
    k, garr = encoded_integrals(fact, one_body.f)
    return _assemble(k, garr, one_body.e_nuc, sector)


def _strings(n: int, count: int) -> np.ndarray:
    """Every n-bit occupation string with ``count`` bits set, sorted."""
    return np.sort(np.array([sum(1 << i for i in c) for c in combinations(range(n), count)], dtype=np.int64))


def spin_block(n: int, n_electrons: int) -> Basis:
    """The 2M_s = N_e mod 2 block of N_e electrons: states up ⊗ down, and their T.

    n_up = ceil(N_e/2) and n_down = floor(N_e/2). The size is checked against MAX_BLOCK_STATES before anything is allocated.
    """
    n_up, n_down = (n_electrons + 1) // 2, n_electrons // 2
    if n_electrons < 0 or n_up > n:
        raise ValidationError(f"sector {n_electrons} is empty for {2 * n} spin orbitals")
    if 2 * n > 62:
        raise ValidationError(f"{2 * n} spin orbitals do not fit a 64-bit occupation string")
    size = math.comb(n, n_up) * math.comb(n, n_down)
    if size > MAX_BLOCK_STATES:
        raise ValidationError(
            f"the 2M_s = {n_electrons % 2} block of {n_electrons} electrons in {n} orbitals has "
            f"{size} states, over the {MAX_BLOCK_STATES}-state bound"
        )
    states = ((_strings(n, n_down) << n)[:, None] | _strings(n, n_up)).ravel()
    return _basis(n, states)


def _lowest_level(lowest_pairs, most: int) -> tuple[float, np.ndarray]:
    """(E0, ground-level columns) from ``lowest_pairs(m)``, the m lowest (values, vectors).

    m starts at 2 and doubles, up to ``most``, until the last value lies outside the level.
    """
    m = min(2, most)
    while True:
        vals, vecs = lowest_pairs(m)
        low = vals <= vals[0] + LEVEL_TOL * max(1.0, abs(vals[0]))
        if not low[-1] or m == most:
            return float(vals[0]), vecs[:, low]
        m = min(2 * m, most)


def _dense_level(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    return _lowest_level(lambda m: _checked_eigh(matrix, "Hamiltonian matrix", lowest=m), len(matrix))


def _block_operator(block: Basis, k: np.ndarray, garr: np.ndarray, e_nuc: float) -> LinearOperator:
    """sigma = e·c + K c + 1/2 T(G(T^T c)) on the block, never forming H.

    Every F_a is symmetric, so T^T stacks them: T^T c holds every F_a c, and
    T(Y) = sum_a F_a Y_a. T^T is copied once into row-sorted CSR: its CSC
    view would scatter into the M·d-long output on every product.
    """
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(garr)) and math.isfinite(e_nuc)):
        raise NumericalError("Hamiltonian operator has non-finite coefficients")
    kpair, gpair = _pair_integrals(k, garr)
    side_by_side, stacked = block.pairs, block.pairs.T.tocsr()
    d, m = len(block.states), len(kpair)

    def matvec(c: np.ndarray) -> np.ndarray:
        c = c.ravel()
        excited = (stacked @ c).reshape(m, d)
        sigma = e_nuc * c + kpair @ excited + 0.5 * (side_by_side @ (gpair @ excited).ravel())
        if not np.all(np.isfinite(sigma)):
            raise NumericalError("Hamiltonian operator overflows on a vector")
        return sigma

    return LinearOperator((d, d), matvec=matvec, dtype=float)


def _lanczos_pairs(op: LinearOperator, m: int, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m lowest eigenpairs by eigsh(which="SA"), ascending; failures raise NumericalError."""
    try:
        vals, vecs = eigsh(op, k=m, which="SA", v0=v0, tol=EIGSH_TOL)
    except ArpackError as exc:
        raise NumericalError(f"Lanczos solve of the Hamiltonian failed: {exc}") from exc
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
        raise NumericalError("Hamiltonian operator has non-finite eigenvalues; its entries overflow")
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def block_ground_level(
    block: Basis, k: np.ndarray, garr: np.ndarray, e_nuc: float, v0: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """(E0, orthonormal columns spanning the ground level) of e_nuc + k·E + 1/2 g·EE on the block.

    Dense up to DENSE_BLOCK_STATES states, matrix-free Lanczos past that;
    ``v0`` warm-starts Lanczos (default: a fixed-seed random vector).
    """
    d = len(block.states)
    if d <= DENSE_BLOCK_STATES:
        return _dense_level(_dense_matrix(k, garr, e_nuc, block))
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(d)
    op = _block_operator(block, k, garr, e_nuc)
    return _lowest_level(lambda m: _lanczos_pairs(op, m, v0), d - 1)


def _sector_block(hd: DenseHamiltonian, n_electrons: int) -> tuple[np.ndarray, tuple[int, ...]]:
    if hd.sector == "all":
        basis = np.asarray(hd.basis)
        keep = np.flatnonzero(np.bitwise_count(basis) == n_electrons)
        if not keep.size:
            raise ValidationError(f"sector {n_electrons} is empty")
        return hd.matrix[np.ix_(keep, keep)], tuple(basis[keep].tolist())
    if hd.sector != n_electrons:
        raise ValidationError(f"Hamiltonian was built in sector {hd.sector}, asked for {n_electrons}")
    return hd.matrix, hd.basis


def _spin_block_level(
    block: np.ndarray, states: tuple[int, ...], n: int, n_electrons: int
) -> tuple[float, np.ndarray]:
    """(energy, level columns in the sector basis) of the 2M_s = N_e mod 2 block.

    Rows outside the block are zero.
    """
    basis = np.asarray(states)
    two_ms = np.bitwise_count(basis & ((1 << n) - 1)).astype(int) - np.bitwise_count(basis >> n)
    keep = np.flatnonzero(two_ms == n_electrons % 2)
    energy, vecs = _dense_level(block[np.ix_(keep, keep)])
    level = np.zeros((len(basis), vecs.shape[1]))
    level[keep] = vecs
    return energy, level


def ground_energy(hd: DenseHamiltonian, n_electrons: int | None = None) -> float:
    """Lowest eigenvalue, restricted to the n-electron sector when given."""
    if n_electrons is None:
        return float(np.linalg.eigvalsh(hd.matrix)[0])
    return _ground_space(hd, n_electrons)[0]


def _ground_space(hd: DenseHamiltonian, n_electrons: int) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """(energy, orthonormal columns spanning the level, basis states) of the sector ground level.

    The columns span the level's 2M_s = N_e mod 2 part (see the module
    docstring), so a spin multiplet contributes its one member there rather
    than an arbitrary mix of members.
    """
    block, states = _sector_block(hd, n_electrons)
    energy, level = _spin_block_level(block, states, hd.n_spin_orbitals // 2, n_electrons)
    return energy, level, states


def ground_state(hd: DenseHamiltonian, n_electrons: int) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """(energy, eigenvector, basis states) of the sector ground level."""
    energy, space, states = _ground_space(hd, n_electrons)
    return energy, space[:, 0], states
