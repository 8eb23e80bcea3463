"""Dense exact-diagonalization oracle on tiny systems.

Builds the qubit Hamiltonian under the Jordan-Wigner convention: qubit i is
spin orbital i, orbital-major with the up block first (orbital p maps to
qubits p and p+N). Both builders assemble one form,

    H = e_nuc + sum k_pq E_pq + 1/2 sum g_pqrs E_pq E_rs,

from the raw integrals (k the one-body coefficient adapted to the bare
product form) or from a factorization's encoded integrals. Expanding the
block encoding's squared one-body terms 1/2 sigma_j (c_j − n_j)^2 of every
``signed_split`` direction shows that the encoded Hamiltonian is this form
with g = g̃ − (a2′ + Σ_t α^t) δ_pq δ_rs and k = f − a1′·1 − Σ_r g̃_pqrr, where
g̃ = reconstruct_tensor(fact). So the oracle reads a factorization only
through its reconstruction and its shift fields; the squared-direction
construction itself is kept as a test reference.

The assembly reads one excitation table: arrays (row, col, pq, sign) of every
nonzero <row|E_pq|col>, found for all states at once by bit masks, popcount
parities and a sorted search. A one-body operator is one sparse matrix over
it; the two-body part is one product of side-by-side E_pq and stacked A_pq
blocks.

Agreement of the two builds is the ground truth for factorization fidelity
and for the shift-correction identity. The matrices are dense and
deliberately capped at 14 qubits; particle-number sectors are built directly
in the occupation basis to keep them small.

Ground levels come from one spin block of the sector, not from the whole
sector matrix. H is built from the spin-summed E_pq, so it conserves each
spin's electron count and commutes with S^2: the sector matrix is block
diagonal in 2M_s = n_up − n_down, and every spin multiplet has a member with
2M_s = N_e mod 2. That one block therefore holds the sector's ground energy,
and its eigenvectors, padded with zeros, are eigenvectors of the whole sector
matrix. An overlap of a vector in the block with the ground level is
unchanged by dropping the level's other M_s members: the level's projector
commutes with S_z, so it maps the block into itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .factorization import DoubleFactorization, reconstruct_tensor
from .shift import shifted_tensor
from .tensors import OneBodyTensors, _checked_eigh

MAX_QUBITS = 14
MAX_FULL_SPACE_QUBITS = 12


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


def _operator_basis(n: int, sector: int | str) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Sorted occupation strings of the sector and their excitation table."""
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
    return states, _transitions(n, states)


def _one_body_operator(coeff: np.ndarray, table, d: int) -> sp.csr_matrix:
    """sum_pq coeff_pq E_pq."""
    rows, cols, pq, signs = table
    return sp.csr_matrix((np.ravel(coeff)[pq] * signs, (rows, cols)), shape=(d, d))


def _two_body_operator(garr: np.ndarray, table, d: int) -> sp.csr_matrix:
    """sum_pq E_pq A_pq with A_pq = sum_rs g_pqrs E_rs, as one sparse product.

    [E_00 E_01 ...] (column pq*d + col) times [A_00; A_01; ...] (row pq*d + row);
    sorted by row, the table gives every A block as one CSR block on its columns.
    """
    m = garr.shape[0] ** 2
    order = np.argsort(table[0])
    rows, cols, pq, signs = (a[order] for a in table)
    blocks = sp.csr_matrix((signs, (rows, pq * d + cols)), shape=(d, m * d))
    coupled = np.take(garr.reshape(m, m), pq, axis=1)
    coupled *= signs
    starts = (np.arange(m)[:, None] * len(rows) + np.searchsorted(rows, np.arange(d))).ravel()
    # C-order data (np.take, not [:, pq]) and int32 columns: scipy copies neither
    return blocks @ sp.csr_matrix(
        (coupled.ravel(), np.tile(cols.astype(np.int32), m), np.append(starts, coupled.size)),
        shape=(m * d, d),
    )


def _assemble(k: np.ndarray, garr: np.ndarray, e_nuc: float, sector: int | str) -> DenseHamiltonian:
    """Dense e_nuc + sum k_pq E_pq + 1/2 sum g_pqrs E_pq E_rs over the sector."""
    n = k.shape[0]
    states, table = _operator_basis(n, sector)
    d = len(states)
    ham = sp.identity(d, format="csr") * float(e_nuc)
    ham = ham + _one_body_operator(k, table, d) + 0.5 * _two_body_operator(garr, table, d)
    dense = ham.toarray()
    dense += dense.T  # numpy buffers the overlapping transpose
    dense *= 0.5
    return DenseHamiltonian(dense, tuple(states.tolist()), 2 * n, sector)


def build_from_integrals(
    k: np.ndarray, g, e_nuc: float = 0.0, sector: int | str = "all"
) -> DenseHamiltonian:
    """Dense H = e_nuc + sum k_pq E_pq + 1/2 sum g_pqrs E_pq E_rs.

    ``k`` is the bare-product one-body coefficient (h already reduced by
    the half exchange trace), ``g`` the chemists'-convention tensor.
    """
    k = np.asarray(k, dtype=float)
    garr = np.asarray(getattr(g, "g", g), dtype=float)
    n = k.shape[0]
    if garr.shape != (n, n, n, n):
        raise ValidationError("one- and two-body dimensions disagree")
    return _assemble(k, garr, e_nuc, sector)


def build_from_factorization(
    fact: DoubleFactorization, one_body: OneBodyTensors, sector: int | str = "all"
) -> DenseHamiltonian:
    """Dense matrix of the encoded Hamiltonian a block encoding implements.

    The integral Hamiltonian of the encoded integrals: g̃ − (a2′ + Σα) δ_pq δ_rs
    with g̃ = reconstruct_tensor(fact), and the bare-product one-body
    coefficient f − a1′·1 − Σ_r g̃_pqrr. Restoring the shifts is exactly
    correction_energy on every eigenvalue.
    """
    n = fact.n_orbitals
    if one_body.f.shape[0] != n:
        raise ValidationError("factorization and one-body dimensions disagree")
    g = reconstruct_tensor(fact)
    k = one_body.f - fact.a1_prime * np.eye(n) - np.einsum("pqrr->pq", g.g)
    return _assemble(k, shifted_tensor(g, fact.total_shift).g, one_body.e_nuc, sector)


def number_operator(hd: DenseHamiltonian) -> np.ndarray:
    """Dense total-number operator in the same basis (diagonal popcounts)."""
    return np.diag(np.bitwise_count(np.asarray(hd.basis)).astype(float))


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

    The level holds every eigenvector within 1e-8 * max(1, |E0|) of E0, so a
    degeneracy inside the block comes whole; rows outside the block are zero.
    """
    basis = np.asarray(states)
    two_ms = np.bitwise_count(basis & ((1 << n) - 1)).astype(int) - np.bitwise_count(basis >> n)
    keep = np.flatnonzero(two_ms == n_electrons % 2)
    vals, vecs = _checked_eigh(block[np.ix_(keep, keep)], "Hamiltonian matrix")
    low = vals <= vals[0] + 1e-8 * max(1.0, abs(vals[0]))
    level = np.zeros((len(basis), int(np.count_nonzero(low))))
    level[keep] = vecs[:, low]
    return float(vals[0]), level


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
