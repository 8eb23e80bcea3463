"""Exact-diagonalization oracle: dense matrices and one spin block, from per-spin string tables.

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

H conserves each spin's electron count, so every basis it is built on (a whole
sector, the whole Fock space or one spin block) is a direct sum of blocks of
down strings × up strings, the determinant-CI layout of Knowles & Handy (1984),
read through one cached table per spin of F_a = E_pq + E_qp (F_pp = E_pp) over
the M = N(N+1)/2 pairs p ≤ q. A down hop's Jordan-Wigner sign counts every up
electron twice, so F_a = F^down_a ⊗ 1 + 1 ⊗ F^up_a, and a block is
1 ⊗ h_up + h_down ⊗ 1 plus one cross term (``_block_matrix``).

Agreement of the builds is the ground truth for factorization fidelity and
for the shift-correction identity:

* ``build_from_integrals`` / ``build_from_factorization`` give a dense matrix
  over a whole particle-number sector (capped at 14 qubits) or the whole Fock
  space (12 qubits), for tests that compare matrices.
* ``block_ground_level`` solves any (k, g, e_nuc) on one ``spin_block``, as
  ``verify --fci`` does for its exact, encoded and bare Hamiltonians: dense
  for the lowest eigenpairs only up to DENSE_BLOCK_STATES states, by ARPACK
  Lanczos (``eigsh``) past that, and refused past MAX_BLOCK_STATES states.

Ground levels come from the spin block with 2M_s = N_e mod 2. H is built from
the spin-summed E_pq, so it commutes with S^2 as well: every spin multiplet
has a member in that block, which holds the sector's ground energy, and whose
eigenvectors, padded with zeros, are eigenvectors of the sector matrix. The
level's projector commutes with S_z, so dropping its other M_s members leaves
the overlap of any vector in the block with the level unchanged.

A ground level holds every eigenvalue within LEVEL_TOL·max(1, |E0|) of E0.
Both solvers ask for the m lowest pairs and double m until the last one lies
outside the level, so a degeneracy inside the block comes back whole (for
Lanczos, as far as it resolves the copies of a repeated eigenvalue).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NumericalError, ValidationError
from .factorization import DoubleFactorization, reconstruct_tensor
from .shift import shifted_tensor
from .tensors import OneBodyTensors, TwoElectronTensor, _checked_eigh, _packing, _unpacking

MAX_QUBITS = 14
MAX_FULL_SPACE_QUBITS = 12
# past this many states a spin block is solved matrix-free: the two solves
# cross between 400 states (dense faster) and 735 (Lanczos about 2x faster)
DENSE_BLOCK_STATES = 500
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


@dataclass(frozen=True)
class SpinTable:
    """One spin's sorted strings of a count and its F_a in ``_packing`` pair order, by rows:
    row i of F_a holds sign[a, i] (0: none) in column source[a, i]."""

    strings: np.ndarray
    source: np.ndarray
    sign: np.ndarray


@functools.lru_cache(maxsize=32)
def _spin_table(n: int, count: int) -> SpinTable:
    """The table of ``count`` electrons of one spin in n orbitals, built from its hops.

    A hop q -> p of E_pq needs q occupied and p empty once q is; its sign counts the occupied
    orbitals below q, then below p. No string meets both E_pq and E_qp, so F_a has at most one entry per row.
    """
    strings = np.array(sorted(sum(1 << i for i in c) for c in combinations(range(n), count)), dtype=np.int64)
    hop_p, hop_q = np.divmod(np.arange(n * n)[:, None], n)
    stripped = strings & ~(1 << hop_q)
    target = stripped | (1 << hop_p)
    hop, cols = np.nonzero((stripped != strings) & (target != stripped))
    below = np.bitwise_count(strings & ((1 << hop_q) - 1)) + np.bitwise_count(stripped & ((1 << hop_p) - 1))
    rows = np.searchsorted(strings, target[hop, cols])
    signs = np.where(below[hop, cols] & 1, -1.0, 1.0)
    # hop p·n + q is the row-major key of ``_unpacking``
    a, d, m = _unpacking(n)[hop], len(strings), n * (n + 1) // 2
    source, sign = np.tile(np.arange(d), (m, 1)), np.zeros((m, d))
    source[a, rows], sign[a, rows] = cols, signs
    for arr in (strings, source, sign):
        arr.flags.writeable = False  # cached, so shared by every block
    return SpinTable(strings, source, sign)


@dataclass(frozen=True)
class SpinBlock:
    """The (n_up, n_down) block: state i·d_up + j is (down string i << N) | up string j, sorted."""

    states: np.ndarray
    up: SpinTable
    down: SpinTable


def _block(n: int, n_up: int, n_down: int) -> SpinBlock:
    up, down = _spin_table(n, n_up), _spin_table(n, n_down)
    return SpinBlock(((down.strings << n)[:, None] | up.strings).ravel(), up, down)


def _pair_integrals(k: np.ndarray, garr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k_pair, G): k and g read on the pairs p ≤ q of ``_packing``, symmetrized.

    A k asymmetric in p <-> q enters as (k + k^T)/2, as the symmetrized H reads it.
    """
    p, q, _ = _packing(k.shape[0])
    gpair = garr[p, q][:, p, q]
    return (0.5 * (k + k.T))[p, q], 0.5 * (gpair + gpair.T)


def _spin_h(table: SpinTable, kpair: np.ndarray, gpair: np.ndarray) -> np.ndarray:
    """Dense h = sum_a k_a F_a + 1/2 sum_ab G_ab F_a F_b of one spin, from the rows of F, one b at a time."""
    d = len(table.strings)
    rows, mid = np.arange(d) * d, table.source
    h = np.bincount((rows + mid).ravel(), (kpair[:, None] * table.sign).ravel(), d * d)
    # row i of F_a F_b: sign[a, i]·sign[b, j] in column source[b, j], j = source[a, i]
    for g_b, source, sign in zip(0.5 * gpair, table.source, table.sign):
        h += np.bincount((rows + source[mid]).ravel(), (g_b[:, None] * table.sign * sign[mid]).ravel(), d * d)
    return h.reshape(d, d)


def _block_matrix(block: SpinBlock, kpair: np.ndarray, gpair: np.ndarray, e_nuc: float) -> np.ndarray:
    """Dense e·1 + 1 ⊗ h_up + h_down ⊗ 1 + sum_a F^down_a ⊗ (sum_b G_ab F^up_b) over the block."""
    h_up, h_down = (_spin_h(table, kpair, gpair) for table in (block.up, block.down))
    d_up, d_down, d = len(h_up), len(h_down), len(block.states)
    f_up, f_down = (np.eye(len(t.strings))[t.source] * t.sign[:, :, None] for t in (block.up, block.down))
    gf_up = np.tensordot(gpair, f_up, 1)  # sum_b G_ab F^up_b
    dense = np.tensordot(f_down, gf_up, (0, 0)).transpose(0, 2, 1, 3).reshape(d, d)
    kron = dense.reshape(d_down, d_up, d_down, d_up)  # its diagonals are writable einsum views
    np.einsum("ijik->ijk", kron)[...] += h_up + e_nuc * np.eye(d_up)
    np.einsum("ijkj->jik", kron)[...] += h_down
    dense += dense.T  # numpy buffers the overlapping transpose
    dense *= 0.5
    return dense


def _assemble(k: np.ndarray, garr: np.ndarray, e_nuc: float, sector: int | str) -> DenseHamiltonian:
    """The dense direct sum of the sector's (or the Fock space's) spin blocks, in sorted state order."""
    n = k.shape[0]
    n_qubits = 2 * n
    cap = MAX_QUBITS if sector != "all" else MAX_FULL_SPACE_QUBITS
    if n_qubits > cap:
        raise ValidationError(
            f"{n_qubits} spin orbitals exceed the dense bound ({cap} qubits"
            f"{' without a sector' if sector == 'all' else ''})"
        )
    if sector != "all" and not isinstance(sector, (int, np.integer)):
        raise ValidationError(f"sector must be an electron count or 'all', got {sector!r}")
    if sector != "all" and not 0 <= sector <= n_qubits:
        raise ValidationError(f"sector {sector} is empty for {n_qubits} spin orbitals")
    counts = range(n_qubits + 1) if sector == "all" else [int(sector)]
    blocks = [_block(n, up, ne - up) for ne in counts for up in range(max(0, ne - n), min(n, ne) + 1)]
    states = np.sort(np.concatenate([block.states for block in blocks]))
    kpair, gpair = _pair_integrals(k, garr)
    matrix = np.zeros((len(states), len(states)))
    for block in blocks:
        at = np.searchsorted(states, block.states)
        matrix[np.ix_(at, at)] = _block_matrix(block, kpair, gpair, e_nuc)
    return DenseHamiltonian(matrix, tuple(states.tolist()), n_qubits, sector)


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


def spin_block(n: int, n_electrons: int) -> SpinBlock:
    """The 2M_s = N_e mod 2 block of N_e electrons: states down ⊗ up, and their spin tables.

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
    return _block(n, n_up, n_down)


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


def _block_operator(block: SpinBlock, k: np.ndarray, garr: np.ndarray, e_nuc: float) -> LinearOperator:
    """sigma = e·C + h_down C + C h_up + sum_ab G_ab F^down_a C F^up_b on the block, never forming H.

    The cross term is one M × M GEMM over the gathered F^down_a C, transposed so that F^up acts from the left.
    """
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(garr)) and math.isfinite(e_nuc)):
        raise NumericalError("Hamiltonian operator has non-finite coefficients")
    kpair, gpair = _pair_integrals(k, garr)
    h_up, h_down = (_spin_h(table, kpair, gpair) for table in (block.up, block.down))
    d_up, d_down, m = len(h_up), len(h_down), len(kpair)
    a, i = np.nonzero(block.up.sign)  # [F^up_1 … F^up_M] side by side, sparse
    up_side = sp.csr_matrix((block.up.sign[a, i], (i, a * d_up + block.up.source[a, i])), shape=(d_up, m * d_up))
    # kept across products: fresh M·d arrays cost more in page faults than in arithmetic
    excited, mixed = np.empty((m, d_down, d_up)), np.empty((m, d_down * d_up))

    def matvec(c: np.ndarray) -> np.ndarray:
        c = c.reshape(d_down, d_up)
        np.take(c, block.down.source, axis=0, out=excited, mode="clip")  # "raise" would buffer out
        np.multiply(excited, block.down.sign[:, :, None], out=excited)
        np.matmul(gpair, excited.reshape(m, -1), out=mixed)
        # excited is spent; it takes the mix, transposed
        np.copyto(excited.reshape(m, d_up, d_down), mixed.reshape(m, d_down, d_up).transpose(0, 2, 1))
        sigma = (up_side @ excited.reshape(m * d_up, d_down)).T
        sigma += h_down @ c + c @ h_up + e_nuc * c
        if not np.all(np.isfinite(sigma)):
            raise NumericalError("Hamiltonian operator overflows on a vector")
        return sigma.ravel()

    return LinearOperator((len(block.states),) * 2, matvec=matvec, dtype=float)


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
    block: SpinBlock, k: np.ndarray, garr: np.ndarray, e_nuc: float, v0: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """(E0, orthonormal columns spanning the ground level) of e_nuc + k·E + 1/2 g·EE on the block.

    Dense up to DENSE_BLOCK_STATES states, matrix-free Lanczos past that;
    ``v0`` warm-starts Lanczos (default: a fixed-seed random vector).
    """
    d = len(block.states)
    if d <= DENSE_BLOCK_STATES:
        return _dense_level(_block_matrix(block, *_pair_integrals(k, garr), e_nuc))
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal(d)
    op = _block_operator(block, k, garr, e_nuc)
    return _lowest_level(lambda m: _lanczos_pairs(op, m, v0), d - 1)


def ground_energy(hd: DenseHamiltonian, n_electrons: int | None = None) -> float:
    """Lowest eigenvalue, restricted to the n-electron sector when given."""
    if n_electrons is None:
        return float(_checked_eigh(hd.matrix, "Hamiltonian matrix", lowest=1)[0][0])
    return _ground_space(hd, n_electrons)[0]


def _ground_space(hd: DenseHamiltonian, n_electrons: int) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """(energy, orthonormal columns spanning the level, basis states) of the sector ground level.

    The columns run over the sector's states and span the level's 2M_s = N_e mod 2
    part (see the module docstring), zero outside that block, so a spin multiplet
    contributes its one member there rather than an arbitrary mix of members.
    """
    if hd.sector not in ("all", n_electrons):
        raise ValidationError(f"Hamiltonian was built in sector {hd.sector}, asked for {n_electrons}")
    n = hd.n_spin_orbitals // 2
    basis = np.asarray(hd.basis)
    up, down = (np.bitwise_count(bits).astype(int) for bits in (basis & ((1 << n) - 1), basis >> n))
    in_sector = up + down == n_electrons
    if not in_sector.any():
        raise ValidationError(f"sector {n_electrons} is empty")
    in_block = in_sector & (up - down == n_electrons % 2)
    energy, vecs = _dense_level(hd.matrix[np.ix_(in_block, in_block)])
    level = np.zeros((np.count_nonzero(in_sector), vecs.shape[1]))
    level[in_block[in_sector]] = vecs
    return energy, level, tuple(basis[in_sector].tolist())


def ground_state(hd: DenseHamiltonian, n_electrons: int) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """(energy, eigenvector, basis states) of the sector ground level."""
    energy, space, states = _ground_space(hd, n_electrons)
    return energy, space[:, 0], states
