"""Exact-diagonalization cross-checks between independent constructions."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import hamfactor as hf
from hamfactor import oracle
from hamfactor.errors import NumericalError, ValidationError
from hamfactor.oracle import (
    MAX_FULL_SPACE_QUBITS,
    MAX_QUBITS,
    _ground_space,
    _spin_table,
    block_ground_level,
    encoded_integrals,
    spin_block,
)

from conftest import data_path, make_instance, make_one_body


def zeros_tensor(n):
    return hf.TwoElectronTensor(np.zeros((n, n, n, n)))


def test_noninteracting_energies_are_subset_sums():
    eps = np.array([0.25, -0.75])
    hd = hf.build_from_integrals(np.diag(eps), zeros_tensor(2), e_nuc=0.125)
    assert np.allclose(hd.matrix, np.diag(np.diag(hd.matrix)))
    for i, state in enumerate(hd.basis):
        occ_up = [(state >> p) & 1 for p in range(2)]
        occ_dn = [(state >> (p + 2)) & 1 for p in range(2)]
        expected = 0.125 + sum(e * (u + d) for e, u, d in zip(eps, occ_up, occ_dn))
        assert hd.matrix[i, i] == pytest.approx(expected, abs=1e-12)


def test_noninteracting_spectrum_is_orbital_subset_sums():
    # a dense k hops between orbitals 0 and 2 across orbital 1, so a wrong
    # Jordan-Wigner sign moves levels; the spectrum needs no second builder
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    k = a + a.T
    assert abs(k[0, 2]) > 0.1
    occupations = np.array(list(itertools.product((0, 1), repeat=3)))
    one_spin = occupations @ np.linalg.eigvalsh(k)
    expected = np.sort((one_spin[:, None] + one_spin[None, :]).ravel())
    spectrum = np.linalg.eigvalsh(hf.build_from_integrals(k, zeros_tensor(3)).matrix)
    assert len(spectrum) == 64
    assert np.max(np.abs(spectrum - expected)) < 1e-10


def ladder_product(p, q, states):
    """Dense a^dag_p a_q over sorted occupation strings, one state at a time."""
    index = {state: i for i, state in enumerate(states)}
    out = np.zeros((len(states), len(states)))
    for col, state in enumerate(states):
        stripped = state & ~(1 << q)
        if stripped == state or (stripped >> p) & 1:
            continue
        parity = (state & ((1 << q) - 1)).bit_count() + (stripped & ((1 << p) - 1)).bit_count()
        out[index[stripped | (1 << p)], col] = -1.0 if parity & 1 else 1.0
    return out


def ladder_operators(n, states):
    """E[p, q] = a^dag_p↑ a_q↑ + a^dag_p↓ a_q↓ as dense matrices over ``states``."""
    return np.array(
        [[ladder_product(p, q, states) + ladder_product(p + n, q + n, states) for q in range(n)] for p in range(n)]
    )


def table_blocks(table):
    """The F_a of one spin table as dense matrices, in pair order, from its rows."""
    m, d = table.sign.shape
    out = np.zeros((m, d, d))
    for a, i in zip(*np.nonzero(table.sign)):
        out[a, i, table.source[a, i]] = table.sign[a, i]
    return out


def test_spin_tables_match_per_string_ladder_products():
    for n in (2, 3, 4):
        for count in range(n + 1):
            table = _spin_table(n, count)
            strings = table.strings.tolist()
            assert strings == [s for s in range(1 << n) if s.bit_count() == count]
            blocks = table_blocks(table)
            assert len(blocks) == n * (n + 1) // 2
            for block, (p, q) in zip(blocks, zip(*np.triu_indices(n))):
                expected = ladder_product(p, q, strings)
                if p != q:
                    # E_pq and E_qp hop in opposite directions: no entry of one can
                    # cancel or hide an entry of the other in F_pq = E_pq + E_qp
                    reverse = ladder_product(q, p, strings)
                    assert np.any(expected) == (0 < count < n) and not np.any(expected * reverse)
                    expected = expected + reverse
                assert np.array_equal(block, expected)


def sector_pair_blocks(n, sector):
    """The F_a of a sector (or the Fock space) in sorted state order, composed as the oracle lays out its blocks.

    Over a spin block, F_a = 1 ⊗ F^up_a + F^down_a ⊗ 1: a down hop passes every up electron twice, so its sign is the down string's.
    """
    counts = range(2 * n + 1) if sector == "all" else [sector]
    blocks = [oracle._block(n, up, ne - up) for ne in counts for up in range(max(0, ne - n), min(n, ne) + 1)]
    states = np.sort(np.concatenate([block.states for block in blocks]))
    out = np.zeros((n * (n + 1) // 2, len(states), len(states)))
    for block in blocks:
        up, down = table_blocks(block.up), table_blocks(block.down)
        eye_up, eye_down = np.eye(up.shape[1]), np.eye(down.shape[1])
        at = np.searchsorted(states, block.states)
        for a in range(len(out)):
            out[a][np.ix_(at, at)] = np.kron(eye_down, up[a]) + np.kron(down[a], eye_up)
    return states, out


@pytest.mark.parametrize("sector", ["all", 3])
def test_excitation_table_matches_per_state_ladder_products(sector):
    n = 3
    states, blocks = sector_pair_blocks(n, sector)
    expected_states = [s for s in range(1 << 2 * n) if sector == "all" or s.bit_count() == sector]
    assert states.tolist() == expected_states
    ladders = ladder_operators(n, expected_states)
    assert len(blocks) == n * (n + 1) // 2
    for block, (p, q) in zip(blocks, zip(*np.triu_indices(n))):
        expected = ladders[p, q]
        if p != q:
            # E_pq and E_qp hop in opposite directions: no entry of one can
            # cancel or hide an entry of the other in F_pq = E_pq + E_qp
            assert np.any(ladders[p, q]) and not np.any(ladders[p, q] * ladders[q, p])
            expected = expected + ladders[q, p]
        assert np.array_equal(block, expected)


def test_spin_table_blocks_are_symmetric():
    # the oracle reads the rows (source, sign) of F_a as its columns too, and the tables are shared
    tables = [_spin_table(n, count) for n in (2, 3, 4, 6) for count in range(n + 1)]
    for table in tables:
        for block in table_blocks(table):
            assert np.array_equal(block, block.T)
        for arr in (table.strings, table.source, table.sign):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


def test_h2_fci_against_two_determinant_ci(h2_path):
    g, h, e_nuc, meta = hf.parse_fcidump(h2_path)
    ob = hf.derive_one_body(h, g, e_nuc)
    hd = hf.build_from_integrals(ob.k, g, e_nuc, sector=2)
    e_fci = hf.ground_energy(hd, 2)

    # independent check: the singlet ground state lives in the two-determinant
    # space {|1up 1dn>, |2up 2dn>}; its CI matrix is closed under H
    h11, h22 = h[0, 0], h[1, 1]
    j11, j22, k12 = g.g[0, 0, 0, 0], g.g[1, 1, 1, 1], g.g[0, 1, 0, 1]
    ci = np.array([[2 * h11 + j11, k12], [k12, 2 * h22 + j22]]) + e_nuc * np.eye(2)
    e_ci = float(np.linalg.eigvalsh(ci)[0])

    assert e_fci == pytest.approx(e_ci, abs=1e-10)
    assert e_fci == pytest.approx(-1.1374506545, abs=1e-9)
    # correlation energy is strictly negative relative to the mean field
    e_hf = 2 * h11 + j11 + e_nuc
    assert e_fci < e_hf - 1e-3


def test_hamiltonian_commutes_with_number_operator():
    g, _ = make_instance(3, seed=13)
    ob = make_one_body(g, seed=13)
    hd = hf.build_from_integrals(ob.k, g)
    nop = np.diag(np.bitwise_count(np.asarray(hd.basis)).astype(float))
    comm = hd.matrix @ nop - nop @ hd.matrix
    assert np.max(np.abs(comm)) < 1e-10


def test_sector_spectra_tile_full_spectrum():
    g, _ = make_instance(2, seed=3)
    ob = make_one_body(g, seed=3)
    full = hf.build_from_integrals(ob.k, g, e_nuc=0.3)
    all_eigs = np.sort(np.linalg.eigvalsh(full.matrix))
    tiled = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(hf.build_from_integrals(ob.k, g, e_nuc=0.3, sector=ne).matrix)
                for ne in range(5)
            ]
        )
    )
    assert np.allclose(all_eigs, tiled, atol=1e-10)


def test_spectrum_invariant_under_orbital_rotation(h2_path):
    g, h, e_nuc, _ = hf.parse_fcidump(h2_path)
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    h_rot = r.T @ h @ r
    g_rot = hf.TwoElectronTensor(np.einsum("ap,bq,cr,ds,abcd->pqrs", r, r, r, r, g.g))
    e0 = np.linalg.eigvalsh(hf.build_from_integrals(hf.derive_one_body(h, g).k, g).matrix)
    e1 = np.linalg.eigvalsh(
        hf.build_from_integrals(hf.derive_one_body(h_rot, g_rot).k, g_rot).matrix
    )
    assert np.allclose(np.sort(e0), np.sort(e1), atol=1e-9)


def test_factorized_hamiltonian_matches_integral_hamiltonian(small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=7)
    fact = hf.explicit_factorization(g, 16)
    h_int = hf.build_from_integrals(ob.k, g, sector=2)
    h_fact = hf.build_from_factorization(fact, ob, sector=2)
    assert np.max(np.abs(h_int.matrix - h_fact.matrix)) < 1e-8


def test_shift_identity_restores_exact_spectrum():
    g, _ = make_instance(3, seed=21)
    ob = make_one_body(g, seed=21, e_nuc=0.2)
    a1, _ = hf.one_body_shift(ob.f_eigs)
    _, fact = hf.global_two_body_shift(g, 9)
    fact = fact.with_one_body_shift(a1)
    # arbitrary per-leaf encoding shifts on top; the identity must still hold
    fact = replace(fact, shifts=tuple(0.07 * (i - 1) for i in range(fact.n_leaves)))
    correction = hf.ShiftCorrection.from_factorization(fact)

    for ne in (2, 3, 4):
        exact = hf.build_from_integrals(ob.k, g, 0.2, sector=ne)
        enc = hf.build_from_factorization(fact, ob, sector=ne)
        # within a number sector the encoding differs by an exact multiple of
        # the identity, so the whole matrix must line up, not just the bottom
        offset = hf.correction_energy(correction, ne)
        shift_matrix = exact.matrix - offset * np.eye(len(exact.basis))
        assert np.max(np.abs(enc.matrix - shift_matrix)) < 1e-8
        e_exact = hf.ground_energy(exact, ne)
        e_enc = hf.ground_energy(enc, ne)
        assert e_enc + offset == pytest.approx(e_exact, abs=1e-8)
        # the ground eigenvector of either matrix diagonalizes the other
        _, psi, _ = hf.ground_state(enc, ne)
        residual = exact.matrix @ psi - (e_enc + offset) * psi
        assert np.max(np.abs(residual)) < 1e-7


def test_raw_tensor_is_checked_and_k_symmetrized():
    g, _ = make_instance(3, seed=17)
    ob = make_one_body(g, seed=17)
    asymmetric = g.g.copy()
    asymmetric[0, 1, 2, 2] += 0.1  # breaks the p <-> q symmetry the pair form assumes
    with pytest.raises(ValidationError, match="symmetry"):
        hf.build_from_integrals(ob.k, asymmetric)
    # an asymmetric k is read as (k + k^T)/2, as the symmetrized H reads it
    skew = np.triu(np.ones((3, 3)), 1)
    lopsided = hf.build_from_integrals(ob.k + skew - skew.T, g.g, sector=3).matrix
    assert np.max(np.abs(lopsided - hf.build_from_integrals(ob.k, g, sector=3).matrix)) < 1e-12


def test_size_caps_refuse_early():
    with pytest.raises(ValidationError):
        hf.build_from_integrals(np.zeros((7, 7)), zeros_tensor(7), sector="all")
    with pytest.raises(ValidationError):
        hf.build_from_integrals(np.zeros((8, 8)), zeros_tensor(8), sector=2)
    with pytest.raises(ValidationError):
        hf.build_from_integrals(np.zeros((2, 2)), zeros_tensor(2), sector=5)
    assert MAX_FULL_SPACE_QUBITS == 12 and MAX_QUBITS == 14


def test_sector_block_consistency():
    g, _ = make_instance(2, seed=9)
    ob = make_one_body(g, seed=9)
    full = hf.build_from_integrals(ob.k, g)
    direct = hf.build_from_integrals(ob.k, g, sector=2)
    assert hf.ground_energy(full, 2) == pytest.approx(hf.ground_energy(direct, 2), abs=1e-12)
    # the Fock-space build is filtered down to the sector the sector build holds whole
    e_full, level_full, states_full = _ground_space(full, 2)
    e_direct, level_direct, states_direct = _ground_space(direct, 2)
    assert states_full == states_direct == direct.basis
    assert e_full == pytest.approx(e_direct, abs=1e-12)
    assert np.max(np.abs(level_full @ level_full.T - level_direct @ level_direct.T)) < 1e-12
    with pytest.raises(ValidationError, match="empty"):
        hf.ground_state(full, 5)
    with pytest.raises(ValidationError, match="built in sector 2"):
        hf.ground_energy(direct, 3)


def test_whole_space_ground_energy_refuses_non_finite_matrices():
    hd = hf.build_from_integrals(np.diag([0.25, -0.75]), zeros_tensor(2))
    poisoned = hd.matrix.copy()
    poisoned[0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        hf.ground_energy(replace(hd, matrix=poisoned))
    g = np.zeros((2, 2, 2, 2))
    g[0, 0, 0, 0] = 1e308  # overflows once both spins of orbital 0 are paired
    with np.errstate(over="ignore", invalid="ignore"):
        overflowing = hf.build_from_integrals(np.zeros((2, 2)), g)
    with pytest.raises(NumericalError, match="non-finite"):
        hf.ground_energy(overflowing)


def two_ms(state, n):
    """2M_s of an occupation string: up electrons (bits 0..n-1) minus down (bits n..2n-1)."""
    return (state & ((1 << n) - 1)).bit_count() - (state >> n).bit_count()


def test_ground_level_from_spin_block_matches_whole_sector():
    for n in (2, 3, 4):
        g, _ = make_instance(n, seed=40 + n)
        ob = make_one_body(g, seed=40 + n, e_nuc=0.2)
        full = hf.build_from_integrals(ob.k, g, ob.e_nuc)
        for ne in range(1, 2 * n):
            for hd in (full, hf.build_from_integrals(ob.k, g, ob.e_nuc, sector=ne)):
                keep = [i for i, s in enumerate(hd.basis) if s.bit_count() == ne]
                matrix = hd.matrix[np.ix_(keep, keep)]
                energy = hf.ground_energy(hd, ne)
                assert energy == pytest.approx(np.linalg.eigvalsh(matrix)[0], abs=1e-10)
                e, psi, states = hf.ground_state(hd, ne)
                assert states == tuple(hd.basis[i] for i in keep)
                assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
                assert np.max(np.abs(matrix @ psi - e * psi)) <= 1e-9
                outside = [i for i, s in enumerate(states) if two_ms(s, n) != ne % 2]
                assert outside and not np.any(psi[outside])

    # chain_n06's 6-electron ground level is a 5-fold multiplet, and its one
    # 2M_s = 0 member is the whole level the spin block returns
    g, h, e_nuc, _ = hf.parse_fcidump(data_path("chain_n06.fcidump"))
    hd = hf.build_from_integrals(hf.derive_one_body(h, g, e_nuc).k, g, e_nuc, sector=6)
    levels = np.linalg.eigvalsh(hd.matrix)
    assert len(hd.basis) == 924
    assert np.sum(levels <= levels[0] + 1e-8) == 5
    energy, level, states = _ground_space(hd, 6)
    assert level.shape == (924, 1)
    assert energy == pytest.approx(levels[0], abs=1e-10)
    assert np.max(np.abs(hd.matrix @ level - energy * level)) <= 1e-9
    assert not np.any(level[[two_ms(s, 6) != 0 for s in states]])


def squared_direction_reference(fact, one_body, sector):
    """The encoded Hamiltonian as the block encoding writes it, one direction at a time.

    e_nuc − 1/2 sum sigma_j c_j^2 + sum (f − x·1)_pq E_pq + sum_j 1/2 sigma_j (c_j − n_j)^2
    over every signed_split direction v_j of every leaf, with c_j = sum(v_j),
    n_j the one-body operator of U diag(v_j) U^T and x = a1′ + N(a2′ + sum α).
    """
    n = fact.n_orbitals
    states = [s for s in range(1 << 2 * n) if sector == "all" or s.bit_count() == sector]
    ladders = ladder_operators(n, states)

    def operator(coeff):  # sum_pq coeff_pq E_pq, from the per-state ladder products
        return np.einsum("pq,pqij->ij", coeff, ladders)

    identity = np.eye(len(states))
    x = fact.a1_prime + n * (fact.a2_prime + sum(fact.shifts))
    ham = operator(one_body.f - x * np.eye(n))
    ham += one_body.e_nuc * identity
    for u, w, alpha, sign in zip(fact.rotations, fact.factors, fact.shifts, fact.signs):
        for v, sigma in hf.signed_split(w, alpha, sign):
            c = float(np.sum(v))
            op = c * identity - operator(u @ np.diag(v) @ u.T)
            ham += 0.5 * sigma * (op @ op - c * c * identity)
    return ham


def random_shifted_record(n, seed):
    """Rank-1 record with every (leaf sign, α sign) pair, one α = 0 leaf, a1′ and a2′ set."""
    rng = np.random.default_rng(seed)
    signs = (1, 1, -1, -1, 1)
    shifts = tuple(s * rng.uniform(0.05, 0.5) for s in (1, -1, 1, -1, 0))
    return hf.DoubleFactorization(
        n_orbitals=n,
        method_tag="SCDF",
        rotations=tuple(np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in signs),
        factors=tuple(rng.standard_normal(n) for _ in signs),
        shifts=shifts,
        signs=signs,
        leaf_ranks=(n,) * len(signs),
        a1_prime=float(rng.uniform(-1, 1)),
        a2_prime=float(rng.uniform(-1, 1)),
    )


@pytest.mark.parametrize("sector", ["all", "n"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_factorized_builder_matches_squared_direction_reference(n, sector):
    sector = n if sector == "n" else sector
    for seed in range(3):
        fact = random_shifted_record(n, seed)
        assert {(s, np.sign(a)) for s, a in zip(fact.signs, fact.shifts)} >= {
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        }
        g, _ = make_instance(n, seed=seed)
        ob = make_one_body(g, seed=seed, e_nuc=0.3)
        built = hf.build_from_factorization(fact, ob, sector=sector)
        reference = squared_direction_reference(fact, ob, sector)
        assert np.max(np.abs(built.matrix - reference)) <= 1e-12


def chain_problem(n):
    g, h, e_nuc, _ = hf.parse_fcidump(data_path(f"chain_n{n:02d}.fcidump"))
    return g, hf.derive_one_body(h, g, e_nuc)


def block_cases():
    """(n, N_e, g, one body): N = 2-4 at every N_e, then chain_n06 and chain_n07 at half filling."""
    for n in (2, 3, 4):
        g, _ = make_instance(n, seed=60 + n)
        ob = make_one_body(g, seed=60 + n, e_nuc=0.2)
        for ne in range(1, 2 * n):
            yield n, ne, g, ob
    for n in (6, 7):
        yield (n, n, *chain_problem(n))


def test_spin_block_level_matches_whole_sector():
    for n, ne, g, ob in block_cases():
        block = spin_block(n, ne)
        reference = hf.build_from_integrals(ob.k, g, ob.e_nuc, sector=ne)
        e_ref, level_ref, states = _ground_space(reference, ne)
        at = np.searchsorted(states, block.states)
        assert np.array_equal(np.asarray(states)[at], block.states)
        outside = np.setdiff1d(np.arange(len(states)), at)
        assert not np.any(level_ref[outside])
        energy, level = block_ground_level(block, ob.k, g.g, ob.e_nuc)
        assert energy == pytest.approx(e_ref, abs=1e-10)
        assert level.shape[1] == level_ref.shape[1]
        assert np.max(np.abs(level @ level.T - level_ref[at] @ level_ref[at].T)) < 1e-8
        if n == 6:  # the 5-fold sector level has one member in the block
            assert len(states) == 924 and level.shape == (400, 1)


def dense_and_lanczos(monkeypatch, block, k, garr, e_nuc, v0=None):
    with monkeypatch.context() as patch:
        # chain_n07's 1225-state block is past DENSE_BLOCK_STATES; its dense side stays dense
        patch.setattr(oracle, "DENSE_BLOCK_STATES", len(block.states))
        dense = block_ground_level(block, k, garr, e_nuc)
        patch.setattr(oracle, "DENSE_BLOCK_STATES", 0)
        lanczos = block_ground_level(block, k, garr, e_nuc, v0=v0)
    return dense, lanczos


def test_matrix_free_level_matches_dense(monkeypatch):
    cases = [case for case in block_cases() if len(spin_block(case[0], case[1]).states) >= 9]
    assert len(cases) > 5
    for n, ne, g, ob in cases:
        block = spin_block(n, ne)
        integrals = [(ob.k, g.g)]
        integrals.append(encoded_integrals(hf.explicit_factorization(g, 2 * n, 1e-4), ob.f))
        v0 = None
        for k, garr in integrals:
            (e_dense, dense), (e_free, free) = dense_and_lanczos(monkeypatch, block, k, garr, ob.e_nuc, v0)
            assert e_free == pytest.approx(e_dense, abs=1e-10)
            assert free.shape == dense.shape
            # norms of projections, as verify --fci reports them
            assert np.linalg.norm(free[:, 0] @ dense) == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.norm(dense[:, 0] @ free) == pytest.approx(1.0, abs=1e-8)
            v0 = dense[:, 0]  # warm-start the encoded solve, as verify --fci does


def test_matrix_free_sigma_matches_the_dense_block():
    # chain_n06 with 5 electrons has 20 up by 15 down strings, so C is not square
    rng = np.random.default_rng(8)
    for n, ne in ((6, 6), (7, 7), (6, 5)):
        g, ob = chain_problem(n)
        block = spin_block(n, ne)
        d = len(block.states)
        dense = oracle._block_matrix(block, *oracle._pair_integrals(ob.k, g.g), ob.e_nuc)
        op = oracle._block_operator(block, ob.k, g.g, ob.e_nuc)
        for c in (rng.standard_normal(d), np.eye(d)[d // 3], np.ones(d)):
            reference = dense @ c
            assert np.linalg.norm(op.matvec(c) - reference) <= 1e-13 * np.linalg.norm(reference)


def test_matrix_free_block_stays_small():
    # tables of N bits and N² hops, and σ's two M·d work arrays (2 × 28 MB at N = 10)
    import tracemalloc

    g, ob = chain_problem(10)
    tracemalloc.start()
    try:
        block = spin_block(10, 10)
        op = oracle._block_operator(block, ob.k, g.g, ob.e_nuc)
        op.matvec(np.ones(len(block.states)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6


def test_spin_block_refuses_before_allocating():
    with pytest.raises(ValidationError, match="213444 states"):
        spin_block(11, 11)
    assert math.comb(10, 5) ** 2 == 63504 <= oracle.MAX_BLOCK_STATES  # N = 10 passes
    with pytest.raises(ValidationError, match="empty"):
        spin_block(3, 7)
    with pytest.raises(ValidationError, match="64-bit"):
        spin_block(32, 1)
