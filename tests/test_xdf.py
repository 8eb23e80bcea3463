"""Eigendecomposition-based factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamfactor as hf
from hamfactor.errors import NonPSDTensor, ValidationError

from conftest import make_instance


def test_exact_reconstruction_at_full_rank(small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 16)
    assert hf.frobenius_error(g, hf.reconstruct_tensor(fact)) < 1e-10
    assert fact.method_tag == "XDF"


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_exactness_property(n, seed):
    g, _ = make_instance(n, seed=seed)
    fact = hf.explicit_factorization(g, n * n)
    assert hf.frobenius_error(g, hf.reconstruct_tensor(fact)) < 1e-10


def test_leaves_are_symmetric(small_instance):
    g, _ = small_instance
    for leaf in hf.first_factorization(g, 16):
        assert np.allclose(leaf, leaf.T, atol=1e-12)


def test_truncation_error_decreases_with_rank(small_instance):
    g, _ = small_instance
    errors = [
        hf.frobenius_error(g, hf.reconstruct_tensor(hf.explicit_factorization(g, n_df)))
        for n_df in (2, 4, 8, 16)
    ]
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def test_component_truncation_zeroes_small_entries():
    w = np.array([0.5, 1e-6, -2e-5, -3.0])
    out = hf.truncate_factors(w, delta_df=1e-4, mode="component")
    assert np.array_equal(out != 0, np.array([True, False, False, True]))


def test_combined_truncation_respects_budget():
    w = np.array([1.0, 0.3, 0.2, 0.1])
    out = hf.truncate_factors(w, delta_df=0.25, mode="combined")
    # drops smallest entries while the dropped L2 mass stays below delta_df
    assert np.array_equal(out, np.array([1.0, 0.3, 0.2, 0.0]))


def test_rejects_negative_definite_tensor():
    g, _ = make_instance(3, seed=0)
    with pytest.raises(NonPSDTensor):
        hf.first_factorization(hf.TwoElectronTensor(-g.g), 9)


def test_signed_factorization_handles_indefinite():
    g, _ = make_instance(3, seed=5)
    shifted = hf.shifted_tensor(g, a2_prime=10.0)  # strongly indefinite
    leaves, signs = hf.signed_first_factorization(shifted, 9)
    assert -1 in signs
    rebuilt = sum(
        s * np.einsum("pq,rs->pqrs", L, L) for L, s in zip(leaves, signs)
    )
    assert np.max(np.abs(shifted.g - rebuilt)) < 1e-10


def test_second_factorization_rotations_orthogonal(small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 16)
    for u in fact.rotations:
        assert np.max(np.abs(u @ u.T - np.eye(4))) < 1e-12


def test_leaf_ranks_count_nonzero_components(small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 16, delta_df=1e-3)
    for xi, w in zip(fact.leaf_ranks, fact.factors):
        assert xi == int(np.count_nonzero(w))


def test_invalid_n_df():
    g, _ = make_instance(3, seed=0)
    with pytest.raises(ValidationError):
        hf.first_factorization(g, 0)


def reference_second_factorization(leaves, delta_df=0.0, mode="component", signs=None):
    """The per-leaf second factorization: one eigh, sign fix, tie sort and truncation per leaf."""
    signs = [1] * len(leaves) if signs is None else signs
    kept = []
    for L, s in zip(leaves, signs):
        vals, vecs = np.linalg.eigh(0.5 * (L + L.T))
        order = np.argsort(-np.abs(vals), kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        columns = []
        for i in range(vecs.shape[1]):
            v = vecs[:, i]
            columns.append(-v if v[int(np.argmax(np.abs(v)))] < 0 else v)
        vecs = np.column_stack(columns)
        mags = np.abs(vals)
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
        w = hf.truncate_factors(vals, delta_df, mode)
        if np.count_nonzero(w):
            kept.append((vecs, w, s, int(np.count_nonzero(w))))
    return kept


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_batched_second_factorization_matches_per_leaf_reference(small_instance):
    n = 5
    rng = np.random.default_rng(3)
    random_leaves = [a + a.T for a in rng.standard_normal((6, n, n))]
    tied_leaves = [
        np.diag([1.0, -1.0, 0.0, 0.0, 0.0]),
        np.eye(n),
        np.diag([0.0, 2.0, 0.0, 0.0, -0.5]),
        np.diag([0.25, -0.25, 0.25, -0.25, 1.0]),
    ]
    tiny = 1e-6 * random_leaves[0]  # truncates to rank 0 once delta_df > 0
    cases = [
        (random_leaves, 0.0, "component", None),
        (random_leaves + tied_leaves, 0.0, "component", [1, -1, 1, 1, -1, 1, -1, 1, 1, -1]),
        (tied_leaves + [tiny] + random_leaves, 1e-3, "component", None),
        (random_leaves + [tiny] + tied_leaves, 0.5, "combined", None),
        (hf.first_factorization(small_instance[0], 16), 1e-4, "component", None),
    ]
    for leaves, delta_df, mode, signs in cases:
        fact = hf.second_factorization(leaves, delta_df, mode, signs=signs)
        reference = reference_second_factorization(leaves, delta_df, mode, signs)
        assert fact.n_leaves == len(reference)
        for u, w, s, xi, (u_ref, w_ref, s_ref, xi_ref) in zip(
            fact.rotations, fact.factors, fact.signs, fact.leaf_ranks, reference
        ):
            assert same_bits(u, u_ref) and same_bits(w, w_ref)
            assert s == s_ref and xi == xi_ref
    for delta_df, mode in ((1e-3, "component"), (0.5, "combined")):
        assert hf.second_factorization([tiny, np.eye(n)], delta_df, mode).n_leaves == 1

    for bad in ([np.eye(3), np.eye(2)], [np.eye(3), np.triu(np.ones((3, 3)))]):
        with pytest.raises(ValidationError, match="leaf matrices must be symmetric and N x N"):
            hf.second_factorization(bad)
