"""Eigendecomposition-based factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamfactor as hf
from hamfactor.errors import NonPSDTensor, NumericalError, ValidationError
from hamfactor.xdf import EIG_CLAMP_TOL, _eigendecompose_matrix_form, _leaves, _order_by_magnitude, _psd_leaves

from conftest import data_path, make_instance


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
    zero = np.zeros((n, n))
    # leaves whose Frobenius norm ||L||_F (or sqrt(N) ||L||_F^2, combined), which
    # bounds every value the truncation tests, sits just below or just above delta_df
    v = rng.standard_normal(n)
    rank_one = np.outer(v, v) / np.dot(v, v)  # ||rank_one||_F = 1, eigenvalue 1
    spread = random_leaves[1] / np.linalg.norm(random_leaves[1])
    component_edge = [
        f * unit for f in (1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6) for unit in (rank_one, spread)
    ]
    combined_edge = [
        np.sqrt(f / np.sqrt(n)) * unit for f in (1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6) for unit in (rank_one, spread)
    ]
    # at N = 1 both bounds are tight: the leaf [[c]] has W = (c,)
    fractions = (1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6)
    tight_component = [np.array([[s * 0.25 * f]]) for f in fractions for s in (1, -1)]
    tight_combined = [np.array([[s * np.sqrt(0.25 * f)]]) for f in fractions for s in (1, -1)]
    cases = [
        (tight_component, 0.25, "component", None),
        (tight_combined, 0.25, "combined", [1, -1] * 4),
        # ||L||_F^2 = 2 < delta_df <= (sum_k |W_k|) |W_1| = 3: kept, although ||L||_F^2 < delta_df
        ([np.diag([1.0, 0.5, 0.5, 0.5, 0.5]), 0.1 * np.eye(n)], 2.5, "combined", [-1, 1]),
        (component_edge + random_leaves, 1.0, "component", None),
        (component_edge + [np.eye(n)], 0.999999, "component", [1, -1] * 4 + [1]),
        (combined_edge + random_leaves, 1.0, "combined", None),
        ([random_leaves[2]] + combined_edge + [np.eye(n)], 1.0, "combined", [-1] + [1, -1] * 4 + [1]),
        (random_leaves, 0.0, "component", None),
        (random_leaves + tied_leaves, 0.0, "component", [1, -1, 1, 1, -1, 1, -1, 1, 1, -1]),
        # exactly zero leaves are dropped before the eigh; the signs stay aligned
        ([zero] + random_leaves[:3] + [zero] + random_leaves[3:], 0.0, "component", [1, 1, -1, 1, -1, -1, 1, -1]),
        (tied_leaves + [tiny] + random_leaves, 1e-3, "component", None),
        (random_leaves + [tiny] + tied_leaves, 0.5, "combined", None),
        (hf.first_factorization(small_instance[0], 16), 1e-4, "component", None),
    ]
    for leaves, delta_df, mode, signs in cases:
        fact = hf.second_factorization(leaves, delta_df, mode, signs=signs)
        reference = reference_second_factorization(leaves, delta_df, mode, signs)
        if len(leaves[0]) == 1:
            assert len(reference) == 4  # the leaves above the cut
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
    # a non-finite leaf reaches the eigensolve whatever the cut, however small its neighbours
    for bad_entry in (np.nan, np.inf):
        broken = np.full((n, n), bad_entry)
        for delta_df, mode in ((0.0, "component"), (1e-4, "component"), (0.5, "combined")):
            with pytest.raises(NumericalError, match="leaf matrices has non-finite entries"):
                hf.second_factorization([tiny, broken, np.eye(n)], delta_df, mode)


def full_form_first_factorization(g, n_df, signed):
    """The first factorization on the N^2 x N^2 matrix form: the reference for the packed one."""
    vals, vecs = _order_by_magnitude(*np.linalg.eigh(g.as_matrix()))
    vals, vecs = vals[:n_df], vecs[:, :n_df]
    if signed:
        signs = [1 if v >= -EIG_CLAMP_TOL else -1 for v in vals]
        kept = np.where(np.abs(vals) < EIG_CLAMP_TOL, 0.0, vals)
    else:
        signs = [1] * n_df
        kept = np.clip(vals, 0.0, None)
    return vals, _leaves(kept, vecs, g.n_orbitals), signs


def _fixture(name):
    g, _, _, _ = hf.parse_fcidump(data_path(f"{name}.fcidump"))
    return g


@pytest.mark.parametrize(
    "case, signed",
    [
        ("chain_n06", False), ("chain_n06", True), ("chain_n10", False), ("chain_n10", True),
        ("indefinite", True), ("n_df_past_pair_space", False), ("n_df_past_pair_space", True),
    ],
)
@pytest.mark.parametrize("delta_df", [1e-4, 0.0])
def test_packed_matrix_form_matches_full_form(case, signed, delta_df):
    if case == "indefinite":
        g = hf.shifted_tensor(make_instance(5, seed=5)[0], 10.0)
    elif case == "n_df_past_pair_space":
        g = make_instance(5, seed=2)[0]  # 4N = 20 > N(N+1)/2 = 15
    else:
        g = _fixture(case)
    n = g.n_orbitals
    n_df = 4 * n
    ref_vals, ref_leaves, ref_signs = full_form_first_factorization(g, n_df, signed)
    vals, _ = _eigendecompose_matrix_form(g.as_packed_matrix(), n, n_df)
    scale = np.max(np.abs(ref_vals))
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12 * scale

    if signed:
        leaves, signs = hf.signed_first_factorization(g, n_df)
        fact = hf.second_factorization(leaves, delta_df, signs=signs)
    else:
        fact = hf.explicit_factorization(g, n_df, delta_df)
    ref = hf.second_factorization(ref_leaves, delta_df, signs=ref_signs)
    lead = int(np.sum(np.abs(vals) > EIG_CLAMP_TOL))
    # both paths zero |λ| < 1e-10; with delta_df = 0 the clamped full-form
    # reference alone keeps leaves of roundoff eigenvalues
    assert fact.n_leaves == lead
    if delta_df or signed:
        assert ref.n_leaves == lead
    assert ref.n_leaves >= lead
    assert all(np.max(np.abs(w)) < 1e-6 for w in ref.factors[lead:])
    assert fact.leaf_ranks[:lead] == ref.leaf_ranks[:lead]
    assert fact.signs[:lead] == ref.signs[:lead]
    assert hf.two_body_burg_norm(fact) == pytest.approx(hf.two_body_burg_norm(ref), rel=1e-12)
    assert hf.frobenius_error(hf.reconstruct_tensor(fact), hf.reconstruct_tensor(ref)) < 1e-10 * scale


@pytest.mark.parametrize("name", ["chain_n06", "chain_n07", "chain_n10"])
def test_psd_leaves_are_the_eigenvalues_above_the_clamp(name):
    """At delta_df = 0 the PSD path keeps one leaf per eigenvalue above 1e-10, whatever the roundoff."""
    g = _fixture(name)
    n = g.n_orbitals
    gp = g.as_packed_matrix()
    above = int(np.sum(np.abs(np.linalg.eigvalsh(gp)) > EIG_CLAMP_TOL))
    assert above < 4 * n
    fact = hf.explicit_factorization(g, 4 * n, 0.0)
    assert fact.n_leaves == above
    # at the default delta_df the roundoff leaves were truncated anyway: the
    # record equals the one from the leaves that keep them, bit for bit
    for mode in ("component", "combined"):
        kept = hf.second_factorization(_psd_leaves(gp, n, 4 * n), 1e-4, mode)
        fact = hf.explicit_factorization(g, 4 * n, 1e-4, mode)
        assert fact.n_leaves == kept.n_leaves
        assert fact.signs == kept.signs and fact.leaf_ranks == kept.leaf_ranks
        for a, b in zip(fact.rotations + fact.factors, kept.rotations + kept.factors):
            assert same_bits(a, b)
