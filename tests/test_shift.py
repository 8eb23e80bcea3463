"""Particle-number shift machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamfactor as hf
from hamfactor import norms, shift
from hamfactor.tensors import _packing
from hamfactor.xdf import _eigendecompose_matrix_form, _signed_leaves

from conftest import data_path, make_instance


def test_one_body_shift_is_median():
    eigs = np.array([0.0, 1.0, 5.0])
    a1, norm = hf.one_body_shift(eigs)
    assert a1 == pytest.approx(1.0)
    assert norm == pytest.approx(1.0 + 0.0 + 4.0)


def test_one_body_shift_minimizes_l1_on_grid():
    rng = np.random.default_rng(4)
    eigs = rng.standard_normal(7) * 3.0
    a1, norm = hf.one_body_shift(eigs)
    grid = np.linspace(eigs.min() - 1, eigs.max() + 1, 4001)
    best = min(np.sum(np.abs(eigs - a)) for a in grid)
    assert norm <= best + 1e-9


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_split_shifted_factor_reconstructs(n, seed, alpha):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    pair = hf.split_shifted_factor(w, alpha)
    target = np.outer(w, w) - alpha * np.ones((n, n))
    rebuilt = np.outer(pair.p, pair.p) - np.outer(pair.q, pair.q)
    assert np.max(np.abs(rebuilt - target)) < 1e-10


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.sampled_from([1, -1]),
)
def test_signed_split_reconstructs_any_sign(n, seed, alpha, sign):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    target = sign * np.outer(w, w) - alpha * np.ones((n, n))
    rebuilt = sum(
        (sigma * np.outer(v, v) for v, sigma in hf.signed_split(w, alpha, sign)),
        np.zeros((n, n)),
    )
    assert np.max(np.abs(rebuilt - target)) < 1e-10


def test_split_shifted_factor_rejects_negative_alpha():
    with pytest.raises(hf.ValidationError):
        hf.split_shifted_factor(np.array([1.0, 2.0]), -0.5)


def test_signed_split_alpha_zero_is_single_direction():
    w = np.array([0.5, -1.5])
    parts = hf.signed_split(w, 0.0)
    assert len(parts) == 1
    v, sigma = parts[0]
    assert sigma == 1
    assert np.allclose(np.outer(v, v), np.outer(w, w))


def test_shifted_tensor_and_correction_cancel(small_instance):
    g, _ = small_instance
    a2 = 0.37
    shifted = hf.shifted_tensor(g, a2)
    delta = np.einsum("pq,rs->pqrs", np.eye(4), np.eye(4))
    assert np.max(np.abs(g.g - (shifted.g + a2 * delta))) < 1e-14


def test_correction_energy_polynomial():
    corr = hf.ShiftCorrection(a1=0.5, a2=0.25)
    assert hf.correction_energy(corr, 4) == pytest.approx(0.5 * 4 + 0.25 * 16)


def test_shift_correction_from_factorization(small_instance):
    g, _ = small_instance
    _, fact = hf.global_two_body_shift(g, 16)
    fact = fact.with_one_body_shift(1.25)
    corr = hf.ShiftCorrection.from_factorization(fact)
    assert corr.a1 == pytest.approx(1.25)
    assert corr.a2 == pytest.approx(0.5 * fact.total_shift)


def test_global_shift_never_worse_than_unshifted(small_instance):
    g, _ = small_instance
    plain = hf.explicit_factorization(g, 16)
    _, fact = hf.global_two_body_shift(g, 16)
    assert hf.two_body_burg_norm(fact) <= hf.two_body_burg_norm(plain) + 1e-9


def test_global_shift_reconstructs_original(small_instance):
    g, _ = small_instance
    a2, fact = hf.global_two_body_shift(g, 16)
    assert fact.a2_prime == pytest.approx(a2)
    assert hf.frobenius_error(g, hf.reconstruct_tensor(fact)) < 1e-8


def test_apply_alpha_threshold_zeroes_small_shifts(small_instance):
    g, _ = small_instance
    fact, _ = hf.optimize_scdf(g, 8, hf.OptimizerConfig(max_outer_iters=3))
    out = hf.apply_alpha_threshold(fact, delta_alpha=1e6)  # force-drop everything
    assert all(a == 0.0 for a in out.shifts)
    # the correction tracks the surviving shifts, so the pair stays consistent
    corr = hf.ShiftCorrection.from_factorization(out)
    assert corr.a2 == pytest.approx(0.5 * out.total_shift)
    # reconstruction ignores per-leaf shifts entirely
    assert np.allclose(
        hf.reconstruct_tensor(out).g, hf.reconstruct_tensor(fact).g, atol=1e-12
    )


def test_split_rejects_bad_input():
    with pytest.raises(hf.ValidationError):
        hf.split_shifted_factor(np.zeros((2, 2)), 0.0)


def _packed_delta(n):
    i, j, _ = _packing(n)
    return (i == j).astype(float)


def full_form_shifted_record(g, a2p, n_df, delta_df, mode):
    """The candidate record from the whole M x M eigensolve of gp − a2′ d dᵀ (the reference)."""
    n, d = g.n_orbitals, _packed_delta(g.n_orbitals)
    vals, vecs = _eigendecompose_matrix_form(g.as_packed_matrix() - a2p * np.outer(d, d), n, n_df)
    leaves, signs = _signed_leaves(vals, vecs, n)
    return hf.second_factorization(leaves, delta_df, mode, signs=signs)


def assert_scan_matches_full_form(monkeypatch, g, mode="component"):
    """Every record the scan scores, and the one it returns, against the full-form reference."""
    seen = []
    norm = norms.two_body_burg_norm
    monkeypatch.setattr(norms, "two_body_burg_norm", lambda fact: seen.append((fact, norm(fact))) or seen[-1][1])
    n_df = 4 * g.n_orbitals
    a2, fact = hf.global_two_body_shift(g, n_df, 1e-4, mode)
    monkeypatch.undo()
    assert len(seen) > 17 and fact.a2_prime == a2
    for record, value in seen + [(fact, None)]:
        ref = full_form_shifted_record(g, record.a2_prime, n_df, 1e-4, mode)
        if value is not None:
            assert value == pytest.approx(hf.two_body_burg_norm(ref), rel=1e-12, abs=0.0)
        assert (record.n_leaves, record.leaf_ranks, record.signs) == (ref.n_leaves, ref.leaf_ranks, ref.signs)


def _shift_case(name):
    if name.startswith("chain"):
        return hf.parse_fcidump(data_path(f"{name}.fcidump"))[0]
    if name == "rank_deficient":
        return make_instance(6, n_components=4, seed=11)[0]  # rank 4 of M = 21
    if name == "graded":  # eigenvalues from 1 down past the clamp, 1e-13
        rng = np.random.default_rng(13)
        components = [a + a.T for a in rng.standard_normal((14, 5, 5))]
        return hf.tensor_from_components([10 ** (-k / 2) * c / np.linalg.norm(c) for k, c in enumerate(components)])
    return make_instance(5, n_components=15, seed=12, coulomb=0.0)[0]  # 15 components fill M = 15


@pytest.mark.parametrize("mode", ["component", "combined"])
@pytest.mark.parametrize("case", ["chain_n06", "chain_n08", "rank_deficient", "full_rank", "graded"])
def test_projected_scan_matches_full_form_at_every_candidate(monkeypatch, case, mode):
    assert_scan_matches_full_form(monkeypatch, _shift_case(case), mode)


def test_shift_basis_adds_d_only_outside_the_range(monkeypatch):
    n = 5
    rng = np.random.default_rng(5)
    others = [0.5 * (a + a.T) for a in rng.standard_normal((2, n, n))]
    # the identity's packed form is d itself: d lies in range(gp), and no vector is added
    inside = hf.tensor_from_components([np.eye(n)] + others)
    outside = hf.tensor_from_components(others)
    for g, rank, extra in ((inside, 3, 0), (outside, 2, 1)):
        d = _packed_delta(n)
        basis = shift._shift_basis(g.as_packed_matrix(), d)
        assert basis.shape == (len(d), rank + extra)
        assert np.max(np.abs(basis.T @ basis - np.eye(rank + extra))) < 1e-12
        assert np.linalg.norm(d - basis @ (basis.T @ d)) < 1e-12
        # r < n_df: past the r projected pairs, the full solve has only zero leaves
        assert rank + extra < 4 * n
        assert_scan_matches_full_form(monkeypatch, g)


def test_one_norm_call_per_objective_evaluation(monkeypatch):
    """Each evaluation builds one record and hands that record to one two_body_burg_norm call.

    A trace counts the scan's evaluations as these calls, so no evaluation may
    skip the call or make a second one; only the returned record goes unnormed.
    """
    g = _shift_case("chain_n06")
    events = []
    build, norm = shift.second_factorization, norms.two_body_burg_norm

    def built(*args, **kwargs):
        events.append(("record", build(*args, **kwargs)))
        return events[-1][1]

    def normed(fact):
        events.append(("norm", fact))
        return norm(fact)

    monkeypatch.setattr(shift, "second_factorization", built)
    monkeypatch.setattr(norms, "two_body_burg_norm", normed)
    _, fact = hf.global_two_body_shift(g, 24, 1e-4)
    kinds = [kind for kind, _ in events]
    evaluations = kinds.count("norm")
    assert evaluations > 17
    assert kinds == ["record", "norm"] * evaluations + ["record"]
    for (_, record), (_, normed_fact) in zip(events[0::2], events[1::2]):
        # the normed record is this evaluation's record with its a2′ set; frozen arrays are shared
        assert isinstance(normed_fact, hf.DoubleFactorization)
        assert all(a is b for a, b in zip(normed_fact.rotations + normed_fact.factors, record.rotations + record.factors))
        assert normed_fact.signs == record.signs
