"""Block-encoding norms, hand values first."""

from dataclasses import replace

import numpy as np
import pytest

import hamfactor as hf
from hamfactor.cli import _summarize
from hamfactor.factorization import DoubleFactorization, Thresholds

from conftest import make_instance, make_one_body


def single_leaf_fact(w, alpha=0.0, a1_prime=0.0, a2_prime=0.0, sign=1):
    w = np.asarray(w, dtype=float)
    n = w.size
    return DoubleFactorization(
        n_orbitals=n,
        method_tag="XDF",
        rotations=(np.eye(n),),
        factors=(w,),
        shifts=(alpha,),
        signs=(sign,),
        leaf_ranks=(int(np.count_nonzero(w)),),
        a1_prime=a1_prime,
        a2_prime=a2_prime,
        thresholds=Thresholds(0.0, 0.0, 0.0),
    )


def test_one_body_norm_hand_value():
    assert hf.one_body_norm(np.array([1.0, -1.0]), 0.0) == pytest.approx(2.0)
    assert hf.one_body_norm(np.array([1.0, -1.0]), 1.0) == pytest.approx(2.0)
    assert hf.one_body_norm(np.array([3.0, 5.0, 10.0]), 5.0) == pytest.approx(7.0)


def test_two_body_norms_single_ones_leaf():
    # V = W ⊗ W with W = (1,1): LCU = 1/2*4 - 1/4*2 = 1.5, von Burg = 1/4*(2)^2 = 1
    fact = single_leaf_fact([1.0, 1.0])
    assert hf.two_body_lcu_norm(fact) == pytest.approx(1.5)
    assert hf.two_body_burg_norm(fact) == pytest.approx(1.0)


def test_lambda_totals_compose():
    fact = single_leaf_fact([1.0, 1.0])
    eigs = np.array([1.0, -1.0])
    assert hf.lambda_lcu(fact, eigs) == pytest.approx(2.0 + 1.5)
    assert hf.lambda_burg(fact, eigs) == pytest.approx(2.0 + 1.0)


def test_alpha_shift_can_zero_a_uniform_leaf():
    # all products equal 1, so alpha = 1 wipes the two-body norm entirely
    fact = single_leaf_fact([1.0, 1.0], alpha=1.0)
    assert hf.two_body_burg_norm(fact) == pytest.approx(0.0, abs=1e-12)
    assert hf.two_body_lcu_norm(fact) == pytest.approx(0.0, abs=1e-12)


def test_norms_invariant_under_leaf_reorder_and_sign_flip(small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=5)
    fact = hf.explicit_factorization(g, 8)
    swapped = hf.DoubleFactorization(
        n_orbitals=fact.n_orbitals,
        method_tag=fact.method_tag,
        rotations=tuple(reversed(fact.rotations)),
        factors=tuple(-w for w in reversed(fact.factors)),
        shifts=tuple(reversed(fact.shifts)),
        signs=tuple(reversed(fact.signs)),
        leaf_ranks=tuple(reversed(fact.leaf_ranks)),
        a1_prime=fact.a1_prime,
        a2_prime=fact.a2_prime,
        thresholds=fact.thresholds,
    )
    assert hf.lambda_burg(swapped, ob) == pytest.approx(hf.lambda_burg(fact, ob), rel=1e-12)
    assert hf.lambda_lcu(swapped, ob) == pytest.approx(hf.lambda_lcu(fact, ob), rel=1e-12)


def test_zeroing_factor_entries_never_raises_burg(small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 8)
    truncated = hf.explicit_factorization(g, 8, delta_df=0.1)
    assert hf.two_body_burg_norm(truncated) <= hf.two_body_burg_norm(fact) + 1e-12


_RANK1_KEYS = [
    "method", "n_orbitals", "n_leaves", "xi_mean", "n_alpha", "a1_prime", "a2_prime",
    "lambda_lcu", "lambda_burg", "one_body_norm", "ablation_lambda_burg", "frobenius_error",
]
_FULL_RANK_KEYS = [k for k in _RANK1_KEYS if k not in ("a1_prime", "a2_prime", "ablation_lambda_burg")]


def test_factorize_summary_fields(small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=2)
    a1_prime = hf.one_body_shift(ob.f_eigs)[0]
    shifted = hf.global_two_body_shift(g, 16)[1].with_one_body_shift(a1_prime)
    config = hf.OptimizerConfig(rho=1e-3, max_outer_iters=2)
    scdf = hf.optimize_scdf(g, 8, config)[0].with_one_body_shift(a1_prime)
    cdf = hf.optimize_cdf(g, 8, replace(config, rho=0.0))[0]
    assert shifted.a2_prime != 0.0 and scdf.n_alpha > 0
    for fact in (shifted, scdf, cdf):
        summary = _summarize(fact, g, ob)
        rank1 = isinstance(fact, DoubleFactorization)
        assert list(summary) == (_RANK1_KEYS if rank1 else _FULL_RANK_KEYS)
        one_body = summary["one_body_norm"]
        assert one_body == hf.one_body_norm(ob, fact.a1_prime)
        assert summary["lambda_lcu"] == one_body + hf.two_body_lcu_norm(fact)
        assert summary["lambda_burg"] == one_body + hf.two_body_burg_norm(fact)
        if rank1:
            ablated = replace(fact, shifts=(0.0,) * fact.n_leaves)
            assert summary["ablation_lambda_burg"] == hf.lambda_burg(ablated, ob)
            assert summary["n_alpha"] == fact.n_alpha


def test_split_directions_rank1_counts(small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 8)
    directions = hf.split_directions(fact)
    # alpha = 0 everywhere: one direction per leaf
    assert len(directions) == fact.n_leaves


def per_leaf_directions(fact):
    """Rank-1 split_directions one leaf and one signed_split vector at a time (the reference)."""
    out = []
    for w, alpha, sign in zip(fact.factors, fact.shifts, fact.signs):
        for v, _sign in hf.signed_split(w, alpha, sign):
            v = hf.truncate_factors(v, fact.thresholds.delta_df, "component")
            if np.any(v):
                out.append(v)
    return out


@pytest.mark.parametrize("delta_df", [0.0, 0.05])
def test_split_directions_mixed_shifts_match_per_leaf_reference(delta_df):
    n = 6
    rng = np.random.default_rng(14)
    rotations = [np.linalg.qr(a)[0] for a in rng.standard_normal((7, n, n))]
    factors = list(rng.standard_normal((7, n)) * np.logspace(-3, 0, n))
    factors[5] = np.zeros(n)  # an unshifted zero leaf gives no direction
    shifts = (0.0, 0.4, 0.0, -0.25, 0.0, 0.3, 0.0)
    signs = (1, -1, -1, 1, 1, -1, 1)
    fact = DoubleFactorization(
        n_orbitals=n, method_tag="SCDF", rotations=tuple(rotations), factors=tuple(factors),
        shifts=shifts, signs=signs, leaf_ranks=(n,) * 7, thresholds=Thresholds(delta_df=delta_df),
    )
    directions = hf.split_directions(fact)
    reference = per_leaf_directions(fact)
    assert isinstance(directions, np.ndarray) and directions.shape == (len(reference), n)
    assert directions.dtype == np.float64
    for v, ref in zip(directions, reference):
        assert v.tobytes() == ref.tobytes()
    # the norm keeps the per-direction summation order, bit for bit
    assert hf.two_body_burg_norm(fact) == sum(0.25 * float(np.sum(np.abs(v))) ** 2 for v in reference)


def per_core_directions(fact):
    """Full-rank split_directions one core and one eigenpair at a time (the reference)."""
    out = []
    for v in fact.cores:
        vals, vecs = np.linalg.eigh(0.5 * (v + v.T))
        for lam, vec in zip(vals, vecs.T):
            scaled = hf.truncate_factors(np.sqrt(abs(lam)) * vec, fact.thresholds.delta_df, "component")
            if np.any(scaled):
                out.append(scaled)
    return out


def test_split_directions_full_rank(small_instance):
    g, _ = small_instance
    fact, _ = hf.optimize_cdf(g, 4, hf.OptimizerConfig(rho=0.0, max_outer_iters=4, delta_df=0.05))
    directions = hf.split_directions(fact)
    assert len(directions), "full-rank cores must yield eigendirections"
    reference = per_core_directions(fact)
    assert len(directions) == len(reference) < 4 * fact.n_leaves  # the cut drops some
    for v, ref in zip(directions, reference):
        assert v.shape == (4,)
        assert np.array_equal(v, ref)
    total = sum(0.25 * float(np.sum(np.abs(v))) ** 2 for v in directions)
    assert hf.two_body_burg_norm(fact) == pytest.approx(total, rel=1e-12)


def test_norms_survive_serialization_bit_identical(tmp_path, small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=9)
    _, fact = hf.global_two_body_shift(g, 12)
    before = (hf.lambda_lcu(fact, ob), hf.lambda_burg(fact, ob))
    path = str(tmp_path / "fact.json")
    hf.save_factorization(path, fact)
    loaded = hf.load_factorization(path)
    after = (hf.lambda_lcu(loaded, ob), hf.lambda_burg(loaded, ob))
    assert before == after  # exact equality, not approx


def test_one_body_norm_accepts_tensors_object(small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=3)
    assert hf.one_body_norm(ob, 0.0) == hf.one_body_norm(ob.f_eigs, 0.0)
