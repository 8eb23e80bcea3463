"""Lookup cost formulas against worked-by-hand values, then estimator plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamfactor as hf
from hamfactor import resources
from hamfactor.errors import ValidationError
from hamfactor.factorization import DoubleFactorization, Thresholds
from hamfactor.resources import qrom_erasure_cost

from conftest import make_instance, make_one_body


# select-swap lookup, worked by hand:
#   k=1:   128 blocks + 0            -> 128 Toffolis, 7 index ancillae
#   k=4:   32 blocks + 16*3 = 80     -> 80 Toffolis, 48 + 5 = 53 ancillae
#   (100, b=10, k=2): 50 + 10 = 60   -> 60 Toffolis, 10 + 6 = 16 ancillae
QROM_HAND_CASES = [
    ((128, 16, 1), (128, 7)),
    ((128, 16, 4), (80, 53)),
    ((100, 10, 2), (60, 16)),
]


@pytest.mark.parametrize("args, expected", QROM_HAND_CASES)
def test_qrom_cost_hand_values(args, expected):
    assert hf.qrom_cost(*args) == expected


@given(n=st.integers(min_value=2, max_value=1 << 18), bits=st.integers(min_value=1, max_value=64))
def test_qrom_k1_is_plain_lookup(n, bits):
    toff, anc = hf.qrom_cost(n, bits, 1)
    assert toff == n
    assert anc == math.ceil(math.log2(n))


def test_optimal_k_tie_resolves_small():
    # 128 records, 16 bits: k=2 and k=4 both cost 80; fewer ancillae wins
    assert hf.qrom_cost(128, 16, 2)[0] == hf.qrom_cost(128, 16, 4)[0] == 80
    assert hf.optimal_k(128, 16) == 2


@pytest.mark.parametrize("exponent", range(4, 21, 2))
@pytest.mark.parametrize("bits", [10, 16, 20])
def test_optimal_k_matches_exhaustive_sweep(exponent, bits):
    n = 1 << exponent
    best = hf.optimal_k(n, bits)
    exhaustive = min(
        (hf.qrom_cost(n, bits, 1 << e)[0] for e in range(exponent + 1)),
    )
    assert hf.qrom_cost(n, bits, best)[0] == exhaustive


def test_qrom_erasure_width_free():
    # min_k ceil(128/k) + k - 1 over powers of 2: k=8 and k=16 both give 23
    assert qrom_erasure_cost(128) == 23
    assert qrom_erasure_cost(1) == 1
    # erasure never exceeds the plain lookup
    for n in (2, 5, 33, 1000):
        assert qrom_erasure_cost(n) <= n


def test_iteration_count_hand_value():
    # lambda = 10 Ha at eps = 1.6 mHa: ceil(pi * 10 / (2 * 1.6e-3)) = 9818
    g, _ = make_instance(3, seed=11)
    ob = make_one_body(g, seed=11)
    fact = hf.explicit_factorization(g, 6)
    lam = hf.lambda_burg(fact, ob)
    config = hf.CostModelConfig(epsilon=1.6e-3 * lam / 10.0)
    est = hf.estimate(fact, ob, config)
    assert est.iterations == 9818


def test_qrom_cost_validation():
    with pytest.raises(ValidationError):
        hf.qrom_cost(0, 16, 1)
    with pytest.raises(ValidationError):
        hf.qrom_cost(128, 0, 1)
    with pytest.raises(ValidationError):
        hf.qrom_cost(128, 16, 3)
    with pytest.raises(ValidationError):
        hf.qrom_cost(4, 16, 8)


def test_cost_model_config_validation():
    with pytest.raises(ValidationError):
        hf.CostModelConfig(epsilon=0.0)
    with pytest.raises(ValidationError):
        hf.CostModelConfig(k_r=3)
    with pytest.raises(ValidationError):
        hf.CostModelConfig(bits_rotations=0)


def test_estimate_composition(small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=4)
    _, fact = hf.global_two_body_shift(g, 16)
    fact = fact.with_one_body_shift(hf.one_body_shift(ob.f_eigs)[0])
    est = hf.estimate(fact, ob)
    assert est.lambda_value == pytest.approx(hf.lambda_burg(fact, ob))
    assert est.toffoli_total == est.toffoli_per_step * est.iterations
    assert est.iterations == math.ceil(math.pi / 2 * est.lambda_value / 1.6e-3)
    b = est.breakdown
    step_parts = (
        b["rotation_lookup_toffolis"]
        + b["rotation_erasure_toffolis"]
        + b["state_prep_toffolis"]
        + b["state_prep_erasure_toffolis"]
        + b["givens_toffolis"]
        + b["misc_toffolis"]
    )
    assert step_parts == est.toffoli_per_step
    assert b["angle_records"] == np.count_nonzero(hf.split_directions(fact))
    assert est.logical_qubits >= b["system_qubits"] + b["phase_register_qubits"]
    d = est.to_dict()
    assert d["toffoli_total"] == est.toffoli_total


def test_angle_records_count_shifted_pairs(small_instance):
    g, _ = small_instance
    plain = hf.explicit_factorization(g, 8)
    assert np.count_nonzero(hf.split_directions(plain)) == sum(plain.leaf_ranks)
    # a per-leaf alpha splits the core into two directions and doubles records
    dense = DoubleFactorization(
        n_orbitals=2,
        method_tag="XDF",
        rotations=(np.eye(2),),
        factors=(np.array([1.0, 2.0]),),
        shifts=(0.5,),
        signs=(1,),
        leaf_ranks=(2,),
        thresholds=Thresholds(),
    )
    assert np.count_nonzero(hf.split_directions(dense)) == 4


def test_estimate_rejects_empty_encoding():
    fact = DoubleFactorization(
        n_orbitals=2,
        method_tag="XDF",
        rotations=(np.eye(2),),
        factors=(np.zeros(2),),
        shifts=(0.0,),
        signs=(1,),
        leaf_ranks=(0,),
        thresholds=Thresholds(),
    )
    with pytest.raises(ValidationError):
        hf.estimate(fact, np.array([1.0, -1.0]))


def test_kr_sweep_optimum_flag(small_instance):
    g, _ = small_instance
    ob = make_one_body(g, seed=6)
    _, fact = hf.global_two_body_shift(g, 16)
    rows = hf.kr_tradeoff_sweep(fact, ob)
    assert rows[0]["k_r"] == 1
    flagged = [r for r in rows if r["optimal"]]
    assert len(flagged) == 1
    best = min(r["toffoli_per_step"] for r in rows)
    assert flagged[0]["toffoli_per_step"] == best
    # qubits fall as k_r shrinks toward 1 (lookup ancillae dominate the sweep)
    assert rows[0]["logical_qubits"] == min(r["logical_qubits"] for r in rows)


def test_one_direction_pass_per_call(monkeypatch, small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 8)
    ob = make_one_body(g, seed=4)
    expected = (hf.estimate(fact, ob), hf.kr_tradeoff_sweep(fact, ob))
    passes = []
    split = resources.split_directions
    monkeypatch.setattr(resources, "split_directions", lambda f: passes.append(f) or split(f))
    assert hf.estimate(fact, ob) == expected[0]
    assert len(passes) == 1
    assert hf.kr_tradeoff_sweep(fact, ob) == expected[1]
    assert len(expected[1]) > 1 and len(passes) == 2
