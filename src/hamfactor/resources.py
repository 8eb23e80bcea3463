"""Toffoli and logical-qubit estimates for qubitized phase estimation.

The per-step cost is dominated by two data lookups: the rotation-angle table
(one N-angle record of β bits per kept direction entry) and the leaf
state-preparation table. A select-swap lookup over L records of b bits costs

    ceil(L/k) + b(k − 1) Toffolis,   b(k − 1) + ceil(log2(ceil(L/k))) ancillae

for a power-of-2 duplication factor k; k near sqrt(L/b) minimizes Toffolis.
Lookup erasure is measurement-based and output-width-free, so its optimal k
is chosen independently.

Remaining per-step work (Givens networks, swaps, arithmetic) is modeled by
two linear terms with constants calibrated once against published explicit-
factorization totals; matching a reference estimator bit-for-bit is out of
scope. The iteration count is ceil(pi*lambda / (2*epsilon)), from the standard
qubitization prefactor pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .factorization import DoubleFactorization, FullRankFactorization
from .norms import _burg_norm, one_body_norm, split_directions

# per-step cost of applying the Givens network, per angle bit
GIVENS_TOFFOLIS_PER_ANGLE_BIT = 30
# swaps, arithmetic and reflections, per spatial orbital
MISC_TOFFOLIS_PER_ORBITAL = 4
# control logic, inequality tests, dirty workspace
BOOKKEEPING_QUBITS = 400
# qubitized phase estimation: iterations = ITERATION_PREFACTOR * lambda / epsilon
ITERATION_PREFACTOR = math.pi / 2


def _bits_for(count: int) -> int:
    """ceil(log2(count)) in exact integer arithmetic; 0 for count <= 1."""
    return (count - 1).bit_length() if count > 1 else 0


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def _power_of_two_candidates(n_records: int) -> list[int]:
    ks = [1]
    while ks[-1] * 2 <= n_records:
        ks.append(ks[-1] * 2)
    return ks


def qrom_cost(n_records: int, bits: int, k: int) -> tuple[int, int]:
    """(Toffolis, ancillae) of a select-swap lookup of ``n_records`` entries.

    k = 1 recovers the plain lookup: n_records Toffolis and only the
    ceil(log2 n_records) block-index ancillae.
    """
    if n_records < 1 or bits < 1:
        raise ValidationError("lookup needs n_records >= 1 and bits >= 1")
    if not _is_power_of_two(k):
        raise ValidationError(f"duplication factor k={k} is not a power of 2")
    if k > n_records:
        raise ValidationError(f"k={k} exceeds the record count {n_records}")
    blocks = math.ceil(n_records / k)
    toffolis = blocks + bits * (k - 1)
    ancillae = bits * (k - 1) + _bits_for(blocks)
    return toffolis, ancillae


def optimal_k(n_records: int, bits: int) -> int:
    """Best power-of-2 duplication factor for a lookup.

    Scans every power of 2 up to the record count (the minimum sits at a
    power of 2 bracketing sqrt(n_records/bits); the scan is cheap and robust
    to the ceilings), ties resolved toward smaller k since that uses fewer
    ancillae.
    """
    candidates = _power_of_two_candidates(n_records)
    best = candidates[0]
    best_cost = qrom_cost(n_records, bits, best)[0]
    for k in candidates[1:]:
        cost = qrom_cost(n_records, bits, k)[0]
        if cost < best_cost:
            best, best_cost = k, cost
    return best


def qrom_erasure_cost(n_records: int) -> int:
    """Toffolis to uncompute a lookup; measurement-based, so width-free."""
    return min(math.ceil(n_records / k) + k - 1 for k in _power_of_two_candidates(n_records))


@dataclass(frozen=True)
class CostModelConfig:
    bits_state_prep: int = 10
    bits_rotations: int = 16
    epsilon: float = 1.6e-3
    k_r: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:  # NaN fails too
            raise ValidationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.bits_state_prep < 1 or self.bits_rotations < 1:
            raise ValidationError("bit widths must be >= 1")
        if self.k_r is not None and not _is_power_of_two(self.k_r):
            raise ValidationError(f"k_r={self.k_r} is not a power of 2")


@dataclass(frozen=True)
class ResourceEstimate:
    lambda_value: float
    iterations: int
    toffoli_per_step: int
    toffoli_total: int
    logical_qubits: int
    k_r_used: int
    breakdown: dict

    def to_dict(self) -> dict:
        return {
            "lambda": self.lambda_value,
            "iterations": self.iterations,
            "toffoli_per_step": self.toffoli_per_step,
            "toffoli_total": self.toffoli_total,
            "logical_qubits": self.logical_qubits,
            "k_r_used": self.k_r_used,
            "breakdown": dict(self.breakdown),
        }


def estimate(
    fact: DoubleFactorization | FullRankFactorization,
    one_body,
    config: CostModelConfig = CostModelConfig(),
) -> ResourceEstimate:
    """Toffoli and logical-qubit totals for one phase-estimation run."""
    return _estimate(fact, one_body, config, split_directions(fact))


def _estimate(fact, one_body, config: CostModelConfig, directions: np.ndarray) -> ResourceEstimate:
    """``estimate`` from the factorization's ``split_directions``, computed once by the caller."""
    lam = one_body_norm(one_body, fact.a1_prime) + _burg_norm(directions)
    # one record per nonzero direction entry: Ξ^t, plus Θ^t on a shifted leaf
    n_records = int(np.count_nonzero(directions))
    if n_records == 0:
        raise ValidationError("factorization has no surviving directions to encode")
    if not lam > 0:
        raise ValidationError("encoded norm is zero; nothing to estimate")
    n = fact.n_orbitals
    beta = config.bits_rotations
    angle_bits = n * beta

    k_r = config.k_r if config.k_r is not None else optimal_k(n_records, angle_bits)
    rot_toff, rot_anc = qrom_cost(n_records, angle_bits, k_r)
    rot_erase = qrom_erasure_cost(n_records)

    n_leaves = fact.n_leaves
    # alt-index plus sign/keep bits on top of the amplitude precision
    prep_bits = config.bits_state_prep + _bits_for(n_leaves) + 2
    k_prep = optimal_k(n_leaves, prep_bits)
    prep_toff, prep_anc = qrom_cost(n_leaves, prep_bits, k_prep)
    prep_erase = qrom_erasure_cost(n_leaves)

    givens = GIVENS_TOFFOLIS_PER_ANGLE_BIT * n * beta
    misc = MISC_TOFFOLIS_PER_ORBITAL * n
    per_step = rot_toff + rot_erase + prep_toff + prep_erase + givens + misc
    iterations = math.ceil(ITERATION_PREFACTOR * lam / config.epsilon)

    phase_register = _bits_for(iterations)
    index_qubits = _bits_for(n_leaves) + _bits_for(n)
    qubit_parts = {
        "system_qubits": 2 * n,
        "angle_data_qubits": angle_bits,
        "rotation_lookup_ancillae": rot_anc,
        "state_prep_ancillae": prep_anc,
        "phase_register_qubits": phase_register,
        "phase_gradient_qubits": beta,
        "index_qubits": index_qubits,
        "bookkeeping_qubits": BOOKKEEPING_QUBITS,
    }
    breakdown = {
        "angle_records": n_records,
        "angle_record_bits": angle_bits,
        "rotation_lookup_toffolis": rot_toff,
        "rotation_erasure_toffolis": rot_erase,
        "prep_records": n_leaves,
        "prep_record_bits": prep_bits,
        "k_prep": k_prep,
        "state_prep_toffolis": prep_toff,
        "state_prep_erasure_toffolis": prep_erase,
        "givens_toffolis": givens,
        "misc_toffolis": misc,
        **qubit_parts,
    }
    return ResourceEstimate(
        lambda_value=lam,
        iterations=iterations,
        toffoli_per_step=per_step,
        toffoli_total=per_step * iterations,
        logical_qubits=sum(qubit_parts.values()),
        k_r_used=k_r,
        breakdown=breakdown,
    )


def kr_tradeoff_sweep(
    fact: DoubleFactorization | FullRankFactorization,
    one_body,
    config: CostModelConfig = CostModelConfig(),
) -> list[dict]:
    """Space-time tradeoff table over k_r: powers of 2 up to twice the optimum.

    The optimum row minimizes Toffolis; k_r = 1 minimizes lookup ancillae.
    """
    directions = split_directions(fact)
    n_records = int(np.count_nonzero(directions))
    if n_records == 0:
        raise ValidationError("factorization has no surviving directions to encode")
    k_auto = optimal_k(n_records, fact.n_orbitals * config.bits_rotations)
    rows = []
    k = 1
    while k <= min(2 * k_auto, n_records):
        est = _estimate(fact, one_body, replace(config, k_r=k), directions)
        rows.append(
            {
                "k_r": k,
                "toffoli_per_step": est.toffoli_per_step,
                "toffoli_total": est.toffoli_total,
                "logical_qubits": est.logical_qubits,
                "optimal": k == k_auto,
            }
        )
        k *= 2
    return rows
