"""Compressed double factorization of electronic-structure Hamiltonians.

The package factorizes the two-electron integral tensor into rotated
rank-one cores, applies particle-number symmetry shifts that shrink the
block-encoding norm, and converts the result into fault-tolerant gate and
qubit estimates. `hamfactor.cli` exposes the same pipeline as a command
line tool.
"""

import os

# The package's dense matrices are small (tens to a few hundred rows), where
# BLAS worker threads add CPU time without cutting wall time, and their
# spin-waiting between calls makes run times swing on a loaded machine. BLAS
# therefore runs on one thread unless the caller set a thread count. The
# setting only takes effect when hamfactor is imported before numpy, as the
# `hamfactor` command does.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .errors import (
    FcidumpParseError,
    HamfactorError,
    InvalidShiftSplit,
    NonPSDTensor,
    NumericalError,
    OptimizationError,
    ValidationError,
)
from .factorization import (
    DoubleFactorization,
    FullRankFactorization,
    Thresholds,
    factorization_from_dict,
    factorization_to_dict,
    load_factorization,
    reconstruct_tensor,
    save_factorization,
)
from .fcidump import parse_fcidump, write_fcidump
from .tensors import (
    OneBodyTensors,
    SyntheticSpec,
    TwoElectronTensor,
    derive_one_body,
    frobenius_error,
    synthesize_instance,
    tensor_from_components,
)
from .xdf import (
    explicit_factorization,
    first_factorization,
    second_factorization,
    signed_first_factorization,
    truncate_factors,
)
from .shift import (
    ShiftCorrection,
    ShiftedFactorPair,
    apply_alpha_threshold,
    correction_energy,
    global_two_body_shift,
    one_body_shift,
    shifted_tensor,
    signed_split,
    split_shifted_factor,
)
from .dfopt import (
    OptimizerConfig,
    TraceRow,
    cost_cdf,
    cost_scdf,
    grad_scdf_w,
    optimize_cdf,
    optimize_scdf,
    solve_v_step,
)
from .norms import (
    lambda_burg,
    lambda_lcu,
    one_body_norm,
    split_directions,
    two_body_burg_norm,
    two_body_lcu_norm,
)
from .resources import (
    CostModelConfig,
    ResourceEstimate,
    estimate,
    kr_tradeoff_sweep,
    optimal_k,
    qrom_cost,
    qrom_erasure_cost,
)
from .oracle import (
    DenseHamiltonian,
    build_from_factorization,
    build_from_integrals,
    ground_energy,
    ground_state,
)

__version__ = "0.1.0"

__all__ = [
    "CostModelConfig",
    "DenseHamiltonian",
    "DoubleFactorization",
    "FcidumpParseError",
    "FullRankFactorization",
    "HamfactorError",
    "InvalidShiftSplit",
    "NonPSDTensor",
    "NumericalError",
    "OneBodyTensors",
    "OptimizationError",
    "OptimizerConfig",
    "ResourceEstimate",
    "ShiftCorrection",
    "ShiftedFactorPair",
    "SyntheticSpec",
    "Thresholds",
    "TraceRow",
    "TwoElectronTensor",
    "ValidationError",
    "apply_alpha_threshold",
    "build_from_factorization",
    "build_from_integrals",
    "correction_energy",
    "cost_cdf",
    "cost_scdf",
    "derive_one_body",
    "estimate",
    "explicit_factorization",
    "factorization_from_dict",
    "factorization_to_dict",
    "first_factorization",
    "frobenius_error",
    "global_two_body_shift",
    "grad_scdf_w",
    "ground_energy",
    "ground_state",
    "kr_tradeoff_sweep",
    "lambda_burg",
    "lambda_lcu",
    "load_factorization",
    "one_body_norm",
    "one_body_shift",
    "optimal_k",
    "optimize_cdf",
    "optimize_scdf",
    "parse_fcidump",
    "qrom_cost",
    "qrom_erasure_cost",
    "reconstruct_tensor",
    "save_factorization",
    "second_factorization",
    "shifted_tensor",
    "signed_first_factorization",
    "signed_split",
    "solve_v_step",
    "split_directions",
    "split_shifted_factor",
    "synthesize_instance",
    "tensor_from_components",
    "truncate_factors",
    "two_body_burg_norm",
    "two_body_lcu_norm",
    "write_fcidump",
]
