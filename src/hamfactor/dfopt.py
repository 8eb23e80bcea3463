"""Gradient-based compressed double factorization.

The rank-1-constrained optimizer alternates four steps until the two-body
von-Burg norm plateaus:

1. L-BFGS over all factor vectors W^t of the cost
   ½‖g − Σ_t U^t (W^t ⊗ W^t) U^t^T‖²_F + ρ Σ_{t,k,l} |W^t_k W^t_l − α^t|,
2. closed-form update α^t ← median_{k,l}(W^t_k W^t_l),
3. a rotation step: L-BFGS over antisymmetric X^t in U^t = U₀^t cay(X^t),
   a Cayley retraction around the current rotations U₀, from X = 0,
4. plateau check on the two-body norm over a sliding window of outer
   iterations.

Both rank-1 inner steps evaluate one kernel, ``_rank1_objective``: it forms
the residual Δ = g − Σ_t M^t ⊗ M^t (M^t = U^t diag(W^t) U^t^T) once, on the
M = N(N+1)/2 pairs p ≤ q of ``tensors._packing`` against g's packed matrix,
and returns the cost and Y·U, from which the W- and the U-space gradient both
follow; no step builds a T x M x N design. For 8-fold symmetric g this is the
N² x N² cost; a g asymmetric within ``SYMMETRY_TOL`` moves it by terms of that
order. The sums run in another order than on the N² x N² form, so scdf records
and ``--trace`` rows moved at roundoff against the N² x N² version; cdf, rcdf,
xdf and xdf-shift did not.

The unconstrained variant keeps full symmetric cores V^t: its V-step is an
exact linear least-squares solve (ridge-regularized for a quadratic penalty,
subgradient L-BFGS for an L1 penalty), the U-step is the same rotation step
(one ``_rotation_step`` serves both optimizers). The exact solves run
in symmetry-reduced coordinates (packed symmetric cores against packed
8-fold symmetric tensors): an isometric restriction of the N⁴ x T·N²
Kronecker design with the same solution and 1/10 (N = 7) to 1/16 (large N)
of its entries. Both factor the smaller Gram matrix of that design once by
Cholesky and refine the answer once (``_gram_solve``); the SVD least squares
runs only where that factor cannot be trusted. Each full-rank objective
evaluation forms the residual Δ = g − Σ_t C^t V^t C^t^T once, as one GEMM
over the stacked design blocks C^t, and reads the cost and either gradient
from it with batched matmuls.

All gradients are analytic. The rotation step is the curvilinear search of
Wen & Yin (Math. Program., 2013); on retractions see Absil, Mahony &
Sepulchre (2008). With A = I − X/2 (never singular for antisymmetric X),
C = cay(X) = A⁻¹(I + X/2) = 2A⁻¹ − I and dC = ½ A⁻¹ dX (I + C), so a U-space
gradient G pulls back to M − M^T with M = ½ A⁻^T (U₀^T G)(I + C)^T =
A⁻^T (U₀^T G) A⁻^T: one batched real inverse per evaluation gives U and its
gradient. The exponential map appears only in ``_init_state``'s seed
U₀ = expm(X₀); the optimizers see U₀ alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
# expm_frechet is unused but stays bound: perfbench/tracer.py wraps it here by name
from scipy.linalg import cho_factor, cho_solve, expm, expm_frechet, logm  # noqa: F401
from scipy.linalg.lapack import dpocon
from scipy.optimize import minimize

from .errors import OptimizationError, ValidationError
from .factorization import DoubleFactorization, FullRankFactorization, Thresholds
from .norms import two_body_burg_norm
from .shift import apply_alpha_threshold
from .tensors import TwoElectronTensor, _packing
from .xdf import _psd_leaves, _unpacking, second_factorization, truncate_factors

logger = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
# inner L-BFGS solves: iteration cap, ftol = gtol, and memory (stored pairs)
LBFGS_MAX_ITERS = 200
LBFGS_TOLERANCE = 1e-12
LBFGS_MEMORY = 10
# outer iterations the SCDF plateau rule looks back over
PLATEAU_WINDOW = 5
# entries (0.4 GB) of the exact V-step's design: N=14 at 4N leaves fits, N=15 does not. The
# Gram solve's peak is the design plus a Gram matrix no larger than it; the SVD fallback
# (np.linalg.lstsq) copies the design into its workspace instead
MAX_V_DESIGN_ENTRIES = 50_000_000


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the alternating optimizers.

    ``rho`` and ``norm_plateau_threshold`` (0.05 Ha over ``PLATEAU_WINDOW``
    outer iterations) carry the published defaults, as does the inner
    tolerance ``LBFGS_TOLERANCE``; the inner L-BFGS cap and memory are the
    module constants ``LBFGS_MAX_ITERS`` and ``LBFGS_MEMORY``. ``gamma``
    selects the penalty exponent of the full-rank regularized variant.
    """

    rho: float = 1e-5
    gamma: int = 1
    max_outer_iters: int = 40
    norm_plateau_threshold: float = 0.05
    init_mode: str = "from_xdf"
    rng_seed: int = 0
    delta_df: float = 1e-4
    delta_alpha: float = 1e-3
    truncation_mode: str = "component"

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("rho", "delta_df", "delta_alpha"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        for name in ("max_outer_iters", "rng_seed"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.init_mode not in ("from_xdf", "random"):
            raise ValidationError(f"unknown init_mode {self.init_mode!r}")
        if self.gamma not in (1, 2):
            raise ValidationError("gamma must be 1 or 2")


# ---------------------------------------------------------------------------
# cost and gradients, rank-1 cores


def _penalty(v: np.ndarray, rho: float, gamma: int) -> float:
    return rho * float(np.sum(np.abs(v) ** gamma)) if rho else 0.0


def _excess(w: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return w[:, :, None] * w[:, None, :] - alpha[:, None, None]


def _rank1_objective(gp: np.ndarray, u: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """(½‖Δ‖², Y^t U^t) for the packed residual Δ = g − Σ_t vec^t vec^t^T; U need not be orthogonal.

    vec^t is M^t = U^t diag(W^t) U^t^T on the pairs p ≤ q (w_pq = √2 off the
    diagonal), and Y^t_pq = (Δ vec^t)_(pq) / w_pq is unpacked to N x N by one
    gather. ∂/∂W^t_k = −2 Σ_p (Y^t U^t)_pk U^t_pk and ∂/∂U^t = −4 Y^t U^t diag(W^t).
    """
    t, n, _ = u.shape
    i, j, wp = _packing(n)
    vec = ((u * w[:, None, :]) @ u.transpose(0, 2, 1)).reshape(t, -1)[:, i * n + j] * wp
    delta = gp - vec.T @ vec
    y = vec @ delta
    y /= wp
    return 0.5 * float(np.vdot(delta, delta)), y[:, _unpacking(n)].reshape(t, n, n) @ u


def _scdf_cost_and_grad_w(
    gp: np.ndarray, u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float
) -> tuple[float, float, np.ndarray]:
    """(cost, residual cost, ∂cost/∂W) with the penalty term 2ρ Σ_l sgn(W_k W_l − α^t) W_l."""
    residual, yu = _rank1_objective(gp, u, w)
    grad = -2.0 * np.einsum("tpk,tpk->tk", yu, u)
    if not rho:
        return residual, residual, grad
    excess = _excess(w, alpha)
    sign = np.sign(excess)
    grad += 2.0 * rho * np.einsum("tkl,tl->tk", sign, w)
    # Σ|e| as sign(e)·e: each product is exact
    return residual + rho * float(np.vdot(sign, excess)), residual, grad


def cost_scdf(g: TwoElectronTensor, u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float) -> float:
    """Rank-1 cost ½‖Δ‖²_F + ρ Σ_{t,k,l} |W^t_k W^t_l − α^t|."""
    return _scdf_cost_and_grad_w(g.as_packed_matrix(), u, w, alpha, rho)[0]


def grad_scdf_w(g: TwoElectronTensor, u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float) -> np.ndarray:
    """∂cost/∂W^t_k = −2 Σ_pq Y^t_pq U_pk U_qk + 2ρ Σ_l sgn(W_k W_l − α^t) W_l, with sign(0) := 0 at kinks."""
    return _scdf_cost_and_grad_w(g.as_packed_matrix(), u, w, alpha, rho)[2]


def grad_scdf_u(g: TwoElectronTensor, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """∂(residual cost)/∂U^t_pk = −4 Σ_q Y^t_pq U_qk W_k (the penalty is U-free)."""
    return -4.0 * _rank1_objective(g.as_packed_matrix(), u, w)[1] * w[:, None, :]


# ---------------------------------------------------------------------------
# cost and gradients, full-rank cores


def _design_blocks(u: np.ndarray) -> np.ndarray:
    """C^t[(pq), k] = U^t_pk U^t_qk for every leaf."""
    t, n, _ = u.shape
    return np.einsum("tpk,tqk->tpqk", u, u).reshape(t, n * n, n)


def _side_by_side(blocks: np.ndarray) -> np.ndarray:
    """Stack (T, N², N) leaf blocks column-wise into one N² x T·N matrix."""
    t, nn, n = blocks.shape
    return blocks.transpose(1, 0, 2).reshape(nn, t * n)


def _cdf_residual(gmat: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Δ = g − Σ_t C^t V^t C^t^T as one GEMM over the stacked design blocks."""
    return gmat - _side_by_side(c @ v) @ _side_by_side(c).T


def _cdf_objective(
    gmat: np.ndarray, c: np.ndarray, v: np.ndarray, rho: float, gamma: int
) -> tuple[float, float, np.ndarray]:
    """(cost, residual cost, Y) from one residual Δ, with Y^t = Δ C^t per leaf.

    Both gradients follow from Y by batched matmuls: ∂/∂V^t = −C^t^T Y^t
    (``_grad_v``) and ∂/∂U^t = −4 Σ_q [Y^t V^t^T]_(pq)k U^t_qk (``_grad_u``).
    """
    t, nn, n = c.shape
    delta = _cdf_residual(gmat, c, v)
    residual = 0.5 * float(np.sum(delta * delta))
    y = (delta @ _side_by_side(c)).reshape(nn, t, n).transpose(1, 0, 2)
    return residual + _penalty(v, rho, gamma), residual, y


def _grad_v(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    return -(c.transpose(0, 2, 1) @ y)


def _grad_u(u: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    t, n, _ = u.shape
    z = (y @ v.transpose(0, 2, 1)).reshape(t, n, n, n)
    return -4.0 * np.einsum("tpqk,tqk->tpk", z, u)


def _cdf_cost_and_grad_u(
    gmat: np.ndarray, u: np.ndarray, v: np.ndarray, rho: float, gamma: int
) -> tuple[float, np.ndarray]:
    """Full-rank cost and its U-space gradient (the penalty is U-free)."""
    cost, _, y = _cdf_objective(gmat, _design_blocks(u), v, rho, gamma)
    return cost, _grad_u(u, v, y)


def cost_cdf(
    g: TwoElectronTensor,
    u: np.ndarray,
    v: np.ndarray,
    rho: float = 0.0,
    gamma: int = 1,
) -> float:
    """Full-rank cost ½‖g − Σ_t C^t V^t C^t^T‖²_F + ρ Σ |V^t_kl|^γ."""
    delta = _cdf_residual(g.as_matrix(), _design_blocks(u), v)
    return 0.5 * float(np.sum(delta * delta)) + _penalty(v, rho, gamma)


def grad_cdf_v(g: TwoElectronTensor, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """∂(residual cost)/∂V^t_kl = −[C^t^T Δ C^t]_kl."""
    c = _design_blocks(u)
    return _grad_v(c, _cdf_objective(g.as_matrix(), c, v, 0.0, 1)[2])


def grad_cdf_u(g: TwoElectronTensor, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """∂(residual cost)/∂U^t_pk = −4 Σ_qrsl Δ_pqrs U_qk V_kl U_rl U_sl."""
    return _cdf_cost_and_grad_u(g.as_matrix(), u, v, 0.0, 1)[1]


# ---------------------------------------------------------------------------
# generator parametrization


def _x_to_flat(x: np.ndarray, iu: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Strict upper triangles of the stack; ``iu`` is np.triu_indices(n, k=1)."""
    return x[:, iu[0], iu[1]].ravel()


def _flat_to_x(flat: np.ndarray, t: int, n: int, iu: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    iu = np.triu_indices(n, k=1) if iu is None else iu
    x = np.zeros((t, n, n))
    x[:, iu[0], iu[1]] = flat.reshape(t, -1)
    return x - x.transpose(0, 2, 1)


def _expm_stack(x: np.ndarray) -> np.ndarray:
    """expm(X^t) = Re(V diag(e^{iλ}) V^H) for real antisymmetric X^t, from one batched ``eigh`` of −iX = V diag(λ) V^H."""
    lam, vecs = np.linalg.eigh(-1j * x)
    return np.real((vecs * np.exp(1j * lam)[:, None, :]) @ vecs.conj().transpose(0, 2, 1))


def _cayley(u0: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, A⁻¹) with U = U₀ cay(X) = U₀ (2A⁻¹ − I), A = I − X/2; U = U₀ exactly at X = 0."""
    eye = np.eye(x.shape[1])
    inv = np.linalg.inv(eye - 0.5 * x)
    return u0 @ (2.0 * inv - eye), inv


def _cayley_pull_back(u0: np.ndarray, inv: np.ndarray, grad_u: np.ndarray) -> np.ndarray:
    """Generator-space gradients M − M^T, M = A⁻^T (U₀^T G) A⁻^T, with ``inv`` = A⁻¹."""
    inv_t = inv.transpose(0, 2, 1)
    m = inv_t @ (u0.transpose(0, 2, 1) @ grad_u) @ inv_t
    return m - m.transpose(0, 2, 1)


def generator_from_rotation(u: np.ndarray) -> np.ndarray:
    """Real antisymmetric X with expm(X) = U, for orthogonal U.

    A negative determinant is fixed by flipping one column (the rank-1 core
    W ⊗ W is insensitive to column signs). Falls back to zero when the log
    is numerically unusable; callers treat X as an initializer only.
    """
    u = np.asarray(u, dtype=float)
    if np.linalg.det(u) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    x = logm(u)
    x = 0.5 * (np.real(x) - np.real(x).T)
    if np.max(np.abs(expm(x) - u)) > 1e-8:
        logger.warning("matrix log failed to reproduce rotation; using identity init")
        return np.zeros_like(u)
    return x


# ---------------------------------------------------------------------------
# L-BFGS drivers and updates


def _lbfgs(fun, x0: np.ndarray) -> np.ndarray:
    if x0.size == 0:
        return x0
    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": LBFGS_MAX_ITERS,
            "ftol": LBFGS_TOLERANCE,
            "gtol": LBFGS_TOLERANCE,
            "maxcor": LBFGS_MEMORY,
        },
    )
    return res.x


def _rotation_step(cost_and_grad_u, u0: np.ndarray, outer: int) -> np.ndarray:
    """L-BFGS over the generators X of U = U₀ cay(X) from X = 0; returns U.

    ``cost_and_grad_u(U)`` gives the cost and its U-space gradient; the
    gradient is pulled back to X through the same inverse that gives U. A
    failed inverse or a U that drifted off the orthogonal group is an error.
    """
    t, n, _ = u0.shape
    iu = np.triu_indices(n, k=1)

    def objective(xflat: np.ndarray):
        u, inv = _cayley(u0, _flat_to_x(xflat, t, n, iu))
        cost, grad_u = cost_and_grad_u(u)
        return cost, _x_to_flat(_cayley_pull_back(u0, inv, grad_u), iu)

    try:
        x = _flat_to_x(_lbfgs(objective, np.zeros(t * len(iu[0]))), t, n, iu)
        u = _cayley(u0, x)[0]
    except np.linalg.LinAlgError as exc:
        raise OptimizationError(f"Cayley inverse failed: {exc}", iteration=outer) from exc
    err = np.max(np.abs(u.transpose(0, 2, 1) @ u - np.eye(n)))
    # written so that NaN fails the check
    if not err <= ORTHOGONALITY_TOL:
        raise OptimizationError(f"rotation drifted off the manifold ({err:.2e})", iteration=outer)
    return u


def _median_alpha(w: np.ndarray) -> np.ndarray:
    """Per-leaf median of all N² pairwise products W_k W_l, duplicates kept.

    The median minimizes Σ_kl |W_k W_l − α| over scalar α, so this is the
    exact solution of the penalty-only subproblem.
    """
    return np.median(_excess(w, np.zeros(len(w))).reshape(len(w), -1), axis=1)


def _scdf_record(
    u: np.ndarray, w: np.ndarray, alpha: np.ndarray, thresholds: Thresholds = Thresholds()
) -> DoubleFactorization:
    """Rank-1 record of the SCDF iterate, one positive leaf per (U^t, W^t, α^t)."""
    return DoubleFactorization(
        n_orbitals=u.shape[1],
        method_tag="SCDF",
        rotations=tuple(u),
        factors=tuple(w),
        shifts=tuple(float(a) for a in alpha),
        signs=tuple(1 for _ in w),
        leaf_ranks=tuple(int(np.count_nonzero(wt)) for wt in w),
        thresholds=thresholds,
    )


def _init_state(
    g: TwoElectronTensor, n_df: int, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Initial (U₀, W) stacks for n_df leaves; U₀ = expm(X₀) is the one use of the exponential map."""
    n = g.n_orbitals
    gnorm = float(np.linalg.norm(g.as_matrix()))
    scale = np.sqrt(gnorm / max(n_df * n, 1))
    try:
        x, w = np.zeros((n_df, n, n)), np.zeros((n_df, n))
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"n_df = {n_df} leaves of {n} orbitals cannot be allocated") from exc
    if config.init_mode == "random":
        rng = np.random.default_rng(config.rng_seed)
        x = _flat_to_x(0.1 * rng.standard_normal(n_df * n * (n - 1) // 2), n_df, n)
        w = scale * rng.standard_normal((n_df, n))
        return _expm_stack(x), w
    seed_leaves = min(n_df, n * n)
    # the seed keeps the N^2 x N^2 form: the optimizers amplify roundoff, so
    # a packed seed would move every iterate
    base = second_factorization(_psd_leaves(g.as_matrix(), n, seed_leaves))
    # U₀ = expm(logm(U_xdf)) on purpose: the benchmark's rcdf quality amplifies any roundoff
    # in U₀. The round trip goes with the rest of ROADMAP item 3(a) once item 1 lands.
    for t in range(base.n_leaves):
        x[t] = generator_from_rotation(base.rotations[t])
        w[t] = base.factors[t]
    if n_df > base.n_leaves:
        # extra leaves get a small random kick; exactly-zero W is a stationary
        # point the W-step can never leave
        rng = np.random.default_rng(config.rng_seed)
        w[base.n_leaves :] = 0.01 * scale * rng.standard_normal((n_df - base.n_leaves, n))
    return _expm_stack(x), w


@dataclass
class TraceRow:
    outer: int
    cost: float
    residual_cost: float
    penalty: float
    lambda_two_body: float | None  # None for full-rank cores, which have no rank-1 norm
    grad_norm: float


def _check_finite(value: float, outer: int) -> None:
    if not np.isfinite(value):
        raise OptimizationError("cost became non-finite", iteration=outer)


def optimize_scdf(
    g: TwoElectronTensor,
    n_df: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> tuple[DoubleFactorization, list[TraceRow]]:
    """Rank-1 compressed factorization with per-leaf encoding shifts.

    Runs the alternating W / α / generator loop until the two-body norm
    stalls (windowed plateau) or max_outer_iters is hit. With from_xdf
    init an iteration that would raise the norm is rejected and the loop
    stops, so the recorded norm trajectory is non-increasing; random init
    has to grow the norm while it fits the tensor, so only the plateau
    rule applies there. Output has the component truncation and the α
    threshold applied.
    """
    if n_df < 1:
        raise ValidationError("n_df must be >= 1")
    gp = g.as_packed_matrix()
    u, w = _init_state(g, n_df, config)
    alpha = np.zeros(n_df)
    rho = config.rho

    def w_objective(wflat: np.ndarray):
        cost, _, grad = _scdf_cost_and_grad_w(gp, u, wflat.reshape(n_df, -1), alpha, rho)
        return cost, grad.ravel()

    def cost_and_grad_u(umat: np.ndarray):
        residual, yu = _rank1_objective(gp, umat, w)
        # the U-free penalty stays in the cost: L-BFGS-B's ftol test is relative to |f|
        return residual + penalty, -4.0 * yu * w[:, None, :]

    trace: list[TraceRow] = []
    prev_lambda = np.inf
    snapshot = (u, w, alpha)
    for outer in range(1, config.max_outer_iters + 1):
        w = _lbfgs(w_objective, w.ravel()).reshape(n_df, -1)
        alpha = _median_alpha(w)
        penalty = _penalty(_excess(w, alpha), rho, 1)
        u = _rotation_step(cost_and_grad_u, u, outer)

        cost, residual_cost, grad_w = _scdf_cost_and_grad_w(gp, u, w, alpha, rho)
        _check_finite(cost, outer)
        # the default thresholds keep δ_DF = 0: the norm of the untruncated iterate
        lam2 = two_body_burg_norm(_scdf_record(u, w, alpha))
        # From an XDF seed the norm falls monotonically, so an uptick means
        # the surrogate cost has decoupled from the norm and further cycles
        # just churn: keep the previous iterate. A random seed must first
        # grow the norm while it fits the tensor, so no guard there.
        if config.init_mode == "from_xdf" and lam2 > prev_lambda + 1e-12:
            u, w, alpha = snapshot
            logger.debug("norm increased at outer %d; reverted", outer)
            break
        grad_norm = float(np.max(np.abs(grad_w)))
        trace.append(TraceRow(outer, cost, residual_cost, cost - residual_cost, lam2, grad_norm))
        snapshot = (u, w, alpha)
        prev_lambda = lam2
        if len(trace) > PLATEAU_WINDOW:
            past = trace[-1 - PLATEAU_WINDOW]
            if config.init_mode == "from_xdf":
                stalled = past.lambda_two_body - lam2 < config.norm_plateau_threshold
            else:
                # norm climbs while a random seed is still fitting the
                # tensor, so stall detection has to watch the cost instead
                stalled = past.cost - cost < 1e-9 * max(abs(past.cost), 1.0)
            if stalled:
                break

    w_final = truncate_factors(w, config.delta_df, config.truncation_mode)
    if not np.any(w_final):
        raise ValidationError(f"every W was truncated away; lower delta_df (now {config.delta_df:g})")
    keep = [t for t in range(n_df) if np.any(w_final[t]) or abs(alpha[t]) >= config.delta_alpha]
    fact = _scdf_record(
        u[keep], w_final[keep], alpha[keep], Thresholds(config.delta_df, config.delta_alpha, rho)
    )
    return apply_alpha_threshold(fact, config.delta_alpha), trace


def _reduced_v_design(gpacked: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The V-step least squares restricted to symmetric cores and symmetric tensors.

    Rows are the isometric packing of 8-fold symmetric N⁴ tensors: pair rows
    p ≤ q weighted √2 off the diagonal, then the upper triangle of pair x
    pair, again weighted √2 off the diagonal. Columns are the orthonormal
    symmetric cores per leaf, k ≤ l, i.e. (C⊗C)(e_k e_l^T + e_l e_k^T)/√2 off
    the diagonal, with C^t's pair rows w_pq U^t_pk U^t_qk. ``gpacked`` is g's
    packed matrix form, M x M with M = N(N+1)/2. Returns (design, packed g),
    M(M+1)/2 x T·M, refused past MAX_V_DESIGN_ENTRIES before anything is allocated.
    """
    t, n, _ = u.shape
    m = n * (n + 1) // 2
    rows, cols = m * (m + 1) // 2, t * m
    if rows * cols > MAX_V_DESIGN_ENTRIES:
        raise ValidationError(
            f"the V-step design for {t} leaves of {n} orbitals is {rows} x {cols} = "
            f"{rows * cols} entries, over the {MAX_V_DESIGN_ENTRIES}-entry bound"
        )
    # one packing serves the orbital pairs (p, q) of the rows and the core
    # entries (k, l) of the columns
    i, j, w = _packing(n)
    pr, rs, w_rows = _packing(len(i))
    design = np.empty((len(pr), t, len(i)))
    for leaf, ct in enumerate(u[:, i, :] * u[:, j, :] * w[:, None]):
        left, right = ct[pr], ct[rs]
        design[:, leaf] = left[:, i] * right[:, j] + left[:, j] * right[:, i]
    design *= 0.5 * w
    design *= w_rows[:, None, None]
    return design.reshape(len(pr), -1), gpacked[pr, rs] * w_rows


def _gram_solve(a: np.ndarray, y: np.ndarray, shift: float) -> np.ndarray | None:
    """argmin ‖Ax − y‖² + shift·‖x‖² (minimum-norm at shift = 0) from one Cholesky factor of the smaller Gram matrix.

    A wide design (rows ≤ columns) solves the seminormal equations
    (AA^T + shift·I) z = y, x = A^T z; a tall one (A^T A + shift·I) x = A^T y.
    One step of iterative refinement on the same factor follows, which gives
    back the accuracy of an orthogonal solve while cond(A)²·eps ≪ 1 (Björck,
    Numerical Methods for Least Squares Problems, 1996, on the corrected
    seminormal equations). Returns None where the factor cannot be trusted: a
    tall design at shift = 0, a Gram matrix Cholesky rejects, or one whose
    LAPACK ``pocon`` reciprocal condition estimate is at or below √eps.
    """
    rows, cols = a.shape
    wide = rows <= cols
    if not (wide or shift):
        return None
    gram = a @ a.T if wide else a.T @ a
    gram[np.diag_indices_from(gram)] += shift
    norm1 = np.linalg.norm(gram, 1)
    try:
        factor = cho_factor(gram, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # written so that NaN fails the check
    if not dpocon(factor[0], norm1)[0] > np.sqrt(np.finfo(float).eps):
        return None
    if wide:
        z = cho_solve(factor, y, check_finite=False)
        x = a.T @ z
        return x + a.T @ cho_solve(factor, y - a @ x - shift * z, check_finite=False)
    x = cho_solve(factor, a.T @ y, check_finite=False)
    return x + cho_solve(factor, a.T @ (y - a @ x) - shift * x, check_finite=False)


def solve_v_step(
    g: TwoElectronTensor,
    u: np.ndarray,
    rho: float = 0.0,
    gamma: int = 2,
    v0: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal symmetric cores V^t at fixed rotations.

    ρ = 0: exact least squares (minimum-norm when underdetermined).
    ρ > 0, γ = 2: ridge, argmin ½‖Ax − y‖² + ρ‖x‖².
    ρ > 0, γ = 1: subgradient L-BFGS started from v0.

    The two exact solves work in the symmetry-reduced coordinates of
    ``_reduced_v_design``, not on the N⁴ x T·N² Kronecker design
    [C^1⊗C^1 … C^T⊗C^T]. Symmetric cores map into the 8-fold symmetric
    subspace and antisymmetric ones into its orthogonal complement, where g
    has no component, so the minimum-norm (and the ridge) solution has no
    antisymmetric part: both packings are isometries, and the reduced least
    squares, minimum norm and ridge problems are the full ones.

    Both exact solves go through ``_gram_solve``: one Cholesky factor of the
    smaller of AA^T + 2ρI and A^T A + 2ρI, then one step of iterative
    refinement on it. At ρ = 0 that is the row Gram of an underdetermined
    design (rows ≤ columns, as on the bundled chains at 4N leaves), whose
    minimum-norm solution is A^T (AA^T)⁻¹ y. The SVD (``np.linalg.lstsq``)
    runs only where that factor cannot be trusted: an overdetermined design
    at ρ = 0, whose column Gram is singular (every leaf's columns span
    vec(I), so T − 1 directions are null); a Gram matrix Cholesky rejects; or
    one whose LAPACK ``pocon`` reciprocal condition estimate is at or below
    √eps, as for a row-deficient design. A ridge that falls back solves the
    least squares of [A; √(2ρ) I] against [y; 0]. The ``rcond`` cutoff
    governs the fallback only: the largest singular value lies in the
    symmetric block (Perron–Frobenius on the nonnegative Gram matrix), so
    ``rcond`` = eps·max(N⁴, T·N²) keeps the full design's absolute cutoff.
    """
    t, n, _ = u.shape
    if rho and gamma == 1:
        gmat, c = g.as_matrix(), _design_blocks(u)
        if v0 is None:
            v0 = np.zeros((t, n, n))

        def objective(vflat: np.ndarray):
            v = vflat.reshape(t, n, n)
            v = 0.5 * (v + v.transpose(0, 2, 1))
            cost, _, y = _cdf_objective(gmat, c, v, rho, 1)
            return cost, (_grad_v(c, y) + rho * np.sign(v)).ravel()

        out = _lbfgs(objective, v0.ravel()).reshape(t, n, n)
        return 0.5 * (out + out.transpose(0, 2, 1))
    a, y = _reduced_v_design(g.as_packed_matrix(), u)
    sol = _gram_solve(a, y, 2.0 * rho)
    if sol is None:
        if rho:
            # the ridge is the least squares of [A; √(2ρ) I] against [y; 0]
            y = np.concatenate([y, np.zeros(a.shape[1])])
            a = np.vstack([a, np.sqrt(2.0 * rho) * np.eye(a.shape[1])])
        rcond = np.finfo(float).eps * max(n**4, t * n * n)
        sol, *_ = np.linalg.lstsq(a, y, rcond=rcond)
    k, l, w_core = _packing(n)
    v = np.zeros((t, n, n))
    v[:, k, l] = sol.reshape(t, -1) / w_core
    v[:, l, k] = v[:, k, l]
    return v


def optimize_cdf(
    g: TwoElectronTensor,
    n_df: int,
    config: OptimizerConfig = OptimizerConfig(rho=0.0),
) -> tuple[FullRankFactorization, list[TraceRow]]:
    """Full-rank compressed factorization (regularized when ρ > 0).

    Alternates the exact V-step with the Cayley rotation step until the
    cost stalls. The γ = 2 penalty turns the V-step into a ridge solve;
    γ = 1 keeps a kinked objective handled by subgradient L-BFGS.
    """
    if n_df < 1:
        raise ValidationError("n_df must be >= 1")
    n = g.n_orbitals
    gmat = g.as_matrix()
    rho, gamma = config.rho, config.gamma
    u, w = _init_state(g, n_df, config)
    v = np.stack([np.outer(wt, wt) for wt in w])

    trace: list[TraceRow] = []
    prev_cost = np.inf
    for outer in range(1, config.max_outer_iters + 1):
        v = solve_v_step(g, u, rho, gamma, v)
        u = _rotation_step(lambda um: _cdf_cost_and_grad_u(gmat, um, v, rho, gamma), u, outer)
        c = _design_blocks(u)
        cost, residual, y = _cdf_objective(gmat, c, v, rho, gamma)
        _check_finite(cost, outer)
        grad_norm = float(np.max(np.abs(_grad_v(c, y))))
        trace.append(TraceRow(outer, cost, residual, cost - residual, None, grad_norm))
        # the cost is >= 0, so once it is below the tolerance no later
        # iteration can improve it by more
        tol = 1e-10 * max(1.0, abs(cost))
        if cost < tol or prev_cost - cost < tol:
            break
        prev_cost = cost

    fact = FullRankFactorization(
        n_orbitals=n,
        method_tag="RCDF" if rho else "CDF",
        rotations=tuple(u),
        cores=tuple(v),
        thresholds=Thresholds(config.delta_df, config.delta_alpha, rho),
    )
    return fact, trace

