"""Gradient-based compressed double factorization.

The rank-1-constrained optimizer alternates four steps until the two-body
von-Burg norm plateaus:

1. L-BFGS over all factor vectors W^t of the cost
   ½‖g − Σ_t U^t (W^t ⊗ W^t) U^t^T‖²_F + ρ Σ_{t,k,l} |W^t_k W^t_l − α^t|,
2. closed-form update α^t ← median_{k,l}(W^t_k W^t_l),
3. L-BFGS over the antisymmetric generators X^t with U^t = expm(X^t),
4. plateau check on the two-body norm over a sliding window of outer
   iterations.

Each rank-1 objective evaluation forms the residual Δ = g − Σ_t M^t ⊗ M^t
(M^t = U^t diag(W^t) U^t^T) once and reads the cost and the W- or U-space
gradient from it (``_scdf_objective``).

The unconstrained variant keeps full symmetric cores V^t: its V-step is an
exact linear least-squares solve (ridge-regularized for a quadratic penalty,
subgradient L-BFGS for an L1 penalty), the U-step is the same generator-space
L-BFGS (one ``_rotation_step`` serves both optimizers). The exact solves run
in symmetry-reduced coordinates (packed symmetric cores against packed
8-fold symmetric tensors): an isometric restriction of the N⁴ x T·N²
Kronecker design with the same solution and 1/10 (N = 7) to 1/16 (large N)
of its entries. Each full-rank objective evaluation forms the residual
Δ = g − Σ_t C^t V^t C^t^T once, as one GEMM over the stacked design blocks
C^t, and reads the cost and either gradient from it with batched matmuls.

All gradients are analytic; the generator-space gradient pulls the U-space
gradient back through the Fréchet derivative of the matrix exponential
(adjoint identity <G, D expm(X)[E]> = <D expm(X^T)[G], E>). A real
antisymmetric X is normal, X = V diag(μ) V^H with μ purely imaginary, so
one batched Hermitian eigendecomposition of -iX gives both U = V e^μ V^H
and the Fréchet derivative V((V^H G V) ∘ Φ)V^H in closed form, Φ being the
Daleckii–Krein divided differences of exp over μ (Higham, Functions of
Matrices, 2008, ch. 3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
# expm_frechet is unused but stays bound: perfbench/tracer.py wraps it here by name
from scipy.linalg import expm, expm_frechet, logm  # noqa: F401
from scipy.optimize import minimize

from .errors import OptimizationError, ValidationError
from .factorization import DoubleFactorization, FullRankFactorization, Thresholds
from .norms import two_body_burg_norm
from .shift import apply_alpha_threshold
from .tensors import TwoElectronTensor
from .xdf import first_factorization, second_factorization, truncate_factors

logger = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
# inner L-BFGS solves: iteration cap, ftol = gtol, and memory (stored pairs)
LBFGS_MAX_ITERS = 200
LBFGS_TOLERANCE = 1e-12
LBFGS_MEMORY = 10
# outer iterations the SCDF plateau rule looks back over
PLATEAU_WINDOW = 5


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
        if self.rho < 0:
            raise ValidationError("rho must be >= 0")
        if self.init_mode not in ("from_xdf", "random"):
            raise ValidationError(f"unknown init_mode {self.init_mode!r}")
        if self.gamma not in (1, 2):
            raise ValidationError("gamma must be 1 or 2")


# ---------------------------------------------------------------------------
# cost and gradients, rank-1 cores


def _leaf_matrices(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (u * w[:, None, :]) @ u.transpose(0, 2, 1)


def _scdf_objective(
    gmat: np.ndarray, u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float
) -> tuple[float, float, np.ndarray]:
    """(cost, residual cost, Y) from one residual Δ = g − Σ_t M^t ⊗ M^t.

    Y^t_pq = Σ_rs Δ_pqrs M^t_rs per leaf; both gradients follow from it
    (``_grad_w``, ``_grad_u_rank1``).
    """
    t, n, _ = u.shape
    vec = _leaf_matrices(u, w).reshape(t, n * n)
    delta = gmat - vec.T @ vec
    residual = 0.5 * float(np.sum(delta * delta))
    cost = residual
    if rho:
        products = w[:, :, None] * w[:, None, :]
        cost += rho * float(np.sum(np.abs(products - alpha[:, None, None])))
    return cost, residual, (vec @ delta).reshape(-1, n, n)


def _grad_w(
    u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float, y: np.ndarray
) -> np.ndarray:
    grad = -2.0 * np.einsum("tpq,tpk,tqk->tk", y, u, u)
    if rho:
        signs = np.sign(w[:, :, None] * w[:, None, :] - alpha[:, None, None])
        grad += 2.0 * rho * np.einsum("tkl,tl->tk", signs, w)
    return grad


def _grad_u_rank1(u: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    return -4.0 * (y @ u) * w[:, None, :]


def cost_scdf(
    g: TwoElectronTensor, u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float
) -> float:
    """Rank-1 cost ½‖Δ‖²_F + ρ Σ_{t,k,l} |W^t_k W^t_l − α^t|."""
    return _scdf_objective(g.as_matrix(), u, w, alpha, rho)[0]


def grad_scdf_w(
    g: TwoElectronTensor, u: np.ndarray, w: np.ndarray, alpha: np.ndarray, rho: float
) -> np.ndarray:
    """∂cost/∂W^t_k = −2 Σ_pq Y^t_pq U_pk U_qk + 2ρ Σ_l sgn(W_k W_l − α^t) W_l.

    sign(0) := 0 is the subgradient choice at penalty kinks.
    """
    return _grad_w(u, w, alpha, rho, _scdf_objective(g.as_matrix(), u, w, alpha, rho)[2])


def grad_scdf_u(g: TwoElectronTensor, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """∂(residual cost)/∂U^t_pk = −4 Σ_q Y^t_pq U_qk W_k (the penalty is U-free)."""
    y = _scdf_objective(g.as_matrix(), u, w, np.zeros(len(w)), 0.0)[2]
    return _grad_u_rank1(u, w, y)


def _grad_to_generator(x: np.ndarray, grad_u: np.ndarray) -> np.ndarray:
    """Pull U-space gradients back to the antisymmetric generators.

    Per leaf this is D expm(X^T)[G] − (D expm(X^T)[G])^T, the adjoint of
    E ↦ D expm(X)[E] restricted to antisymmetric E, evaluated from the
    eigendecomposition of X (see ``_pull_back``).
    """
    return _pull_back(_eig_generators(x), grad_u)


def grad_scdf_x(g: TwoElectronTensor, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Generator-space gradient at U = expm(X); antisymmetric per leaf."""
    eig = _eig_generators(x)
    return _pull_back(eig, grad_scdf_u(g, _rotations(eig), w))


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


def _penalty(v: np.ndarray, rho: float, gamma: int) -> float:
    return rho * float(np.sum(np.abs(v) ** gamma)) if rho else 0.0


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


def _x_to_flat(x: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(x.shape[1], k=1)
    return x[:, iu[0], iu[1]].ravel()


def _flat_to_x(flat: np.ndarray, t: int, n: int) -> np.ndarray:
    iu = np.triu_indices(n, k=1)
    x = np.zeros((t, n, n))
    x[:, iu[0], iu[1]] = flat.reshape(t, -1)
    return x - x.transpose(0, 2, 1)


def _eig_generators(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, μ) with X^t = V^t diag(μ^t) V^t^H for a stack of real antisymmetric X.

    -iX is Hermitian, so one batched ``eigh`` gives unitary V and real
    eigenvalues λ; μ = iλ is purely imaginary.
    """
    lam, vecs = np.linalg.eigh(-1j * x)
    return vecs, 1j * lam


def _rotations(eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """U^t = expm(X^t) = Re(V diag(e^μ) V^H) from ``_eig_generators``."""
    vecs, mu = eig
    return np.real((vecs * np.exp(mu)[:, None, :]) @ vecs.conj().transpose(0, 2, 1))


def _pull_back(eig: tuple[np.ndarray, np.ndarray], grad_u: np.ndarray) -> np.ndarray:
    """Generator-space gradients from U-space ones, via Daleckii–Krein.

    X^T = −X has eigenvalues −μ = conj(μ) on the same V, so
    D expm(X^T)[G] = V((V^H G V) ∘ conj Φ)V^H with the divided differences
    Φ_ij = (e^μ_i − e^μ_j)/(μ_i − μ_j), formed as e^μ_j expm1(d)/d for
    d = μ_i − μ_j (and e^μ_j where d = 0) to stay accurate for close μ.
    """
    vecs, mu = eig
    d = mu[:, :, None] - mu[:, None, :]
    same = d == 0
    ratio = np.where(same, 1.0, np.expm1(d) / np.where(same, 1.0, d))
    phi = np.exp(mu)[:, None, :] * ratio
    vh = vecs.conj().transpose(0, 2, 1)
    full = np.real(vecs @ ((vh @ grad_u @ vecs) * phi.conj()) @ vh)
    return full - full.transpose(0, 2, 1)


def _expm_stack(x: np.ndarray) -> np.ndarray:
    """expm(X^t) for every leaf, from one batched eigendecomposition."""
    return _rotations(_eig_generators(x))


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


def _rotation_step(cost_and_grad_u, x: np.ndarray, outer: int) -> tuple[np.ndarray, np.ndarray]:
    """L-BFGS over the generators X from ``x``; returns (X, U = expm(X)).

    ``cost_and_grad_u(U)`` gives the cost and its U-space gradient; the
    gradient is pulled back to X through the same eigendecomposition that
    gives U. A U that drifted off the orthogonal group is an error.
    """
    t, n, _ = x.shape

    def objective(xflat: np.ndarray):
        eig = _eig_generators(_flat_to_x(xflat, t, n))
        cost, grad_u = cost_and_grad_u(_rotations(eig))
        return cost, _x_to_flat(_pull_back(eig, grad_u))

    x = _flat_to_x(_lbfgs(objective, _x_to_flat(x)), t, n)
    u = _expm_stack(x)
    err = max(np.max(np.abs(ut.T @ ut - np.eye(n))) for ut in u)
    if err > ORTHOGONALITY_TOL:
        raise OptimizationError(f"rotation drifted off the manifold ({err:.2e})", iteration=outer)
    return x, u


def _median_alpha(w: np.ndarray) -> np.ndarray:
    """Per-leaf median of all N² pairwise products W_k W_l, duplicates kept.

    The median minimizes Σ_kl |W_k W_l − α| over scalar α, so this is the
    exact solution of the penalty-only subproblem.
    """
    t, n = w.shape
    products = (w[:, :, None] * w[:, None, :]).reshape(t, n * n)
    return np.median(products, axis=1)


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
    """Initial (X, W) stacks for n_df leaves."""
    n = g.n_orbitals
    gnorm = float(np.linalg.norm(g.as_matrix()))
    scale = np.sqrt(gnorm / max(n_df * n, 1))
    if config.init_mode == "random":
        rng = np.random.default_rng(config.rng_seed)
        x = _flat_to_x(0.1 * rng.standard_normal(n_df * n * (n - 1) // 2), n_df, n)
        w = scale * rng.standard_normal((n_df, n))
        return x, w
    seed_leaves = min(n_df, n * n)
    base = second_factorization(first_factorization(g, seed_leaves))
    x = np.zeros((n_df, n, n))
    w = np.zeros((n_df, n))
    for t in range(base.n_leaves):
        x[t] = generator_from_rotation(base.rotations[t])
        w[t] = base.factors[t]
    if n_df > base.n_leaves:
        # extra leaves get a small random kick; exactly-zero W is a stationary
        # point the W-step can never leave
        rng = np.random.default_rng(config.rng_seed)
        w[base.n_leaves :] = 0.01 * scale * rng.standard_normal((n_df - base.n_leaves, n))
    return x, w


@dataclass
class TraceRow:
    outer: int
    cost: float
    residual_cost: float
    penalty: float
    lambda_two_body: float | None  # None for full-rank cores, which have no rank-1 norm
    grad_norm: float

    def to_dict(self) -> dict:
        return {
            "outer": self.outer,
            "cost": self.cost,
            "residual_cost": self.residual_cost,
            "penalty": self.penalty,
            "lambda_two_body": self.lambda_two_body,
            "grad_norm": self.grad_norm,
        }


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
    n = g.n_orbitals
    gmat = g.as_matrix()
    x, w = _init_state(g, n_df, config)
    u = _expm_stack(x)
    alpha = np.zeros(n_df)
    rho = config.rho

    def w_objective(wflat: np.ndarray):
        wmat = wflat.reshape(n_df, n)
        cost, _, y = _scdf_objective(gmat, u, wmat, alpha, rho)
        return cost, _grad_w(u, wmat, alpha, rho, y).ravel()

    def cost_and_grad_u(umat: np.ndarray):
        cost, _, y = _scdf_objective(gmat, umat, w, alpha, rho)
        return cost, _grad_u_rank1(umat, w, y)

    trace: list[TraceRow] = []
    prev_lambda = np.inf
    snapshot = (x.copy(), w.copy(), alpha.copy())
    for outer in range(1, config.max_outer_iters + 1):
        w = _lbfgs(w_objective, w.ravel()).reshape(n_df, n)
        alpha = _median_alpha(w)
        x, u = _rotation_step(cost_and_grad_u, x, outer)

        cost, residual_cost, y = _scdf_objective(gmat, u, w, alpha, rho)
        _check_finite(cost, outer)
        # the default thresholds keep δ_DF = 0: the norm of the untruncated iterate
        lam2 = two_body_burg_norm(_scdf_record(u, w, alpha))
        # From an XDF seed the norm falls monotonically, so an uptick means
        # the surrogate cost has decoupled from the norm and further cycles
        # just churn: keep the previous iterate. A random seed must first
        # grow the norm while it fits the tensor, so no guard there.
        if config.init_mode == "from_xdf" and lam2 > prev_lambda + 1e-12:
            x, w, alpha = snapshot
            u = _expm_stack(x)
            logger.debug("norm increased at outer %d; reverted", outer)
            break
        grad_norm = float(np.max(np.abs(_grad_w(u, w, alpha, rho, y))))
        trace.append(TraceRow(outer, cost, residual_cost, cost - residual_cost, lam2, grad_norm))
        snapshot = (x.copy(), w.copy(), alpha.copy())
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

    w_final = np.stack([truncate_factors(wt, config.delta_df, config.truncation_mode) for wt in w])
    keep = [t for t in range(n_df) if np.any(w_final[t]) or abs(alpha[t]) >= config.delta_alpha]
    if not keep:
        raise OptimizationError("every leaf truncated away; lower delta_df", iteration=len(trace))
    fact = _scdf_record(
        u[keep], w_final[keep], alpha[keep], Thresholds(config.delta_df, config.delta_alpha, rho)
    )
    return apply_alpha_threshold(fact, config.delta_alpha), trace


def _packing(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Isometric packing of an n x n symmetric matrix M.

    Returns the upper-triangle indices (i ≤ j) and the weights w (1 on, √2
    off the diagonal) for which the vector w·M[i, j] has M's Frobenius norm.
    """
    i, j = np.triu_indices(n)
    return i, j, np.where(i == j, 1.0, np.sqrt(2.0))


def _reduced_v_design(gmat: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The V-step least squares restricted to symmetric cores and symmetric tensors.

    Rows are the isometric packing of 8-fold symmetric N⁴ tensors: pair rows
    p ≤ q weighted √2 off the diagonal, then the upper triangle of pair x
    pair, again weighted √2 off the diagonal. Columns are the orthonormal
    symmetric cores per leaf, k ≤ l, i.e. (C⊗C)(e_k e_l^T + e_l e_k^T)/√2 off
    the diagonal. Returns (design, packed g), M(M+1)/2 x T·N(N+1)/2 with
    M = N(N+1)/2.
    """
    t, _, n = c.shape
    # one packing serves the orbital pairs (p, q) of the rows and the core
    # entries (k, l) of the columns
    i, j, w = _packing(n)
    pair = i * n + j
    pr, rs, w_rows = _packing(len(pair))
    packed = c[:, pair, :] * w[:, None]
    design = np.empty((len(pr), t, len(i)))
    for leaf, ct in enumerate(packed):
        left, right = ct[pr], ct[rs]
        design[:, leaf] = left[:, i] * right[:, j] + left[:, j] * right[:, i]
    design *= 0.5 * w
    design *= w_rows[:, None, None]
    gpacked = gmat[np.ix_(pair, pair)] * np.outer(w, w)
    return design.reshape(len(pr), -1), gpacked[pr, rs] * w_rows


def solve_v_step(
    g: TwoElectronTensor,
    u: np.ndarray,
    rho: float = 0.0,
    gamma: int = 2,
    v0: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal symmetric cores V^t at fixed rotations.

    ρ = 0: exact least squares (minimum-norm when underdetermined).
    ρ > 0, γ = 2: ridge normal equations.
    ρ > 0, γ = 1: subgradient L-BFGS started from v0.

    The two exact solves work in the symmetry-reduced coordinates of
    ``_reduced_v_design``, not on the N⁴ x T·N² Kronecker design
    [C^1⊗C^1 … C^T⊗C^T]. Symmetric cores map into the 8-fold symmetric
    subspace and antisymmetric ones into its orthogonal complement, where g
    has no component, so the minimum-norm (and the ridge) solution has no
    antisymmetric part: both packings are isometries, and the reduced least
    squares, minimum norm and ridge problems are the full ones. The largest
    singular value lies in the symmetric block (Perron–Frobenius on the
    nonnegative Gram matrix), so ``rcond`` = eps·max(N⁴, T·N²) keeps the
    full design's absolute cutoff.
    """
    t, n, _ = u.shape
    gmat = g.as_matrix()
    c = _design_blocks(u)
    if rho and gamma == 1:
        if v0 is None:
            v0 = np.zeros((t, n, n))

        def objective(vflat: np.ndarray):
            v = vflat.reshape(t, n, n)
            v = 0.5 * (v + v.transpose(0, 2, 1))
            cost, _, y = _cdf_objective(gmat, c, v, rho, 1)
            return cost, (_grad_v(c, y) + rho * np.sign(v)).ravel()

        out = _lbfgs(objective, v0.ravel()).reshape(t, n, n)
        return 0.5 * (out + out.transpose(0, 2, 1))
    a, y = _reduced_v_design(gmat, c)
    if rho:
        sol = np.linalg.solve(a.T @ a + 2.0 * rho * np.eye(a.shape[1]), a.T @ y)
    else:
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

    Alternates the exact V-step with the generator-space U-step until the
    cost stalls. The γ = 2 penalty turns the V-step into a ridge solve;
    γ = 1 keeps a kinked objective handled by subgradient L-BFGS.
    """
    if n_df < 1:
        raise ValidationError("n_df must be >= 1")
    n = g.n_orbitals
    gmat = g.as_matrix()
    rho, gamma = config.rho, config.gamma
    x, w = _init_state(g, n_df, config)
    u = _expm_stack(x)
    v = np.stack([np.outer(wt, wt) for wt in w])

    trace: list[TraceRow] = []
    prev_cost = np.inf
    for outer in range(1, config.max_outer_iters + 1):
        v = solve_v_step(g, u, rho, gamma, v)
        x, u = _rotation_step(lambda um: _cdf_cost_and_grad_u(gmat, um, v, rho, gamma), x, outer)
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

