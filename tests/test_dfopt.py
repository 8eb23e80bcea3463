"""Optimizer correctness: cost oracles, analytic gradients, V-step."""

import numpy as np
import pytest

import hamfactor as hf
from hamfactor import dfopt
from hamfactor.dfopt import (
    _cayley,
    _cayley_pull_back,
    _cdf_cost_and_grad_u,
    _expm_stack,
    _flat_to_x,
    _init_state,
    _rank1_objective,
    _rotation_step,
    _scdf_cost_and_grad_w,
    _x_to_flat,
    generator_from_rotation,
    grad_cdf_u,
    grad_cdf_v,
    grad_scdf_u,
    grad_scdf_w,
)
from hamfactor.errors import OptimizationError, ValidationError

from conftest import data_path, make_instance

FD_STEP = 1e-5
# a central difference spans ~|W| * FD_STEP in product space, so points need
# a much wider kink margin than the step itself for the FD to stay clean
KINK_TOL = 1e-3


def brute_force_cost(g, u, w, alpha, rho):
    """Quadruple-loop transcription of the objective, kept deliberately dumb."""
    n_df, n = w.shape
    approx = np.zeros((n, n, n, n))
    for t in range(n_df):
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        for k in range(n):
                            for l in range(n):
                                approx[p, q, r, s] += (
                                    u[t, p, k] * u[t, q, k] * w[t, k]
                                    * w[t, l] * u[t, r, l] * u[t, s, l]
                                )
    resid = 0.5 * np.sum((g.g - approx) ** 2)
    penalty = 0.0
    for t in range(n_df):
        for k in range(n):
            for l in range(n):
                penalty += abs(w[t, k] * w[t, l] - alpha[t])
    return resid + rho * penalty


def random_point(g, n_df, seed):
    n = g.n_orbitals
    rng = np.random.default_rng(seed)
    x = np.zeros((n_df, n, n))
    for t in range(n_df):
        a = rng.standard_normal((n, n))
        x[t] = a - a.T
    u = _expm_stack(0.3 * x)
    w = rng.standard_normal((n_df, n))
    alpha = rng.standard_normal(n_df)
    return u, 0.3 * x, w, alpha


def away_from_kinks(w, alpha):
    products = w[:, :, None] * w[:, None, :]
    return np.min(np.abs(products - alpha[:, None, None])) > KINK_TOL


def central_fd(fun, x0, step=FD_STEP):
    grad = np.zeros_like(x0)
    flat = x0.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        fplus = flat.copy()
        fminus = flat.copy()
        fplus[i] += step
        fminus[i] -= step
        gflat[i] = (fun(fplus.reshape(x0.shape)) - fun(fminus.reshape(x0.shape))) / (2 * step)
    return grad


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / scale


def test_cost_matches_brute_force():
    g, _ = make_instance(3, seed=2)
    u, _, w, alpha = random_point(g, 4, seed=3)
    fast = hf.cost_scdf(g, u, w, alpha, rho=1e-3)
    slow = brute_force_cost(g, u, w, alpha, rho=1e-3)
    assert fast == pytest.approx(slow, rel=1e-12)


def full_form_rank1(g, u, w, alpha, rho):
    """(cost, residual cost, ∂/∂W, ∂/∂U) transcribed on the N² x N² form: Δ, then Y = vec·Δ."""
    n_df, n = w.shape
    vec = np.stack([u[t] @ np.diag(w[t]) @ u[t].T for t in range(n_df)]).reshape(n_df, n * n)
    delta = g.as_matrix() - vec.T @ vec
    y = (vec @ delta).reshape(n_df, n, n)
    residual = 0.5 * np.sum(delta**2)
    excess = w[:, :, None] * w[:, None, :] - alpha[:, None, None]
    grad_w = -2.0 * np.einsum("tpq,tpk,tqk->tk", y, u, u)
    grad_w += 2.0 * rho * np.einsum("tkl,tl->tk", np.sign(excess), w)
    grad_u = -4.0 * (y @ u) * w[:, None, :]
    return residual + rho * np.sum(np.abs(excess)), residual, grad_w, grad_u


@pytest.mark.parametrize("orthogonal", [True, False])
@pytest.mark.parametrize("rho", [0.0, 1e-3])
@pytest.mark.parametrize("n", [3, 5])
def test_packed_rank1_kernels_match_full_form(n, rho, orthogonal):
    """The W- and U-step kernels on the packed pair space against the N² x N² form, on and off UᵀU = I."""
    g, _ = make_instance(n, seed=21)
    u, _, w, alpha = random_point(g, 2 * n, seed=22)
    if not orthogonal:
        u = u + 0.2 * np.random.default_rng(23).standard_normal(u.shape)
    cost, residual, grad_w, grad_u = full_form_rank1(g, u, w, alpha, rho)
    gp = g.as_packed_matrix()

    packed_cost, packed_residual, packed_grad_w = _scdf_cost_and_grad_w(gp, u, w, alpha, rho)
    assert packed_cost == pytest.approx(cost, rel=1e-12)
    assert packed_residual == pytest.approx(residual, rel=1e-12)
    assert rel_err(packed_grad_w, grad_w) < 1e-12

    u_residual, yu = _rank1_objective(gp, u, w)
    packed_grad_u = -4.0 * yu * w[:, None, :]
    assert u_residual == pytest.approx(residual, rel=1e-12)
    assert rel_err(packed_grad_u, grad_u) < 1e-12


def test_grad_w_builds_no_packed_design():
    """One ∇_W evaluation at N = 16, T = 4N peaks below the T x M x N design it once built (1.11 MB)."""
    import tracemalloc

    n, n_df = 16, 64
    g, _ = make_instance(n, seed=24)
    u, _, w, alpha = random_point(g, n_df, seed=25)
    g.as_packed_matrix()  # cached on g, not part of the evaluation
    tracemalloc.start()
    try:
        grad_scdf_w(g, u, w, alpha, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_df * (n * (n + 1) // 2) * n * 8


@pytest.mark.parametrize("rho", [0.0, 1e-5, 1e-3])
@pytest.mark.parametrize("n", [2, 4])
def test_grad_w_matches_fd(n, rho):
    g, _ = make_instance(n, seed=11)
    n_df = min(2 * n, n * n)
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        u, _, w, alpha = random_point(g, n_df, seed=seed)
        if rho > 0 and not away_from_kinks(w, alpha):
            continue
        analytic = hf.grad_scdf_w(g, u, w, alpha, rho)
        fd = central_fd(lambda wv: hf.cost_scdf(g, u, wv, alpha, rho), w)
        assert rel_err(analytic, fd) < 1e-6
        checked += 1


@pytest.mark.parametrize("n", [2, 4])
def test_grad_u_matches_fd(n):
    g, _ = make_instance(n, seed=12)
    n_df = min(2 * n, n * n)
    for seed in range(3):
        u, _, w, alpha = random_point(g, n_df, seed=seed)
        analytic = grad_scdf_u(g, u, w)
        fd = central_fd(lambda uv: hf.cost_scdf(g, uv, w, alpha, 0.0), u)
        assert rel_err(analytic, fd) < 1e-6


@pytest.mark.parametrize("n, t", [(4, 3), (5, 2)])
@pytest.mark.parametrize("x_norm", [0.0, 0.5, 3.0])
def test_cayley_gradient_matches_fd(n, t, x_norm):
    """Generator-space gradient of U = U₀ cay(X) at X = 0, moderate X and ‖X‖₂ ≈ 3."""
    g, _ = make_instance(n, seed=13)
    u0, x, w, alpha = random_point(g, t, seed=5)
    if x_norm:
        x *= x_norm / np.max(np.linalg.norm(x, 2, axis=(1, 2)))
    else:
        x[:] = 0.0

    def cost_of_flat(xflat):
        return hf.cost_scdf(g, _cayley(u0, _flat_to_x(xflat, t, n))[0], w, alpha, 0.0)

    u, inv = _cayley(u0, x)
    gen = _cayley_pull_back(u0, inv, grad_scdf_u(g, u, w))
    assert np.max(np.abs(gen + np.transpose(gen, (0, 2, 1)))) == 0.0
    iu = np.triu_indices(n, k=1)
    fd = central_fd(cost_of_flat, _x_to_flat(x, iu))
    assert rel_err(_x_to_flat(gen, iu), fd) < 1e-6


def _antisymmetric_stack(rng, t, n, scale):
    a = rng.standard_normal((t, n, n))
    return scale * (a - np.transpose(a, (0, 2, 1)))


def _repeated_pair_blocks(rng, n_blocks, scale):
    """Block-diagonal generators whose 2x2 rotation blocks share one angle."""
    theta = scale * rng.standard_normal()
    block = np.array([[0.0, theta], [-theta, 0.0]])
    x = np.zeros((3, 2 * n_blocks, 2 * n_blocks))
    for b in range(n_blocks):
        x[:, 2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = block
    return x


@pytest.mark.parametrize(
    "case, scale",
    [("zero", 0.0)]
    + [(case, scale) for case in ("even", "odd", "repeated_pairs") for scale in (0.01, 1.0, 10.0)],
)
def test_batched_rotations_and_pull_back_match_scipy(case, scale):
    """The seed's batched expm, and the Cayley retraction and its pull-back, against per-leaf scipy."""
    import scipy.linalg

    rng = np.random.default_rng(31)
    x = {
        "zero": lambda: np.zeros((3, 4, 4)),
        "even": lambda: _antisymmetric_stack(rng, 5, 6, scale),
        "odd": lambda: _antisymmetric_stack(rng, 5, 7, scale),
        "repeated_pairs": lambda: _repeated_pair_blocks(rng, 3, scale),
    }[case]()
    grad_u = rng.standard_normal(x.shape)

    u0 = _expm_stack(x)
    eye = np.eye(x.shape[1])
    cay_ref, gen_ref = np.empty_like(x), np.empty_like(x)
    for t in range(x.shape[0]):
        a = eye - 0.5 * x[t]
        cay_ref[t] = scipy.linalg.solve(a, eye + 0.5 * x[t])
        full = 0.5 * scipy.linalg.solve(a.T, u0[t].T @ grad_u[t] @ (eye + cay_ref[t]).T)
        gen_ref[t] = full - full.T

    assert rel_err(u0, np.stack([scipy.linalg.expm(xt) for xt in x])) < 1e-12
    u, inv = _cayley(u0, x)
    assert rel_err(u, u0 @ cay_ref) < 1e-12
    assert rel_err(_cayley_pull_back(u0, inv, grad_u), gen_ref) < 1e-12


def _quadratic_pull(target):
    """cost_and_grad_u for ½‖U − target‖², whose minimizer over rotations is off every start."""
    return lambda u: (0.5 * float(np.sum((u - target) ** 2)), u - target)


def test_rotation_step_returns_orthogonal_rotations():
    rng = np.random.default_rng(32)
    u0 = _expm_stack(_antisymmetric_stack(rng, 4, 6, 0.5))
    target = rng.standard_normal((4, 6, 6))
    u = _rotation_step(_quadratic_pull(target), u0, outer=1)
    assert np.max(np.abs(np.transpose(u, (0, 2, 1)) @ u - np.eye(6))) <= dfopt.ORTHOGONALITY_TOL
    assert _quadratic_pull(target)(u)[0] < _quadratic_pull(target)(u0)[0]


def test_rotation_step_turns_a_failed_final_inverse_into_optimization_error(monkeypatch):
    def singular(u0, x):
        raise np.linalg.LinAlgError("Singular matrix")

    u0 = np.stack([np.eye(3)] * 2)
    # skip every evaluation, so the only inverse taken is the final one
    monkeypatch.setattr(dfopt, "_lbfgs", lambda fun, x0: x0)
    monkeypatch.setattr(dfopt, "_cayley", singular)
    with pytest.raises(OptimizationError, match="Cayley inverse failed"):
        _rotation_step(_quadratic_pull(u0), u0, outer=3)


def test_rotation_step_rejects_non_finite_rotations(monkeypatch):
    u0 = np.stack([np.eye(3)] * 2)
    # a NaN in the second leaf: a per-leaf max would have kept only the first leaf's error
    monkeypatch.setattr(dfopt, "_lbfgs", lambda fun, x0: np.where(np.arange(x0.size) < 3, 0.0, np.nan))
    with pytest.raises(OptimizationError, match="drifted off the manifold"):
        _rotation_step(_quadratic_pull(u0), u0, outer=1)


def test_cdf_gradients_match_fd():
    g, _ = make_instance(3, seed=15)
    n_df = 3
    rng = np.random.default_rng(8)
    u, x, _, _ = random_point(g, n_df, seed=7)
    v = rng.standard_normal((n_df, 3, 3))
    v = 0.5 * (v + np.transpose(v, (0, 2, 1)))

    analytic_v = grad_cdf_v(g, u, v)
    fd_v = central_fd(lambda vv: hf.cost_cdf(g, u, 0.5 * (vv + np.transpose(vv, (0, 2, 1)))), v)
    # symmetrize the fd gradient the same way the analytic one is defined
    assert rel_err(analytic_v, 0.5 * (fd_v + np.transpose(fd_v, (0, 2, 1)))) < 1e-6

    analytic_u = grad_cdf_u(g, u, v)
    fd_u = central_fd(lambda uv: hf.cost_cdf(g, uv, v), u)
    assert rel_err(analytic_u, fd_u) < 1e-6


def _reference_design(u):
    t, n, _ = u.shape
    return np.einsum("tpk,tqk->tpqk", u, u).reshape(t, n * n, n)


def _reference_residual(gmat, u, v):
    """Per-leaf loop Δ = g − Σ_t C^t V^t C^t^T."""
    c = _reference_design(u)
    recon = np.zeros_like(gmat)
    for t in range(u.shape[0]):
        recon += c[t] @ v[t] @ c[t].T
    return gmat - recon


def _reference_grad_u(gmat, u, v):
    n = u.shape[1]
    delta4 = _reference_residual(gmat, u, v).reshape(n, n, n, n)
    return -4.0 * np.einsum("pqrs,tqk,tkl,trl,tsl->tpk", delta4, u, v, u, u, optimize=True)


def _reference_grad_v(gmat, u, v):
    delta = _reference_residual(gmat, u, v)
    c = _reference_design(u)
    return -np.stack([c[t].T @ delta @ c[t] for t in range(u.shape[0])])


def _reference_v_step(gmat, u, rho):
    """Dense Kronecker design [C^1⊗C^1 … C^T⊗C^T], solved as least squares or ridge."""
    t, n, _ = u.shape
    c = _reference_design(u)
    a = np.hstack([np.kron(c[i], c[i]) for i in range(t)])
    y = gmat.ravel()
    if rho:
        sol = np.linalg.solve(a.T @ a + 2.0 * rho * np.eye(a.shape[1]), a.T @ y)
    else:
        sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    v = sol.reshape(t, n, n)
    return 0.5 * (v + v.transpose(0, 2, 1))


def _random_rotations(rng, t, n):
    return _expm_stack(_antisymmetric_stack(rng, t, n, 0.5))


def _random_cores(rng, t, n):
    v = rng.standard_normal((t, n, n))
    return 0.5 * (v + v.transpose(0, 2, 1))


# the reduced V-step has M(M+1)/2 rows and T·M columns, M = N(N+1)/2, so it
# turns underdetermined past T = (M+1)/2: 8 at N=5, 11 at N=6. The ridge
# normal equations have condition ~ σ_max²/2ρ (the designs share the
# direction vec(I) = Σ_k C^t_k, so T−1 directions are null); ρ = 0.1 keeps the
# reference's own roundoff near 1e-14.
@pytest.mark.parametrize("rho", [0.0, 0.1])
@pytest.mark.parametrize("n, t", [(5, 4), (5, 12), (6, 5), (6, 14)])
def test_full_rank_kernels_match_reference_formulas(n, t, rho):
    g, _ = make_instance(n, seed=40 + n)
    gmat = g.as_matrix()
    rng = np.random.default_rng(100 * n + t)
    u = _random_rotations(rng, t, n)
    v = _random_cores(rng, t, n)

    delta = _reference_residual(gmat, u, v)
    cost_ref = 0.5 * np.sum(delta * delta) + rho * np.sum(v**2)
    assert hf.cost_cdf(g, u, v, rho, 2) == pytest.approx(cost_ref, rel=1e-12)
    cost, grad_u = _cdf_cost_and_grad_u(gmat, u, v, rho, 2)
    assert cost == pytest.approx(cost_ref, rel=1e-12)
    assert rel_err(grad_u, _reference_grad_u(gmat, u, v)) < 1e-12
    assert rel_err(grad_cdf_u(g, u, v), _reference_grad_u(gmat, u, v)) < 1e-12
    assert rel_err(grad_cdf_v(g, u, v), _reference_grad_v(gmat, u, v)) < 1e-12

    v_ref = _reference_v_step(gmat, u, rho)
    assert rel_err(hf.solve_v_step(g, u, rho=rho, gamma=2), v_ref) < 1e-12


def test_v_step_reconstructs_random_rotation_instance_at_n10():
    n, t = 10, 40
    rng = np.random.default_rng(41)
    u = _random_rotations(rng, t, n)
    v_true = _random_cores(rng, t, n) / n
    c = _reference_design(u)
    recon = sum(c[i] @ v_true[i] @ c[i].T for i in range(t))
    g = hf.TwoElectronTensor(recon.reshape(n, n, n, n))
    v = hf.solve_v_step(g, u, rho=0.0)
    assert hf.cost_cdf(g, u, v) < 1e-20


def test_v_step_reaches_stationarity():
    g, _ = make_instance(3, seed=16)
    n_df = 4
    u, _, _, _ = random_point(g, n_df, seed=9)
    v = hf.solve_v_step(g, u, rho=0.0)
    grad = grad_cdf_v(g, u, v)
    assert np.max(np.abs(grad)) < 1e-8


def test_v_step_ridge_shrinks_entries():
    g, _ = make_instance(3, seed=17)
    u, _, _, _ = random_point(g, 3, seed=10)
    free = hf.solve_v_step(g, u, rho=0.0)
    ridged = hf.solve_v_step(g, u, rho=10.0, gamma=2)
    assert np.linalg.norm(ridged) < np.linalg.norm(free)


def test_scdf_from_xdf_converges_on_factorizable():
    # leaf budget equal to the true component count: the seeded start is exact
    g, _ = make_instance(3, n_components=3, seed=18)
    cfg = hf.OptimizerConfig(rho=0.0, max_outer_iters=10)
    fact, trace = hf.optimize_scdf(g, 3, cfg)
    assert hf.frobenius_error(g, hf.reconstruct_tensor(fact)) < 1e-8
    xdf = hf.explicit_factorization(g, 3)
    assert hf.lambda_burg(fact, np.zeros(3)) <= hf.lambda_burg(xdf, np.zeros(3)) + 1e-9


def test_scdf_trace_is_monotone(small_instance):
    g, _ = small_instance
    fact, trace = hf.optimize_scdf(g, 12, hf.OptimizerConfig(max_outer_iters=15))
    lams = [row.lambda_two_body for row in trace]
    assert all(lams[i + 1] <= lams[i] + 1e-9 for i in range(len(lams) - 1))
    assert all(row.grad_norm >= 0 for row in trace)


def test_scdf_random_init_fits_tensor():
    g, _ = make_instance(3, n_components=2, seed=19)
    cfg = hf.OptimizerConfig(init_mode="random", rho=1e-5, max_outer_iters=60, rng_seed=1)
    fact, trace = hf.optimize_scdf(g, 6, cfg)
    assert hf.frobenius_error(g, hf.reconstruct_tensor(fact)) < 1e-2
    assert len(trace) > 1  # the run must survive the fitting phase


def test_cdf_stops_once_the_fit_is_exact():
    # chain_n07 at 4N fits to roundoff in the first outer iteration; a second
    # one would repeat the V-step and the X-step only to leave U and V as is
    g, _, _, _ = hf.parse_fcidump(data_path("chain_n07.fcidump"))
    n_df = 4 * g.n_orbitals
    fact, trace = hf.optimize_cdf(g, n_df)
    assert len(trace) == 1
    once, _ = hf.optimize_cdf(g, n_df, hf.OptimizerConfig(rho=0.0, max_outer_iters=1))
    assert hf.factorization_to_dict(fact) == hf.factorization_to_dict(once)


def test_cdf_first_cores_come_from_the_untouched_seed():
    # the seed path U₀ = expm(X₀) is kept bit for bit: the first V-step sees exactly it
    g, _, _, _ = hf.parse_fcidump(data_path("chain_n06.fcidump"))
    n_df = 4 * g.n_orbitals
    config = hf.OptimizerConfig(rho=0.0, max_outer_iters=1)
    fact, _ = hf.optimize_cdf(g, n_df, config)
    v = hf.solve_v_step(g, _init_state(g, n_df, config)[0])
    assert np.array_equal(np.stack(fact.cores), v)


def test_v_step_refuses_an_oversized_design_before_allocating():
    import tracemalloc

    n, t = 20, 80  # 22155 x 16800 entries, 3.0 GB
    g = hf.TwoElectronTensor(np.zeros((n, n, n, n)))
    u = np.tile(np.eye(n), (t, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"22155 x 16800 = 372204000 entries.*50000000-entry bound"):
            hf.solve_v_step(g, u, rho=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def _spy_on_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


def test_cdf_on_chain_n07_runs_the_gram_solve_alone(monkeypatch):
    # its seed design is 406 x 784 with full row rank: the Cholesky factor of
    # the row Gram is trusted, so the SVD never runs
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    g, _, _, _ = hf.parse_fcidump(data_path("chain_n07.fcidump"))
    fact, _ = hf.optimize_cdf(g, 4 * g.n_orbitals)
    assert hf.frobenius_error(g, fact.reconstruct()) < 1e-9


def _copies_of_one_rotation(n, t, seed):
    """t copies of one random rotation, and its one leaf's design block C (N² x N)."""
    u = np.repeat(_random_rotations(np.random.default_rng(seed), 1, n), t, axis=0)
    return u, _reference_design(u[:1])[0]


# 12 copies of one rotation at N = 5: a 120 x 180 design of row rank 15, so
# its row Gram is singular. Each copy's columns are orthonormal, so the ridge
# solution is one core C^T g C / (T + 2ρ) repeated on every copy.
@pytest.mark.parametrize("rho, falls_back", [(0.0, True), (0.1, False)])
def test_v_step_on_a_row_deficient_design(monkeypatch, rho, falls_back):
    n, t = 5, 12
    g, _ = make_instance(n, seed=45)
    gmat = g.as_matrix()
    u, c = _copies_of_one_rotation(n, t, seed=7)
    calls = _spy_on_lstsq(monkeypatch)
    v = hf.solve_v_step(g, u, rho=rho, gamma=2)
    assert bool(calls) == falls_back
    assert rel_err(v, np.repeat((c.T @ gmat @ c / (t + 2.0 * rho))[None], t, axis=0)) < 1e-12
    assert rel_err(v, _reference_v_step(gmat, u, rho)) < 1e-12


def test_v_step_ridge_falls_back_past_the_gram_condition_bound(monkeypatch):
    # 2ρ = 1e-7 against σ_max² = 12 puts cond(AA^T + 2ρI) past 1/√eps; the
    # least squares of [A; √(2ρ) I] then has condition ~1e4, so its answer
    # is good to ~1e-11, not 1e-12. g = C V₀ C^T lies in the design's range.
    n, t, rho = 5, 12, 5e-8
    u, c = _copies_of_one_rotation(n, t, seed=7)
    v0 = _random_cores(np.random.default_rng(8), 1, n)[0]
    g = hf.TwoElectronTensor((c @ v0 @ c.T).reshape((n,) * 4))
    calls = _spy_on_lstsq(monkeypatch)
    v = hf.solve_v_step(g, u, rho=rho, gamma=2)
    assert calls == [(120 + 180, 180)]
    assert rel_err(v, np.repeat(v0[None] / (t + 2.0 * rho), t, axis=0)) < 1e-10


@pytest.mark.parametrize(
    "a",
    [
        np.arange(15.0).reshape(5, 3),  # tall at shift 0: its column Gram is singular
        np.zeros((2, 3)),  # Cholesky rejects the zero Gram
        np.array([[1.0, 0.0, 0.0], [0.0, 1e-9, 0.0]]),  # cond(G) = 1e18: pocon rejects it
    ],
    ids=["tall", "cholesky_rejects", "ill_conditioned"],
)
def test_gram_solve_refuses_what_it_cannot_trust(a):
    assert dfopt._gram_solve(a, np.ones(a.shape[0]), 0.0) is None


def test_dfopt_binds_the_scipy_kernels_perfbench_traces():
    # perfbench/tracer.py wraps these dfopt attributes by name, so dropping one
    # of the imports breaks every traced benchmark run
    for name in ("expm", "expm_frechet", "minimize"):
        assert callable(getattr(dfopt, name))


def test_cdf_fits_factorizable_instance():
    g, _ = make_instance(3, n_components=2, seed=20)
    fact, _ = hf.optimize_cdf(g, 4, hf.OptimizerConfig(rho=0.0, max_outer_iters=8))
    assert hf.frobenius_error(g, fact.reconstruct()) < 1e-6


def test_generator_round_trip(small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 8)
    for u in fact.rotations:
        x = generator_from_rotation(u)
        import scipy.linalg

        u2 = scipy.linalg.expm(x)
        flip = u.copy()
        if np.linalg.det(u) < 0:
            flip[:, -1] = -flip[:, -1]
        assert np.max(np.abs(u2 - flip)) < 1e-8


def test_optimize_scdf_validates_inputs(small_instance):
    g, _ = small_instance
    with pytest.raises(ValidationError):
        hf.optimize_scdf(g, 0)
    with pytest.raises(ValidationError):
        hf.OptimizerConfig(rho=-1.0)
    with pytest.raises(ValidationError):
        hf.OptimizerConfig(init_mode="guess")
    with pytest.raises(ValidationError, match="gamma must be 1 or 2"):
        hf.OptimizerConfig(gamma=3)
    with pytest.raises(ValidationError, match="n_df must be >= 1"):
        hf.optimize_cdf(g, 0)
