"""Optimizer correctness: cost oracles, analytic gradients, V-step."""

import numpy as np
import pytest

import hamfactor as hf
from hamfactor import dfopt
from hamfactor.dfopt import (
    _cdf_cost_and_grad_u,
    _expm_stack,
    _flat_to_x,
    _grad_to_generator,
    _x_to_flat,
    generator_from_rotation,
    grad_cdf_u,
    grad_cdf_v,
    grad_scdf_u,
)
from hamfactor.errors import ValidationError

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


def test_grad_x_matches_fd():
    g, _ = make_instance(3, seed=13)
    n_df = 4
    u, x, w, alpha = random_point(g, n_df, seed=5)

    def cost_of_flat(xflat):
        xm = _flat_to_x(xflat, n_df, 3)
        return hf.cost_scdf(g, _expm_stack(xm), w, alpha, 0.0)

    x0 = _x_to_flat(x)
    analytic = _x_to_flat(hf.grad_scdf_x(g, x, w))
    fd = np.array(
        [
            (cost_of_flat(x0 + FD_STEP * e) - cost_of_flat(x0 - FD_STEP * e)) / (2 * FD_STEP)
            for e in np.eye(x0.size)
        ]
    )
    assert rel_err(analytic, fd) < 1e-6


def test_grad_x_generators_antisymmetric():
    g, _ = make_instance(3, seed=14)
    u, x, w, alpha = random_point(g, 4, seed=6)
    gen = _grad_to_generator(x, grad_scdf_u(g, _expm_stack(x), w))
    assert np.max(np.abs(gen + np.transpose(gen, (0, 2, 1)))) < 1e-12


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
    import scipy.linalg

    rng = np.random.default_rng(31)
    x = {
        "zero": lambda: np.zeros((3, 4, 4)),
        "even": lambda: _antisymmetric_stack(rng, 5, 6, scale),
        "odd": lambda: _antisymmetric_stack(rng, 5, 7, scale),
        "repeated_pairs": lambda: _repeated_pair_blocks(rng, 3, scale),
    }[case]()
    grad_u = rng.standard_normal(x.shape)

    u_ref = np.stack([scipy.linalg.expm(xt) for xt in x])
    gen_ref = np.empty_like(grad_u)
    for t in range(x.shape[0]):
        full = scipy.linalg.expm_frechet(x[t].T, grad_u[t], compute_expm=False)
        gen_ref[t] = full - full.T

    assert rel_err(_expm_stack(x), u_ref) < 1e-12
    assert rel_err(_grad_to_generator(x, grad_u), gen_ref) < 1e-12


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
