import numpy as np
import pytest

from ipalm.bid import (
    BidParams,
    DataError,
    bid_grad_b,
    bid_grad_u,
    bid_grads,
    bid_lipschitz,
    bid_smooth,
    init_bid,
    make_bid_problem,
)
from ipalm.config import RunConfig, block_kinds
from ipalm.imageops import centered_conv, centered_corr_kernel
from ipalm.lipschitz import operator_norm
from ipalm.solver import make_state, run_state
from ipalm.synthetic import synth_bid


def test_params_validation():
    BidParams()  # reference-scale defaults are valid
    with pytest.raises(ValueError):
        BidParams(lam=0.0)
    with pytest.raises(ValueError):
        BidParams(theta=-1.0)
    with pytest.raises(ValueError):
        BidParams(kernel_shape=(4, 4))
    with pytest.raises(ValueError):
        BidParams(kernel_step_scale=0.5)


def test_default_params_echo_reference_configuration():
    p = BidParams()
    assert p.lam == 1e6 and p.theta == 1e4
    assert p.kernel_shape == (31, 31)
    assert p.kernel_step_scale == 5.0


def test_smooth_term_finite_and_nonnegative_on_feasible_points():
    rng = np.random.default_rng(81)
    params = BidParams(kernel_shape=(3, 3))
    u = rng.uniform(0, 1, (10, 10))
    b = rng.uniform(0, 1, (3, 3))
    b /= b.sum()
    f = rng.uniform(0, 1, (10, 10))
    val = bid_smooth(u, b, f, params)
    assert np.isfinite(val) and val >= 0.0


def test_kernel_gradient_vanishes_at_zero_residual():
    params = BidParams(kernel_shape=(3, 3))
    inst = synth_bid(size=16, kernel=3, seed=81)
    u, b = inst["u_true"], inst["b_true"]
    g_b = bid_grad_b(u, b, inst["f"], params)
    assert np.abs(g_b).max() <= 1e-6  # lam * roundoff of an exact residual


def test_identity_kernel_keeps_image():
    params = BidParams(kernel_shape=(3, 3))
    rng = np.random.default_rng(82)
    u = rng.uniform(0, 1, (12, 12))
    b = np.zeros((3, 3))
    b[1, 1] = 1.0  # center entry is the zero shift
    assert np.allclose(centered_conv(u, b), u, atol=1e-12)
    g_b = bid_grad_b(u, b, u, params)
    assert np.abs(g_b).max() <= 1e-6


def test_gradients_match_finite_differences_at_reference_weights():
    rng = np.random.default_rng(83)
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(3, 3))
    inst = synth_bid(size=12, kernel=3, seed=83)
    f = inst["f"]
    u = np.clip(f + 0.05 * rng.standard_normal(f.shape), 0.0, 1.0)
    b = rng.uniform(0.1, 1.0, (3, 3))
    b /= b.sum()
    gu, gb = bid_grads(u, b, f, params)
    h = 1e-6
    for _ in range(20):
        e = rng.standard_normal(u.shape)
        e /= np.linalg.norm(e)
        fd = (bid_smooth(u + h * e, b, f, params) - bid_smooth(u - h * e, b, f, params)) / (2 * h)
        dot = float(np.vdot(gu, e))
        assert abs(fd - dot) <= max(1e-4 * abs(dot), 1e-7)
    for _ in range(20):
        e = rng.standard_normal(b.shape)
        e /= np.linalg.norm(e)
        fd = (bid_smooth(u, b + h * e, f, params) - bid_smooth(u, b - h * e, f, params)) / (2 * h)
        dot = float(np.vdot(gb, e))
        assert abs(fd - dot) <= max(1e-4 * abs(dot), 1e-7)


def test_lipschitz_bounds_dominate_observed_curvature():
    # descent lemma with the closed-form bounds along random segments
    rng = np.random.default_rng(84)
    params = BidParams(lam=100.0, theta=10.0, kernel_shape=(3, 3))
    inst = synth_bid(size=10, kernel=3, seed=84)
    f = inst["f"]
    b = rng.uniform(0.1, 1.0, (3, 3))
    b /= b.sum()
    for _ in range(50):
        u1 = rng.uniform(0, 1, f.shape)
        u2 = rng.uniform(0, 1, f.shape)
        L = bid_lipschitz(0, u1, b, params)
        h1 = bid_smooth(u1, b, f, params)
        h2 = bid_smooth(u2, b, f, params)
        g1 = bid_grad_u(u1, b, f, params)
        d = u2 - u1
        assert h2 <= h1 + float(np.vdot(g1, d)) + 0.5 * L * float(np.vdot(d, d)) + 1e-8
    u = rng.uniform(0, 1, f.shape)
    for _ in range(50):
        b1 = rng.uniform(0, 1, (3, 3))
        b2 = rng.uniform(0, 1, (3, 3))
        L = bid_lipschitz(1, u, b1, params)
        h1 = bid_smooth(u, b1, f, params)
        h2 = bid_smooth(u, b2, f, params)
        g1 = bid_grad_b(u, b1, f, params)
        d = b2 - b1
        assert h2 <= h1 + float(np.vdot(g1, d)) + 0.5 * L * float(np.vdot(d, d)) + 1e-8


def test_kernel_modulus_equals_norm_of_composed_normal_operator():
    # the cached Fourier normal operator against the composition of the
    # centred convolution and its kernel-side adjoint
    rng = np.random.default_rng(89)
    params = BidParams(lam=100.0, theta=10.0, kernel_shape=(3, 5))
    for shape in ((12, 9), (11, 14)):
        u = rng.uniform(0, 1, shape)
        b = rng.uniform(0, 1, (3, 5))
        b /= b.sum()

        def composed(k):
            return params.lam * centered_corr_kernel(centered_conv(u, k), u, b.shape)

        ref = operator_norm(composed, b.shape)
        assert abs(bid_lipschitz(1, u, b, params) - ref) <= 1e-9 * ref


def test_make_problem_validates_observation():
    params = BidParams(kernel_shape=(3, 3))
    with pytest.raises(DataError):
        make_bid_problem(np.full((8, 8), 1.2), params)
    with pytest.raises(DataError):
        make_bid_problem(np.ones((2, 2)), params)  # kernel larger than image


def test_initialization_starts_at_observation_with_uniform_kernel():
    inst = synth_bid(size=16, kernel=3, seed=85)
    params = BidParams(kernel_shape=(3, 3))
    x0 = init_bid(inst["f"], params)
    assert np.array_equal(x0[0], inst["f"])
    assert np.allclose(x0[1], 1.0 / 9.0)
    problem = make_bid_problem(inst["f"], params)
    assert problem.eval_F(x0) == pytest.approx(problem.eval_H(x0))


def test_zero_blur_observation_has_zero_residual_at_start():
    # delta-kernel ground truth: starting from u = f the data term vanishes
    rng = np.random.default_rng(86)
    f = rng.uniform(0, 1, (12, 12))
    params = BidParams(kernel_shape=(3, 3))
    x0 = init_bid(f, params)
    delta = np.zeros((3, 3))
    delta[1, 1] = 1.0
    resid = centered_conv(x0[0], delta) - f
    assert np.abs(resid).max() <= 1e-15


def test_iterates_stay_feasible():
    inst = synth_bid(size=16, kernel=3, seed=87)
    params = BidParams(kernel_shape=(3, 3), kernel_step_scale=5.0)
    problem = make_bid_problem(inst["f"], params)
    x0 = init_bid(inst["f"], params)
    cfg = RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4)
    state = make_state(problem, x0, block_kinds(problem, cfg), backtracking=True,
                       step_scale=(1.0, 5.0))
    from ipalm.solver import ipalm_iterate

    for _ in range(30):
        ipalm_iterate(state, problem)
        u, b = state.x_cur[0], state.x_cur[1]
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert b.min() >= 0.0 and abs(b.sum() - 1.0) <= 1e-10


def test_exact_lipschitz_mode_runs_and_descends_with_zero_inertia():
    inst = synth_bid(size=16, kernel=3, seed=88)
    params = BidParams(kernel_shape=(3, 3), kernel_step_scale=1.0)
    problem = make_bid_problem(inst["f"], params, exact_lipschitz=True)
    x0 = init_bid(inst["f"], params)
    state = make_state(problem, x0, block_kinds(problem, RunConfig(schedule="static-c")))
    run_state(state, problem, iters=40, tol=0.0)
    F = state.trace.f_values()
    assert (F[1:] <= F[:-1] + 1e-8 * (1.0 + np.abs(F[:-1]))).all()
