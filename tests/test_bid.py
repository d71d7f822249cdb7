import dataclasses

import numpy as np
import pytest
from oracles import (
    bid_grad_b_ref,
    bid_grad_u_ref,
    bid_smooth_ref,
    trace_column,
    with_empty_memos,
)

from ipalm import bid, lipschitz, solver
from ipalm.bid import (
    BidParams,
    DataError,
    bid_lipschitz,
    init_bid,
    make_bid_problem,
)
from ipalm.blockmodel import BlockVector
from ipalm.config import RunConfig, block_kinds
from ipalm.imageops import DIRECTIONS, centered_conv, centered_corr_kernel
from ipalm.lipschitz import operator_norm
from ipalm.solver import make_state, run_state
from ipalm.synthetic import synth_bid


def oracles(f, params):
    """The problem's smooth term and partial gradients as functions of
    ``(u, b)``."""
    problem = make_bid_problem(f, params)

    def smooth(u, b):
        return problem.eval_H(BlockVector([u, b]))

    def grad(i, u, b):
        return problem.partial_grad(i, BlockVector([u, b]))

    return smooth, grad


def random_kernel(rng, shape):
    b = rng.uniform(0.1, 1.0, shape)
    return b / b.sum()


def test_params_validation():
    BidParams()  # reference-scale defaults are valid
    with pytest.raises(ValueError):
        BidParams(lam=0.0)
    with pytest.raises(ValueError):
        BidParams(theta=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            BidParams(lam=bad)
        with pytest.raises(ValueError):
            BidParams(theta=bad)
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
    val = oracles(f, params)[0](u, b)
    assert np.isfinite(val) and val >= 0.0


def test_kernel_gradient_vanishes_at_zero_residual():
    params = BidParams(kernel_shape=(3, 3))
    inst = synth_bid(size=16, kernel=3, seed=81)
    u, b = inst["u_true"], inst["b_true"]
    g_b = oracles(inst["f"], params)[1](1, u, b)
    assert np.abs(g_b).max() <= 1e-6  # lam * roundoff of an exact residual


def test_identity_kernel_keeps_image():
    params = BidParams(kernel_shape=(3, 3))
    rng = np.random.default_rng(82)
    u = rng.uniform(0, 1, (12, 12))
    b = np.zeros((3, 3))
    b[1, 1] = 1.0  # center entry is the zero shift
    assert np.allclose(centered_conv(u, b), u, atol=1e-12)
    g_b = oracles(u, params)[1](1, u, b)
    assert np.abs(g_b).max() <= 1e-6


def test_gradients_match_finite_differences_at_reference_weights():
    rng = np.random.default_rng(83)
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(3, 3))
    inst = synth_bid(size=12, kernel=3, seed=83)
    f = inst["f"]
    u = np.clip(f + 0.05 * rng.standard_normal(f.shape), 0.0, 1.0)
    b = rng.uniform(0.1, 1.0, (3, 3))
    b /= b.sum()
    smooth, grad = oracles(f, params)
    gu, gb = grad(0, u, b), grad(1, u, b)
    h = 1e-6
    for _ in range(20):
        e = rng.standard_normal(u.shape)
        e /= np.linalg.norm(e)
        fd = (smooth(u + h * e, b) - smooth(u - h * e, b)) / (2 * h)
        dot = float(np.vdot(gu, e))
        assert abs(fd - dot) <= max(1e-4 * abs(dot), 1e-7)
    for _ in range(20):
        e = rng.standard_normal(b.shape)
        e /= np.linalg.norm(e)
        fd = (smooth(u, b + h * e) - smooth(u, b - h * e)) / (2 * h)
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
    smooth, grad = oracles(f, params)
    for _ in range(50):
        u1 = rng.uniform(0, 1, f.shape)
        u2 = rng.uniform(0, 1, f.shape)
        L = bid_lipschitz(0, u1, b, params)
        h1 = smooth(u1, b)
        h2 = smooth(u2, b)
        g1 = grad(0, u1, b)
        d = u2 - u1
        assert h2 <= h1 + float(np.vdot(g1, d)) + 0.5 * L * float(np.vdot(d, d)) + 1e-8
    u = rng.uniform(0, 1, f.shape)
    for _ in range(50):
        b1 = rng.uniform(0, 1, (3, 3))
        b2 = rng.uniform(0, 1, (3, 3))
        L = bid_lipschitz(1, u, b1, params)
        h1 = smooth(u, b1)
        h2 = smooth(u, b2)
        g1 = grad(1, u, b1)
        d = b2 - b1
        assert h2 <= h1 + float(np.vdot(g1, d)) + 0.5 * L * float(np.vdot(d, d)) + 1e-8


def test_kernel_modulus_equals_norm_of_composed_normal_operator():
    # the Fourier normal operator (3x5 kernels) and the explicit Gram (3x3 on
    # 12x9, 3x5 on 16x15) against the composition of the centred convolution
    # and its kernel-side adjoint
    rng = np.random.default_rng(89)
    for shape, kshape in (((12, 9), (3, 5)), ((11, 14), (3, 5)),
                          ((12, 9), (3, 3)), ((16, 15), (3, 5))):
        params = BidParams(lam=100.0, theta=10.0, kernel_shape=kshape)
        u = rng.uniform(0, 1, shape)
        b = rng.uniform(0, 1, kshape)
        b /= b.sum()

        def composed(k):
            return params.lam * centered_corr_kernel(centered_conv(u, k), u, b.shape)

        ref = operator_norm(composed, b.shape)
        assert abs(bid_lipschitz(1, u, b, params) - ref) <= 1e-9 * ref


@pytest.mark.parametrize(
    "shape, kshape, gram",
    [((12, 9), (3, 3), True), ((15, 16), (3, 5), True), ((15, 15), (3, 5), True),
     ((5, 5), (1, 5), True), ((11, 14), (3, 5), False)],
    ids=["non-square-image", "even-width", "gram-size-equals-image", "wrapping-kernel",
         "above-the-guard"],
)
def test_kernel_power_iteration_runs_on_the_dense_normal_operator(monkeypatch, shape, kshape,
                                                                  gram):
    # the operator handed to the power iteration, read out column by column,
    # against the dense normal operator; a Gram up to the image's size runs
    # on flat kernels, a larger one keeps the Fourier operator
    rng = np.random.default_rng(sum(shape) + sum(kshape))
    params = BidParams(lam=100.0, theta=10.0, kernel_shape=kshape)
    u = rng.uniform(0, 1, shape)
    b = random_kernel(rng, kshape)
    seen = {}

    def spy(matvec, op_shape, **kwargs):
        seen["matvec"], seen["shape"] = matvec, op_shape
        return operator_norm(matvec, op_shape, **kwargs)

    monkeypatch.setattr(bid, "operator_norm", spy)
    bid_lipschitz(1, u, b, params)
    assert seen["shape"] == ((b.size,) if gram else kshape)
    basis = np.eye(b.size)
    got = np.stack([seen["matvec"](e.reshape(seen["shape"])).ravel() for e in basis], axis=1)
    ref = np.stack([params.lam * centered_corr_kernel(centered_conv(u, e.reshape(kshape)), u,
                                                      kshape).ravel() for e in basis], axis=1)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(64, 64), (33, 31), (12, 9), (11, 14)])
def test_fourier_oracles_match_image_domain_references(shape):
    # the residual stays in the DFT domain; the references form it in the
    # image domain and transform it again for each adjoint
    rng = np.random.default_rng(sum(shape))
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(5, 3))
    f = rng.uniform(0, 1, shape)
    smooth, grad = oracles(f, params)
    for _ in range(3):
        u = rng.uniform(0, 1, shape)
        b = random_kernel(rng, (5, 3))
        ref = bid_smooth_ref(u, b, f, params)
        assert abs(smooth(u, b) - ref) <= 1e-12 * abs(ref)
        for i, ref_grad in ((0, bid_grad_u_ref), (1, bid_grad_b_ref)):
            ref = ref_grad(u, b, f, params)
            err = np.linalg.norm(grad(i, u, b) - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (7, 7), (8, 8),
                                   (9, 12), (13, 6)])
def test_edge_term_on_valid_windows_matches_padded_references(shape):
    # the edge term reads each direction's valid window only; the references
    # pad every difference to full size.  Small images leave some windows
    # empty or one pixel wide, and a small lam keeps the edge term dominant
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    params = BidParams(lam=1e-3, theta=1e4, kernel_shape=(1, 1))
    f = rng.uniform(0, 1, shape)
    smooth, grad = oracles(f, params)
    b = np.ones((1, 1))
    for _ in range(3):
        u = rng.uniform(0, 1, shape)
        ref = bid_smooth_ref(u, b, f, params)
        assert abs(smooth(u, b) - ref) <= 1e-13 * abs(ref)
        ref = bid_grad_u_ref(u, b, f, params)
        assert np.linalg.norm(grad(0, u, b) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_edge_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    theta = 1e2
    u = rng.uniform(0, 1, (6, 5))
    g = bid.edge_grad(u, theta)
    h = 1e-6
    fd = np.empty_like(u)
    for idx in np.ndindex(u.shape):
        e = np.zeros_like(u)
        e[idx] = h
        fd[idx] = (bid.edge_penalty(u + e, theta) - bid.edge_penalty(u - e, theta)) / (2 * h)
    assert np.abs(fd - g).max() <= 1e-6 * np.abs(g).max()


def test_bid_oracles_never_call_the_padded_differences(monkeypatch):
    def padded(*args):
        raise AssertionError("padded directional difference on the hot path")

    monkeypatch.setattr(bid, "dir_grad", padded)
    monkeypatch.setattr(bid, "dir_grad_adjoint", padded)
    rng = np.random.default_rng(9)
    f = rng.uniform(0, 1, (12, 10))
    problem = make_bid_problem(f, BidParams(kernel_shape=(3, 3)))
    x = BlockVector([rng.uniform(0, 1, f.shape), random_kernel(rng, (3, 3))])
    assert np.isfinite(with_empty_memos(problem.eval_H, x))
    for i in (0, 1):
        assert np.isfinite(with_empty_memos(problem.partial_grad, i, x)).all()


def test_kernel_modulus_rejects_a_kernel_taller_than_the_image():
    # (5, 1) on (3, 30) is below the Gram guard, but its offsets overrun the rows
    params = BidParams(kernel_shape=(5, 1))
    with pytest.raises(ValueError, match="larger than image"):
        bid_lipschitz(1, np.ones((3, 30)), np.full((5, 1), 0.2), params)


def test_image_modulus_matches_full_spectrum_formula():
    rng = np.random.default_rng(90)
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(5, 3))
    diff_norm_sq = sum(4.0 * w * w for _, _, w in DIRECTIONS)
    for shape in ((64, 64), (33, 31), (12, 9), (11, 14)):
        u = rng.uniform(0, 1, shape)
        b = random_kernel(rng, (5, 3))
        bhat_sq = np.abs(np.fft.fft2(b, s=shape)) ** 2  # corner-padded, full spectrum
        ref = 2.0 * params.theta * diff_norm_sq + params.lam * float(bhat_sq.max())
        assert abs(bid_lipschitz(0, u, b, params) - ref) <= 1e-12 * ref


def test_make_problem_validates_observation():
    params = BidParams(kernel_shape=(3, 3))
    with pytest.raises(DataError):
        make_bid_problem(np.full((8, 8), 1.2), params)
    with pytest.raises(DataError):
        make_bid_problem(np.ones((2, 2)), params)  # kernel larger than image


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_problem_rejects_non_finite_observation(bad):
    f = np.full((8, 8), 0.5)
    f[2, 3] = bad
    with pytest.raises(DataError, match="non-finite"):
        make_bid_problem(f, BidParams(kernel_shape=(3, 3)))


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
    problem = make_bid_problem(inst["f"], params)
    x0 = init_bid(inst["f"], params)
    state = make_state(problem, x0, block_kinds(problem, RunConfig(schedule="static-c")))
    run_state(state, problem, iters=40, tol=0.0)
    F = trace_column(state.trace, "F")
    assert (F[1:] <= F[:-1] + 1e-8 * (1.0 + np.abs(F[:-1]))).all()


def test_eval_H_above_returns_a_lower_bound_past_the_bound_or_the_full_value():
    rng = np.random.default_rng(21)
    f = rng.uniform(0, 1, (16, 12))
    problem = make_bid_problem(f, BidParams(kernel_shape=(3, 3)))
    for _ in range(5):
        x = BlockVector([rng.uniform(0, 1, f.shape), random_kernel(rng, (3, 3))])
        full = problem.eval_H(x)
        data = problem.eval_H(x, -1.0)  # the data term alone: always above -1
        assert 0.0 <= data < full
        for above in (None, data, 0.5 * (data + full), full, 2.0 * full):
            assert problem.eval_H(x, above) == full
        for above in (-1.0, 0.0, 0.5 * data, np.nextafter(data, 0.0)):
            early = problem.eval_H(x, above)
            assert early == data and above < early <= full


def _bid_bt_run(monkeypatch, problem, f, params, schedule, sweeps):
    """One bid-bt style run: its trace rows without wall time, its final
    blocks and the moduli each backtracking call tested."""
    tested = []

    def recording(*args):
        out = lipschitz.backtrack_L(*args)
        tested.append(out[2])
        return out

    monkeypatch.setattr(solver, "backtrack_L", recording)
    kinds = block_kinds(problem, RunConfig(schedule=schedule, alpha_bar=0.4, beta_bar=0.4))
    state = make_state(problem, init_bid(f, params), kinds, backtracking=True,
                       step_scale=(1.0, params.kernel_step_scale))
    run_state(state, problem, iters=sweeps, tol=0.0)
    rows = [repr(dataclasses.replace(row, seconds=0.0)) for row in state.trace.rows]
    return rows, [b.tobytes() for b in state.x_cur.blocks], tested


def _without_above(problem):
    """The problem with every ``eval_H`` bound dropped: always the full H."""
    return dataclasses.replace(problem, eval_H=lambda x, above=None: problem.eval_H(x))


BID_BT = BidParams(lam=1e6, theta=1e4, kernel_shape=(7, 7), kernel_step_scale=5.0)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("schedule", ["static-c", "dynamic"])
def test_backtracking_with_early_exit_is_bitwise_the_full_evaluation(monkeypatch, seed,
                                                                     schedule):
    f = synth_bid(size=64, kernel=7, seed=seed)["f"]
    problem = make_bid_problem(f, BID_BT)
    early = _bid_bt_run(monkeypatch, problem, f, BID_BT, schedule, 30)
    full = _bid_bt_run(monkeypatch, _without_above(problem), f, BID_BT, schedule, 30)
    assert early == full


def test_rejected_candidates_skip_the_edge_penalty(monkeypatch):
    calls = []
    phi = bid.phi_value
    monkeypatch.setattr(bid, "phi_value", lambda d, theta: calls.append(1) or phi(d, theta))
    f = synth_bid(size=64, kernel=7, seed=1)["f"]
    problem = make_bid_problem(f, BID_BT)
    x = init_bid(f, BID_BT)
    with_empty_memos(problem.eval_H, x, 0.0)  # returns the data term alone
    assert len(calls) == 0
    with_empty_memos(problem.eval_H, x)
    assert len(calls) == len(DIRECTIONS)
    counts = []
    for variant in (problem, _without_above(problem)):
        calls.clear()
        _bid_bt_run(monkeypatch, variant, f, BID_BT, "static-c", 10)
        counts.append(len(calls))
    # each skipped edge penalty is one phi_value call per direction fewer
    skipped, rest = divmod(counts[1] - counts[0], len(DIRECTIONS))
    assert skipped > 0 and rest == 0
