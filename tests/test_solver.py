import dataclasses
import math
import pickle

import numpy as np
import pytest
from oracles import lyapunov_psi, params_at, trace_column

from ipalm.bid import BidParams, init_bid, make_bid_problem
from ipalm.blockmodel import BlockVector, ProblemSpec, ShapeMismatchError, extrapolate
from ipalm.config import RunConfig, block_kinds
from ipalm.convlasso import init_convlasso, make_convlasso_problem
from ipalm.lipschitz import MODULUS_FLOOR, START, spectral_norm
from ipalm.nmf import init_nmf, make_nmf_problem
from ipalm.prox import prox_l0_nonneg_cols, prox_nonneg
from ipalm.schedules import Dynamic, Static
from ipalm.solver import (
    DivergenceError,
    SolverTrace,
    ipalm_iterate,
    make_state,
    run,
    run_state,
    TRACE_COLUMNS,
)
from ipalm.synthetic import synth_bid, synth_convlasso, synth_nmf


def one_block_quadratic():
    """Single block, no nonsmooth part, H = 0.5*||x||^2 (modulus 1)."""

    def eval_H(x, above=None):
        return 0.5 * x.norm_sq()

    return ProblemSpec(
        num_blocks=1,
        eval_F=eval_H,
        eval_H=eval_H,
        partial_grad=lambda i, x: x[0].copy(),
        prox=lambda i, t, p: p,
        convex=(False,),
        lipschitz=lambda i, x: 1.0,
        name="quadratic",
    )


def test_gradient_method_recovery_one_step_to_zero():
    problem = one_block_quadratic()
    x0 = BlockVector([np.array([3.0, -2.0, 0.5])])
    state = make_state(problem, x0, Static(0.0, 0.0))
    run_state(state, problem, iters=1, tol=0.0)
    assert np.array_equal(state.x_cur[0], np.zeros(3))


def reference_palm_nmf(A, B, C, s, iters):
    """Independent non-inertial alternating proximal-gradient loop.

    Plain update per block: gradient step at the current point with the
    closed-form step parameter at zero inertia (nonconvex rule for the
    sparse block, convex rule for the nonnegative one), then the projection.
    Uses the same modulus computation path as the problem definition.
    """
    B = B.copy()
    C = C.copy()
    for _ in range(iters):
        L1 = max(spectral_norm(C @ C.T), 1e-12)
        tau1 = L1
        B = prox_l0_nonneg_cols(B - ((B @ C - A) @ C.T) / tau1, s)
        L2 = max(spectral_norm(B.T @ B), 1e-12)
        tau2 = L2 / 2.0
        C = prox_nonneg(C - (B.T @ (B @ C - A)) / tau2)
    return B, C


def test_palm_recovery_bitwise():
    inst = synth_nmf(seed=3)
    A = inst["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    x0 = init_nmf(A, r=3, s=2, seed=3)
    cfg = RunConfig(schedule="static-c", alpha_bar=0.0, beta_bar=0.0,
                    iters=10, tol=0.0, backtrack=False)
    state = run(problem, x0, cfg)
    B_ref, C_ref = reference_palm_nmf(A, x0[0], x0[1], s=2, iters=10)
    assert np.array_equal(state.x_cur[0], B_ref)
    assert np.array_equal(state.x_cur[1], C_ref)


def test_dynamic_first_iteration_equals_palm_step():
    inst = synth_nmf(seed=4)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=4)
    s_dyn = make_state(problem, x0, Dynamic())
    run_state(s_dyn, problem, iters=1, tol=0.0)
    s_palm = make_state(problem, x0, Static(0.0, 0.0))
    run_state(s_palm, problem, iters=1, tol=0.0)
    # dynamic_coeff(1) = 0 and tau = L on both paths at zero inertia
    assert np.array_equal(s_dyn.x_cur[0], s_palm.x_cur[0])
    assert np.array_equal(s_dyn.x_cur[1], s_palm.x_cur[1])


def test_run_rejects_zero_budget():
    problem = one_block_quadratic()
    x0 = BlockVector([np.ones(2)])
    with pytest.raises(ValueError):
        run_state(make_state(problem, x0, Static(0, 0)), problem, 0, 0.0)
    with pytest.raises(ValueError):
        RunConfig(iters=0)


def test_per_block_tuples_must_match_the_block_count():
    inst = synth_nmf(seed=3)
    problem = _unevaluated(make_nmf_problem(inst["A"], r=3, s=2))
    x0 = init_nmf(inst["A"], r=3, s=2, seed=3)
    kinds = Static(0.0, 0.0)
    for bad in ((1.0,), (1.0, 1.0, 9.0)):
        with pytest.raises(ValueError, match=r"nmf\(.*\): step_scale needs one entry"):
            make_state(problem, x0, kinds, step_scale=bad)
        with pytest.raises(ValueError, match=r"nmf\(.*\): constant_delta needs one entry"):
            make_state(problem, x0, kinds, constant_delta=bad)
    with pytest.raises(ValueError, match=r"nmf\(.*\): kinds needs one entry per block \(2\)"):
        make_state(problem, x0, (kinds,) * 3)
    with pytest.raises(ValueError, match=r"nmf\(.*\): step_scale needs one entry"):
        run(problem, x0, RunConfig(iters=1, backtrack=False, step_scale=(1.0,)))
    with pytest.raises(ValueError, match=r"nmf\(.*\): step_scale must be >= 1"):
        make_state(problem, x0, kinds, step_scale=(1.0, 0.5))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be >= 1 and finite"):
            make_state(problem, x0, kinds, step_scale=(1.0, bad))


@pytest.mark.parametrize("bad", [(-5.0, -5.0), (1.0, math.nan), (math.inf, 1.0)])
def test_make_state_rejects_negative_or_non_finite_constant_delta(bad):
    # a negative step weight gives a negative tau: unchecked, (-5, -5) made F
    # rise at each of three sweeps on this instance
    inst = synth_nmf(seed=3)
    problem = _unevaluated(make_nmf_problem(inst["A"], r=3, s=2))
    x0 = init_nmf(inst["A"], r=3, s=2, seed=3)
    with pytest.raises(ValueError, match=r"nmf\(.*\): constant_delta must be >= 0 and finite"):
        make_state(problem, x0, Static(0.0, 0.0), constant_delta=bad)


def _unevaluated(problem):
    """The problem with an objective that fails the test if it is called."""

    def eval_F(x):
        raise AssertionError("F_0 evaluated before the state was checked")

    return dataclasses.replace(problem, eval_F=eval_F)


def test_make_state_rejects_a_block_count_mismatch_naming_the_problem():
    problem = _unevaluated(one_block_quadratic())
    x0 = BlockVector([np.ones(2), np.ones(3)])
    with pytest.raises(ValueError, match="quadratic: x0 has 2 blocks, the problem 1"):
        make_state(problem, x0, Static(0.0, 0.0))


def test_make_state_rejects_exact_mode_without_moduli_naming_the_problem():
    no_moduli = dataclasses.replace(one_block_quadratic(), lipschitz=None)
    x0 = BlockVector([np.ones(2)])
    with pytest.raises(ValueError, match="quadratic: no closed-form Lipschitz moduli"):
        make_state(_unevaluated(no_moduli), x0, Static(0.0, 0.0))
    # backtracking needs no closed form
    make_state(no_moduli, x0, Static(0.0, 0.0), backtracking=True)


def test_make_state_rejects_constant_delta_with_a_dynamic_block_naming_the_problem():
    problem = _unevaluated(one_block_quadratic())
    x0 = BlockVector([np.ones(2)])
    with pytest.raises(ValueError, match="quadratic: constant_delta needs static"):
        make_state(problem, x0, Dynamic(), constant_delta=(1.0,))


def test_make_state_gives_each_block_its_own_default_line_search():
    inst = synth_nmf(seed=1)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=1)
    state = make_state(problem, x0, Static(0.0, 0.0), backtracking=True)
    assert state.backtrack == [START, START]
    # each block carries its own accepted modulus into the next sweep
    ipalm_iterate(state, problem)
    assert state.backtrack == list(state.trace.rows[1].L)


@pytest.mark.parametrize("backtracking", [False, True], ids=["exact", "backtracking"])
def test_a_wrong_shape_prox_output_stops_the_sweep_at_that_block(backtracking):
    inst = synth_nmf(seed=3)
    nmf = make_nmf_problem(inst["A"], r=3, s=2)
    grads = []

    def partial_grad(i, x):
        grads.append(i)
        return nmf.partial_grad(i, x)

    def prox(i, t, p):
        out = nmf.prox(i, t, p)
        return out[:1] if i == 0 else out

    problem = dataclasses.replace(nmf, partial_grad=partial_grad, prox=prox)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=3)
    state = make_state(problem, x0, Static(0.0, 0.0), backtracking=backtracking)
    with pytest.raises(ShapeMismatchError, match=r"nmf\(.*\): the prox of block 0 at iteration 1"):
        run_state(state, problem, iters=1, tol=0.0)
    assert grads == [0]  # block 1's oracle never saw the bad block


def _image_problem(name):
    if name == "bid":
        f = synth_bid(size=16, kernel=3, seed=6)["f"]
        params = BidParams(kernel_shape=(3, 3))
        return make_bid_problem(f, params), init_bid(f, params)
    f = synth_convlasso(size=12, seed=6)["f"]
    return make_convlasso_problem(f, p=3, l=3, lam=0.05), init_convlasso(f, p=3, l=3, seed=6)


@pytest.mark.parametrize("name", ["bid", "convlasso"])
def test_run_config_alone_selects_the_closed_form_moduli(name):
    problem, x0 = _image_problem(name)
    state = run(problem, x0, RunConfig(iters=3, tol=0.0, backtrack=False))
    assert state.backtrack is None
    # the first sweep's first block steps from x0 itself (no inertia yet),
    # with the problem's modulus floored by the solver (convlasso's is 0 there)
    assert state.trace.rows[1].L[0] == max(problem.lipschitz(0, x0), MODULUS_FLOOR)
    F = trace_column(state.trace, "F")
    assert np.isfinite(F).all() and F[-1] < F[0]
    assert run(problem, x0, RunConfig(iters=1, tol=0.0)).backtrack is not None


def test_run_infinite_tol_stops_after_one_iteration():
    problem = one_block_quadratic()
    x0 = BlockVector([np.ones(4)])
    trace = run(
        problem, x0,
        RunConfig(schedule="static-nc", iters=500, tol=math.inf, backtrack=False),
    ).trace
    assert len(trace) == 2  # initial row + one iteration


def test_run_determinism_bitwise():
    inst = synth_nmf(seed=5)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=5)
    cfg = RunConfig(schedule="static-c", alpha_bar=0.2, beta_bar=0.2,
                    iters=40, tol=0.0, backtrack=False, seed=5)
    t1 = run(problem, x0, cfg).trace
    t2 = run(problem, x0, cfg).trace
    # every numeric column identical; wall time is the only nondeterminism
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.F == r2.F and r1.Psi == r2.Psi
        assert r1.delta == r2.delta and r1.L == r2.L and r1.tau == r2.tau
        assert r1.alpha == r2.alpha and r1.beta == r2.beta
        assert r1.block_deltas == r2.block_deltas
        assert r1.step_norm == r2.step_norm


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_backtracking_on_a_pinned_block_keeps_its_modulus_at_the_floor():
    # H = sum(x) on x >= 0 from x = 0: every step is zero, so every call
    # accepts its first modulus; without the floor the shrink from 1e-300
    # reaches subnormals, and grad / tau overflows
    def eval_H(x, above=None):
        return float(x[0].sum())

    problem = ProblemSpec(
        num_blocks=1,
        eval_F=eval_H,
        eval_H=eval_H,
        partial_grad=lambda i, x: np.ones_like(x[0]),
        prox=lambda i, t, p: prox_nonneg(p),
        convex=(True,),
        name="pinned",
    )
    state = make_state(problem, BlockVector([np.zeros(3)]), Static(0.0, 0.0),
                       backtracking=True)
    state.backtrack = [1e-300]
    for _ in range(50):
        ipalm_iterate(state, problem)
    assert all(row.L == (MODULUS_FLOOR,) for row in state.trace.rows[1:])
    assert np.array_equal(state.x_cur[0], np.zeros(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_moduli_of_nmf_at_a_zero_iterate_are_floored():
    inst = synth_nmf(seed=2)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = BlockVector([np.zeros((inst["A"].shape[0], 3)), np.zeros((3, inst["A"].shape[1]))])
    state = make_state(problem, x0, block_kinds(problem, RunConfig()))
    ipalm_iterate(state, problem)
    # both Grams vanish; the problem returns 0 and the sweep steps with the floor
    assert problem.lipschitz(0, x0) == 0.0
    assert state.trace.rows[1].L == (MODULUS_FLOOR, MODULUS_FLOOR)


def test_exact_modulus_zero_of_a_custom_problem_is_floored():
    def eval_H(x, above=None):
        return 0.0

    problem = ProblemSpec(
        num_blocks=1,
        eval_F=eval_H,
        eval_H=eval_H,
        partial_grad=lambda i, x: np.zeros_like(x[0]),
        prox=lambda i, t, p: p,
        convex=(False,),
        lipschitz=lambda i, x: 0.0,
        name="flat",
    )
    state = make_state(problem, BlockVector([np.ones(3)]), Static(0.0, 0.0))
    for _ in range(3):
        ipalm_iterate(state, problem)
    assert [row.L for row in state.trace.rows[1:]] == [(MODULUS_FLOOR,)] * 3
    assert np.array_equal(state.x_cur[0], np.ones(3))


def test_divergence_error_carries_trace():
    def eval_H(x):
        return -0.5 * x.norm_sq()

    problem = ProblemSpec(
        num_blocks=1,
        eval_F=eval_H,
        eval_H=eval_H,
        partial_grad=lambda i, x: -x[0],
        prox=lambda i, t, p: p,
        convex=(False,),
        lipschitz=lambda i, x: 1e-300,  # absurd modulus -> enormous step
        name="concave",
    )
    x0 = BlockVector([np.ones(2)])
    state = make_state(problem, x0, Static(0.0, 0.0))
    with pytest.raises(DivergenceError) as err:
        run_state(state, problem, iters=50, tol=0.0)
    assert len(err.value.trace) >= 1


def test_divergence_error_survives_pickling():
    """A sweep cell's error comes back from its worker process pickled; it
    must arrive with its message and its trace."""
    trace = run(one_block_quadratic(), BlockVector([np.ones(3)]), RunConfig(iters=2, tol=0.0)).trace
    assert len(trace) == 3
    for err in (DivergenceError("x", SolverTrace()), DivergenceError("diverged", trace)):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert str(back) == str(err)
        assert back.trace == err.trace


def test_lyapunov_psi_examples():
    problem = one_block_quadratic()
    rng = np.random.default_rng(51)
    x = BlockVector([rng.standard_normal(4)])
    y = BlockVector([rng.standard_normal(4)])
    F = problem.eval_F(x)
    assert lyapunov_psi(x, x, [2.0], problem) == pytest.approx(F)
    assert lyapunov_psi(x, y, [0.0], problem) == pytest.approx(F)
    assert lyapunov_psi(x, y, [1.3], problem) >= F
    with pytest.raises(ValueError):
        lyapunov_psi(x, y, [-1.0], problem)


def test_trace_csv_format(tmp_path):
    inst = synth_nmf(seed=6)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=6)
    trace = run(problem, x0, RunConfig(schedule="static-c", alpha_bar=0.2,
                                       beta_bar=0.2, iters=5, tol=0.0, backtrack=False)).trace
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == TRACE_COLUMNS
    assert len(lines) == len(trace) + 1
    row1 = lines[2].split(",")
    # 17 significant digits round-trip exactly
    assert float(row1[1]) == trace.rows[1].F
    assert float(row1[13]) == trace.rows[1].step_norm

    # dynamic runs have no step weights, hence empty Psi and delta cells
    tr_dyn = run(problem, x0, RunConfig(schedule="dynamic", iters=3, tol=0.0,
                                        backtrack=False)).trace
    p2 = tmp_path / "dyn.csv"
    tr_dyn.to_csv(p2)
    for line in p2.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        assert cells[2] == "" and cells[3] == "" and cells[4] == ""
    assert tr_dyn.meta["heuristic"] is True


def test_trace_params_accessor():
    inst = synth_nmf(seed=9)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=9)
    trace = run(problem, x0, RunConfig(schedule="static-c", alpha_bar=0.2,
                                       beta_bar=0.2, iters=3, tol=0.0,
                                       backtrack=False)).trace
    params = params_at(trace, 1)
    assert params.alpha == (0.2, 0.2) and params.beta == (0.2, 0.2)
    assert all(t > 0 for t in params.tau)
    with pytest.raises(ValueError):
        params_at(trace, 0)  # the initial row has no step parameters


def test_feasibility_maintained_throughout_run():
    inst = synth_nmf(seed=7)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=7)
    state = make_state(problem, x0, (Static(0.2, 0.2), Static(0.2, 0.2)))
    for _ in range(30):
        from ipalm.solver import ipalm_iterate

        ipalm_iterate(state, problem)
        B, C = state.x_cur[0], state.x_cur[1]
        assert (B >= 0).all() and (C >= 0).all()
        assert int((B != 0).sum(axis=0).max()) <= 2
        assert math.isfinite(problem.eval_F(state.x_cur))
    assert len(state.trace) == state.k + 1


def reference_inertial_sweep_nmf(A, B, C, s, kinds, iters):
    """Hand-rolled two-block inertial sweep with distinct anchor and
    gradient points, written independently of the solver loop.

    Exercises the update structure the zero-inertia comparison cannot see:
    the prox anchor uses the first extrapolation, the gradient the second,
    and the second block's gradient sees the already-updated first block.
    Step parameters come through the shared schedule rule so the comparison
    can be exact.
    """
    from ipalm.schedules import inertial_coeffs, tau_step

    B_prev, C_prev = B.copy(), C.copy()
    B, C = B.copy(), C.copy()
    for k in range(1, iters + 1):
        a1, b1 = inertial_coeffs(kinds[0], k)
        y1 = B if a1 == 0.0 else B + a1 * (B - B_prev)
        z1 = B if b1 == 0.0 else B + b1 * (B - B_prev)
        L1 = max(spectral_norm(C @ C.T), 1e-12)
        tau1 = tau_step(a1, b1, L1, kinds[0])[0] * 1.0
        B_new = prox_l0_nonneg_cols(y1 - ((z1 @ C - A) @ C.T) / tau1, s)

        a2, b2 = inertial_coeffs(kinds[1], k)
        y2 = C if a2 == 0.0 else C + a2 * (C - C_prev)
        z2 = C if b2 == 0.0 else C + b2 * (C - C_prev)
        L2 = max(spectral_norm(B_new.T @ B_new), 1e-12)
        tau2 = tau_step(a2, b2, L2, kinds[1])[0] * 1.0
        C_new = prox_nonneg(y2 - (B_new.T @ (B_new @ z2 - A)) / tau2)

        B_prev, C_prev = B, C
        B, C = B_new, C_new
    return B, C


def test_inertial_sweep_matches_reference_with_distinct_anchor_and_gradient_points():
    inst = synth_nmf(seed=10)
    A = inst["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    x0 = init_nmf(A, r=3, s=2, seed=10)
    # alpha != beta and different regimes per block, so the two
    # extrapolated points genuinely differ everywhere
    kinds = (Static(0.3, 0.1), Static(0.5, 0.2, convex=True))
    state = make_state(problem, x0, kinds)
    run_state(state, problem, iters=6, tol=0.0)
    B_ref, C_ref = reference_inertial_sweep_nmf(A, x0[0], x0[1], 2, kinds, 6)
    assert np.array_equal(state.x_cur[0], B_ref)
    assert np.array_equal(state.x_cur[1], C_ref)


def test_dynamic_sweep_matches_reference():
    inst = synth_nmf(seed=11)
    A = inst["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    x0 = init_nmf(A, r=3, s=2, seed=11)
    kinds = (Dynamic(), Dynamic())
    state = make_state(problem, x0, kinds)
    run_state(state, problem, iters=5, tol=0.0)
    B_ref, C_ref = reference_inertial_sweep_nmf(A, x0[0], x0[1], 2, kinds, 5)
    assert np.array_equal(state.x_cur[0], B_ref)
    assert np.array_equal(state.x_cur[1], C_ref)
    # the recorded coefficients follow (k-1)/(k+2)
    assert params_at(state.trace, 2).alpha == (0.25, 0.25)
    assert params_at(state.trace, 3).alpha == (0.4, 0.4)


def test_square_summable_steps_on_bid_desk_instance(monkeypatch):
    # running sum of squared two-iterate steps stays bounded and the step
    # norm drops below 1e-6 within the per-instance budget (gentle warm
    # restart keeps the adaptive modulus from cycling near the limit)
    from ipalm.bid import BidParams, init_bid, make_bid_problem
    from ipalm.synthetic import synth_bid

    inst = synth_bid(size=32, kernel=5, seed=0)
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(5, 5), kernel_step_scale=5.0)
    problem = make_bid_problem(inst["f"], params)
    x0 = init_bid(inst["f"], params)
    cfg = RunConfig(schedule="static-c", alpha_bar=0.2, beta_bar=0.2, epsilon=0.05)
    state = make_state(problem, x0, block_kinds(problem, cfg), backtracking=True,
                       step_scale=(1.0, 5.0))
    monkeypatch.setattr("ipalm.lipschitz.SHRINK", 0.9)
    trace = run_state(state, problem, 2500, 1e-9)
    d_tot = trace.block_delta_matrix().sum(axis=1)
    running = 2.0 * d_tot[1:] + 2.0 * d_tot[:-1]
    assert np.isfinite(running.sum())
    assert trace_column(trace, "step_norm")[1:].min() < 1e-6


def test_prox_inequality_spot_check_during_run():
    """Re-derive the one-step proximal bound along a real trajectory.

    For each iteration and block with beta > 0: with s = L*beta, the bound
    must hold at (u, u+, v, w) = (current block, new block, prox anchor,
    gradient point), where h is the smooth part with the other blocks frozen
    at the values the solver actually used.
    """
    from ipalm.solver import ipalm_iterate

    inst = synth_nmf(seed=8)
    A = inst["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    x0 = init_nmf(A, r=3, s=2, seed=8)
    kinds = (Static(0.2, 0.2), Static(0.2, 0.2))
    state = make_state(problem, x0, kinds)
    for _ in range(40):
        x_cur, x_prev = state.x_cur, state.x_prev
        ipalm_iterate(state, problem)
        row = state.trace.rows[-1]
        x_next = state.x_cur
        frozen = [x_cur.blocks[1], x_next.blocks[0]]  # other-block values per slot
        for i in range(2):
            beta = row.beta[i]
            if beta == 0.0:
                continue
            L = row.L[i]
            t = row.tau[i]
            s = L * beta
            u = x_cur[i]
            u_plus = x_next[i]
            v = extrapolate(x_cur, x_prev, row.alpha[i], i)
            w = extrapolate(x_cur, x_prev, beta, i)

            if i == 0:
                def h(q):
                    return 0.5 * float(np.sum((A - q @ frozen[0]) ** 2))
            else:
                def h(q):
                    return 0.5 * float(np.sum((A - frozen[1] @ q) ** 2))

            lhs = h(u_plus)  # indicator parts are zero at feasible points
            rhs = (
                h(u)
                + 0.5 * (L + s) * float(np.sum((u_plus - u) ** 2))
                + 0.5 * t * float(np.sum((u - v) ** 2))
                - 0.5 * t * float(np.sum((u_plus - v) ** 2))
                + L * L / (2.0 * s) * float(np.sum((u - w) ** 2))
            )
            assert lhs <= rhs + 1e-8 * (1.0 + abs(rhs))
