"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here; nothing is deferred to later calibration.
Thresholds marked "frozen" were calibrated once against the stated oracle
and then fixed.
"""

import time
from itertools import combinations

import numpy as np
import pytest
from oracles import circ_conv_direct

from ipalm.bid import BidParams, init_bid, make_bid_problem
from ipalm.blockmodel import BlockVector
from ipalm.config import RunConfig, block_kinds
from ipalm.convlasso import init_convlasso, make_convlasso_problem
from ipalm.imageops import circ_conv
from ipalm.lipschitz import spectral_norm
from ipalm.nmf import init_nmf, make_nmf_problem
from ipalm.prox import (
    prox_box01,
    prox_filter_constraint,
    prox_l0_nonneg_cols,
    prox_l1,
    prox_nonneg,
    prox_simplex,
)
from ipalm.schedules import delta_star
from ipalm.solver import make_state, run, run_state
from ipalm.synthetic import synth_bid, synth_convlasso, synth_nmf
from ipalm.verify import check_gradients, check_step_rule_identities, check_prox_inequality


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. step-rule identities


def test_criterion_1_step_rule_identities():
    t0 = time.perf_counter()
    report = check_step_rule_identities(n_points=10000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < 5.0
    _report(1, "step-rule identities (g = eps*delta, h >= eps*delta)", ok,
            f"{len(report.rows)} points, {len(report.violations)} violations, "
            f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. one-step proximal bound


def test_criterion_2_proximal_bound():
    t0 = time.perf_counter()
    report = check_prox_inequality(trials=1000, seed=0, dim_max=10)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < 30.0
    _report(2, "proximal bound and convex tightening", ok,
            f"1000 trials, {len(report.violations)} violations, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. sufficient decrease of the two-iterate Lyapunov function


def test_criterion_3_sufficient_decrease():
    t0 = time.perf_counter()
    inst = synth_nmf(m=20, n=30, r=3, s=2, seed=0)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=0)
    eps, abar, bbar = 0.05, 0.2, 0.2

    # the constant step weights need per-block upper bounds on the moduli
    # realized along the run; iterate the calibration until they hold
    lam_plus = None
    deltas = None
    for _ in range(6):
        trace = run(problem, x0, RunConfig(
            schedule="static-c", alpha_bar=abar, beta_bar=bbar, epsilon=eps,
            iters=2000, tol=0.0, backtrack=False, constant_delta=deltas)).trace
        realized = trace.max_block_L()
        if lam_plus is not None and (realized <= lam_plus).all():
            break
        lam_plus = 1.5 * realized
        deltas = (
            delta_star(abar, bbar, eps, float(lam_plus[0]), convex=False),
            delta_star(abar, bbar, eps, float(lam_plus[1]), convex=True),
        )
    bound_ok = (trace.max_block_L() <= lam_plus).all()

    rho1 = 0.5 * eps * min(deltas)
    psi = trace.psi_values(deltas)
    d_tot = trace.block_delta_matrix().sum(axis=1)
    usq = 2.0 * d_tot[1:] + 2.0 * d_tot[:-1]  # ||u^{k+1} - u^k||^2
    drops = psi[:-1] - psi[1:]
    violations = int((drops < rho1 * usq - 1e-8 * (1.0 + np.abs(psi[:-1]))).sum())

    # early exit only at an exact fixed point, where the remaining budget
    # is trivially stationary
    converged_exactly = len(trace) - 1 < 2000 and trace.rows[-1].step_norm == 0.0
    full = len(trace) - 1 == 2000 or converged_exactly

    sum_sq = float(usq.sum())
    final_step = trace.rows[-1].step_norm
    elapsed = time.perf_counter() - t0
    ok = (violations == 0 and bound_ok and full and np.isfinite(sum_sq)
          and final_step < 1e-6 and elapsed < 60.0)
    _report(3, "sufficient decrease (static, eps=0.05, constant weights)", ok,
            f"{len(trace) - 1} iterations, {violations} violations, "
            f"sum||du||^2={sum_sq:.3e}, final step={final_step:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. zero-inertia run matches an independent plain alternating loop bitwise


def test_criterion_4_plain_loop_recovery_bitwise():
    inst = synth_nmf(seed=3)
    A = inst["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    x0 = init_nmf(A, r=3, s=2, seed=3)
    state = make_state(problem, x0, block_kinds(problem, RunConfig(schedule="static-c")))
    run_state(state, problem, iters=10, tol=0.0)

    B = x0[0].copy()
    C = x0[1].copy()
    for _ in range(10):
        L1 = max(spectral_norm(C @ C.T), 1e-12)
        B = prox_l0_nonneg_cols(B - ((B @ C - A) @ C.T) / L1, 2)
        L2 = max(spectral_norm(B.T @ B), 1e-12)
        C = prox_nonneg(C - (B.T @ (B @ C - A)) / (L2 / 2.0))

    ok = np.array_equal(state.x_cur[0], B) and np.array_equal(state.x_cur[1], C)
    _report(4, "zero-inertia bitwise equality with independent loop", ok,
            "10 iterations, both blocks")


# ---------------------------------------------------------------------------
# 5. gradient oracles for all three problems


def test_criterion_5_gradient_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    reports = []

    inst = synth_nmf(seed=5)
    p1 = make_nmf_problem(inst["A"], r=3, s=2)
    reports.append(("nmf", check_gradients(p1, init_nmf(inst["A"], 3, s=2, seed=5), seed=5)))

    bi = synth_bid(size=16, kernel=3, seed=5)
    p2 = make_bid_problem(bi["f"], BidParams(lam=1e6, theta=1e4, kernel_shape=(3, 3)))
    u0 = np.clip(bi["f"] + 0.05 * rng.standard_normal(bi["f"].shape), 0.0, 1.0)
    b0 = rng.uniform(0.1, 1.0, (3, 3))
    b0 /= b0.sum()
    reports.append(("bid", check_gradients(p2, BlockVector([u0, b0]), seed=5)))

    ci = synth_convlasso(seed=5)
    p3 = make_convlasso_problem(ci["f"], p=5, l=3, lam=0.05)
    x3 = init_convlasso(ci["f"], p=5, l=3, seed=5)
    x3 = BlockVector([x3[0], 0.1 * rng.standard_normal(x3[1].shape)])
    reports.append(("convlasso", check_gradients(p3, x3, seed=5)))

    elapsed = time.perf_counter() - t0
    bad = {name: len(r.violations) for name, r in reports if not r.ok}
    ok = not bad and elapsed < 60.0
    _report(5, "finite-difference gradient oracles (nmf, bid, convlasso)", ok,
            f"20 directions/block, violations={bad or 0}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. projection / prox oracles


def _l0_brute_cost(p, s):
    m = p.size
    clamped = np.maximum(p, 0.0)
    best = float(np.sum(p**2))
    for size in range(1, s + 1):
        for supp in combinations(range(m), size):
            q = np.zeros(m)
            q[list(supp)] = clamped[list(supp)]
            best = min(best, float(np.sum((q - p) ** 2)))
    return best


def _simplex_bisect(p):
    lo, hi = p.min() - 1.0, p.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(p - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(p - 0.5 * (lo + hi), 0.0)


def _dykstra_zero_mean_ball(p, iters=2000):
    x = p.ravel().copy()
    inc_h = np.zeros_like(x)
    inc_b = np.zeros_like(x)
    for _ in range(iters):
        y = x + inc_h
        proj = y - y.mean()
        inc_h = y - proj
        z = proj + inc_b
        n = np.linalg.norm(z)
        ball = z / n if n > 1.0 else z
        inc_b = z - ball
        x = ball
    return x.reshape(p.shape)


def test_criterion_6_projection_oracles():
    rng = np.random.default_rng(6)

    sparse_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        s = int(rng.integers(1, m + 1))
        p = rng.uniform(-2.0, 2.0, size=m)
        out = prox_l0_nonneg_cols(p.reshape(-1, 1), s).ravel()
        cost = float(np.sum((out - p) ** 2))
        if not ((out >= 0).all() and int((out != 0).sum()) <= s
                and cost <= _l0_brute_cost(p, s) + 1e-12):
            sparse_ok = False
            break

    simplex_ok = True
    for _ in range(200):
        p = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 12)))
        if np.abs(prox_simplex(p) - _simplex_bisect(p)).max() > 1e-8:
            simplex_ok = False
            break

    filter_ok = True
    for _ in range(100):
        d = rng.uniform(-2.0, 2.0, size=(3, 3))
        if np.abs(prox_filter_constraint(d) - _dykstra_zero_mean_ball(d)).max() > 1e-8:
            filter_ok = False
            break

    # idempotency of the projection operators; soft thresholding with a
    # positive threshold is a shrinkage, not a projection, so it only joins
    # through its threshold-zero (identity) case
    idem_ok = True
    ops = (
        prox_box01,
        prox_nonneg,
        prox_simplex,
        prox_filter_constraint,
        lambda q: prox_l0_nonneg_cols(q.reshape(-1, 1), 2).ravel(),
        lambda q: prox_l1(q, 0.0),
    )
    for op in ops:
        for _ in range(50):
            p = rng.uniform(-3.0, 3.0, size=6)
            once = op(p)
            if np.abs(op(once) - once).max() > 1e-14:
                idem_ok = False
                break

    ok = sparse_ok and simplex_ok and filter_ok and idem_ok
    _report(6, "projection/prox oracles", ok,
            f"sparse={sparse_ok} simplex={simplex_ok} filter={filter_ok} "
            f"idempotent={idem_ok}")


# ---------------------------------------------------------------------------
# 7. convolution consistency


def test_criterion_7_convolution_consistency():
    rng = np.random.default_rng(7)
    conv_ok = True
    for _ in range(100):
        u = rng.standard_normal((8, 8))
        b = rng.standard_normal((3, 3))
        d = circ_conv_direct(u, b)
        f = circ_conv(u, b)
        if np.abs(d - f).max() > 1e-10 * (1.0 + np.abs(d).max()):
            conv_ok = False
            break
    b = rng.uniform(0.0, 1.0, (3, 3))
    b /= b.sum()
    const = np.full((8, 8), 0.37)
    mass_ok = np.abs(circ_conv(const, b) - 0.37).max() <= 1e-12
    ok = conv_ok and mass_ok
    _report(7, "direct vs FFT circular convolution + mass preservation", ok,
            f"100 random pairs, conv={conv_ok} mass={mass_ok}")


# ---------------------------------------------------------------------------
# 8. schedule ordering on the desk instances (reference-table trend)
#
# The published experiment values themselves are not reproducible here:
# their datasets are not shipped and the initializations and seeds are
# unspecified.  The substitute asserts the consistently reported trend --
# the dynamic schedule reaching a lower objective than the inertia-free one
# at the same iteration count -- on both desk instances, over 5 seeds with
# a >= 4/5 majority per problem.


def test_criterion_8_schedule_ordering():
    t0 = time.perf_counter()

    nmf_wins = 0
    for seed in range(5):
        inst = synth_nmf(seed=seed)
        problem = make_nmf_problem(inst["A"], r=3, s=2)
        x0 = init_nmf(inst["A"], r=3, s=2, seed=seed)
        f_palm = run(problem, x0, RunConfig(schedule="static-c", iters=1000,
                                            tol=0.0, backtrack=False)).trace.rows[1000].F
        f_dyn = run(problem, x0, RunConfig(schedule="dynamic", iters=1000,
                                           tol=0.0, backtrack=False)).trace.rows[1000].F
        nmf_wins += f_dyn <= f_palm

    cl_wins = 0
    for seed in range(5):
        inst = synth_convlasso(seed=seed)
        problem = make_convlasso_problem(inst["f"], p=8, l=5, lam=0.05)
        x0 = init_convlasso(inst["f"], p=8, l=5, seed=seed)
        f_palm = run(problem, x0, RunConfig(schedule="static-c", iters=1000,
                                            tol=0.0)).trace.rows[1000].F
        f_dyn = run(problem, x0, RunConfig(schedule="dynamic", iters=1000,
                                           tol=0.0)).trace.rows[1000].F
        cl_wins += f_dyn <= f_palm

    elapsed = time.perf_counter() - t0
    ok = nmf_wins >= 4 and cl_wins >= 4 and elapsed < 600.0
    _report(8, "dynamic <= zero-inertia at K=1000 (majority over 5 seeds)", ok,
            f"nmf {nmf_wins}/5, convlasso {cl_wins}/5, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. blind-deconvolution kernel recovery on the synthetic instance
#
# Threshold frozen after oracle calibration: on this instance (seed 1) the
# recovered kernel's l1 error lands near 1e-3 against an initial error near
# 1.76, an improvement around 1800x, so the required 10x carries three
# orders of magnitude of margin.


def test_criterion_9_bid_kernel_recovery():
    t0 = time.perf_counter()
    inst = synth_bid(size=64, kernel=7, seed=1)
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(7, 7), kernel_step_scale=5.0)
    problem = make_bid_problem(inst["f"], params)
    x0 = init_bid(inst["f"], params)
    err0 = float(np.abs(x0[1] - inst["b_true"]).sum())

    cfg = RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4)
    state = make_state(problem, x0, block_kinds(problem, cfg), backtracking=True,
                       step_scale=(1.0, params.kernel_step_scale))
    run_state(state, problem, iters=2000, tol=0.0)
    err = float(np.abs(state.x_cur[1] - inst["b_true"]).sum())

    elapsed = time.perf_counter() - t0
    ok = err * 10.0 <= err0 and elapsed < 300.0
    _report(9, "synthetic kernel recovery (>= 10x l1 error reduction)", ok,
            f"{err0:.3f} -> {err:.5f} ({err0 / err:.0f}x), {elapsed:.0f}s")
