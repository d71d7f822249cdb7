import dataclasses

import numpy as np
import pytest

from ipalm.bid import BidParams, init_bid, make_bid_problem
from ipalm.blockmodel import BlockVector, ProblemSpec
from ipalm.config import RunConfig
from ipalm.convlasso import init_convlasso, make_convlasso_problem
from ipalm.nmf import init_nmf, make_nmf_problem
from ipalm.schedules import delta_star
from ipalm.solver import run
from ipalm.synthetic import synth_bid, synth_convlasso, synth_nmf
from ipalm.verify import (
    check_c1_descent,
    check_gradients,
    check_step_rule_identities,
    check_prox_inequality,
    run_battery,
)


def test_step_rule_battery_clean():
    report = check_step_rule_identities(n_points=2000, seed=1)
    assert report.ok, report.violations[:3]


def test_prox_inequality_battery_clean():
    report = check_prox_inequality(trials=300, seed=1)
    assert report.ok, [r.detail for r in report.violations[:3]]


@pytest.mark.parametrize("check, count", [
    (check_step_rule_identities, "n_points"), (check_prox_inequality, "trials")])
@pytest.mark.parametrize("n", [0, -3])
def test_randomized_checks_reject_fewer_than_one_trial(check, count, n):
    with pytest.raises(ValueError, match="at least 1"):
        check(**{count: n})


def test_prox_inequality_fixed_point_case():
    # u = u+ collapses the bound to a sum of nonnegative terms; covered by
    # construction, asserted here on a concrete instance
    rng = np.random.default_rng(2)
    d = 4
    Q = np.eye(d)
    c = np.zeros(d)
    u = rng.uniform(0, 1, d)

    def h(x):
        return 0.5 * float(x @ Q @ x)

    L_h, t, s = 1.0, 2.0, 1.0
    lhs = h(u)
    rhs = h(u) + 0.5 * (L_h + s) * 0.0 + 0.5 * t * 0.0 - 0.5 * t * 0.0 + L_h**2 / (2 * s) * 0.0
    assert lhs <= rhs + 1e-12


def test_gradient_check_flags_wrong_gradients():
    inst = synth_nmf(seed=3)
    good = make_nmf_problem(inst["A"], r=3, s=2)

    def scaled(i, x, value=False):
        if value:
            g, h = good.partial_grad(i, x, value=True)
            return 1.01 * g, h
        return 1.01 * good.partial_grad(i, x)

    bad = ProblemSpec(
        eval_F=good.eval_F,
        eval_H=good.eval_H,
        partial_grad=scaled,
        prox=good.prox,
        convex=good.convex,
        lipschitz=good.lipschitz,
        name="broken",
    )
    x0 = init_nmf(inst["A"], r=3, s=2, seed=3)
    assert check_gradients(good, x0, seed=3).ok
    report = check_gradients(bad, x0, seed=3)
    assert not report.ok
    # the value rows hold: the scaled gradient is consistent with itself
    assert {r.trial for r in report.violations} <= {
        f"block{i}/dir{j}" for i in range(2) for j in range(20)}


def _value_cases():
    inst = synth_nmf(seed=3)
    nmf_problem = make_nmf_problem(inst["A"], r=3, s=2)
    yield nmf_problem, init_nmf(inst["A"], r=3, s=2, seed=3)
    f = synth_bid(size=16, kernel=3, seed=3)["f"]
    params = BidParams(kernel_shape=(3, 3))
    yield make_bid_problem(f, params), init_bid(f, params)
    f = synth_convlasso(size=12, seed=3)["f"]
    x = init_convlasso(f, p=3, l=3, seed=3)
    rng = np.random.default_rng(3)
    yield (make_convlasso_problem(f, p=3, l=3, lam=0.05),
           BlockVector([x[0], 0.1 * rng.standard_normal(x[1].shape)]))


def test_gradient_check_holds_partial_grad_to_the_value_contract():
    for problem, x in _value_cases():
        report = check_gradients(problem, x, n_dirs=2, seed=3)
        assert report.ok, report.violations[:3]
        assert [r.trial for r in report.rows if r.trial.endswith("/value")] == [
            "block0/value", "block1/value"]

        def off_by_one(i, x, value=False, _grad=problem.partial_grad):
            if value:
                g, h = _grad(i, x, value=True)
                return g, h + 1.0
            return _grad(i, x)

        bad = dataclasses.replace(problem, partial_grad=off_by_one)
        report = check_gradients(bad, x, n_dirs=2, seed=3)
        assert [r.trial for r in report.violations] == ["block0/value", "block1/value"]
        assert "eval_H=" in report.violations[0].detail


def _c1_setup(seed, lipschitz_scale=1.0, iters=200):
    inst = synth_nmf(seed=seed)
    base = make_nmf_problem(inst["A"], r=3, s=2)
    problem = ProblemSpec(
        eval_F=base.eval_F,
        eval_H=base.eval_H,
        partial_grad=base.partial_grad,
        prox=base.prox,
        convex=base.convex,
        lipschitz=lambda i, x: lipschitz_scale * base.lipschitz(i, x),
        name=base.name,
    )
    x0 = init_nmf(inst["A"], r=3, s=2, seed=seed)
    eps, abar, bbar = 0.05, 0.2, 0.2
    lam_plus = None
    for _ in range(5):
        deltas = None
        if lam_plus is not None:
            deltas = (
                delta_star(abar, bbar, eps, float(lam_plus[0]), convex=False),
                delta_star(abar, bbar, eps, float(lam_plus[1]), convex=True),
            )
        trace = run(problem, x0, RunConfig(
            schedule="static-c", alpha_bar=abar, beta_bar=bbar, epsilon=eps,
            iters=iters, tol=0.0, backtrack=False, constant_delta=deltas)).trace
        realized = trace.max_block_L()
        if lam_plus is not None and (realized <= lam_plus).all():
            break
        lam_plus = 1.5 * realized
    rho1 = 0.5 * eps * min(deltas)
    return trace, deltas, rho1


def test_c1_descent_clean_on_static_run():
    trace, deltas, rho1 = _c1_setup(seed=4)
    assert check_c1_descent(trace, deltas, rho1).ok


def test_c1_descent_zero_weights_reduce_to_monotone_objective():
    inst = synth_nmf(seed=5)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=5)
    trace = run(problem, x0, RunConfig(schedule="static-c", iters=100, tol=0.0,
                                       backtrack=False)).trace
    assert check_c1_descent(trace, (0.0, 0.0), 0.0).ok


def test_c1_descent_detects_understepped_run():
    # an 8x underestimated modulus makes tau far too small (overshooting
    # steps, wildly oscillating objective); checking that trace against
    # weights built from its own recorded moduli must flag violations
    inst = synth_nmf(seed=6)
    base = make_nmf_problem(inst["A"], r=3, s=2)
    broken = ProblemSpec(
        eval_F=base.eval_F,
        eval_H=base.eval_H,
        partial_grad=base.partial_grad,
        prox=base.prox,
        convex=base.convex,
        lipschitz=lambda i, x: 0.125 * base.lipschitz(i, x),
        name="understepped",
    )
    x0 = init_nmf(inst["A"], r=3, s=2, seed=6)
    eps, abar, bbar = 0.05, 0.2, 0.2
    trace = run(broken, x0, RunConfig(schedule="static-c", alpha_bar=abar,
                                      beta_bar=bbar, epsilon=eps, iters=200,
                                      tol=0.0, backtrack=False)).trace
    lam_plus = trace.max_block_L()
    deltas = (
        delta_star(abar, bbar, eps, float(lam_plus[0]), convex=False),
        delta_star(abar, bbar, eps, float(lam_plus[1]), convex=True),
    )
    report = check_c1_descent(trace, deltas, 0.5 * eps * min(deltas))
    assert not report.ok


def test_battery_deterministic_and_serializable(tmp_path):
    rep1 = run_battery(seed=7, trials=50, points=200, out_dir=tmp_path / "a")
    rep2 = run_battery(seed=7, trials=50, points=200, out_dir=tmp_path / "b")
    names = [r.name for r in rep1]
    assert names == [r.name for r in rep2]
    for r1, r2 in zip(rep1, rep2):
        assert [vars(x) for x in r1.rows] == [vars(x) for x in r2.rows]
        assert r1.ok, r1.violations[:3]
    for name in names:
        f1 = (tmp_path / "a" / f"{name}.csv").read_bytes()
        f2 = (tmp_path / "b" / f"{name}.csv").read_bytes()
        assert f1 == f2


def test_report_csv_layout(tmp_path):
    report = check_step_rule_identities(n_points=10, seed=8)
    path = tmp_path / "r.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "check,trial,status,detail"
    assert len(lines) == 11
    assert all(line.split(",")[2] == "ok" for line in lines[1:])
