import dataclasses
import functools

import numpy as np
import pytest

from ipalm.bid import BidParams, init_bid, make_bid_problem
from ipalm.blockmodel import BlockVector, ProblemSpec
from ipalm.config import RunConfig
from ipalm.convlasso import init_convlasso, make_convlasso_problem
from ipalm.nmf import init_nmf, make_nmf_problem
from ipalm import schedules, verify
from ipalm.schedules import Static
from ipalm.solver import run
from ipalm.synthetic import synth_bid, synth_convlasso, synth_nmf
from ipalm.verify import (
    check_c1_descent,
    check_gradients,
    check_step_rule_identities,
    check_prox_inequality,
    pinned_weight_run,
    run_battery,
)


def test_step_rule_battery_clean():
    report = check_step_rule_identities(n_points=2000, seed=1)
    assert report.ok, report.violations[:3]


def test_step_rule_battery_checks_the_compiled_rule(monkeypatch):
    # a compiled rule that binds the other block's prox factor: the battery
    # must see the step every pinned sweep takes, not a formula of its own
    def wrong_factor_rule(self):
        factors = schedules._prox_factors(self.eps, not self.convex)
        return functools.partial(schedules._static_step, *factors, self.delta)

    monkeypatch.setattr(schedules.Static, "rule", wrong_factor_rule)
    report = check_step_rule_identities(n_points=200, seed=0)
    assert len(report.violations) == len(report.rows) == 200


def test_prox_inequality_battery_clean():
    report = check_prox_inequality(trials=300, seed=1)
    assert report.ok, [r.detail for r in report.violations[:3]]


def test_prox_inequality_flags_a_prox_that_ignores_its_term(monkeypatch):
    # the l1 prox replaced by the identity, a plain gradient step: the l1
    # term's value lifts some trials over the general bound and others over
    # the convex one only
    monkeypatch.setattr(verify, "prox_l1", lambda p, threshold: p)
    report = check_prox_inequality(trials=300, seed=0)
    assert report.violations
    assert all(r.detail.endswith("kind=l1)") for r in report.violations)
    assert {r.detail.split(" bound")[0] for r in report.violations} == {"general", "convex"}


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


def _nmf_desk(seed):
    inst = synth_nmf(seed=seed)
    return (make_nmf_problem(inst["A"], r=3, s=2),
            init_nmf(inst["A"], r=3, s=2, seed=seed))


def test_c1_descent_clean_on_static_run():
    trace, rho1, bound_ok = pinned_weight_run(*_nmf_desk(4), iters=200)
    assert bound_ok
    report = check_c1_descent(trace, rho1)
    assert report.ok
    # every row records its drop and needed decrease, to the last bit
    psi = [r.Psi for r in trace.rows]
    for k, row in enumerate(report.rows):
        drop, need = (float(part.split("=")[1]) for part in row.detail.split())
        assert drop == psi[k] - psi[k + 1] and need >= 0.0


def test_pinned_weight_run_returns_the_run_its_weights_were_checked_on():
    # on seed 2 the search uses all 6 runs without the bound holding: the
    # last run's B-block modulus reaches 397.6 against a bound of 396.9.
    # The trace returned is that last run, its rows carry the weights behind
    # rho1, and bound_ok reports the miss
    trace, rho1, bound_ok = pinned_weight_run(*_nmf_desk(2), iters=300)
    weights = trace.rows[-1].delta
    assert all(r.delta == weights for r in trace.rows[1:])
    assert rho1 == 0.5 * 0.05 * min(weights)
    assert not bound_ok
    realized = max(r.L[0] for r in trace.rows[1:])
    assert Static(0.2, 0.2, 0.05).pin(realized).delta > weights[0]
    assert check_c1_descent(trace, rho1).ok


def test_c1_descent_zero_weights_reduce_to_monotone_objective():
    problem, x0 = _nmf_desk(5)
    trace = run(problem, x0, RunConfig(schedule="static-c", iters=100, tol=0.0,
                                       backtrack=False)).trace
    assert all(r.Psi == r.F for r in trace.rows)
    assert check_c1_descent(trace, 0.0).ok


def test_c1_descent_rejects_a_trace_without_lyapunov_values():
    problem, x0 = _nmf_desk(5)
    trace = run(problem, x0, RunConfig(schedule="dynamic", iters=5, backtrack=False)).trace
    with pytest.raises(ValueError, match="c1_descent: the trace records no Lyapunov"):
        check_c1_descent(trace, 0.0)


def test_c1_descent_detects_understepped_run():
    # an 8x underestimated modulus makes tau far too small (overshooting
    # steps, wildly oscillating objective); the Psi the run recorded, at
    # the rate weights built on its own largest moduli would certify, fails
    # the decrease at nearly every sweep
    inst = synth_nmf(seed=6)
    base = make_nmf_problem(inst["A"], r=3, s=2)
    broken = dataclasses.replace(
        base, lipschitz=lambda i, x: 0.125 * base.lipschitz(i, x), name="understepped")
    x0 = init_nmf(inst["A"], r=3, s=2, seed=6)
    eps, abar, bbar = 0.05, 0.2, 0.2
    trace = run(broken, x0, RunConfig(schedule="static-c", alpha_bar=abar,
                                      beta_bar=bbar, epsilon=eps, iters=200,
                                      tol=0.0, backtrack=False)).trace
    lam_plus = np.max([r.L for r in trace.rows[1:]], axis=0)
    rho1 = 0.5 * eps * min(
        Static(abar, bbar, eps, convex=c).pin(float(lam)).delta
        for lam, c in zip(lam_plus, base.convex))
    report = check_c1_descent(trace, rho1)
    assert len(report.violations) > 0.9 * len(report.rows)


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


def test_battery_reports_a_weight_search_that_ended_on_an_unmet_bound():
    # seed 2: the NMF search ends with the B-block modulus at 397.6, above
    # the 396.9 its weights were built on; every C1 row still holds
    reports = {r.name: r for r in run_battery(seed=2, trials=1, points=1)}
    for name in ("c1_descent_nmf", "c1_descent_bid"):
        assert reports[name].rows[-1].trial == "bound"
    assert [(r.trial, r.status) for r in reports["c1_descent_nmf"].violations] == [
        ("bound", "violation")]
    assert reports["c1_descent_bid"].ok


def test_report_csv_layout(tmp_path):
    report = check_step_rule_identities(n_points=10, seed=8)
    path = tmp_path / "r.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "check,trial,status,detail"
    assert len(lines) == 11
    assert all(line.split(",")[2] == "ok" for line in lines[1:])
