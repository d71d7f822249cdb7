"""Numerical verification battery for the solver's key inequalities.

Each check runs standalone, is deterministic under a fixed seed, and
produces a row-structured report that serializes to CSV
(``check,trial,status,detail``).  The battery is independent of any
application: it builds its own random quadratics and desk instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .blockmodel import BlockVector, ProblemSpec
from .prox import prox_box01, prox_l1, prox_nonneg
from .schedules import delta_star, descent_coefficients, tau_for_delta
from .solver import SolverTrace

# check_gradients: the central-difference step, and the relative and absolute
# tolerances a direction passes within; check_c1_descent: the slack relative
# to 1 + |Psi(k)|
FD_STEP = 1e-6
FD_REL_TOL = 1e-4
FD_ABS_TOL = 1e-7
C1_SLACK = 1e-8


@dataclass
class CheckRow:
    check: str
    trial: str
    status: str  # "ok" | "violation"
    detail: str = ""


@dataclass
class Report:
    name: str
    rows: List[CheckRow] = field(default_factory=list)

    def add(self, trial, ok: bool, detail: str = "") -> None:
        self.rows.append(
            CheckRow(self.name, str(trial), "ok" if ok else "violation", detail)
        )

    @property
    def violations(self) -> List[CheckRow]:
        return [r for r in self.rows if r.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return f"{self.name}: {len(self.rows)} trials, {len(self.violations)} violations"

    def to_csv(self, path) -> None:
        lines = ["check,trial,status,detail"]
        for r in self.rows:
            detail = r.detail.replace(",", ";")
            lines.append(f"{r.check},{r.trial},{r.status},{detail}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _quadratic(rng, d: int):
    """Random symmetric quadratic with a known gradient Lipschitz constant."""
    eigs = rng.uniform(-5.0, 5.0, size=d)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    Q = basis @ np.diag(eigs) @ basis.T
    Q = 0.5 * (Q + Q.T)
    c = rng.standard_normal(d)
    L_h = float(np.abs(eigs).max())

    def h(x):
        return 0.5 * float(x @ Q @ x) + float(c @ x)

    def grad(x):
        return Q @ x + c

    return h, grad, L_h


_SIGMAS = ("l1", "box", "nonneg")


def _sigma_setup(kind: str, rng, d: int, weight: float):
    """(sigma value, prox, domain sampler) for one nonsmooth term."""
    if kind == "l1":
        return (
            lambda x: weight * float(np.abs(x).sum()),
            lambda t, p: prox_l1(p, weight / t),
            lambda: rng.uniform(-2.0, 2.0, size=d),
        )
    if kind == "box":
        return (
            lambda x: 0.0 if (x.min() >= 0.0 and x.max() <= 1.0) else float("inf"),
            lambda t, p: prox_box01(p),
            lambda: rng.uniform(0.0, 1.0, size=d),
        )
    return (
        lambda x: 0.0 if x.min() >= 0.0 else float("inf"),
        lambda t, p: prox_nonneg(p),
        lambda: rng.uniform(0.0, 3.0, size=d),
    )


def check_prox_inequality(trials: int = 1000, seed: int = 0, dim_max: int = 10) -> Report:
    """Randomized check of the one-step proximal upper bound.

    For a random quadratic ``h`` with known gradient Lipschitz constant
    ``L_h``, a nonsmooth term ``sigma``, points ``u, v, w`` in its domain and
    scales ``t, s > 0``, take ``u+ = prox_t^sigma(v - grad h(w)/t)`` and
    assert, with ``g = h + sigma``:

        g(u+) <= g(u) + (L_h+s)/2 ||u+-u||^2 + t/2 ||u-v||^2
                 - t/2 ||u+-v||^2 + L_h^2/(2s) ||u-w||^2  (+ slack)

    plus the tightened variant with ``(L_h+s-t)/2`` in front of the first
    squared term, valid because every sigma used here is convex.  A third
    assertion exercises the variance-optimal coupling
    ``s = L_h ||u-w|| / ||u+-u||``.
    """
    if trials < 1:
        raise ValueError(f"proximal-bound trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = Report("prox_inequality")
    slack = 1e-9
    for trial in range(trials):
        d = int(rng.integers(1, dim_max + 1))
        h, grad, L_h = _quadratic(rng, d)
        kind = _SIGMAS[trial % len(_SIGMAS)]
        weight = float(rng.uniform(0.1, 2.0))
        sigma, prox, sample = _sigma_setup(kind, rng, d, weight)
        u, v, w = sample(), sample(), sample()
        t = float(rng.uniform(0.2, 5.0))
        u_plus = prox(t, v - grad(w) / t)

        def gval(x):
            return h(x) + sigma(x)

        du = float(np.sum((u_plus - u) ** 2))
        duv = float(np.sum((u - v) ** 2))
        dpv = float(np.sum((u_plus - v) ** 2))
        duw = float(np.sum((u - w) ** 2))
        base = gval(u) + 0.5 * t * duv - 0.5 * t * dpv
        lhs = gval(u_plus)

        s_values = [float(rng.uniform(0.1, 10.0))]
        if du > 0 and duw > 0:
            s_values.append(L_h * np.sqrt(duw) / np.sqrt(du))  # minimizing choice
        ok = True
        detail = ""
        for s in s_values:
            rhs = base + 0.5 * (L_h + s) * du + L_h * L_h / (2.0 * s) * duw
            rhs_convex = rhs - 0.5 * t * du
            if lhs > rhs + slack:
                ok = False
                detail = f"general bound violated by {lhs - rhs:.3e} (s={s:.3e} kind={kind})"
                break
            if lhs > rhs_convex + slack:
                ok = False
                detail = f"convex bound violated by {lhs - rhs_convex:.3e} (s={s:.3e} kind={kind})"
                break
        report.add(trial, ok, detail)
    return report


def check_step_rule_identities(n_points: int = 10000, seed: int = 0) -> Report:
    """Randomized check of the step-rule identities.

    Over random tuples (eps, coefficient bounds, instantaneous coefficients,
    Lipschitz values), the descent coefficients built from the closed-form
    step weight and step parameter must satisfy ``g == eps*delta`` exactly
    (to roundoff) and ``h >= eps*delta``, for prox factors ``c`` 1 and 2 with
    ``alpha_bar < c*(1-eps)/2``.  Boundary points are probed explicitly.
    """
    if n_points < 1:
        raise ValueError(f"step-rule grid points must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    report = Report("step_rule_identities")
    eps_choices = (0.0, 0.01, 0.1)
    for trial in range(n_points):
        eps = eps_choices[trial % len(eps_choices)]
        convex = bool(trial % 2)
        c = 2.0 if convex else 1.0
        alpha_bar = float(rng.uniform(0.0, 0.999) * (c * (1.0 - eps) / 2.0))
        beta_bar = float(rng.uniform(0.0, 2.0))
        lam = float(rng.uniform(0.1, 10.0))
        # boundary probe on a slice of the grid, interior sample otherwise
        alpha = alpha_bar if trial % 17 == 0 else float(rng.uniform(0.0, alpha_bar))
        beta = float(rng.uniform(0.0, beta_bar))
        L = float(rng.uniform(1e-3, 1.0) * lam)
        delta = delta_star(alpha_bar, beta_bar, eps, lam, convex=convex)
        tau = tau_for_delta(alpha, beta, delta, L, eps, convex=convex)
        g, h = descent_coefficients(alpha, beta, delta, tau, L, convex=convex)
        target = eps * delta
        ok_g = abs(g - target) <= 1e-12 * (1.0 + abs(delta))
        ok_h = h >= target - 1e-12
        detail = ""
        if not (ok_g and ok_h):
            detail = (
                f"g-target={g - target:.3e} h-target={h - target:.3e} "
                f"(eps={eps} convex={convex} abar={alpha_bar:.4f} bbar={beta_bar:.4f})"
            )
        report.add(trial, ok_g and ok_h, detail)
    return report


def check_c1_descent(trace: SolverTrace, deltas: Sequence[float], rho1: float) -> Report:
    """Sufficient-decrease check on a recorded run.

    With the Lyapunov values rebuilt from constant step weights, asserts

        Psi(k) - Psi(k+1) >= rho1 * (2*D(k+1) + 2*D(k)) - C1_SLACK*(1+|Psi(k)|)

    for every consecutive pair, where ``D(k)`` is the half squared step into
    iterate ``k`` (the squared distance between consecutive two-iterate
    states is exactly ``2*D(k+1) + 2*D(k)``).  With zero weights this
    reduces to monotonicity of the objective values.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    psi = trace.psi_values(deltas)
    d_tot = trace.block_delta_matrix().sum(axis=1)
    report = Report("c1_descent")
    for k in range(len(psi) - 1):
        drop = psi[k] - psi[k + 1]
        need = rho1 * (2.0 * d_tot[k + 1] + 2.0 * d_tot[k])
        ok = drop >= need - C1_SLACK * (1.0 + abs(psi[k]))
        detail = "" if ok else f"drop={drop:.6e} needed={need:.6e}"
        report.add(k, ok, detail)
    return report


def check_gradients(
    problem: ProblemSpec, x: BlockVector, n_dirs: int = 20, seed: int = 0
) -> Report:
    """Central finite differences of the smooth part against the partial
    gradients, along random unit directions per block.  A direction passes
    when the mismatch is within the relative or the absolute tolerance
    (``FD_REL_TOL``, ``FD_ABS_TOL``), whichever is looser.  Each block's
    ``value`` row checks the contract the line search relies on:
    ``partial_grad(i, x, value=True)`` returns the same gradient and
    ``eval_H(x)`` to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    report = Report("gradients")
    h_x = problem.eval_H(x)
    for i in range(problem.num_blocks):
        grad = problem.partial_grad(i, x)
        grad_v, h_v = problem.partial_grad(i, x, value=True)
        same = np.array_equal(grad_v, grad)
        ok = same and abs(h_v - h_x) <= 1e-12 * abs(h_x)
        detail = "" if ok else f"value={h_v:.17g} eval_H={h_x:.17g} same_gradient={same}"
        report.add(f"block{i}/value", ok, detail)
        for j in range(n_dirs):
            e = rng.standard_normal(x[i].shape)
            e /= np.sqrt(np.vdot(e, e).real)
            analytic = float(np.vdot(grad, e).real)
            plus = problem.eval_H(x.with_block(i, x[i] + FD_STEP * e))
            minus = problem.eval_H(x.with_block(i, x[i] - FD_STEP * e))
            fd = (plus - minus) / (2.0 * FD_STEP)
            err = abs(fd - analytic)
            ok = err <= max(FD_REL_TOL * abs(analytic), FD_ABS_TOL)
            detail = "" if ok else f"fd={fd:.9e} analytic={analytic:.9e} err={err:.3e}"
            report.add(f"block{i}/dir{j}", ok, detail)
    return report


def run_battery(seed: int = 0, trials: int = 1000, points: int = 10000, out_dir=None):
    """Run every standalone check on self-built instances; returns reports.

    The C1 check runs on a short sparse-NMF desk trajectory solved in the
    constant-step-weight mode; dynamic-schedule traces are never asserted
    against C1 (no step weights exist there).
    """
    from . import bid, convlasso, nmf, synthetic
    from .config import RunConfig
    from .solver import run

    reports = [
        check_step_rule_identities(n_points=points, seed=seed),
        check_prox_inequality(trials=trials, seed=seed),
    ]

    def renamed(report, name):
        report.name = name
        for row in report.rows:
            row.check = name
        return report

    rng = np.random.default_rng(seed)
    inst = synthetic.synth_nmf(seed=seed)
    nmf_problem = nmf.make_nmf_problem(inst["A"], r=3, s=2)
    nmf_x0 = nmf.init_nmf(inst["A"], r=3, s=2, seed=seed)
    reports.append(renamed(check_gradients(nmf_problem, nmf_x0, seed=seed),
                           "gradients_nmf"))

    bid_inst = synthetic.synth_bid(size=16, kernel=3, seed=seed)
    bid_params = bid.BidParams(lam=1e6, theta=1e4, kernel_shape=(3, 3))
    bid_problem = bid.make_bid_problem(bid_inst["f"], bid_params)
    u0 = np.clip(bid_inst["f"] + 0.05 * rng.standard_normal(bid_inst["f"].shape), 0.0, 1.0)
    b0 = rng.uniform(0.1, 1.0, (3, 3))
    b0 /= b0.sum()
    reports.append(renamed(check_gradients(bid_problem, BlockVector([u0, b0]), seed=seed),
                           "gradients_bid"))

    cl_inst = synthetic.synth_convlasso(seed=seed)
    cl_problem = convlasso.make_convlasso_problem(cl_inst["f"], p=4, l=3, lam=0.05)
    cl_x0 = convlasso.init_convlasso(cl_inst["f"], p=4, l=3, seed=seed)
    cl_x = BlockVector([cl_x0[0], 0.1 * rng.standard_normal(cl_x0[1].shape)])
    reports.append(renamed(check_gradients(cl_problem, cl_x, seed=seed),
                           "gradients_convlasso"))

    def c1_for(problem, x0, convex_flags, iters, step_scale=None):
        eps, abar, bbar = 0.05, 0.2, 0.2
        lam_plus = None
        deltas = None
        for _ in range(6):
            trace = run(problem, x0, RunConfig(
                schedule="static-c", alpha_bar=abar, beta_bar=bbar, epsilon=eps,
                iters=iters, tol=0.0, backtrack=False, constant_delta=deltas,
                step_scale=step_scale)).trace
            realized = trace.max_block_L()
            if lam_plus is not None and (realized <= lam_plus).all():
                break
            lam_plus = 1.5 * realized
            deltas = tuple(
                delta_star(abar, bbar, eps, float(l), convex=c)
                for l, c in zip(lam_plus, convex_flags)
            )
        return check_c1_descent(trace, deltas, 0.5 * eps * min(deltas))

    reports.append(renamed(c1_for(nmf_problem, nmf_x0, (False, True), iters=300),
                           "c1_descent_nmf"))
    bid_desk = synthetic.synth_bid(size=32, kernel=5, seed=seed)
    bid_desk_params = bid.BidParams(lam=1e6, theta=1e4, kernel_shape=(5, 5))
    bid_c1_problem = bid.make_bid_problem(bid_desk["f"], bid_desk_params)
    reports.append(renamed(
        c1_for(bid_c1_problem, bid.init_bid(bid_desk["f"], bid_desk_params), (True, True),
               iters=200, step_scale=(1.0, bid_desk_params.kernel_step_scale)),
        "c1_descent_bid"))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for rep in reports:
            rep.to_csv(os.path.join(out_dir, f"{rep.name}.csv"))
    return reports
