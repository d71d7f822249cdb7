"""The four solver workloads.

Every workload turns a seed into a bank of consecutive synthetic instances,
``seed * bank`` up to ``seed * bank + bank - 1``, so that two seeds never
share an instance.  Each instance is solved for a fixed number of sweeps
(``tol = 0``), and every solve is checked after it returns.  Banks rather
than single instances, because solve cost and objective decrease both vary
several-fold between instances (NMF run time about 10x), and one instance
alone would not be representative of the workload.

``target`` is the objective target of every solve as a share of its initial
objective ``F_0``; a solve that never reaches it counts as missing it.  On
nmf-desk about a fifth of the solves miss it: its objective falls fast in the
first sweep and then levels off at very different heights per instance.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

import ipalm.bid as bid
import ipalm.cli as cli
import ipalm.convlasso as convlasso
import ipalm.nmf as nmf
import ipalm.solver as solver
import ipalm.synthetic as synthetic
from ipalm.config import RunConfig, block_kinds
from ipalm.imageops import read_pgm

from tracing import Tracer, instrument_modules, instrument_problem


@dataclass
class Outcome:
    """What one solve returns: the objective and clock of every trace row."""

    F: List[float]
    seconds: List[float]
    final: object = None  # final iterate of an in-process solve


@dataclass
class Job:
    """One solve.  Only ``solve`` is timed; ``outcome`` then reads what it
    produced and ``check`` lists what is wrong with that."""

    label: str
    solve: Callable[[], None]
    outcome: Callable[[], Outcome]
    check: Callable[[Outcome], List[str]]


@dataclass
class SetupClock:
    """Seconds spent in instance synthesis and in problem/state building."""

    synthetic: float = 0.0
    build: float = 0.0

    @contextlib.contextmanager
    def time(self, part: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, part, getattr(self, part) + time.perf_counter() - start)


@dataclass
class Context:
    """Per-pass state handed to a workload's set-up."""

    seed: int
    workdir: str  # scratch directory for files the CLI writes
    tracer: Tracer = None  # set on the traced pass only
    clock: SetupClock = field(default_factory=SetupClock)

    def problem(self, spec, prefix: str):
        return spec if self.tracer is None else instrument_problem(spec, self.tracer, prefix)

    def solving(self):
        """Context for a timed solve: module names are traced on the traced pass."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return instrument_modules(self.tracer)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


@dataclass(frozen=True)
class Workload:
    name: str
    bank: int  # instances per pass
    iters: int  # sweeps per solve
    target: float  # objective target as a share of F_0
    # the jobs of one instance seed; ``per_instance`` is how many it gives
    setup: Callable[["Workload", Context, int], List[Job]]
    per_instance: int = 1

    def instance_seeds(self, seed: int) -> range:
        return range(seed * self.bank, seed * self.bank + self.bank)

    def jobs(self, ctx: Context) -> List[Job]:
        """The jobs of the whole bank.  An instance whose set-up raises gives
        jobs that fail when solved, so the failure is counted, not fatal."""
        jobs = []
        for s in self.instance_seeds(ctx.seed):
            try:
                jobs += self.setup(self, ctx, s)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                jobs += [_failed_job(f"{self.name}{s}/{i}", exc)
                         for i in range(self.per_instance)]
        return jobs


def _failed_job(label: str, exc: Exception) -> Job:
    def solve() -> None:
        raise RuntimeError(f"set-up raised {type(exc).__name__}: {exc}")

    return Job(label, solve, None, None)


def trajectory_problems(F: List[float]) -> List[str]:
    """Checks every solve shares: finite trace, no increase from F_0 to F_K."""
    if not all(math.isfinite(v) for v in F):
        return ["non-finite objective in the trace"]
    if F[-1] > F[0]:
        return [f"objective rose: F_K={F[-1]!r} > F_0={F[0]!r}"]
    return []


def _solver_job(ctx: Context, label: str, raw, problem, state, iters: int,
                extra_check=None) -> Job:
    """A job driving an assembled state for ``iters`` sweeps in process.

    ``raw`` is the uninstrumented problem, so the feasibility check of the
    final iterate does not count as a solver evaluation.
    """

    def solve() -> None:
        # the trace clock starts with the solve, not when set-up made the state
        state.t0 = time.perf_counter()
        with ctx.solving():
            solver.run_state(state, problem, iters, 0.0)

    def outcome() -> Outcome:
        rows = state.trace.rows
        return Outcome([r.F for r in rows], [r.seconds for r in rows], state.x_cur)

    def check(out: Outcome) -> List[str]:
        problems = trajectory_problems(out.F)
        if not math.isfinite(raw.eval_F(out.final)):
            problems.append("final iterate is infeasible")
        if extra_check is not None:
            problems += extra_check(out.final)
        return problems

    return Job(label, solve, outcome, check)


def setup_nmf(w: Workload, ctx: Context, s: int) -> List[Job]:
    """A sparse NMF desk instance (20x30, r=3, s=2), exact moduli, plain PALM
    (static-c, alpha=beta=0) and the dynamic schedule on it."""
    jobs = []
    with ctx.clock.time("synthetic"):
        A = synthetic.synth_nmf(m=20, n=30, r=3, s=2, seed=s)["A"]
    with ctx.clock.time("build"):
        raw = nmf.make_nmf_problem(A, r=3, s=2)
        problem = ctx.problem(raw, "nmf")
        x0 = nmf.init_nmf(A, r=3, s=2, seed=s)
        for schedule in ("static-c", "dynamic"):
            kinds = block_kinds(problem, RunConfig(schedule=schedule))
            state = solver.make_state(problem, x0, kinds)
            jobs.append(_solver_job(ctx, f"nmf{s}/{schedule}", raw, problem, state,
                                    w.iters))
    return jobs


def setup_convlasso(w: Workload, ctx: Context, s: int) -> List[Job]:
    """A convlasso desk instance (32x32, p=8, l=5, lambda=0.05), backtracking,
    plain PALM and the dynamic schedule on it."""
    jobs = []
    with ctx.clock.time("synthetic"):
        f = synthetic.synth_convlasso(size=32, seed=s)["f"]
    with ctx.clock.time("build"):
        raw = convlasso.make_convlasso_problem(f, p=8, l=5, lam=0.05)
        problem = ctx.problem(raw, "convlasso")
        x0 = convlasso.init_convlasso(f, p=8, l=5, seed=s)
        for schedule in ("static-c", "dynamic"):
            kinds = block_kinds(problem, RunConfig(schedule=schedule))
            state = solver.make_state(problem, x0, kinds, backtracking=True)
            jobs.append(_solver_job(ctx, f"convlasso{s}/{schedule}", raw, problem,
                                    state, w.iters))
    return jobs


def _kernel_error_check(b_true: np.ndarray, b0: np.ndarray):
    err0 = float(np.abs(b0 - b_true).sum())

    def check(b: np.ndarray) -> List[str]:
        err = float(np.abs(b - b_true).sum())
        return [] if err < err0 else [f"kernel l1 error did not fall: {err0:.4g} -> {err:.4g}"]

    return check


BID_PARAMS = bid.BidParams(lam=1e6, theta=1e4, kernel_shape=(7, 7), kernel_step_scale=5.0)


def setup_bid(w: Workload, ctx: Context, s: int) -> List[Job]:
    """Blind deconvolution (64x64 image, 7x7 kernel), static-c with
    alpha=beta=0.4, backtracking, kernel step scale 5: criterion 9's set-up."""
    with ctx.clock.time("synthetic"):
        inst = synthetic.synth_bid(size=64, kernel=7, seed=s)
    with ctx.clock.time("build"):
        raw = bid.make_bid_problem(inst["f"], BID_PARAMS)
        problem = ctx.problem(raw, "bid")
        x0 = bid.init_bid(inst["f"], BID_PARAMS)
        cfg = RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4)
        state = solver.make_state(problem, x0, block_kinds(problem, cfg),
                                  backtracking=True,
                                  step_scale=(1.0, BID_PARAMS.kernel_step_scale))
    check = _kernel_error_check(inst["b_true"], x0[1])
    return [_solver_job(ctx, f"bid{s}", raw, problem, state, w.iters,
                        lambda x: check(x[1]))]


def _quiet_cli(argv: List[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_job(ctx: Context, w: Workload, s: int, inst_dir: str) -> Job:
    out_dir = os.path.join(inst_dir, "run")
    argv = ["bid", "--image", os.path.join(inst_dir, "bid_f.pgm"), "--kernel-size", "7",
            "--exact-lipschitz", "--alpha-bar", "0.4", "--beta-bar", "0.4",
            "--iters", str(w.iters), "--tol", "0", "--out", out_dir]
    status = {}

    def solve() -> None:
        with ctx.solving(), ctx.span("cli.main"):
            status["exit"] = _quiet_cli(argv)

    def outcome() -> Outcome:
        if status["exit"] != 0:
            return Outcome([], [])
        with open(os.path.join(out_dir, "bid_trace.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        status["header"] = ",".join(rows[0])
        col = {name: j for j, name in enumerate(rows[0])}
        return Outcome([float(r[col["F"]]) for r in rows[1:]],
                       [float(r[col["seconds"]]) for r in rows[1:]])

    def check(out: Outcome) -> List[str]:
        if status["exit"] != 0:
            return [f"exit status {status['exit']}"]
        problems = trajectory_problems(out.F)
        if status["header"] != solver.TRACE_COLUMNS:
            problems.append("trace CSV header differs from TRACE_COLUMNS")
        if len(out.F) != w.iters + 1:
            problems.append(f"trace CSV has {len(out.F)} rows, expected {w.iters + 1}")
        pgms = [os.path.join(out_dir, f"bid_{part}.pgm") for part in ("image", "kernel")]
        missing = [p for p in pgms if not os.path.isfile(p)]
        if missing:
            return problems + [f"missing output {p}" for p in missing]
        # the kernel PGM is scaled to its maximum; renormalised it is the
        # recovered kernel up to 8-bit quantisation
        b_true = nmf.load_matrix_csv(os.path.join(inst_dir, "bid_b_true.csv"))
        b = read_pgm(pgms[1])
        b0 = np.full_like(b_true, 1.0 / b_true.size)
        return problems + _kernel_error_check(b_true, b0)(b / b.sum())

    return Job(f"bid-cli{s}", solve, outcome, check)


def setup_bid_cli(w: Workload, ctx: Context, s: int) -> List[Job]:
    """The BID model through the CLI: ``ipalm synth --problem bid`` as set-up,
    then ``ipalm bid --image ... --exact-lipschitz`` as the solve."""
    inst_dir = os.path.join(ctx.workdir, f"bid{s}")
    with ctx.clock.time("synthetic"):
        status = _quiet_cli(["synth", "--problem", "bid", "--seed", str(s),
                             "--out", inst_dir])
    if status != 0:
        raise RuntimeError(f"ipalm synth exited with status {status}")
    return [_cli_job(ctx, w, s, inst_dir)]


# Bank sizes make one pass take four to five seconds on a 2-core x86 machine
# (nmf-desk about seven, its power-iteration cost being the most uneven
# between instances), so a run of 25 seconds repeats every solve two to five
# times; short solves over many instances keep the figures steady from seed
# to seed.  Each target is crossed well inside the solve, after the first
# sweep (which has no inertia) -- median crossing sweeps over ten seeds:
# nmf-desk 4.7 of 10, convlasso-bt 2.6 of 5, bid-bt 4.7 of 10, bid-cli-exact
# 2.6 of 8.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nmf-desk", bank=1000, iters=10, target=0.3, setup=setup_nmf,
                 per_instance=2),
        Workload("convlasso-bt", bank=60, iters=5, target=0.82, setup=setup_convlasso,
                 per_instance=2),
        Workload("bid-bt", bank=60, iters=10, target=0.35, setup=setup_bid),
        Workload("bid-cli-exact", bank=100, iters=8, target=0.8, setup=setup_bid_cli),
    )
}
