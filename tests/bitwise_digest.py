"""Digests of the solver's exact output, for checking that a change leaves
every iterate bitwise the same.

    PYTHONPATH=src python tests/bitwise_digest.py [--workload W ...] [--seed S ...]

prints one line per workload and seed: the workload, the seed, the number of
solves and a sha256.  Run it in two checkouts and compare the lines.

The workloads are the benchmark's (``benchmarks/workloads.py``), run untraced,
one solve after another, and acceptance criteria 8 and 9 (their runs as
``tests/test_acceptance.py`` sets them up; the seed does not apply).  A digest
covers ``oracles.row_bits`` of every trace row and the bytes of every final
block of every run, and every file the runs write (bid-cli-exact's instances
and outputs), with the wall-clock columns ``seconds`` and ``time_s`` of its
CSV files dropped.  A solve that raises stops the script.
"""

import argparse
import csv
import functools
import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "benchmarks")]

import ipalm.solver as solver  # noqa: E402
from ipalm.bid import BidParams, init_bid, make_bid_problem  # noqa: E402
from ipalm.config import RunConfig, block_kinds  # noqa: E402
from ipalm.convlasso import init_convlasso, make_convlasso_problem  # noqa: E402
from ipalm.nmf import init_nmf, make_nmf_problem  # noqa: E402
from ipalm.synthetic import synth_bid, synth_convlasso, synth_nmf  # noqa: E402
from oracles import row_bits  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

CLOCK_COLUMNS = ("seconds", "time_s")


def criterion_8(seed, workdir, sweeps=1000):
    """The 20 runs of criterion 8: both schedules on five NMF (exact moduli)
    and five convlasso (backtracking) desk instances, 1,000 sweeps each (the
    first ``sweeps`` of them)."""
    for s in range(5):
        A = synth_nmf(seed=s)["A"]
        problem, x0 = make_nmf_problem(A, r=3, s=2), init_nmf(A, r=3, s=2, seed=s)
        for schedule in ("static-c", "dynamic"):
            solver.run(problem, x0, RunConfig(schedule=schedule, iters=sweeps, tol=0.0,
                                              backtrack=False))
    for s in range(5):
        f = synth_convlasso(seed=s)["f"]
        problem = make_convlasso_problem(f, p=8, l=5, lam=0.05)
        x0 = init_convlasso(f, p=8, l=5, seed=s)
        for schedule in ("static-c", "dynamic"):
            solver.run(problem, x0, RunConfig(schedule=schedule, iters=sweeps, tol=0.0))


def criterion_9(seed, workdir, sweeps=2000):
    """Criterion 9's 2,000 backtracking sweeps of blind deconvolution (the
    first ``sweeps`` of them)."""
    inst = synth_bid(size=64, kernel=7, seed=1)
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(7, 7), kernel_step_scale=5.0)
    problem = make_bid_problem(inst["f"], params)
    x0 = init_bid(inst["f"], params)
    cfg = RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4)
    state = solver.make_state(problem, x0, block_kinds(problem, cfg), backtracking=True,
                              step_scale=(1.0, params.kernel_step_scale))
    solver.run_state(state, problem, sweeps, 0.0)


def workload(name):
    def runs(seed, workdir):
        for job in WORKLOADS[name].jobs(Context(seed, workdir)):
            job.solve()

    return runs


RUNS = {**{name: workload(name) for name in WORKLOADS},
        "criterion-8": criterion_8, "criterion-9": criterion_9}


def _file_bytes(path):
    if not path.endswith(".csv"):
        with open(path, "rb") as fh:
            return fh.read()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name not in CLOCK_COLUMNS]
    return "\n".join(",".join(r[j] for j in keep) for r in rows).encode()


def sha256_of(runs):
    """(number of solves, sha256) of the solves that ``runs(workdir)`` makes
    and of the files it writes under ``workdir``."""
    states = []
    run_state = solver.run_state

    def recording(state, *args):
        states.append(state)
        return run_state(state, *args)

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        solver.run_state = recording  # `solver.run` and the workloads call it by this name
        try:
            runs(workdir)
        finally:
            solver.run_state = run_state
        for state in states:
            for row in state.trace.rows:
                h.update(repr(row_bits(row)).encode())
            for block in state.x_cur:
                h.update(repr(block.shape).encode() + block.tobytes())
        for root, _, files in sorted(os.walk(workdir)):
            for fname in sorted(files):
                path = os.path.join(root, fname)
                h.update(os.path.relpath(path, workdir).encode() + _file_bytes(path))
    return len(states), h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(RUNS), default=list(RUNS))
    parser.add_argument("--seed", nargs="+", type=int, default=[1])
    args = parser.parse_args(argv)
    for name in args.workload:
        for seed in args.seed if name in WORKLOADS else ["-"]:
            solves, sha = sha256_of(functools.partial(RUNS[name], seed))
            print(f"{name} {seed} {solves} {sha}", flush=True)


if __name__ == "__main__":
    main()
