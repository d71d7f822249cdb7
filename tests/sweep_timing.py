"""Solve time per sweep of the benchmark's workloads, for comparing checkouts.

    PYTHONPATH=src python tests/sweep_timing.py [--workload W ...] [--instances N]
                                                [--repeats R]

prints one line per workload: the workload, the number of solves, and the
best of ``R`` (default 7) passes' solve time in microseconds per sweep.  A pass
builds the solves of the first ``N`` (default 150) instances of the
workload's seed-1 bank with ``benchmarks/workloads.py``'s set-ups, as
``tests/bitwise_digest.py`` does, and times only the solves, untraced; set-up
and the checks of the results stay outside the clock.  Run it in two
checkouts, in turns, and compare the lines.
"""

import argparse
import gc
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))

from workloads import WORKLOADS, Context  # noqa: E402


def sweep_us(name, instances, repeats):
    """(number of solves, best of ``repeats`` passes' µs per sweep)."""
    w = WORKLOADS[name]
    best = float("inf")
    with tempfile.TemporaryDirectory() as workdir:
        for r in range(repeats):
            ctx = Context(1, os.path.join(workdir, str(r)))
            jobs = [job for s in w.instance_seeds(1)[:instances] for job in w.setup(w, ctx, s)]
            gc.collect()
            start = time.perf_counter()
            for job in jobs:
                job.solve()
            best = min(best, time.perf_counter() - start)
    return len(jobs), best / (len(jobs) * w.iters) * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=["nmf-desk"])
    parser.add_argument("--instances", type=int, default=150)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    for name in args.workload:
        solves, us = sweep_us(name, args.instances, args.repeats)
        print(f"{name} {solves} {us:.1f}", flush=True)


if __name__ == "__main__":
    main()
