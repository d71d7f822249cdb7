"""The benchmark's own tests: traced counts repeat exactly.

Kept out of the package's test suite on purpose (the file name does not
match ``test_*.py``); run them explicitly from the repository root:

    python3 -m pytest -q benchmarks/check_determinism.py
"""

import dataclasses

import pytest

from run import run_pass
from tracing import Tracer
from workloads import WORKLOADS


def traced_run(workload, seed, tmp_path, name):
    tracer = Tracer()
    p = run_pass(workload, seed, str(tmp_path / name), tracer)
    assert all(s.ok for s in p.solves), [s.problems for s in p.solves]
    # the traced sweep count agrees with the solver's own trace
    assert tracer.calls["solver.iterate"] == sum(s.sweeps for s in p.solves)
    f_rel = [s.FK / s.F0 for s in p.solves]
    return tracer, f_rel


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_agree(name, tmp_path):
    """Same seed, two traced runs: identical call and round counts, and
    bitwise-identical F_K / F_0 for every solve."""
    w = dataclasses.replace(WORKLOADS[name], bank=2, iters=5)
    t1, rel1 = traced_run(w, 3, tmp_path, "a")
    t2, rel2 = traced_run(w, 3, tmp_path, "b")
    assert dict(t1.calls) == dict(t2.calls)
    assert dict(t1.extra) == dict(t2.extra)
    assert rel1 == rel2


def test_bid_criterion_9_smooth_evaluation_count(tmp_path):
    """Criterion 9's run (instance seed 1, 2000 sweeps) makes 14,042 smooth
    evaluations: 14,041 in the solve loop -- h at the base point of each of
    the 4,000 backtracking calls, the 8,041 tested candidates and the 2,000
    end-of-sweep objectives -- plus the evaluation of F_0 when the state is
    made."""
    w = dataclasses.replace(WORKLOADS["bid-bt"], bank=1, iters=2000)
    assert list(w.instance_seeds(1)) == [1]
    tracer, _ = traced_run(w, 1, tmp_path, "c9")
    assert tracer.calls["bid.eval_F"] == 2001
    assert tracer.calls["bid.eval_H"] == 12041
    assert tracer.calls["lipschitz.backtrack"] == 4000
    assert tracer.extra["lipschitz.backtrack"] == 8041
    # every backtracking call evaluates h once at its base point and once per
    # tested modulus
    assert tracer.calls["bid.eval_H"] == 4000 + tracer.extra["lipschitz.backtrack"]
