"""The benchmark's tracer against the package it instruments.

``benchmarks/tracing.py`` patches module-level names of the package and wraps
the ``ProblemSpec`` oracles.  A renamed or removed name would break every
traced benchmark run, so these tests enter the tracer's context and drive a
short solve of each problem through it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import tracing  # noqa: E402
from tracing import Tracer, instrument_modules, instrument_problem  # noqa: E402

import ipalm.solver  # noqa: E402
from ipalm import bid, convlasso, nmf, synthetic  # noqa: E402
from ipalm.config import RunConfig, block_kinds  # noqa: E402


def test_instrument_modules_patches_and_restores_every_name():
    tracer = Tracer()
    names = [(owner, attr) for owner, attr, _ in tracing._patches(tracer)]
    originals = [owner.__dict__[attr] for owner, attr in names]
    with instrument_modules(tracer):
        for (owner, attr), original in zip(names, originals):
            assert owner.__dict__[attr] is not original, attr
    for (owner, attr), original in zip(names, originals):
        assert owner.__dict__[attr] is original, attr


def nmf_case():
    A = synthetic.synth_nmf(seed=0)["A"]
    return nmf.make_nmf_problem(A, r=3, s=2), nmf.init_nmf(A, r=3, s=2, seed=0), False


def bid_case():
    f = synthetic.synth_bid(size=16, kernel=3, seed=0)["f"]
    params = bid.BidParams(kernel_shape=(3, 3))
    return bid.make_bid_problem(f, params), bid.init_bid(f, params), False


def convlasso_case():
    f = synthetic.synth_convlasso(size=12, seed=0)["f"]
    problem = convlasso.make_convlasso_problem(f, p=3, l=3, lam=0.05)
    return problem, convlasso.init_convlasso(f, p=3, l=3, seed=0), True


# the layer each problem's moduli are counted under, and its calls in two
# sweeps: one per block and sweep, but BID's image block has a closed-form
# bound and calls no norm
CASES = {
    "nmf": (nmf_case, "lipschitz.spectral_norm", 4),
    "bid": (bid_case, "lipschitz.operator_norm", 2),
    "convlasso": (convlasso_case, "lipschitz.backtrack", 4),
}


@pytest.mark.parametrize("prefix", sorted(CASES))
def test_traced_two_sweep_solve_counts_each_layer(prefix):
    make_case, modulus_layer, modulus_calls = CASES[prefix]
    raw, x0, backtracking = make_case()
    tracer = Tracer()
    problem = instrument_problem(raw, tracer, prefix)
    state = ipalm.solver.make_state(
        problem, x0, block_kinds(problem, RunConfig()), backtracking=backtracking
    )
    with instrument_modules(tracer):
        ipalm.solver.run_state(state, problem, 2, 0.0)
    assert np.isfinite(state.trace.rows[-1].F)
    assert tracer.calls["solver.run"] == 1
    assert tracer.calls["solver.iterate"] == 2
    assert tracer.calls[f"{prefix}.grad"] == 4
    assert tracer.calls["prox"] >= 4
    assert tracer.calls[modulus_layer] == modulus_calls


def test_backtracking_bid_call_pattern_matches_the_pinned_counts():
    """The call pattern `benchmarks/check_determinism.py` pins for criterion
    9, on a short solve: every backtracking call evaluates h once per tested
    modulus (its base-point value comes with the gradient, one per call),
    and the objective is evaluated once per sweep plus once for F_0."""
    f = synthetic.synth_bid(size=16, kernel=3, seed=1)["f"]
    params = bid.BidParams(kernel_shape=(3, 3))
    tracer = Tracer()
    problem = instrument_problem(bid.make_bid_problem(f, params), tracer, "bid")
    cfg = RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4)
    with instrument_modules(tracer):
        state = ipalm.solver.make_state(
            problem, bid.init_bid(f, params), block_kinds(problem, cfg),
            backtracking=True, step_scale=(1.0, 5.0),
        )
        ipalm.solver.run_state(state, problem, 6, 0.0)
    sweeps = tracer.calls["solver.iterate"]
    assert sweeps == 6
    assert tracer.calls["lipschitz.backtrack"] == 2 * sweeps
    assert tracer.calls["bid.eval_H"] == tracer.extra["lipschitz.backtrack"]
    assert tracer.calls["bid.grad"] == tracer.calls["lipschitz.backtrack"]
    assert tracer.calls["bid.eval_F"] == sweeps + 1
    assert tracer.calls["lipschitz.modulus"] == 0
