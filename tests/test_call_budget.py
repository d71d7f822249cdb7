"""Per-sweep call budgets: how many calls into package code, and how many
``np.fft`` transforms, one sweep makes.

The counts are deterministic (fixed instances, fixed sweep index), so they
pin the solver's Python overhead where wall time on a small instance is too
noisy to resolve.  Re-pin rule, the same one criterion 9's oracle counts
follow: a change that lowers a count lowers its budget to the new count, and
a change that has to raise one raises its budget; either way it records the
old and new count and the reason in CHANGES.md.  A budget never moves
silently.
"""

import cProfile
import os
import pstats

import pytest

import ipalm
from ipalm.bid import BidParams, init_bid, make_bid_problem
from ipalm.config import RunConfig, block_kinds
from ipalm.convlasso import init_convlasso, make_convlasso_problem
from ipalm.nmf import init_nmf, make_nmf_problem
from ipalm.solver import ipalm_iterate, make_state
from ipalm.synthetic import synth_bid, synth_convlasso, synth_nmf

PACKAGE_DIR = os.path.dirname(os.path.abspath(ipalm.__file__)) + os.sep

NMF_DESK_EXACT = 24
NMF_DESK_DYNAMIC = 23
BID_BACKTRACKING = 106
BID_EXACT = 92
CONVLASSO_BACKTRACKING = 54
CONVLASSO_DYNAMIC = 56

# np.fft calls per warm sweep on each transforming instance: the image-side
# gradient's one inverse transform.  Kernel spectra and kernel-side
# gradients are DFT-factor products, and the image spectra come from a memo
# whose transforms the count does not see.
TRANSFORMS_PER_SWEEP = 1


def warm(state, problem):
    """Two sweeps that fill the memos and warm the moduli."""
    for _ in range(2):
        ipalm_iterate(state, problem)


def package_calls_per_sweep(state, problem) -> int:
    """Calls into functions defined under the package directory during one
    warm sweep."""
    warm(state, problem)
    profiler = cProfile.Profile()
    profiler.enable()
    ipalm_iterate(state, problem)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    return sum(
        ncalls
        for (filename, _, _), (_, ncalls, _, _, _) in stats.items()
        if os.path.abspath(filename).startswith(PACKAGE_DIR)
    )


def nmf_desk(schedule: str = "static-c"):
    # the nmf-desk benchmark instance: 20x30, r=3, s=2, exact moduli; plain
    # PALM under static-c, and the dynamic schedule that half its solves run
    A = synth_nmf(m=20, n=30, r=3, s=2, seed=1)["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    kinds = block_kinds(problem, RunConfig(schedule=schedule))
    return make_state(problem, init_nmf(A, r=3, s=2, seed=1), kinds), problem


def bid_instance(backtracking: bool):
    # the bid-bt benchmark instance: 64x64 image, 7x7 kernel, static-c with
    # alpha=beta=0.4, kernel step scale 5; with closed-form moduli, the path
    # bid-cli-exact runs
    params = BidParams(lam=1e6, theta=1e4, kernel_shape=(7, 7), kernel_step_scale=5.0)
    f = synth_bid(size=64, kernel=7, seed=1)["f"]
    problem = make_bid_problem(f, params)
    kinds = block_kinds(problem, RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4))
    state = make_state(
        problem, init_bid(f, params), kinds,
        backtracking=backtracking, step_scale=(1.0, params.kernel_step_scale),
    )
    return state, problem


def convlasso_instance(schedule: str = "static-c"):
    # the convlasso-bt benchmark instance: 32x32 image, p=8, l=5, lambda=0.05,
    # backtracking; plain PALM under static-c
    f = synth_convlasso(size=32, seed=1)["f"]
    problem = make_convlasso_problem(f, p=8, l=5, lam=0.05)
    kinds = block_kinds(problem, RunConfig(schedule=schedule))
    state = make_state(problem, init_convlasso(f, p=8, l=5, seed=1), kinds, backtracking=True)
    return state, problem


def test_nmf_desk_exact_sweep_stays_within_its_call_budget():
    assert package_calls_per_sweep(*nmf_desk()) <= NMF_DESK_EXACT


def test_nmf_desk_dynamic_sweep_stays_within_its_call_budget():
    assert package_calls_per_sweep(*nmf_desk("dynamic")) <= NMF_DESK_DYNAMIC


def test_bid_backtracking_sweep_stays_within_its_call_budget():
    assert package_calls_per_sweep(*bid_instance(backtracking=True)) <= BID_BACKTRACKING


def test_bid_exact_sweep_stays_within_its_call_budget():
    assert package_calls_per_sweep(*bid_instance(backtracking=False)) <= BID_EXACT


def test_convlasso_backtracking_sweep_stays_within_its_call_budget():
    assert package_calls_per_sweep(*convlasso_instance()) <= CONVLASSO_BACKTRACKING


def test_convlasso_dynamic_sweep_stays_within_its_call_budget():
    # the dynamic schedule's sweeps form extrapolated points; plain PALM's
    # extrapolation returns each block itself
    assert package_calls_per_sweep(*convlasso_instance("dynamic")) <= CONVLASSO_DYNAMIC


@pytest.mark.parametrize("make", [
    lambda: bid_instance(backtracking=True),
    lambda: bid_instance(backtracking=False),
    convlasso_instance,
    lambda: convlasso_instance("dynamic"),
], ids=["bid-bt", "bid-exact", "convlasso-bt", "convlasso-dynamic"])
def test_warm_sweep_stays_within_its_transform_budget(make, transforms):
    state, problem = make()
    warm(state, problem)
    transforms.clear()
    ipalm_iterate(state, problem)
    assert len(transforms) <= TRANSFORMS_PER_SWEEP
