"""Property test: ``prox_filter_constraint`` on a whole filter stack is, bit
for bit, the one-filter projection applied filter by filter; its output is
feasible and a fixed point."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import filter_projection_ref  # noqa: E402

from ipalm.prox import prox_filter_constraint  # noqa: E402


def filter_of_kind(rng, kind: str, side: int, scale: float) -> np.ndarray:
    """A random filter with an offset, a zero or constant filter, or a
    zero-mean filter already inside the unit ball."""
    if kind == "random":
        return scale * rng.standard_normal((side, side)) + rng.uniform(-10, 10)
    if kind == "zero":
        return np.zeros((side, side))
    if kind == "constant":
        return np.full((side, side), scale * rng.uniform(-1, 1))
    inside = rng.standard_normal((side, side))
    inside -= inside.mean()
    return rng.uniform(0, 1) * inside / np.linalg.norm(inside)


@settings(max_examples=200, deadline=None, database=None)
@given(
    kinds=st.lists(st.sampled_from(["random", "zero", "constant", "inside"]),
                   min_size=1, max_size=64),
    side=st.sampled_from([3, 5, 7, 9, 11]),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_projection_is_the_per_filter_projection(kinds, side, scale, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([filter_of_kind(rng, kind, side, scale) for kind in kinds])
    once = prox_filter_constraint(stack)
    assert np.array_equal(once, filter_projection_ref(stack))
    assert np.abs(once.mean(axis=(1, 2))).max() <= 1e-12
    assert np.sqrt((once**2).sum(axis=(1, 2))).max() <= 1.0 + 1e-12
    # a second pass only removes the rounding left in the mean and the norm
    assert np.abs(prox_filter_constraint(once) - once).max() <= 1e-12
