"""Property tests: the `ProblemSpec` shape contract as the solver enforces it.

A draw is a quadratic problem ``H(x) = 0.5*||sum_i A_i vec(x_i) - b||^2``
with 1-4 blocks of random shapes (1-3 axes), each with a nonnegativity or l1
term, and every oracle call logged.  Three checks:

* a prox that returns a wrong shape at a drawn block and sweep raises
  `ShapeMismatchError` naming the problem, the block and the iteration, with
  exact moduli and with backtracking; that prox call is the last oracle call,
  and the trace and the iterate stay those of the sweep before;
* `make_state` rejects an ``x0`` with one block too many or too few;
* `make_state` rejects a ``kinds``, ``step_scale`` or ``constant_delta``
  tuple of the wrong length;

the last two before any oracle call, ``eval_F`` included.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from ipalm.blockmodel import BlockVector, ProblemSpec, ShapeMismatchError  # noqa: E402
from ipalm.lipschitz import spectral_norm  # noqa: E402
from ipalm.prox import prox_l1, prox_nonneg  # noqa: E402
from ipalm.schedules import Dynamic, Static  # noqa: E402
from ipalm.solver import ipalm_iterate, make_state  # noqa: E402

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3)

# a prox output of the wrong shape: one axis more, one entry more, one fewer
WRONG = {
    "extra axis": lambda q: q[..., None],
    "extra entry": lambda q: np.append(q, 0.0),
    "missing entry": lambda q: q.ravel()[:-1],
}


def logged_quadratic(A, b, shapes, l1, log, name):
    """The quadratic problem; each oracle call appends its name to ``log``."""

    def residual(x):
        return sum(Ai @ xi.ravel() for Ai, xi in zip(A, x)) - b

    def eval_H(x, above=None):
        log.append("eval_H")
        r = residual(x)
        return 0.5 * float(np.vdot(r, r))

    def eval_F(x):
        log.append("eval_F")
        r = residual(x)
        return 0.5 * float(np.vdot(r, r)) + sum(
            0.1 * float(np.abs(xi).sum()) if is_l1 else (0.0 if (xi >= 0).all() else math.inf)
            for xi, is_l1 in zip(x, l1))

    def partial_grad(i, x, value=False):
        log.append("partial_grad")
        r = residual(x)
        g = (A[i].T @ r).reshape(shapes[i])
        return (g, 0.5 * float(np.vdot(r, r))) if value else g

    def prox(i, t, p):
        log.append("prox")
        return prox_l1(p, 0.1 / t) if l1[i] else prox_nonneg(p)

    def lipschitz(i, x):
        log.append("lipschitz")
        return spectral_norm(A[i].T @ A[i])

    return ProblemSpec(eval_F=eval_F, eval_H=eval_H, partial_grad=partial_grad, prox=prox,
                       convex=(True,) * len(shapes), lipschitz=lipschitz, name=name)


@st.composite
def problems(draw):
    """A logged problem, its oracle log, a feasible ``x0`` and static kinds."""
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=4))
    nb = len(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = [rng.standard_normal((5, int(np.prod(s)))) for s in shapes]
    l1 = draw(st.lists(st.booleans(), min_size=nb, max_size=nb))
    log = []
    problem = logged_quadratic(A, rng.standard_normal(5), shapes, l1, log, f"quadratic-{nb}")
    x0 = BlockVector([rng.uniform(0.0, 1.0, s) for s in shapes])
    kinds = tuple(Static(0.3 * draw(st.floats(0.0, 1.0)), 0.2) for _ in shapes)
    return problem, log, x0, kinds


@settings(max_examples=100, deadline=None, database=None)
@given(drawn=problems(), data=st.data(), backtracking=st.booleans(),
       wrong=st.sampled_from(sorted(WRONG)))
def test_a_wrong_shape_prox_output_stops_the_run_at_its_block_and_sweep(
        drawn, data, backtracking, wrong):
    problem, log, x0, _ = drawn
    nb = problem.num_blocks
    bad = data.draw(st.integers(0, nb - 1))
    k_bad = data.draw(st.integers(1, 3))
    kinds = data.draw(st.sampled_from([Dynamic(), Static(0.2, 0.3)]))
    armed = []
    good_prox = problem.prox

    def prox(i, t, p):
        out = good_prox(i, t, p)
        if armed and i == bad:
            log.append("bad prox")
            return WRONG[wrong](out)
        return out

    problem = dataclasses.replace(problem, prox=prox)
    state = make_state(problem, x0, kinds, backtracking=backtracking)
    for _ in range(k_bad - 1):
        ipalm_iterate(state, problem)
    before = [b.tobytes() for b in state.x_cur]
    armed.append(True)
    message = f"{problem.name}: the prox of block {bad} at iteration {k_bad} returned"
    with pytest.raises(ShapeMismatchError, match=re.escape(message)):
        ipalm_iterate(state, problem)
    assert log[-1] == "bad prox" and log.count("bad prox") == 1
    assert [r.k for r in state.trace.rows] == list(range(k_bad))
    assert [b.tobytes() for b in state.x_cur] == before


@settings(max_examples=100, deadline=None, database=None)
@given(drawn=problems(), data=st.data())
def test_make_state_rejects_an_x0_with_the_wrong_block_count_before_any_oracle(
        drawn, data):
    problem, log, x0, kinds = drawn
    nb = problem.num_blocks
    extra = np.zeros(data.draw(SHAPES))
    # a one-block problem's x0 loses its only block: the message still names
    # the problem
    for wrong in (BlockVector([*x0, extra]), x0[:-1]):
        message = f"{problem.name}: x0 has {len(wrong)} blocks, the problem {nb}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_state(problem, wrong, kinds)
    assert log == []


@settings(max_examples=100, deadline=None, database=None)
@given(drawn=problems(), data=st.data(), field=st.sampled_from(
    ["kinds", "step_scale", "constant_delta"]))
def test_make_state_rejects_a_per_block_tuple_of_the_wrong_length_before_any_oracle(
        drawn, data, field):
    problem, log, x0, kinds = drawn
    nb = problem.num_blocks
    length = data.draw(st.sampled_from([0, nb - 1, nb + 1, nb + 3]).filter(lambda n: n != nb))
    entry = {"kinds": kinds[0], "step_scale": 1.5, "constant_delta": 0.5}[field]
    options = {"kinds": kinds, field: (entry,) * length}
    message = f"{problem.name}: {field} needs one entry per block ({nb})"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_state(problem, x0, **options)
    assert log == []
