"""Differential test: `ipalm.solver` against ``oracles.ipalm_ref``, the sweep
written plainly, on random block quadratic problems.

A problem has 1-4 vector blocks coupled by ``H(x) = 0.5*||sum_i A_i x_i - b||^2``,
each with an l1, [0, 1] box, nonnegativity or l0 term.  A run draws each
block's schedule kind (static, convex or not, with ``eps``; or dynamic) and
step scale, a pinned or per-sweep ``delta``, exact or backtracking moduli,
the sweep budget and ``tol``.  Every field of every trace row but
``seconds`` -- ``k``, ``F``, ``Psi``, ``delta``, ``L``, ``tau``, ``alpha``,
``beta``, ``block_deltas`` and ``step_norm`` -- must equal the reference's
bit for bit and in type, and so must every final block.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import ipalm_ref, row_bits  # noqa: E402

from ipalm.blockmodel import BlockVector, ProblemSpec  # noqa: E402
from ipalm.lipschitz import spectral_norm  # noqa: E402
from ipalm.prox import prox_box01, prox_l1, prox_nonneg  # noqa: E402
from ipalm.schedules import Dynamic, Static  # noqa: E402
from ipalm.solver import make_state, run_state  # noqa: E402

LAM = 0.1

# each term: (convex, value, prox)
TERMS = {
    "l1": (True, lambda x: LAM * float(np.abs(x).sum()), lambda t, p: prox_l1(p, LAM / t)),
    "box": (True, lambda x: 0.0 if ((x >= 0) & (x <= 1)).all() else np.inf,
            lambda t, p: prox_box01(p)),
    "nonneg": (True, lambda x: 0.0 if (x >= 0).all() else np.inf, lambda t, p: prox_nonneg(p)),
    "l0": (False, lambda x: LAM * float(np.count_nonzero(x)),
           lambda t, p: np.where(p * p > 2.0 * LAM / t, p, 0.0)),
}


def quadratic_problem(A, b, terms):
    """``0.5*||sum_i A_i x_i - b||^2`` plus one term per block."""

    def residual(x):
        return sum(Ai @ xi for Ai, xi in zip(A, x)) - b

    def eval_H(x, above=None):
        r = residual(x)
        return 0.5 * float(np.vdot(r, r))

    def partial_grad(i, x, value=False):
        r = residual(x)
        g = A[i].T @ r
        return (g, 0.5 * float(np.vdot(r, r))) if value else g

    return ProblemSpec(
        eval_F=lambda x: eval_H(x) + sum(TERMS[t][1](xi) for t, xi in zip(terms, x)),
        eval_H=eval_H,
        partial_grad=partial_grad,
        prox=lambda i, t, p: TERMS[terms[i]][2](t, p),
        convex=tuple(TERMS[t][0] for t in terms),
        lipschitz=lambda i, x: spectral_norm(A[i].T @ A[i]),
        name="quadratic",
    )


@st.composite
def kinds_of(draw, nb):
    kinds = []
    for _ in range(nb):
        if draw(st.integers(0, 3)) == 0:
            kinds.append(Dynamic())
            continue
        convex = draw(st.booleans())
        eps = draw(st.sampled_from([0.0, 0.05, 0.3]))
        bound = (2.0 if convex else 1.0) * (1.0 - eps) / 2.0
        alpha_bar = bound * draw(st.sampled_from([0.0, 0.3, 0.6, 0.95]))
        beta_bar = draw(st.sampled_from([0.0, alpha_bar, 0.25, 1.0]))
        kinds.append(Static(alpha_bar, beta_bar, eps, convex=convex))
    return tuple(kinds)


@st.composite
def runs(draw):
    nb = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [draw(st.integers(1, 4)) for _ in range(nb)]
    A = [rng.standard_normal((5, n)) * draw(st.sampled_from([0.1, 1.0, 10.0])) for n in sizes]
    x0 = BlockVector([rng.uniform(0.0, 1.0, n) for n in sizes])
    terms = [draw(st.sampled_from(sorted(TERMS))) for _ in range(nb)]
    kinds = draw(kinds_of(nb))
    static = not any(isinstance(kd, Dynamic) for kd in kinds)
    pinned = static and draw(st.booleans())
    return dict(
        problem=quadratic_problem(A, rng.standard_normal(5), terms),
        x0=x0,
        kinds=kinds,
        backtracking=draw(st.booleans()),
        step_scale=tuple(draw(st.sampled_from([1.0, 1.5, 5.0])) for _ in range(nb)),
        constant_delta=tuple(draw(st.floats(0.0, 10.0)) for _ in range(nb)) if pinned else None,
        iters=draw(st.integers(1, 4)),
        tol=draw(st.sampled_from([0.0, 1e-3, 0.3])),
    )


@settings(max_examples=150, deadline=None, database=None, print_blob=True)
@given(run=runs())
def test_the_solver_matches_the_plain_reference_sweep_bitwise(run):
    problem, x0, kinds, iters, tol = (run.pop(key) for key in
                                      ("problem", "x0", "kinds", "iters", "tol"))
    state = make_state(problem, x0, kinds, **run)
    run_state(state, problem, iters, tol)
    rows, final = ipalm_ref(problem, x0, kinds, iters, tol=tol, **run)
    assert [row_bits(r) for r in state.trace.rows] == rows
    assert [b.tobytes() for b in state.x_cur] == [b.tobytes() for b in final]
