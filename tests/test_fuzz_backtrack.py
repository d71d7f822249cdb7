"""Property test: ``backtrack_L`` over chained calls, each call's start level
the last call's fourth return value, as the solver chains a block's line
searches.

On ``h = 0.5 q'Qq`` with a random PSD ``Q`` and candidates projected onto
``q >= 0`` (so each step sees its own curvature, at most the top eigenvalue
of ``Q``), from a first start below twice the true modulus: every accepted
modulus stays at most ``GROWTH`` times the true one, and each call starts at
the last accepted level or one shrink below it, so the estimate falls by at
most one shrink per call.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from ipalm.lipschitz import GROWTH, MODULUS_FLOOR, SHRINK, backtrack_L  # noqa: E402


def chained_searches(Q, points, L_start):
    """``backtrack_L`` at each base point in turn: the accepted moduli and
    the tested lists."""

    def h(q, above=None):
        return 0.5 * float(q @ Q @ q)

    accepted, tested_lists = [], []
    for x in points:
        def cand(L, x=x):
            return np.maximum(x - Q @ x / L, 0.0)

        L, _, tested, L_start = backtrack_L(h, h(x), Q @ x, x, cand, L_start)
        accepted.append(L)
        tested_lists.append(tested)
    return accepted, tested_lists


@settings(max_examples=200, deadline=None, database=None, print_blob=True)
@given(data=st.data(), n=st.integers(1, 5), calls=st.integers(2, 8),
       scale=st.floats(-3.0, 3.0), start=st.floats(-8.0, 0.3))
def test_chained_searches_stay_within_growth_and_fall_by_at_most_one_shrink(
        data, n, calls, scale, start):
    X = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    Q = X @ X.T * 10.0**scale + np.eye(n) * 1e-3
    L_true = float(np.linalg.eigvalsh(Q)[-1])
    points = [data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
              for _ in range(calls)]
    # the first call starts at L_true * 10**start, below twice the true modulus
    accepted, tested = chained_searches(Q, points, L_true * 10.0**start)
    for k, (L, t) in enumerate(zip(accepted, tested)):
        assert L == t[-1] <= GROWTH * L_true * (1.0 + 1e-12)
        if k:
            assert t[0] in (accepted[k - 1], max(SHRINK * accepted[k - 1], MODULUS_FLOOR))
            assert L >= SHRINK * accepted[k - 1]
