"""Property tests: the NMF oracles that write in place or reduce are, bit for
bit, the gather-and-scatter and elementwise forms in `oracles`.

``prox_l0_nonneg_cols`` is compared over ties at the cutoff, exact zeros of
both signs and negative entries, for every sparsity level ``s`` in ``0..m``,
and must leave its argument unchanged; the NMF feasibility test is compared
with NaN and infinite entries as well, and on factors of rank 0."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from oracles import nmf_feasible_ref, prox_l0_nonneg_cols_ref  # noqa: E402

from ipalm.nmf import _feasible  # noqa: E402
from ipalm.prox import prox_l0_nonneg_cols  # noqa: E402

# a few repeated values make ties at the cutoff and exact zeros common
REPEATED = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0])
REAL = st.one_of(REPEATED, st.floats(-1e3, 1e3, allow_nan=False))
ANY = st.one_of(REAL, st.sampled_from([np.nan, np.inf, -np.inf]))


def matrices(elements, rows=st.integers(1, 8), cols=st.integers(1, 6)):
    return hnp.arrays(np.float64, st.tuples(rows, cols), elements=elements)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(P=matrices(REAL))
def test_in_place_projection_is_the_gather_and_scatter_one(P):
    before = P.tobytes()
    for s in range(P.shape[0] + 1):
        got = prox_l0_nonneg_cols(P, s)
        want = prox_l0_nonneg_cols_ref(P, s)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert P.tobytes() == before


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(data=st.data(), m=st.integers(1, 8), r=st.integers(0, 4), n=st.integers(1, 6))
def test_feasibility_test_is_the_elementwise_one(data, m, r, n):
    B = data.draw(matrices(ANY, st.just(m), st.just(r)))
    C = data.draw(matrices(ANY, st.just(r), st.just(n)))
    before = B.tobytes(), C.tobytes()
    for s in range(m + 1):
        assert _feasible(B, C, s) == nmf_feasible_ref(B, C, s)
    assert (B.tobytes(), C.tobytes()) == before
