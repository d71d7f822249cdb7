"""Property tests: the convex proximal maps of `ipalm.prox` on arbitrary
inputs.

``prox_box01``, ``prox_nonneg`` and ``prox_simplex`` must land in their sets,
keep shape and dtype, and be idempotent; ``prox_l1`` must shrink each entry
towards zero by its threshold, and thresholding twice must be thresholding
once by the sum.  All four must satisfy the prox optimality inequality
``sigma(u) >= sigma(q) + t*<p - q, u - q>`` for ``q = prox(t, p)`` and every
``u``: for a projection, ``<p - q, u - q> <= 0`` over the set.  Inputs span
several magnitudes, repeated values and signed zeros, in 1-3 dimensions.
The tolerances are rounding bounds set from the float64 unit roundoff and
the input's size and magnitude, not fitted to the operators.

Some maps and ``blockmodel.extrapolate`` form their results in place, in a
buffer of their own: every map must leave its argument's bytes alone and
return an array that shares no memory with it, and ``extrapolate`` too,
except at a zero coefficient, where it returns the block itself.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import ipalm.prox  # noqa: E402
from ipalm.blockmodel import BlockVector, extrapolate  # noqa: E402
from ipalm.prox import (  # noqa: E402
    prox_box01,
    prox_filter_constraint,
    prox_l0_nonneg_cols,
    prox_l1,
    prox_nonneg,
    prox_simplex,
)

EPS = np.finfo(np.float64).eps

REPEATED = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0])
REAL = st.one_of(REPEATED, st.floats(-1e3, 1e3, allow_nan=False))
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5)
# every map takes a matrix; a filter needs at least two entries
MATRICES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=5)
POSITIVE = st.floats(1e-3, 1e3)


def arrays(shape=SHAPES):
    return hnp.arrays(np.float64, shape, elements=REAL)


def rounding(*arrays_) -> float:
    """A rounding bound for sums over arrays of this size and magnitude."""
    size = arrays_[0].size
    scale = 1.0 + max(float(np.abs(a).max()) for a in arrays_)
    return 8.0 * size * EPS * scale * scale


def simplex_point(u: np.ndarray) -> np.ndarray:
    """A point of the unit simplex from any array of the same shape."""
    w = np.abs(u)
    total = float(w.sum())
    if total == 0.0:
        w = np.zeros_like(u)
        w.flat[0] = 1.0
        return w
    return w / total


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(p=arrays())
def test_projections_land_in_their_sets_and_are_idempotent(p):
    before = p.tobytes()
    box, nonneg, simplex = prox_box01(p), prox_nonneg(p), prox_simplex(p)
    for q in (box, nonneg, simplex):
        assert q.shape == p.shape and q.dtype == np.float64
    assert ((box >= 0.0) & (box <= 1.0)).all()
    assert (nonneg >= 0.0).all()
    assert (simplex >= 0.0).all()
    assert abs(float(simplex.sum()) - 1.0) <= rounding(p)
    # the clamps are exact on their own output; the simplex threshold of a
    # point already on the simplex is zero up to its sum's rounding, which
    # scales with p
    assert prox_box01(box).tobytes() == box.tobytes()
    assert prox_nonneg(nonneg).tobytes() == nonneg.tobytes()
    assert np.abs(prox_simplex(simplex) - simplex).max() <= rounding(p)
    assert p.tobytes() == before


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(p=arrays(), w=st.one_of(st.just(0.0), POSITIVE), v=POSITIVE)
def test_soft_threshold_shrinks_each_entry_by_its_threshold(p, w, v):
    q = prox_l1(p, w)
    assert q.shape == p.shape and q.dtype == np.float64
    assert (np.abs(q) <= np.abs(p)).all() and (q * p >= 0.0).all()
    small = np.abs(p) <= w
    assert (q[small] == 0.0).all()
    # above the threshold each entry moves by w, up to one rounding
    moved = np.abs(p[~small]) - np.abs(q[~small])
    assert np.allclose(moved, w, rtol=0.0, atol=2.0 * EPS * (1.0 + np.abs(p).max()))
    if w == 0.0:
        assert q.tobytes() == p.tobytes()
    # thresholding twice is thresholding once by the sum
    assert np.allclose(prox_l1(q, v), prox_l1(p, w + v), rtol=0.0,
                       atol=4.0 * EPS * (1.0 + np.abs(p).max() + w + v))


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(data=st.data(), p=arrays(), t=POSITIVE, lam=POSITIVE)
def test_every_prox_satisfies_the_prox_optimality_inequality(data, p, t, lam):
    u = data.draw(arrays(st.just(p.shape)))
    # projections: <p - q, u - q> <= 0 at every point u of the set, drawn
    # from u and tried at the set's extreme points too
    for prox, points in (
        (prox_box01, [np.clip(u, 0.0, 1.0), np.zeros_like(p), np.ones_like(p),
                      (u > 0).astype(np.float64)]),
        (prox_nonneg, [np.abs(u), np.zeros_like(p), 2.0 * np.abs(p)]),
        (prox_simplex, [simplex_point(u)] + [np.eye(p.size)[j].reshape(p.shape)
                                             for j in range(p.size)]),
    ):
        q = prox(p)
        for point in points:
            assert float(np.vdot(p - q, point - q)) <= rounding(p, point), prox.__name__
    # lam*||.||_1 at step t: q = prox_l1(p, lam/t), and for every u
    # lam*||u||_1 >= lam*||q||_1 + t*<p - q, u - q>
    q = prox_l1(p, lam / t)
    for point in (u, np.zeros_like(p), q + np.sign(p - q)):
        lhs = lam * float(np.abs(point).sum())
        rhs = lam * float(np.abs(q).sum()) + t * float(np.vdot(p - q, point - q))
        assert rhs <= lhs + (t + lam) * rounding(p, point, q)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(p=arrays(MATRICES), w=POSITIVE, s=st.integers(0, 2))
def test_every_map_leaves_its_argument_alone_and_returns_a_fresh_array(p, w, s):
    before = p.tobytes()
    calls = {
        "prox_box01": lambda: prox_box01(p),
        "prox_nonneg": lambda: prox_nonneg(p),
        "prox_l0_nonneg_cols": lambda: prox_l0_nonneg_cols(p, s),
        "prox_simplex": lambda: prox_simplex(p),
        "prox_l1": lambda: prox_l1(p, w),
        "prox_l1 w=0": lambda: prox_l1(p, 0.0),
        "prox_filter_constraint": lambda: prox_filter_constraint(p),
    }
    maps = {name for name in vars(ipalm.prox) if name.startswith("prox_")}
    assert maps <= {name.split()[0] for name in calls}, "a map of ipalm.prox is not covered"
    for name, call in calls.items():
        q = call()
        assert p.tobytes() == before, f"{name} changed its argument"
        assert not np.shares_memory(q, p), f"{name} returned its argument's memory"


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(data=st.data(), cur=arrays(), coeff=POSITIVE)
def test_extrapolate_returns_a_fresh_array_unless_its_coefficient_is_zero(data, cur, coeff):
    prev = data.draw(arrays(st.just(cur.shape)))
    x_cur, x_prev = BlockVector([cur]), BlockVector([prev])
    before = cur.tobytes(), prev.tobytes()
    out = extrapolate(x_cur, x_prev, coeff, 0)
    assert not np.shares_memory(out, cur) and not np.shares_memory(out, prev)
    assert extrapolate(x_cur, x_prev, 0.0, 0) is x_cur[0]
    assert (cur.tobytes(), prev.tobytes()) == before
