from itertools import combinations

import warnings

import numpy as np
import pytest

from ipalm.prox import (
    prox_box01,
    prox_filter_constraint,
    prox_l0_nonneg_cols,
    prox_l1,
    prox_nonneg,
    prox_simplex,
)

# ---------------------------------------------------------------------------
# independent oracles


def l0_nonneg_cost(p, q):
    """Squared distance to a candidate of the sparse-nonnegative set."""
    return float(np.sum((q - p) ** 2))


def l0_nonneg_brute(p, s):
    """Exhaustive search over all supports of size <= s (min cost)."""
    m = p.size
    clamped = np.maximum(p, 0.0)
    best = float(np.sum(p**2))  # empty support
    for size in range(1, s + 1):
        for supp in combinations(range(m), size):
            q = np.zeros(m)
            q[list(supp)] = clamped[list(supp)]
            best = min(best, l0_nonneg_cost(p, q))
    return best


def simplex_bisect(p, iters=200):
    """Threshold bisection on sum(max(p - theta, 0)) = 1; independent of the
    sort-based path under test."""
    lo, hi = p.min() - 1.0, p.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(p - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(p - 0.5 * (lo + hi), 0.0)


def dykstra_zero_mean_ball(p, iters=2000):
    """Dykstra's alternating projections onto {zero mean} and the unit ball."""
    x = p.ravel().copy()
    inc_h = np.zeros_like(x)
    inc_b = np.zeros_like(x)
    for _ in range(iters):
        y = x + inc_h
        proj = y - y.mean()
        inc_h = y - proj
        z = proj + inc_b
        n = np.linalg.norm(z)
        ball = z / n if n > 1.0 else z
        inc_b = z - ball
        x = ball
    return x.reshape(p.shape)


# ---------------------------------------------------------------------------
# elementwise operators


def test_box_examples():
    assert np.allclose(prox_box01(np.array([-0.5, 0.3, 1.7])), [0.0, 0.3, 1.0])
    inside = np.array([0.0, 0.4, 1.0])
    assert np.array_equal(prox_box01(inside), inside)
    assert np.array_equal(prox_box01(np.array([-3.0, -0.1])), [0.0, 0.0])


def test_nonneg_examples():
    assert np.array_equal(prox_nonneg(np.array([-1.0, 2.0])), [0.0, 2.0])
    x = np.array([0.5, 0.0, 3.0])
    assert np.array_equal(prox_nonneg(x), x)
    assert np.array_equal(prox_nonneg(np.zeros(3)), np.zeros(3))


def test_l1_examples():
    x = np.array([0.3, -2.0])
    assert np.array_equal(prox_l1(x, 0.0), x)
    assert np.allclose(prox_l1(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])
    assert np.array_equal(prox_l1(np.array([0.5, -0.9]), 1.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        prox_l1(x, -0.1)


# ---------------------------------------------------------------------------
# sparse nonnegative columns


def test_l0_hand_examples():
    col = np.array([[3.0], [-1.0], [2.0]])
    assert np.array_equal(prox_l0_nonneg_cols(col, 1).ravel(), [3.0, 0.0, 0.0])
    assert np.array_equal(prox_l0_nonneg_cols(col, 2).ravel(), [3.0, 0.0, 2.0])
    nonneg = np.array([[1.0], [0.5], [2.0]])
    assert np.array_equal(prox_l0_nonneg_cols(nonneg, 3), nonneg)


def test_l0_edge_cases():
    P = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert np.array_equal(prox_l0_nonneg_cols(P, 0), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        prox_l0_nonneg_cols(P, 3)
    # all-negative column projects to zero
    out = prox_l0_nonneg_cols(np.array([[-1.0], [-2.0]]), 1)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_l0_tie_break_keeps_lower_row():
    col = np.array([[2.0], [3.0], [2.0]])
    out = prox_l0_nonneg_cols(col, 2)
    assert np.array_equal(out.ravel(), [2.0, 3.0, 0.0])


def test_l0_matches_exhaustive_search():
    rng = np.random.default_rng(11)
    for trial in range(1000):
        m = int(rng.integers(1, 9))
        s = int(rng.integers(1, m + 1))
        p = rng.uniform(-2.0, 2.0, size=m)
        out = prox_l0_nonneg_cols(p.reshape(-1, 1), s).ravel()
        assert (out >= 0).all() and int((out != 0).sum()) <= s
        assert l0_nonneg_cost(p, out) <= l0_nonneg_brute(p, s) + 1e-12


# ---------------------------------------------------------------------------
# simplex


def test_simplex_examples():
    assert np.allclose(prox_simplex(np.array([0.5, 0.5])), [0.5, 0.5])
    assert np.allclose(prox_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


def test_simplex_feasibility_and_oracle():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        p = rng.uniform(-3.0, 3.0, size=n)
        out = prox_simplex(p)
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.abs(out - simplex_bisect(p)).max() <= 1e-10


def test_simplex_matches_qp_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = rng.uniform(-2.0, 2.0, size=5)
        x = cvxpy.Variable(5)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum_squares(x - p)),
            [x >= 0, cvxpy.sum(x) == 1],
        )
        prob.solve()
        assert np.abs(prox_simplex(p) - x.value).max() <= 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simplex_rejects_non_finite_input_with_value_error(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(ValueError, match="no simplex threshold"):
            prox_simplex(np.array([0.3, bad, 0.1]))


@pytest.mark.parametrize("p, want", [
    ([2.0**53 + 2.0, 0.0], [1.0, 0.0]),
    ([1e16, 0.0], [1.0, 0.0]),
    ([1e20, 1e20], [0.5, 0.5]),
    ([-1e20, -1e20], [0.5, 0.5]),
])
def test_simplex_projects_entries_beyond_unit_spacing(p, want):
    # from 2**52 up a unit step is below the float spacing of the entries
    assert np.array_equal(prox_simplex(np.array(p)), want)


def test_simplex_keeps_shape():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = prox_simplex(p)
    assert out.shape == (2, 2)
    assert abs(out.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# zero-mean + unit-ball filters


def test_filter_constraint_trivial_inputs():
    z = np.zeros((3, 3))
    assert np.array_equal(prox_filter_constraint(z), z)
    const = np.full((3, 3), 2.7)
    assert np.allclose(prox_filter_constraint(const), np.zeros((3, 3)), atol=1e-15)
    with pytest.raises(ValueError):
        prox_filter_constraint(np.array([1.0]))


def test_filter_constraint_matches_dykstra():
    rng = np.random.default_rng(14)
    for _ in range(50):
        d = rng.uniform(-2.0, 2.0, size=(3, 3))
        out = prox_filter_constraint(d)
        assert abs(out.mean()) <= 1e-12
        assert np.linalg.norm(out) <= 1.0 + 1e-12
        assert np.abs(out - dykstra_zero_mean_ball(d)).max() <= 1e-8


# ---------------------------------------------------------------------------
# shared operator properties

OPERATORS = {
    "box": (lambda p: prox_box01(p), lambda rng, n: rng.uniform(0, 1, n)),
    "nonneg": (lambda p: prox_nonneg(p), lambda rng, n: rng.uniform(0, 3, n)),
    "simplex": (
        lambda p: prox_simplex(p),
        lambda rng, n: prox_simplex(rng.uniform(0, 1, n)),
    ),
    "filter": (
        lambda p: prox_filter_constraint(p),
        lambda rng, n: prox_filter_constraint(rng.uniform(-1, 1, n)),
    ),
    "l1": (lambda p: prox_l1(p, 0.7), lambda rng, n: rng.uniform(-2, 2, n)),
    "l0": (
        lambda p: prox_l0_nonneg_cols(p.reshape(-1, 1), 2).ravel(),
        lambda rng, n: None,
    ),
}

# soft thresholding with a positive threshold is a shrinkage, not a
# projection, so idempotency only applies to the projection operators
# (and to the threshold-zero case, where it is the identity)
IDEMPOTENT = ("box", "nonneg", "simplex", "filter", "l0")


def test_idempotency_all_projection_operators():
    rng = np.random.default_rng(15)
    for name in IDEMPOTENT:
        op, _ = OPERATORS[name]
        for _ in range(50):
            p = rng.uniform(-3.0, 3.0, size=6)
            once = op(p)
            twice = op(once)
            assert np.abs(twice - once).max() <= 1e-14, name
    p = rng.uniform(-3.0, 3.0, size=6)
    assert np.array_equal(prox_l1(prox_l1(p, 0.0), 0.0), prox_l1(p, 0.0))


def test_projection_variational_inequality():
    # convex sets only: box, nonneg, simplex, zero-mean ball intersection
    rng = np.random.default_rng(16)
    for name in ("box", "nonneg", "simplex", "filter"):
        op, sample_feasible = OPERATORS[name]
        for _ in range(10):
            p = rng.uniform(-3.0, 3.0, size=6)
            proj = op(p)
            for _ in range(100):
                q = sample_feasible(rng, 6)
                assert float(np.dot(p - proj, q - proj)) <= 1e-10, name


def _sigma_value(name, x):
    if name == "l1":
        return 0.7 * float(np.abs(x).sum())
    if name == "box":
        return 0.0 if x.min() >= 0 and x.max() <= 1 else np.inf
    if name == "nonneg":
        return 0.0 if x.min() >= 0 else np.inf
    if name == "simplex":
        feas = x.min() >= -1e-12 and abs(x.sum() - 1) <= 1e-9
        return 0.0 if feas else np.inf
    if name == "filter":
        feas = abs(x.mean()) <= 1e-9 and np.linalg.norm(x) <= 1 + 1e-9
        return 0.0 if feas else np.inf
    raise KeyError(name)


def test_prox_definition_optimality():
    # the returned point must beat random feasible competitors on the
    # prox objective sigma(q) + (t/2)||q - p||^2
    rng = np.random.default_rng(17)
    for name in ("box", "nonneg", "simplex", "filter", "l1"):
        op, sample_feasible = OPERATORS[name]
        for _ in range(5):
            p = rng.uniform(-2.0, 2.0, size=6)
            t = float(rng.uniform(0.3, 3.0))
            q = op(p) if name != "l1" else prox_l1(p, 0.7 / t)
            val = _sigma_value(name, q) + 0.5 * t * float(np.sum((q - p) ** 2))
            for _ in range(1000):
                if name == "l1":
                    q2 = rng.uniform(-3.0, 3.0, size=6)
                else:
                    q2 = sample_feasible(rng, 6)
                val2 = _sigma_value(name, q2) + 0.5 * t * float(np.sum((q2 - p) ** 2))
                assert val <= val2 + 1e-10, name
