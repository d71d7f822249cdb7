import math
import pickle
import sys

import numpy as np
import pytest

from ipalm.lipschitz import (
    SAFEGUARD,
    EstimationError,
    backtrack_L,
    operator_norm,
    spectral_norm,
)



def test_spectral_norm_identity():
    est = spectral_norm(np.eye(5))
    assert est == pytest.approx(1.0, rel=1e-7)
    assert est >= 1.0  # safeguard keeps the estimate at or above the truth


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([4.0, 1.0])) == pytest.approx(4.0, rel=1e-7)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_random_gram_vs_dense_eigensolver():
    rng = np.random.default_rng(21)
    for _ in range(20):
        X = rng.standard_normal((6, 6))
        gram = X @ X.T
        truth = float(np.linalg.eigvalsh(gram)[-1])
        est = spectral_norm(gram)
        assert est == pytest.approx(truth * SAFEGUARD, rel=1e-7)
        assert est >= truth * (1.0 - 1e-9)


def test_spectral_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((2, 3)))


def test_spectral_norm_rotated_matrix():
    # the all-ones vector is the bottom eigenvector here (eigenvalues 4 and
    # 1), where a power iteration started from it stalls at 1
    assert spectral_norm(np.array([[2.5, -1.5], [-1.5, 2.5]])) >= 4.0


def test_spectral_norm_near_degenerate_gram():
    lam = 1.0
    Q, _ = np.linalg.qr(np.random.default_rng(24).standard_normal((3, 3)))
    gram = Q @ np.diag([lam, lam - 1e-10, 0.3]) @ Q.T
    est = spectral_norm(gram)
    assert lam <= est <= lam * (1.0 + 2e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_norm_rejects_non_finite(bad):
    M = np.eye(3)
    M[1, 2] = M[2, 1] = bad
    with pytest.raises(EstimationError):
        spectral_norm(M)


def test_operator_norm_reports_nonconvergence():
    with pytest.raises(EstimationError) as err:
        operator_norm(lambda v: np.diag([4.0, 1.0]) @ v, (2,), max_iter=2)
    assert np.isfinite(err.value.gap)


def test_estimation_error_survives_pickling():
    with pytest.raises(EstimationError) as err:
        operator_norm(lambda v: np.diag([4.0, 1.0]) @ v, (2,), max_iter=2)
    back = pickle.loads(pickle.dumps(err.value))
    assert type(back) is EstimationError
    assert str(back) == str(err.value)
    assert back.gap == err.value.gap


def test_operator_norm_matches_matrix_path():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((5, 5))
    gram = X @ X.T
    est = operator_norm(lambda v: gram @ v, (5,))
    assert est == pytest.approx(spectral_norm(gram), rel=1e-7)


# ---------------------------------------------------------------------------
# backtracking


def quadratic_problem(L_true):
    def h(x, above=None):
        return 0.5 * L_true * float(np.sum(x**2))

    def grad(x):
        return L_true * x

    def candidate_of_L(x):
        def cand(L):
            return x - grad(x) / L

        return cand

    return h, grad, candidate_of_L


def test_backtrack_accepts_immediately_when_started_above():
    L_true = 3.0
    h, grad, make_cand = quadratic_problem(L_true)
    x = np.array([1.0])
    L, x_next, tested = backtrack_L(h, grad(x), x, make_cand(x), 2.0 * L_true)
    assert len(tested) == 1 and L == L_true  # SHRINK*L_prev == L_true exactly
    assert np.allclose(x_next, 0.0)


def test_backtrack_grows_to_first_admissible_level():
    L_true = 3.0
    h, grad, make_cand = quadratic_problem(L_true)
    x = np.array([1.0])
    L0 = L_true / 10.0
    L, _, tested = backtrack_L(h, grad(x), x, make_cand(x), L0 / 0.5)
    # the accepted level is the first L0*2^j at or above the true curvature
    levels = [L0 * 2.0**j for j in range(10)]
    expected = next(l for l in levels if l >= L_true * (1.0 - 1e-12))
    assert L == pytest.approx(expected, rel=1e-12)
    # the rejected L0 sees the whole curvature (just under L_true, by the
    # slack), so the search skips to the highest level below it, 8*L0 = 2.4,
    # and then goes one level up
    assert tested == [L0, levels[3], expected]
    assert L == tested[-1]


def test_backtrack_linear_accepts_at_initial_level():
    c = np.array([2.0, -1.0])

    def h(x, above=None):
        return float(c @ x)

    x = np.array([0.3, 0.7])

    def cand(L):
        return x - c / L

    L, _, tested = backtrack_L(h, c, x, cand, 0.02)
    assert L == pytest.approx(0.01) and len(tested) == 1


def test_backtrack_passes_each_candidate_its_bound():
    # the base point gets no bound; each candidate gets rhs + slack, and a
    # partial value above that bound rejects like the full value would
    L_true = 3.0
    h, grad, make_cand = quadratic_problem(L_true)
    x = np.array([1.0])
    bounds = []

    def bounded(q, above=None):
        bounds.append(above)
        full = h(q)
        # the least value past the bound: a lower bound on h, as the contract asks
        return np.nextafter(above, np.inf) if above is not None and full > above else full

    L, _, tested = backtrack_L(bounded, grad(x), x, make_cand(x), L_true / 5.0)
    assert bounds[0] is None and len(bounds) == 1 + len(tested)
    assert all(b is not None for b in bounds[1:])
    want, _, want_tested = backtrack_L(h, grad(x), x, make_cand(x), L_true / 5.0)
    # both accept the same level; a value just past its bound shows almost no
    # curvature, so its search goes one level per round where the full value
    # skips to 8 * 0.3 = 2.4
    assert L == want == tested[-1] == want_tested[-1]
    assert tested == [0.3 * 2.0**j for j in range(5)]
    assert want_tested == [0.3, 2.4, 4.8]


def _quadratic_on_orthant(rng, n):
    """h(x) = 0.5 x'Qx with a random PSD Q, its modulus (the top eigenvalue),
    and candidates projected onto x >= 0, so each step sees its own
    curvature."""
    X = rng.standard_normal((n, n))
    Q = X @ X.T * rng.uniform(0.01, 100.0)
    x = rng.uniform(0.0, 1.0, n)

    def h(q, above=None):
        return 0.5 * float(q @ Q @ q)

    def cand(L):
        return np.maximum(x - Q @ x / L, 0.0)

    return h, Q @ x, x, cand, float(np.linalg.eigvalsh(Q)[-1])


@pytest.mark.parametrize("growth", [2.0, 3.0, 1.5])
def test_backtrack_climbs_the_levels_and_stays_within_growth_of_the_true_modulus(
        growth, monkeypatch):
    monkeypatch.setattr("ipalm.lipschitz.GROWTH", growth)
    rng = np.random.default_rng(31)
    for _ in range(200):
        h, g, x, cand, L_true = _quadratic_on_orthant(rng, int(rng.integers(1, 6)))
        start = L_true * 10.0 ** rng.uniform(-8, 0)  # from below the true modulus
        L, _, tested = backtrack_L(h, g, x, cand, start / 0.5)
        # every tested modulus is start*growth**j, with j strictly rising
        js = [round(math.log(t / start, growth)) for t in tested]
        assert tested == pytest.approx([start * growth**j for j in js], rel=1e-12)
        assert js[0] == 0 and all(a < b for a, b in zip(js, js[1:]))
        # every rejected modulus is below the true one, the accepted one is
        # the last tested and at most growth times the true one
        assert all(t < L_true for t in tested[:-1])
        assert L == tested[-1]
        assert L <= growth * L_true * (1.0 + 1e-12)


def test_backtrack_moves_one_level_past_a_non_finite_value():
    # a candidate whose h overflowed, then one whose h is NaN: neither shows
    # a curvature, so each moves one level, and the true value then jumps
    L_true = 3.0
    h, grad, make_cand = quadratic_problem(L_true)
    x = np.array([1.0])
    values = iter([h(x), np.inf, np.nan])

    def faulty(q, above=None):
        return next(values, h(q))

    L, _, tested = backtrack_L(faulty, grad(x), x, make_cand(x), 2e-3)
    assert tested[:3] == [1e-3, 2e-3, 4e-3]
    assert len(tested) == 5 and L == tested[-1] == 1e-3 * 2.0**12  # 2.048 < L_true < 4.096


def test_backtrack_fails_cleanly_at_the_top_of_the_float_range(monkeypatch):
    # a curvature at the largest float puts the next level at growth**1024,
    # past the float range: the search goes on and ends in its own error
    x = np.zeros(1)
    values = iter([0.0, sys.float_info.max / 2])

    def h(q, above=None):
        return next(values, np.nan)

    monkeypatch.setattr("ipalm.lipschitz.MAX_ROUNDS", 3)
    with pytest.raises(EstimationError):
        backtrack_L(h, np.zeros(1), x, lambda L: np.ones(1), 2.0)


def test_backtrack_detects_wrong_gradient(monkeypatch):
    # claiming the negated gradient makes the descent test fail at every level
    c = np.array([1.0, 2.0])

    def h(x, above=None):
        return float(c @ x)

    x = np.zeros(2)
    wrong = -c

    def cand(L):
        return x - wrong / L

    monkeypatch.setattr("ipalm.lipschitz.MAX_ROUNDS", 30)
    with pytest.raises(EstimationError) as err:
        backtrack_L(h, wrong, x, cand, 1.0)
    # each rejection sees a curvature just under 4L, so the search doubles;
    # the message names the last tested modulus, 0.5 * 2**30, and the budget
    assert "after 30 rounds (last tested L 5.369e+08)" in str(err.value)
    assert "round budget" in str(err.value)


def test_exact_modulus_supports_descent_lemma_on_factorization_objective():
    # the quadratic upper bound with L = ||C C^T||_2 must hold between any
    # two points of the first factor block
    from ipalm.nmf import nmf_grad_B, nmf_lipschitz, nmf_objective

    rng = np.random.default_rng(23)
    A = rng.uniform(0, 1, (5, 6))
    C = rng.uniform(0, 1, (3, 6))
    L = nmf_lipschitz(0, np.zeros((5, 3)), C)
    for _ in range(100):
        B1 = rng.uniform(-1, 1, (5, 3))
        B2 = rng.uniform(-1, 1, (5, 3))
        d = B2 - B1
        lhs = nmf_objective(A, B2, C)
        rhs = (
            nmf_objective(A, B1, C)
            + float(np.vdot(nmf_grad_B(A, B1, C), d))
            + 0.5 * L * float(np.vdot(d, d))
        )
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def test_backtrack_rejects_a_previous_modulus_that_is_not_positive_and_finite():
    h, grad, make_cand = quadratic_problem(3.0)
    x = np.array([1.0])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="L_prev must be positive and finite"):
            backtrack_L(h, grad(x), x, make_cand(x), bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_backtrack_stops_at_a_non_finite_smooth_part_before_any_candidate(bad):
    # no level can pass the descent lemma when h(x) itself is not finite: the
    # search names the cause after one h evaluation, before any prox call
    calls, candidates = [], []

    def h(q, above=None):
        calls.append(above)
        return bad

    def cand(L):
        candidates.append(L)
        return np.zeros(1)

    with pytest.raises(EstimationError, match=f"the smooth part is {bad} at the line "
                                              f"search's base point"):
        backtrack_L(h, np.zeros(1), np.ones(1), cand, 1.0)
    assert calls == [None] and candidates == []
