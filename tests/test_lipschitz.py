import pickle

import numpy as np
import pytest

from ipalm.lipschitz import (
    SAFEGUARD,
    BacktrackState,
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
    state = BacktrackState(L_current=2.0 * L_true, shrink=0.5)
    L, x_next, tested = backtrack_L(h, grad(x), x, make_cand(x), state)
    assert len(tested) == 1 and L == L_true  # shrink*L_current == L_true exactly
    assert np.allclose(x_next, 0.0)


def test_backtrack_grows_to_first_admissible_level():
    L_true = 3.0
    h, grad, make_cand = quadratic_problem(L_true)
    x = np.array([1.0])
    L0 = L_true / 10.0
    state = BacktrackState(L_current=L0 / 0.5, growth=2.0, shrink=0.5)
    L, _, tested = backtrack_L(h, grad(x), x, make_cand(x), state)
    # the accepted level is the first L0*2^j at or above the true curvature
    levels = [L0 * 2.0**j for j in range(10)]
    expected = next(l for l in levels if l >= L_true * (1.0 - 1e-12))
    assert L == pytest.approx(expected, rel=1e-12)
    assert tested == levels[: levels.index(expected) + 1]
    assert state.L_current == L


def test_backtrack_linear_accepts_at_initial_level():
    c = np.array([2.0, -1.0])

    def h(x, above=None):
        return float(c @ x)

    x = np.array([0.3, 0.7])

    def cand(L):
        return x - c / L

    state = BacktrackState(L_current=0.02, shrink=0.5)
    L, _, tested = backtrack_L(h, c, x, cand, state)
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

    state = BacktrackState(L_current=L_true / 5.0)
    L, _, tested = backtrack_L(bounded, grad(x), x, make_cand(x), state)
    assert bounds[0] is None and len(bounds) == 1 + len(tested)
    assert all(b is not None for b in bounds[1:])
    want, _, want_tested = backtrack_L(h, grad(x), x, make_cand(x),
                                       BacktrackState(L_current=L_true / 5.0))
    assert (L, tested) == (want, want_tested)


def test_backtrack_detects_wrong_gradient():
    # claiming the negated gradient makes the descent test fail at every level
    c = np.array([1.0, 2.0])

    def h(x, above=None):
        return float(c @ x)

    x = np.zeros(2)
    wrong = -c

    def cand(L):
        return x - wrong / L

    state = BacktrackState(L_current=1.0, max_rounds=30)
    with pytest.raises(EstimationError):
        backtrack_L(h, wrong, x, cand, state)


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


def test_backtrack_state_validation():
    with pytest.raises(ValueError):
        BacktrackState(L_current=0.0)
    with pytest.raises(ValueError):
        BacktrackState(growth=1.0)
    with pytest.raises(ValueError):
        BacktrackState(shrink=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="L_current must be positive and finite"):
            BacktrackState(L_current=bad)
        with pytest.raises(ValueError, match="growth must exceed 1 and be finite"):
            BacktrackState(growth=bad)
