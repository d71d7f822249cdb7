"""Partial Lipschitz moduli: exact spectral norms and descent-lemma backtracking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class EstimationError(RuntimeError):
    """A Lipschitz estimate failed: no convergence within its round budget,
    or a non-finite input.  ``gap`` is the last residual; for backtracking
    whose last candidate's ``eval_H`` stopped early it is a lower bound on
    how far that candidate missed the descent lemma."""

    def __init__(self, message: str, gap: float = float("nan")):
        super().__init__(message)
        self.gap = gap


# Smallest modulus any estimate returns: a block whose Gram vanishes, or
# whose step does not move, still needs a positive, normal-range modulus.
MODULUS_FLOOR = 1e-12

# Factor on a dense top eigenvalue, so that step rules built on it never
# undershoot the true modulus; its margin is far above the eigensolver's own
# rounding error on the small Gram matrices it is used for.
SAFEGUARD = 1.0 + 1e-8


def spectral_norm(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by one dense eigensolve.

    Exact up to rounding for every symmetric input (no start vector, no
    iteration budget), scaled by ``SAFEGUARD`` so the estimate stays at or
    above the truth.  Meant for small explicit matrices; an operator given
    as a matvec goes through ``operator_norm``.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise EstimationError("matrix has non-finite entries")
    return float(np.linalg.eigvalsh(M)[-1]) * SAFEGUARD


def operator_norm(
    matvec: Callable[[np.ndarray], np.ndarray],
    shape: tuple,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> float:
    """Largest eigenvalue of a symmetric PSD operator given as a matvec, by
    power iteration.

    Deterministic start (normalized all-ones array), which assumes a top
    eigenvector not orthogonal to it; that holds for an entrywise-nonnegative
    operator such as the BID kernel normal operator (Perron-Frobenius).  The
    converged Rayleigh quotient is multiplied by the safeguard ``1 + 10*tol``
    so that step rules built on the result never undershoot the true modulus
    by more than the iteration tolerance.
    """
    v = np.full(shape, 1.0)
    v /= np.sqrt(v.size)
    lam_prev = np.inf
    gap = np.inf
    for _ in range(max_iter):
        w = matvec(v)
        lam = float(np.vdot(v, w).real)
        nw = float(np.sqrt(np.vdot(w, w).real))
        if nw == 0.0:
            return 0.0
        v = w / nw
        gap = abs(lam - lam_prev)
        if gap <= tol * max(abs(lam), 1e-300):
            return lam * (1.0 + 10.0 * tol)
        lam_prev = lam
    raise EstimationError(
        f"operator power iteration did not converge in {max_iter} iterations "
        f"(last gap {gap:.3e})",
        gap=gap,
    )


@dataclass
class BacktrackState:
    """Warm-started backtracking state for one block.

    ``L_current`` carries the last accepted modulus across iterations; each
    call restarts from ``shrink * L_current`` and grows by ``growth`` until
    the descent lemma accepts, so the estimate may decrease by at most one
    shrink per outer iteration.
    """

    L_current: float = 1.0
    growth: float = 2.0
    shrink: float = 0.5
    max_rounds: int = 60

    def __post_init__(self):
        if not 0 < self.L_current < math.inf:
            raise ValueError(f"L_current must be positive and finite, got {self.L_current}")
        if not 1 < self.growth < math.inf:
            raise ValueError(f"growth must exceed 1 and be finite, got {self.growth}")
        if not 0 < self.shrink <= 1:
            raise ValueError(f"shrink must lie in (0, 1], got {self.shrink}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


def backtrack_L(
    h_eval: Callable[..., float],
    h_grad_at: np.ndarray,
    x: np.ndarray,
    x_candidate_of_L: Callable[[float], np.ndarray],
    state: BacktrackState,
):
    """Smallest tested modulus satisfying the descent lemma at its candidate.

    Tests ``L = shrink*L_current * growth**j`` for ``j = 0, 1, ...`` and
    accepts once ``h(x+) <= h(x) + <grad h(x), x+ - x> + (L/2)||x+ - x||^2``
    holds, where the candidate ``x+`` is recomputed for every tested ``L``.
    A tiny relative slack absorbs roundoff at the acceptance boundary, and
    the first tested modulus is at least ``MODULUS_FLOOR``.  Each candidate
    is evaluated as ``h_eval(x+, above=rhs + slack)``: a value returned early
    lies above that bound and rejects as h itself would (see
    ``ProblemSpec.eval_H``), and the ``gap`` of an exhausted search is then
    a lower bound on the last miss.  Updates ``state.L_current`` and returns
    ``(L, x+, tested)`` with the list of every tested modulus.
    """
    h_x = float(h_eval(x))
    slack = 1e-12 * (1.0 + abs(h_x))
    L = max(state.shrink * state.L_current, MODULUS_FLOOR)
    tested = []
    for _ in range(state.max_rounds + 1):
        tested.append(L)
        cand = x_candidate_of_L(L)
        d = cand - x
        rhs = (
            h_x
            + float(np.vdot(h_grad_at, d).real)
            + 0.5 * L * float(np.vdot(d, d).real)
        )
        bound = rhs + slack
        lhs = float(h_eval(cand, above=bound))
        if lhs <= bound:
            state.L_current = L
            return L, cand, tested
        L *= state.growth
    raise EstimationError(
        f"descent lemma not satisfied after {state.max_rounds} growth rounds "
        f"(last L {L / state.growth:.3e}); the gradient may be wrong or the "
        f"smooth part not Lipschitz",
        gap=lhs - rhs,
    )
