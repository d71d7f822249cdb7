"""Partial Lipschitz moduli: exact spectral norms and descent-lemma backtracking
whose next start follows the curvature each accepted step showed."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class EstimationError(RuntimeError):
    """A Lipschitz estimate failed: no convergence within its round budget,
    or a non-finite input (BID's kernel gradient raises it too, where
    ``lam`` scales the gradient past the float range).  ``gap`` is the last residual; for backtracking
    whose last candidate's ``eval_H`` stopped early it is a lower bound on
    how far that candidate missed the descent lemma."""

    def __init__(self, message: str, gap: float = float("nan")):
        super().__init__(message)
        self.gap = gap


# Smallest modulus the solver steps with: a block whose Gram vanishes, or
# whose step does not move, still needs a positive, normal-range modulus.
# It floors each exact modulus where the solver reads it, and the start of
# every line search; the estimates below return the raw value.
MODULUS_FLOOR = 1e-12

# Factor on every exact modulus, so that step rules built on it never
# undershoot the true one: its margin is far above a dense eigensolver's
# rounding error on the small Gram matrices, and ten times the power
# iteration's tolerance.
SAFEGUARD = 1.0 + 1e-8

# The power iteration's policy: it stops once two successive Rayleigh
# quotients agree to ``POWER_TOL`` relative, within ``POWER_STEPS`` steps.
POWER_TOL = 1e-9
POWER_STEPS = 1000

# The line search's policy.  Each call climbs the levels
# ``L_start * GROWTH**j`` from its block's start level (``START`` at the
# first call), at most ``MAX_ROUNDS`` moves up; the accepted step's
# curvature sets the next call's start, at most one ``SHRINK`` down.
START = 0.5
GROWTH = 2.0
SHRINK = 0.5
MAX_ROUNDS = 60


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
    # the ufunc's own reduction: ndarray.all adds a Python-level layer per call
    if not np.logical_and.reduce(np.isfinite(M), None):
        raise EstimationError("matrix has non-finite entries")
    return float(np.linalg.eigvalsh(M)[-1]) * SAFEGUARD


def operator_norm(matvec: Callable[[np.ndarray], np.ndarray], shape: tuple) -> float:
    """Largest eigenvalue of a symmetric PSD operator given as a matvec, by
    power iteration.

    Deterministic start (normalized all-ones array), which assumes a top
    eigenvector not orthogonal to it; that holds for an entrywise-nonnegative
    operator such as the BID kernel normal operator (Perron-Frobenius).  The
    converged Rayleigh quotient is multiplied by ``SAFEGUARD`` so that step
    rules built on the result never undershoot the true modulus by more than
    the iteration tolerance.  A step whose Rayleigh quotient or image norm is
    not finite (an operator whose image overflows) raises ``EstimationError``
    at once.
    """
    v = np.full(shape, 1.0)
    v /= np.sqrt(v.size)
    lam_prev = np.inf
    gap = np.inf
    for _ in range(POWER_STEPS):
        w = matvec(v)
        lam = float(np.vdot(v, w).real)
        nw = float(np.sqrt(np.vdot(w, w).real))
        if not (math.isfinite(lam) and math.isfinite(nw)):
            raise EstimationError(
                f"operator power iteration reached a non-finite value "
                f"(Rayleigh quotient {lam:.3e}, image norm {nw:.3e})"
            )
        if nw == 0.0:
            return 0.0
        v = w / nw
        gap = abs(lam - lam_prev)
        if gap <= POWER_TOL * max(abs(lam), 1e-300):
            return lam * SAFEGUARD
        lam_prev = lam
    raise EstimationError(
        f"operator power iteration did not converge in {POWER_STEPS} iterations "
        f"(last gap {gap:.3e})",
        gap=gap,
    )


def backtrack_L(
    h_eval: Callable[..., float],
    h_x: float,
    h_grad_at: np.ndarray,
    x: np.ndarray,
    x_candidate_of_L: Callable[[float], np.ndarray],
    L_start: float,
):
    """Smallest tested modulus satisfying the descent lemma at its candidate,
    and the level the block's next call starts at.

    Tests moduli on the levels ``L = L_start * GROWTH**j`` with rising
    ``j``, and accepts once
    ``h(x+) <= h(x) + <grad h(x), x+ - x> + (L/2)||x+ - x||^2`` holds, where
    the candidate ``x+`` is recomputed for every tested ``L``.  The caller
    passes ``h_x = h(x)`` with the gradient ``h_grad_at`` (the solver takes
    both from one ``partial_grad(i, x, value=True)`` pass), so ``h_eval``
    runs only at candidates.  A tiny relative slack absorbs roundoff at the
    acceptance boundary, and the first tested modulus is at least
    ``MODULUS_FLOOR``.

    Each candidate shows the curvature along its step,
    ``seen = 2*(h(x+) - h(x) - <grad h(x), d> - slack)/||d||^2`` with
    ``d = x+ - x``, which is at most the block's true modulus.  After a
    rejection the next tested level is the highest one at or below ``seen``,
    and at least one level up; a non-finite ``seen`` (an ``h`` that
    overflowed or is NaN) moves one level.  Only levels the step has already
    ruled out are skipped, so the accepted modulus stays at most ``GROWTH``
    times the true one, as with one level per round.  After an acceptance
    the next call starts at ``L`` when ``seen > SHRINK*L``, and at
    ``SHRINK*L`` otherwise or after a zero step: the lowest level at or
    above ``seen``, but at most one shrink down, so the estimate falls by at
    most one shrink per call and its first probe is not a level this step's
    curvature lies above.  A non-finite ``h(x)`` admits no level, so it
    raises ``EstimationError`` before any candidate is formed.

    Each candidate is evaluated as ``h_eval(x+, above=rhs + slack)``: a value
    returned early lies above that bound and rejects as h itself would (see
    ``ProblemSpec.eval_H``); it is a lower bound on ``h(x+)``, so ``seen``
    stays a lower bound on the curvature, and the ``gap`` of an exhausted
    search is a lower bound on the last miss.  Mutates nothing and returns
    ``(L, x+, tested, L_next)`` with the list of every tested modulus and the
    next call's start level.
    """
    if not 0 < L_start < math.inf:
        raise ValueError(f"L_start must be positive and finite, got {L_start}")
    h_x = float(h_x)
    if not math.isfinite(h_x):
        raise EstimationError(f"the smooth part is {h_x} at the line search's base point")
    slack = 1e-12 * (1.0 + abs(h_x))
    L = max(L_start, MODULUS_FLOOR)
    tested = []
    for _ in range(MAX_ROUNDS + 1):
        tested.append(L)
        cand = x_candidate_of_L(L)
        d = cand - x
        dd = float(np.vdot(d, d).real)
        rhs = h_x + float(np.vdot(h_grad_at, d).real) + 0.5 * L * dd
        bound = rhs + slack
        lhs = float(h_eval(cand, above=bound))
        # the curvature along d; a zero step shows none (NaN)
        seen = L + 2.0 * (lhs - bound) / dd if dd > 0 else math.nan
        if lhs <= bound:
            return L, cand, tested, L if seen > SHRINK * L else SHRINK * L
        # skip to the highest level at or below the curvature seen along d
        levels = math.log(seen / L, GROWTH)
        j = max(1, math.floor(levels)) if math.isfinite(levels) else 1
        L = L * GROWTH ** (j - 1) * GROWTH  # GROWTH**j alone can overflow
    raise EstimationError(
        f"descent lemma not satisfied after {MAX_ROUNDS} rounds "
        f"(last tested L {tested[-1]:.3e}); the round budget may be too small "
        f"for the problem's scale, the gradient may be wrong or the smooth "
        f"part not Lipschitz",
        gap=lhs - rhs,
    )
