"""Per-iteration inertial and step parameter rules.

Two kinds of schedule are supported:

* static -- constant extrapolation coefficients.  Each rule is written once
  in the prox factor ``c``: ``c = 2`` on a block whose nonsmooth term is
  convex (``convex=True``; its prox inequality gains one more ``tau``) and
  ``c = 1`` for an arbitrary nonsmooth term.  The rule needs
  ``alpha < c*(1-eps)/2`` and, at ``eps = 0``, steps with
  ``tau = (1+2*beta)/(c-2*alpha) * L``;
* dynamic -- accelerated-style coefficients ``(k-1)/(k+2)`` with plain ``1/L``
  steps.  Empirically the fastest regime but not covered by the descent
  theory, so runs in this mode are flagged as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union


class ParameterDomainError(ValueError):
    """Inertial parameters violate the bounds required by the step rule."""


def _bound_error(subject: str, alpha_bar: float, eps: float, convex: bool):
    """The rejection of ``alpha_bar >= c*(1-eps)/2``; ``{}`` in ``subject`` is the convexity."""
    bound = "1-eps" if convex else "(1-eps)/2"
    return ParameterDomainError(
        f"{subject.format('convex' if convex else 'nonconvex')} needs alpha_bar < {bound}; "
        f"got alpha_bar={alpha_bar}, eps={eps}"
    )


@dataclass(frozen=True)
class Static:
    """Constant (alpha, beta); ``convex`` sets the prox factor ``c`` to 2, the
    larger steps that a convex block term permits (1 otherwise)."""

    alpha_bar: float
    beta_bar: float
    eps: float = 0.0
    convex: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha_bar < 1.0:
            raise ParameterDomainError(f"alpha_bar must lie in [0, 1), got {self.alpha_bar}")
        if not 0.0 <= self.beta_bar < math.inf:
            raise ParameterDomainError(f"beta_bar must be >= 0 and finite, got {self.beta_bar}")
        if not 0.0 <= self.eps < math.inf:
            raise ParameterDomainError(f"eps must be >= 0 and finite, got {self.eps}")
        c = 2.0 if self.convex else 1.0
        if not c * (1.0 - self.eps) - 2.0 * self.alpha_bar > 0.0:
            raise _bound_error("static {} schedule", self.alpha_bar, self.eps, self.convex)


@dataclass(frozen=True)
class Dynamic:
    """alpha = beta = (k-1)/(k+2), tau = L.  Heuristic mode: no step-weight
    delta is defined, hence no Lyapunov value is tracked for such runs."""


ScheduleKind = Union[Static, Dynamic]


def delta_star(
    alpha_bar: float,
    beta_bar: float,
    eps: float,
    lambda_plus: float,
    convex: bool = False,
) -> float:
    """Lyapunov step weight for given coefficient bounds and Lipschitz bound:
    ``(alpha_bar + c*beta_bar) * lambda_plus / (c*(1-eps) - 2*alpha_bar)``
    with prox factor ``c = 2`` on a convex block, 1 otherwise.
    """
    if lambda_plus <= 0.0:
        raise ParameterDomainError(f"lambda_plus must be positive, got {lambda_plus}")
    c = 2.0 if convex else 1.0
    if c * (1.0 - eps) - 2.0 * alpha_bar <= 0.0:
        raise _bound_error("{} step weight", alpha_bar, eps, convex)
    return _static_rule(eps, convex)(alpha_bar, beta_bar, lambda_plus)[1]


def tau_for_delta(
    alpha: float,
    beta: float,
    delta: float,
    L: float,
    eps: float = 0.0,
    convex: bool = False,
) -> float:
    """Step parameter ``tau = ((1+eps)*delta + (1+beta)*L) / (c - alpha)`` for
    a given (possibly constant) step weight, prox factor ``c`` as in
    ``delta_star``.
    """
    if L <= 0.0:
        raise ParameterDomainError(f"L must be positive, got {L}")
    return _static_rule(eps, convex, delta)(alpha, beta, L)[0]


def tau_step(alpha: float, beta: float, L: float, kind: ScheduleKind, delta=None):
    """Per-iteration ``(tau, delta)`` under the given schedule regime: the
    checked form of ``step_rule(kind, delta)(alpha, beta, L)``.

    For the static regimes, a pinned step weight ``delta`` gives
    ``tau_for_delta`` of it; with none, ``delta`` is computed from the
    instantaneous coefficients (at ``eps=0`` the pair collapses to the closed
    form ``tau = (1+2*beta)/(c-2*alpha) * L``, prox factor ``c = 2`` on a
    convex block and 1 otherwise).  The dynamic regime sets no step weight:
    it returns ``tau = L`` and an undefined (NaN) delta.
    """
    if L <= 0.0:
        raise ParameterDomainError(f"L must be positive, got {L}")
    if delta is None and isinstance(kind, Static):
        # the checked weight; the pinned rule then forms tau as the unpinned one does
        delta = delta_star(alpha, beta, kind.eps, L, convex=kind.convex)
    return step_rule(kind, delta)(alpha, beta, L)


def step_rule(kind: ScheduleKind, delta=None):
    """One block's step rule, compiled: ``rule(alpha, beta, L) -> (tau, delta)``
    gives the bits of ``tau_step(alpha, beta, L, kind, delta)`` and checks
    nothing, so the solver compiles it once per run from a checked kind and
    pinned ``delta``, and calls it with positive moduli."""
    if isinstance(kind, Dynamic):
        return _dynamic_step
    return _static_rule(kind.eps, kind.convex, delta)


def _static_rule(eps: float, convex: bool, delta=None):
    """The static rule, the one home of its formula: the constants ``c``,
    ``c*(1-eps)`` and ``1+eps`` are formed once and bound to the step, which
    does the rest of the float operations in their order; ``delta`` is the
    instantaneous weight unless pinned."""
    c = 2.0 if convex else 1.0
    if delta is None:
        return partial(_weighted_step, c, c * (1.0 - eps), 1.0 + eps)
    return partial(_pinned_step, c, 1.0 + eps, delta)


def _weighted_step(c, c_eps, one_eps, alpha, beta, L):
    weight = (alpha + c * beta) * L / (c_eps - 2.0 * alpha)
    return (one_eps * weight + (1.0 + beta) * L) / (c - alpha), weight


def _pinned_step(c, one_eps, delta, alpha, beta, L):
    return (one_eps * delta + (1.0 + beta) * L) / (c - alpha), delta


def _dynamic_step(alpha, beta, L):
    return L, math.nan


def dynamic_coeff(k: int) -> float:
    """Accelerated-style coefficient ``(k-1)/(k+2)`` for iteration ``k >= 1``."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return (k - 1.0) / (k + 2.0)


def descent_coefficients(
    alpha: float,
    beta: float,
    delta: float,
    tau: float,
    L: float,
    convex: bool = False,
):
    """Descent-coefficient pair ``(g, h)`` used by the verification battery.

    ``g`` multiplies the incoming step measure, ``h`` the previous one, in
    the Lyapunov decrease decomposition:

    * ``g = tau*(c-alpha) - (1+beta)*L - delta``, prox factor ``c`` as in
      ``delta_star`` (the tighter proximal bound for a convex block term
      contributes the extra ``tau``)
    * ``h = delta - tau*alpha - L*beta``

    With ``delta_star``/``tau_for_delta`` parameters, ``g`` equals
    ``eps*delta_star`` exactly and ``h`` is at least ``eps*delta_star``.
    """
    c = 2.0 if convex else 1.0
    g = tau * (c - alpha) - (1.0 + beta) * L - delta
    h = delta - tau * alpha - L * beta
    return g, h


def inertial_coeffs(kind: ScheduleKind, k: int):
    """(alpha, beta) for iteration ``k`` under the given schedule."""
    if isinstance(kind, Dynamic):
        coeff = dynamic_coeff(k)
        return coeff, coeff
    return kind.alpha_bar, kind.beta_bar
