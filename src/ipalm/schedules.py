"""Per-iteration inertial and step parameter rules.

Two kinds of schedule are supported:

* static -- constant extrapolation coefficients.  The nonconvex step rule is
  valid for arbitrary nonsmooth block terms and requires
  ``alpha < (1-eps)/2``; with ``convex=True`` it is the tighter rule that a
  convex nonsmooth term permits (roughly twice larger steps, ``alpha < 1-eps``);
* dynamic -- accelerated-style coefficients ``(k-1)/(k+2)`` with plain ``1/L``
  steps.  Empirically the fastest regime but not covered by the descent
  theory, so runs in this mode are flagged as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


class ParameterDomainError(ValueError):
    """Inertial parameters violate the bounds required by the step rule."""


@dataclass(frozen=True)
class Static:
    """Constant (alpha, beta); ``convex`` picks the tighter step rule that a
    convex block term permits."""

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
        if self.convex and not 1.0 - self.eps - self.alpha_bar > 0.0:
            raise ParameterDomainError(
                f"static convex schedule needs alpha_bar < 1-eps; "
                f"got alpha_bar={self.alpha_bar}, eps={self.eps}"
            )
        if not self.convex and not 1.0 - self.eps - 2.0 * self.alpha_bar > 0.0:
            raise ParameterDomainError(
                f"static nonconvex schedule needs alpha_bar < (1-eps)/2; "
                f"got alpha_bar={self.alpha_bar}, eps={self.eps}"
            )


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
    """Lyapunov step weight for given coefficient bounds and Lipschitz bound.

    Nonconvex rule: ``(alpha_bar + beta_bar) * lambda_plus / (1 - eps - 2*alpha_bar)``.
    Convex rule: ``(alpha_bar + 2*beta_bar) * lambda_plus / (2*(1 - eps - alpha_bar))``.
    """
    if lambda_plus <= 0.0:
        raise ParameterDomainError(f"lambda_plus must be positive, got {lambda_plus}")
    if convex:
        den = 2.0 * (1.0 - eps - alpha_bar)
        if den <= 0.0:
            raise ParameterDomainError(
                f"convex step weight needs alpha_bar < 1-eps; got "
                f"alpha_bar={alpha_bar}, eps={eps}"
            )
        return (alpha_bar + 2.0 * beta_bar) * lambda_plus / den
    den = 1.0 - eps - 2.0 * alpha_bar
    if den <= 0.0:
        raise ParameterDomainError(
            f"nonconvex step weight needs alpha_bar < (1-eps)/2; got "
            f"alpha_bar={alpha_bar}, eps={eps}"
        )
    return (alpha_bar + beta_bar) * lambda_plus / den


def tau_for_delta(
    alpha: float,
    beta: float,
    delta: float,
    L: float,
    eps: float = 0.0,
    convex: bool = False,
) -> float:
    """Step parameter ``tau`` for a given (possibly constant) step weight.

    Nonconvex: ``((1+eps)*delta + (1+beta)*L) / (1 - alpha)``.
    Convex: same numerator over ``2 - alpha``.
    """
    if L <= 0.0:
        raise ParameterDomainError(f"L must be positive, got {L}")
    num = (1.0 + eps) * delta + (1.0 + beta) * L
    return num / (2.0 - alpha) if convex else num / (1.0 - alpha)


def tau_step(alpha: float, beta: float, L: float, kind: ScheduleKind, delta=None):
    """Per-iteration ``(tau, delta)`` under the given schedule regime.

    For the static regimes, a pinned step weight ``delta`` gives
    ``tau_for_delta`` of it; with none, ``delta`` is computed from the
    instantaneous coefficients (at ``eps=0`` the pair collapses to the closed
    forms ``tau = (1+2*beta)/(1-2*alpha) * L`` for nonconvex blocks and
    ``tau = (1+2*beta)/(2*(1-alpha)) * L`` for convex ones).  The dynamic
    regime sets no step weight: it returns ``tau = L`` and an undefined (NaN)
    delta.
    """
    if L <= 0.0:
        raise ParameterDomainError(f"L must be positive, got {L}")
    if isinstance(kind, Dynamic):
        return L, math.nan
    if delta is None:
        delta = delta_star(alpha, beta, kind.eps, L, convex=kind.convex)
    return tau_for_delta(alpha, beta, delta, L, kind.eps, convex=kind.convex), delta


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

    * nonconvex: ``g = tau*(1-alpha) - (1+beta)*L - delta``
    * convex: ``g = tau*(2-alpha) - (1+beta)*L - delta`` (the tighter
      proximal bound for a convex block term contributes an extra ``tau``)
    * both: ``h = delta - tau*alpha - L*beta``

    With ``delta_star``/``tau_for_delta`` parameters, ``g`` equals
    ``eps*delta_star`` exactly and ``h`` is at least ``eps*delta_star``.
    """
    if convex:
        g = tau * (2.0 - alpha) - (1.0 + beta) * L - delta
    else:
        g = tau * (1.0 - alpha) - (1.0 + beta) * L - delta
    h = delta - tau * alpha - L * beta
    return g, h


def inertial_coeffs(kind: ScheduleKind, k: int):
    """(alpha, beta) for iteration ``k`` under the given schedule."""
    if isinstance(kind, Dynamic):
        c = dynamic_coeff(k)
        return c, c
    return kind.alpha_bar, kind.beta_bar
