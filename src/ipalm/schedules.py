"""Per-iteration inertial and step parameter rules.

Each schedule kind owns its rule: ``kind.coeffs(k)`` gives the inertial pair
``(alpha, beta)`` of iteration ``k``, and ``kind.rule(delta)`` compiles the
step ``(alpha, beta, L) -> (tau, delta)``, which checks nothing.  Two kinds
are supported:

* static -- constant extrapolation coefficients.  Each rule is written once
  in the prox factor ``c``: ``c = 2`` on a block whose nonsmooth term is
  convex (``convex=True``; its prox inequality gains one more ``tau``) and
  ``c = 1`` for an arbitrary nonsmooth term.  The rule needs
  ``alpha < c*(1-eps)/2`` and, at ``eps = 0``, steps with
  ``tau = (1+2*beta)/(c-2*alpha) * L``;
* dynamic -- accelerated-style coefficients ``(k-1)/(k+2)`` with plain ``1/L``
  steps.  Empirically the fastest regime but not covered by the descent
  theory, so runs in this mode are flagged as heuristic.

``delta_star`` is the checked door to the static step weight; the step for
a given weight is ``Static(...).rule(delta)(alpha, beta, L)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial


class ParameterDomainError(ValueError):
    """Inertial parameters violate the bounds required by the step rule."""


def _bound_error(subject: str, alpha_bar: float, eps: float, convex: bool):
    """The rejection of ``alpha_bar >= c*(1-eps)/2``; ``{}`` in ``subject`` is the convexity."""
    bound = "1-eps" if convex else "(1-eps)/2"
    return ParameterDomainError(
        f"{subject.format('convex' if convex else 'nonconvex')} needs alpha_bar < {bound}; "
        f"got alpha_bar={alpha_bar}, eps={eps}"
    )


def _prox_factors(eps: float, convex: bool):
    """The static rule's constants ``c``, ``c*(1-eps)`` and ``1+eps``: the one
    home of the prox factor ``c``."""
    c = 2.0 if convex else 1.0
    return c, c * (1.0 - eps), 1.0 + eps


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
        c_eps = _prox_factors(self.eps, self.convex)[1]
        if not c_eps - 2.0 * self.alpha_bar > 0.0:
            raise _bound_error("static {} schedule", self.alpha_bar, self.eps, self.convex)

    def coeffs(self, k: int):
        """``(alpha, beta)`` at iteration ``k``: the constant bounds."""
        return self.alpha_bar, self.beta_bar

    def rule(self, delta=None):
        """The compiled step: ``delta`` is the instantaneous step weight
        ``delta_star(alpha, beta, eps, L)`` unless pinned, and
        ``tau = ((1+eps)*delta + (1+beta)*L) / (c - alpha)``.  The constants
        are formed once and bound."""
        return partial(_static_step, *_prox_factors(self.eps, self.convex), delta)


@dataclass(frozen=True)
class Dynamic:
    """alpha = beta = (k-1)/(k+2), tau = L.  Heuristic mode: no step-weight
    delta is defined, hence no Lyapunov value is tracked for such runs."""

    def coeffs(self, k: int):
        """``alpha = beta = (k-1)/(k+2)`` at iteration ``k >= 1``."""
        coeff = (k - 1.0) / (k + 2.0)
        return coeff, coeff

    def rule(self, delta=None):
        """The compiled step: ``tau = L`` and an undefined (NaN) ``delta``."""
        return _dynamic_step


def _static_step(c, c_eps, one_eps, delta, alpha, beta, L):
    """The static rule, the one home of its formula, in the constants of
    `_prox_factors`; ``delta`` is the instantaneous weight unless pinned."""
    if delta is None:
        delta = (alpha + c * beta) * L / (c_eps - 2.0 * alpha)
    return (one_eps * delta + (1.0 + beta) * L) / (c - alpha), delta


def _dynamic_step(alpha, beta, L):
    return L, math.nan


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
    c, c_eps, one_eps = _prox_factors(eps, convex)
    if c_eps - 2.0 * alpha_bar <= 0.0:
        raise _bound_error("{} step weight", alpha_bar, eps, convex)
    return _static_step(c, c_eps, one_eps, None, alpha_bar, beta_bar, lambda_plus)[1]
