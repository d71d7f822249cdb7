"""Per-iteration inertial and step parameter rules.

Each schedule kind owns its rule: ``kind.coeffs(k)`` gives the inertial pair
``(alpha, beta)`` of iteration ``k``, and ``kind.rule()`` compiles the step
``(alpha, beta, L) -> (tau, delta)``, which checks nothing.  Two kinds are
supported:

* static -- constant extrapolation coefficients.  Each rule is written once
  in the prox factor ``c``: ``c = 2`` on a block whose nonsmooth term is
  convex (``convex=True``; its prox inequality gains one more ``tau``) and
  ``c = 1`` for an arbitrary nonsmooth term.  The rule needs
  ``alpha < c*(1-eps)/2`` and, at ``eps = 0``, steps with
  ``tau = (1+2*beta)/(c-2*alpha) * L``.  The kind's ``delta``, when set,
  pins the Lyapunov step weight; ``Static.pin(lambda_plus)`` is the checked
  door to the weight that certifies moduli up to ``lambda_plus``;
* dynamic -- accelerated-style coefficients ``(k-1)/(k+2)`` with plain ``1/L``
  steps.  Empirically the fastest regime but not covered by the descent
  theory, so runs in this mode are flagged as heuristic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional


class ParameterDomainError(ValueError):
    """Inertial parameters violate the bounds required by the step rule."""


def _prox_factors(eps: float, convex: bool):
    """The static rule's constants ``c``, ``c*(1-eps)`` and ``1+eps``: the one
    home of the prox factor ``c``."""
    c = 2.0 if convex else 1.0
    return c, c * (1.0 - eps), 1.0 + eps


@dataclass(frozen=True)
class Static:
    """Constant (alpha, beta); ``convex`` sets the prox factor ``c`` to 2, the
    larger steps that a convex block term permits (1 otherwise).  ``delta``
    pins the Lyapunov step weight, kept as given; ``None`` takes the
    instantaneous weight at each step."""

    alpha_bar: float
    beta_bar: float
    eps: float = 0.0
    convex: bool = False
    delta: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha_bar < 1.0:
            raise ParameterDomainError(f"alpha_bar must lie in [0, 1), got {self.alpha_bar}")
        if not 0.0 <= self.beta_bar < math.inf:
            raise ParameterDomainError(f"beta_bar must be >= 0 and finite, got {self.beta_bar}")
        if not 0.0 <= self.eps < math.inf:
            raise ParameterDomainError(f"eps must be >= 0 and finite, got {self.eps}")
        c_eps = _prox_factors(self.eps, self.convex)[1]
        if not c_eps - 2.0 * self.alpha_bar > 0.0:
            convexity, bound = ("convex", "1-eps") if self.convex else ("nonconvex", "(1-eps)/2")
            raise ParameterDomainError(
                f"static {convexity} schedule needs alpha_bar < {bound}; "
                f"got alpha_bar={self.alpha_bar}, eps={self.eps}"
            )
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise ParameterDomainError(f"delta must be >= 0 and finite, got {self.delta}")

    def coeffs(self, k: int):
        """``(alpha, beta)`` at iteration ``k``: the constant bounds."""
        return self.alpha_bar, self.beta_bar

    def pin(self, lambda_plus: float) -> "Static":
        """This kind with ``delta`` pinned to the Lyapunov step weight for
        moduli up to ``lambda_plus``:
        ``(alpha_bar + c*beta_bar) * lambda_plus / (c*(1-eps) - 2*alpha_bar)``."""
        if lambda_plus <= 0.0:
            raise ParameterDomainError(f"lambda_plus must be positive, got {lambda_plus}")
        factors = _prox_factors(self.eps, self.convex)
        delta = _static_step(*factors, None, self.alpha_bar, self.beta_bar, lambda_plus)[1]
        return dataclasses.replace(self, delta=delta)

    def rule(self):
        """The compiled step: the pinned ``delta``, else the instantaneous
        weight, and ``tau = ((1+eps)*delta + (1+beta)*L) / (c - alpha)``.
        The constants are formed once and bound."""
        return partial(_static_step, *_prox_factors(self.eps, self.convex), self.delta)


@dataclass(frozen=True)
class Dynamic:
    """alpha = beta = (k-1)/(k+2), tau = L.  Heuristic mode: no step-weight
    delta is defined, hence no Lyapunov value is tracked for such runs."""

    def coeffs(self, k: int):
        """``alpha = beta = (k-1)/(k+2)`` at iteration ``k >= 1``."""
        coeff = (k - 1.0) / (k + 2.0)
        return coeff, coeff

    def rule(self):
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

