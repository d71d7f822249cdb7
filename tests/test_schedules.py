import math

import numpy as np
import pytest

from ipalm.schedules import (
    Dynamic,
    ParameterDomainError,
    Static,
    delta_star,
    dynamic_coeff,
    inertial_coeffs,
    descent_coefficients,
    tau_for_delta,
    tau_step,
)


def test_delta_star_zero_inertia():
    assert delta_star(0.0, 0.0, 0.3, 1.0) == 0.0
    assert delta_star(0.0, 0.0, 0.0, 5.0, convex=True) == 0.0


def test_delta_star_hand_values():
    # (0.2+0.2)/(1-0-0.4) = 2/3
    assert delta_star(0.2, 0.2, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # convex: (0.4+0.8)/(2*(1-0.4)) = 1.0
    assert delta_star(0.4, 0.4, 0.0, 1.0, convex=True) == pytest.approx(1.0, rel=1e-15)


def test_delta_star_domain_errors_name_the_bound():
    with pytest.raises(ParameterDomainError, match=r"alpha_bar < \(1-eps\)/2"):
        delta_star(0.5, 0.1, 0.0, 1.0)
    with pytest.raises(ParameterDomainError, match="alpha_bar < 1-eps"):
        delta_star(1.0, 0.1, 0.0, 1.0, convex=True)
    with pytest.raises(ParameterDomainError):
        delta_star(0.1, 0.1, 0.0, 0.0)


def test_tau_step_closed_forms():
    tau, delta = tau_step(0.0, 0.0, 3.0, Static(0.0, 0.0))
    assert tau == 3.0 and delta == 0.0  # plain 1/L step
    tau, _ = tau_step(0.4, 0.4, 1.0, Static(0.4, 0.4))
    assert tau == pytest.approx(9.0, rel=1e-12)
    tau, _ = tau_step(0.4, 0.4, 1.0, Static(0.4, 0.4, convex=True))
    assert tau == pytest.approx(1.5, rel=1e-12)


def test_tau_step_closed_forms_match_general_formula_on_grid():
    for alpha in (0.0, 0.1, 0.3, 0.45):
        for beta in (0.0, 0.2, 0.7, 1.0):
            for L in (0.5, 1.0, 7.3):
                tau, _ = tau_step(alpha, beta, L, Static(0.49, 1.0))
                assert tau == pytest.approx((1 + 2 * beta) / (1 - 2 * alpha) * L, rel=1e-12)
                tau_c, _ = tau_step(alpha, beta, L, Static(0.9, 1.0, convex=True))
                assert tau_c == pytest.approx((1 + 2 * beta) / (2 * (1 - alpha)) * L, rel=1e-12)


def test_tau_step_rejects_half_alpha_nonconvex():
    with pytest.raises(ParameterDomainError):
        tau_step(0.5, 0.0, 1.0, Static(0.49, 0.0))


@pytest.mark.parametrize("kind", [Static(0.3, 0.4, 0.1), Static(0.3, 0.4, 0.1, convex=True)])
def test_tau_step_with_a_pinned_delta_is_tau_for_delta(kind):
    for delta in (0.0, 0.37, 12.5):
        tau, got = tau_step(0.2, 0.3, 1.7, kind, delta)
        assert got is delta
        assert tau.hex() == tau_for_delta(0.2, 0.3, delta, 1.7, 0.1, convex=kind.convex).hex()


def test_tau_step_dynamic():
    tau, delta = tau_step(0.7, 0.7, 2.5, Dynamic())
    assert tau == 2.5
    assert math.isnan(delta)


def test_dynamic_coeff_values_and_monotonicity():
    assert dynamic_coeff(1) == 0.0
    assert dynamic_coeff(2) == pytest.approx(0.25)
    assert dynamic_coeff(8) == pytest.approx(0.7)
    ks = np.arange(1, 500)
    vals = np.array([dynamic_coeff(int(k)) for k in ks])
    assert (np.diff(vals) > 0).all()
    assert vals[-1] < 1.0
    with pytest.raises(ValueError):
        dynamic_coeff(0)


def test_descent_coefficients_boundary_of_descent():
    g, h = descent_coefficients(0.0, 0.0, 0.0, 2.0, 2.0)
    assert g == 0.0 and h == 0.0


def test_descent_coefficients_identity_and_inequality_random_grid():
    rng = np.random.default_rng(7)
    for trial in range(10000):
        eps = (0.0, 0.01, 0.1)[trial % 3]
        convex = bool(trial % 2)
        limit = (1.0 - eps) if convex else 0.5 * (1.0 - eps)
        abar = rng.uniform(0.0, 0.999) * limit
        bbar = rng.uniform(0.0, 2.0)
        lam = rng.uniform(0.1, 10.0)
        alpha = rng.uniform(0.0, abar)
        beta = rng.uniform(0.0, bbar)
        L = rng.uniform(1e-3, 1.0) * lam
        delta = delta_star(abar, bbar, eps, lam, convex=convex)
        tau = tau_for_delta(alpha, beta, delta, L, eps, convex=convex)
        g, h = descent_coefficients(alpha, beta, delta, tau, L, convex=convex)
        assert abs(g - eps * delta) <= 1e-12 * (1.0 + abs(delta))
        assert h >= eps * delta - 1e-12


def test_tau_monotone_in_alpha_and_beta():
    grid = np.linspace(0.0, 0.45, 12)
    for kind in (Static(0.49, 2.0), Static(0.9, 2.0, convex=True)):
        for beta in (0.0, 0.5, 1.0):
            taus = [tau_step(a, beta, 1.0, kind)[0] for a in grid]
            assert all(t2 >= t1 for t1, t2 in zip(taus, taus[1:]))
        for alpha in (0.0, 0.2, 0.4):
            taus = [tau_step(alpha, b, 1.0, kind)[0] for b in np.linspace(0.0, 2.0, 12)]
            assert all(t2 >= t1 for t1, t2 in zip(taus, taus[1:]))


def test_static_kind_validation():
    with pytest.raises(ParameterDomainError):
        Static(0.5, 0.1)
    with pytest.raises(ParameterDomainError):
        Static(0.49, 0.1, eps=0.1)  # 0.49 >= (1-0.1)/2
    with pytest.raises(ParameterDomainError):
        Static(1.0, 0.1, convex=True)
    assert Static(0.8, 0.1, convex=True).alpha_bar == 0.8
    for convex in (False, True):
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterDomainError, match="beta_bar must be >= 0 and finite"):
                Static(0.0, bad, convex=convex)
            with pytest.raises(ParameterDomainError, match="eps must be >= 0 and finite"):
                Static(0.0, 0.0, eps=bad, convex=convex)


def test_inertial_coeffs():
    assert inertial_coeffs(Static(0.3, 0.4), 10) == (0.3, 0.4)
    assert inertial_coeffs(Dynamic(), 1) == (0.0, 0.0)
    a, b = inertial_coeffs(Dynamic(), 8)
    assert a == b == pytest.approx(0.7)
