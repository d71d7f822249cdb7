import math

import numpy as np
import pytest

from ipalm.schedules import (
    Dynamic,
    ParameterDomainError,
    Static,
    delta_star,
    descent_coefficients,
    tau_for_delta,
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
    tau, delta = Static(0.0, 0.0).rule()(0.0, 0.0, 3.0)
    assert tau == 3.0 and delta == 0.0  # plain 1/L step
    tau, _ = Static(0.4, 0.4).rule()(0.4, 0.4, 1.0)
    assert tau == pytest.approx(9.0, rel=1e-12)
    tau, _ = Static(0.4, 0.4, convex=True).rule()(0.4, 0.4, 1.0)
    assert tau == pytest.approx(1.5, rel=1e-12)


def test_tau_step_closed_forms_match_general_formula_on_grid():
    rule, rule_c = Static(0.49, 1.0).rule(), Static(0.9, 1.0, convex=True).rule()
    for alpha in (0.0, 0.1, 0.3, 0.45):
        for beta in (0.0, 0.2, 0.7, 1.0):
            for L in (0.5, 1.0, 7.3):
                tau, _ = rule(alpha, beta, L)
                assert tau == pytest.approx((1 + 2 * beta) / (1 - 2 * alpha) * L, rel=1e-12)
                tau_c, _ = rule_c(alpha, beta, L)
                assert tau_c == pytest.approx((1 + 2 * beta) / (2 * (1 - alpha)) * L, rel=1e-12)


@pytest.mark.parametrize("kind", [Static(0.3, 0.4, 0.1), Static(0.3, 0.4, 0.1, convex=True)])
def test_tau_step_with_a_pinned_delta_is_tau_for_delta(kind):
    for delta in (0.0, 0.37, 12.5):
        tau, got = kind.rule(delta)(0.2, 0.3, 1.7)
        assert got is delta
        assert tau.hex() == tau_for_delta(0.2, 0.3, delta, 1.7, 0.1, convex=kind.convex).hex()


def test_tau_for_delta_rejects_a_nonpositive_modulus():
    for L in (0.0, -1.0):
        with pytest.raises(ParameterDomainError, match="L must be positive"):
            tau_for_delta(0.1, 0.1, 1.0, L)


def test_tau_step_dynamic():
    tau, delta = Dynamic().rule()(0.7, 0.7, 2.5)
    assert tau == 2.5
    assert math.isnan(delta)


def test_dynamic_coeff_values_and_monotonicity():
    coeff = Dynamic().coeffs
    assert coeff(1) == (0.0, 0.0)
    assert coeff(2)[0] == pytest.approx(0.25)
    assert coeff(8)[0] == pytest.approx(0.7)
    ks = np.arange(1, 500)
    vals = np.array([coeff(int(k))[0] for k in ks])
    assert (np.diff(vals) > 0).all()
    assert vals[-1] < 1.0


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
        rule = kind.rule()
        for beta in (0.0, 0.5, 1.0):
            taus = [rule(a, beta, 1.0)[0] for a in grid]
            assert all(t2 >= t1 for t1, t2 in zip(taus, taus[1:]))
        for alpha in (0.0, 0.2, 0.4):
            taus = [rule(alpha, b, 1.0)[0] for b in np.linspace(0.0, 2.0, 12)]
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
    assert Static(0.3, 0.4).coeffs(10) == (0.3, 0.4)
    assert Dynamic().coeffs(1) == (0.0, 0.0)
    a, b = Dynamic().coeffs(8)
    assert a == b == pytest.approx(0.7)
