"""Property test: the static step rules of `ipalm.schedules`, each written
once in the prox factor ``c``, give bit for bit the values of the two-branch
rules they replace, and accept and reject the same coefficient bounds,
including ``alpha_bar`` exactly at ``(1-eps)/2`` and at ``1-eps``; the
weight ``Static.pin`` pins is the two-branch one, and the rule the solver
compiles per block, ``kind.rule()``, unpinned or pinned, gives the bits of
the two-branch rules at the kind's own coefficients ``kind.coeffs(k)`` and
at any below them."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import (  # noqa: E402
    delta_star_two_branch,
    static_bound_two_branch,
    tau_for_delta_two_branch,
)

from ipalm.schedules import Dynamic, ParameterDomainError, Static  # noqa: E402

unit = st.floats(0.0, 1.0)


@st.composite
def rule_cases(draw):
    """Coefficient bounds, instantaneous coefficients at or below them, a
    Lipschitz bound and modulus, and the block's convexity.  ``alpha_bar``
    is a bound of either rule, a float next to one, or any value in [0, 1)."""
    eps = draw(st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.1]), st.floats(0.0, 1.0)))
    bound = draw(st.sampled_from([(1.0 - eps) / 2.0, 1.0 - eps]))
    alpha_bar = draw(st.one_of(
        st.just(bound),
        st.just(math.nextafter(bound, 0.0)),
        st.just(math.nextafter(bound, 1.0)),
        st.floats(0.0, 1.0, exclude_max=True),
    ))
    beta_bar = draw(st.floats(0.0, 10.0))
    return dict(
        alpha_bar=alpha_bar,
        beta_bar=beta_bar,
        eps=eps,
        lambda_plus=draw(st.one_of(st.floats(1e-6, 1e6), st.sampled_from([0.0, -1.0]))),
        alpha=alpha_bar * draw(st.one_of(st.just(1.0), unit)),
        beta=beta_bar * draw(st.one_of(st.just(1.0), unit)),
        L=draw(st.floats(1e-6, 1e6)),
        convex=draw(st.booleans()),
    )


def outcome(fn, *args, **kwargs):
    """The hex of each value ``fn`` returns, or the type of what it raises."""
    try:
        value = fn(*args, **kwargs)
    except (ParameterDomainError, ZeroDivisionError) as exc:
        return type(exc)
    return tuple(v.hex() for v in value) if isinstance(value, tuple) else value.hex()


@settings(max_examples=300, deadline=None, database=None)
@given(case=rule_cases(), pinned=st.floats(0.0, 1e6))
@example(case=dict(alpha_bar=0.5, beta_bar=0.5, eps=0.0, lambda_plus=1.0, alpha=0.5,
                   beta=0.5, L=1.0, convex=False), pinned=0.0)
@example(case=dict(alpha_bar=0.45, beta_bar=0.5, eps=0.1, lambda_plus=1.0, alpha=0.45,
                   beta=0.5, L=1.0, convex=False), pinned=0.0)
@example(case=dict(alpha_bar=0.9, beta_bar=0.5, eps=0.1, lambda_plus=1.0, alpha=0.9,
                   beta=0.5, L=1.0, convex=True), pinned=0.0)
def test_one_formula_matches_the_two_branch_rules_bitwise(case, pinned):
    ab, bb, eps, lam = case["alpha_bar"], case["beta_bar"], case["eps"], case["lambda_plus"]
    alpha, beta, L, convex = case["alpha"], case["beta"], case["L"], case["convex"]

    accepted = static_bound_two_branch(ab, eps, convex)
    try:
        kind = Static(ab, bb, eps, convex=convex)
    except ParameterDomainError:
        kind = None
    assert (kind is not None) == accepted

    def pinned_weight():
        return Static(ab, bb, eps, convex=convex).pin(lam).delta

    assert outcome(pinned_weight) == outcome(
        delta_star_two_branch, ab, bb, eps, lam, convex=convex)

    if accepted:
        # the solver's per-block call, at the bounds themselves as instantaneous
        # coefficients, unpinned and pinned
        assert outcome(kind.rule(), ab, bb, L) == (
            tau_for_delta_two_branch(ab, bb, delta_star_two_branch(ab, bb, eps, L, convex),
                                     L, eps, convex).hex(),
            delta_star_two_branch(ab, bb, eps, L, convex).hex())
        assert outcome(Static(ab, bb, eps, convex, pinned).rule(), alpha, beta, L)[0] == outcome(
            tau_for_delta_two_branch, alpha, beta, pinned, L, eps, convex=convex)


def hexes(pair):
    return tuple(v.hex() for v in pair)


@settings(max_examples=300, deadline=None, database=None)
@given(case=rule_cases(), pinned=st.one_of(st.none(), st.floats(0.0, 1e6)),
       scale=st.sampled_from([1.0, 1.5, 5.0]),
       L=st.one_of(st.floats(1e-300, 1e300), st.just(math.inf)))
@example(case=dict(alpha_bar=0.0, beta_bar=0.0, eps=0.0, lambda_plus=1.0, alpha=0.0,
                   beta=0.0, L=1.0, convex=False), pinned=None, scale=1.0, L=math.inf)
def test_the_compiled_rule_gives_the_bits_of_tau_step_and_the_two_branch_rules(
        case, pinned, scale, L):
    ab, bb, eps, convex = case["alpha_bar"], case["beta_bar"], case["eps"], case["convex"]
    # the dynamic rule: tau = L, scaled by the solver, and no step weight
    tau, delta = Dynamic().rule()(case["alpha"], case["beta"], L)
    assert (tau * scale).hex() == (L * scale).hex() and math.isnan(delta)
    assert tau.hex() == L.hex()
    if not static_bound_two_branch(ab, eps, convex):
        return
    kind = Static(ab, bb, eps, convex=convex, delta=pinned)
    rule = kind.rule()
    # the solver's call, at the kind's own coefficients, and any below them
    for alpha, beta in (kind.coeffs(1), (case["alpha"], case["beta"])):
        got = rule(alpha, beta, L)
        want_delta = (delta_star_two_branch(alpha, beta, eps, L, convex)
                      if pinned is None else pinned)
        want_tau = tau_for_delta_two_branch(alpha, beta, want_delta, L, eps, convex)
        assert hexes(got) == (want_tau.hex(), want_delta.hex())
        assert (got[0] * scale).hex() == (want_tau * scale).hex()
        if pinned is not None:
            assert got[1] is pinned
    # an overflowed modulus at zero inertia: 0*inf, a NaN step weight, which
    # the trace records as no Lyapunov value
    if L == math.inf and ab == bb == 0.0 and pinned is None:
        assert math.isnan(rule(0.0, 0.0, L)[1])
