"""The one-entry memos behind the BID and convlasso oracles: keys by value,
read-only results, one slot that stays consistent under thread switching,
and oracles that stay bitwise equal to a computation with empty memos; the
value ``partial_grad`` returns with the gradient is bitwise ``eval_H``'s."""

import sys
import threading

import numpy as np
import pytest

from ipalm import bid, convlasso, nmf, synthetic
from ipalm.blockmodel import BlockVector
from ipalm.imageops import remember_last

from oracles import with_empty_memos


def counted(fn):
    calls = []

    def inner(*args):
        calls.append(args)
        return fn(*args)

    return inner, calls


def bits(value):
    return np.asarray(value).tobytes()


# ---------------------------------------------------------------------------
# remember_last


def test_remember_last_hits_only_on_equal_arguments():
    fn, calls = counted(lambda a, k: a * k)
    memo = remember_last(fn)
    a = np.arange(6.0).reshape(2, 3)
    first = memo(a, 2.0)
    assert memo(a.copy(), 2.0) is first  # equal by value, not identity
    assert len(calls) == 1
    memo(a, 3.0)  # every argument is part of the key
    memo(a.reshape(3, 2), 3.0)  # so is the shape
    memo(a.astype(np.float32), 3.0)  # and the dtype
    memo(a, 3)  # and the type of a plain value
    assert len(calls) == 5


def test_remember_last_sees_in_place_mutation():
    memo = remember_last(lambda a: a.sum())
    a = np.ones((4, 4))
    assert memo(a) == 16.0
    a[1, 2] = 5.0
    assert memo(a) == 20.0


def test_remember_last_keys_on_bits():
    fn, calls = counted(lambda a: np.copysign(1.0, a))
    memo = remember_last(fn)
    assert memo(np.array([0.0]))[0] == 1.0
    assert memo(np.array([-0.0]))[0] == -1.0  # equal values, other bits
    assert len(calls) == 2


def test_remember_last_returns_read_only_arrays():
    memo = remember_last(lambda a: a + 1.0)
    out = memo(np.zeros(3))
    with pytest.raises(ValueError):
        out[0] = 7.0
    assert memo(np.zeros(3))[0] == 1.0


def test_remember_last_under_thread_switching_stress():
    """More threads than cores, switching every microsecond, each repeating
    and changing its arguments out of phase with the others over one pool:
    every result must belong to its own arguments."""
    memo = remember_last(lambda a, k: a * k)
    pool = [np.full(64, 1.0), np.full(64, 3.0)]
    errors = []

    def worker(seed):
        for step in range(3000):
            a = pool[(step // 2 + seed) % 2]
            k = float((step // 4 + seed) % 2 + 1)
            if not np.array_equal(memo(a, k), a * k):
                errors.append((seed, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ---------------------------------------------------------------------------
# BID


def bid_case(theta=1e4, seed=0):
    f = synthetic.synth_bid(size=24, kernel=5, seed=seed)["f"]
    params = bid.BidParams(theta=theta, kernel_shape=(5, 5))
    return bid.make_bid_problem(f, params), bid.init_bid(f, params)


def test_bid_eval_H_sees_blocks_mutated_in_place():
    problem, x = bid_case()
    u, b = x[0].copy(), x[1].copy()
    x = BlockVector([u, b])  # holds these arrays as they are
    problem.eval_H(x)
    u[3:6, 4:9] = 0.25
    assert bits(problem.eval_H(x)) == bits(with_empty_memos(problem.eval_H, x))
    b[...] = np.eye(5) / 5.0
    assert bits(problem.eval_H(x)) == bits(with_empty_memos(problem.eval_H, x))


def test_bid_problems_with_different_theta_do_not_share_a_penalty():
    problem1, x = bid_case(theta=1e4)
    problem2, _ = bid_case(theta=3e2)
    fresh = [with_empty_memos(problem.eval_H, x) for problem in (problem1, problem2)]
    assert fresh[0] != fresh[1]
    for _ in range(3):
        for problem, want in zip((problem1, problem2), fresh):
            assert bits(problem.eval_H(x)) == bits(want)


def test_bid_remembered_spectra_are_read_only():
    problem, x = bid_case()
    problem.eval_H(x)
    for spectrum in (bid.image_spectrum(x[0]), bid.kernel_spectrum(x[1], x[0].shape)):
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0, 0] = 0.0


def bid_line_search_points(x, rng):
    """Oracle arguments in the order a backtracking sweep makes them: each
    block moves through a few candidates while the other stays put."""
    u, b = x[0], x[1]
    points = []
    for _ in range(2):
        points += [(u, b)] * 2  # gradient, then h at the base point
        for _ in range(3):
            points.append((np.clip(u + 0.05 * rng.normal(size=u.shape), 0, 1), b))
        u = points[-1][0]
        points += [(u, b)] * 2
        for _ in range(3):
            cand = np.abs(b + 0.01 * rng.normal(size=b.shape))
            points.append((u, cand / cand.sum()))
        b = points[-1][1]
    return points


@pytest.mark.parametrize("exact", [False, True])
def test_bid_oracles_match_unmemoized_references_bitwise(exact):
    problem, x = bid_case(seed=3)
    rng = np.random.default_rng(5)
    for u, b in bid_line_search_points(x, rng):
        xb = BlockVector([u, b])
        oracles = [(problem.eval_H, (xb,)), (problem.partial_grad, (0, xb)),
                   (problem.partial_grad, (1, xb))]
        if exact:
            oracles += [(problem.lipschitz, (0, xb)), (problem.lipschitz, (1, xb))]
        for oracle, args in oracles:
            assert bits(oracle(*args)) == bits(with_empty_memos(oracle, *args))


# ---------------------------------------------------------------------------
# convlasso


def convlasso_case():
    f = synthetic.synth_convlasso(size=12, seed=0)["f"]
    problem = convlasso.make_convlasso_problem(f, p=4, l=3, lam=0.05)
    x = convlasso.init_convlasso(f, p=4, l=3, seed=1)
    rng = np.random.default_rng(2)
    return problem, BlockVector([x[0], 0.1 * rng.normal(size=x[1].shape)])


def test_convlasso_eval_H_sees_blocks_mutated_in_place():
    problem, x = convlasso_case()
    x = BlockVector([x[0].copy(), x[1].copy()])
    problem.eval_H(x)
    x[1][0, 2:5, 3] = 0.7
    assert bits(problem.eval_H(x)) == bits(with_empty_memos(problem.eval_H, x))
    x[0][1] = -x[0][1]
    assert bits(problem.eval_H(x)) == bits(with_empty_memos(problem.eval_H, x))


def test_convlasso_remembered_spectra_are_read_only():
    problem, x = convlasso_case()
    problem.eval_H(x)
    for spectrum in (convlasso.kernel_spectrum(x[0], x[1].shape[1:]),
                     convlasso.image_spectrum(x[1])):
        assert not spectrum.flags.writeable


def convlasso_line_search_points(x, rng):
    """The convlasso counterpart of `bid_line_search_points`."""
    d, v = x[0], x[1]
    points = []
    for _ in range(2):
        points += [(d, v)] * 2
        points += [(d + 0.1 * rng.normal(size=d.shape), v) for _ in range(3)]
        d = points[-1][0]
        points += [(d, v)] * 2
        points += [(d, v + 0.1 * rng.normal(size=v.shape)) for _ in range(3)]
        v = points[-1][1]
    return points


def test_convlasso_oracles_match_fresh_evaluations_bitwise():
    problem, x = convlasso_case()
    for d, v in convlasso_line_search_points(x, np.random.default_rng(9)):
        xb = BlockVector([d, v])
        for oracle, args in ((problem.eval_H, (xb,)), (problem.partial_grad, (0, xb)),
                             (problem.partial_grad, (1, xb))):
            assert bits(oracle(*args)) == bits(with_empty_memos(oracle, *args))


# ---------------------------------------------------------------------------
# the value with the gradient


def nmf_line_search_points(rng):
    """A small NMF instance and points in the order a backtracking sweep
    visits them, as in `bid_line_search_points`."""
    A = synthetic.synth_nmf(seed=4)["A"]
    x = nmf.init_nmf(A, r=3, s=2, seed=4)
    B, C = x[0], x[1]
    points = []
    for _ in range(2):
        points += [(B, C)] * 2
        points += [(np.abs(B + 0.1 * rng.normal(size=B.shape)), C) for _ in range(3)]
        B = points[-1][0]
        points += [(B, C)] * 2
        points += [(B, np.abs(C + 0.1 * rng.normal(size=C.shape))) for _ in range(3)]
        C = points[-1][1]
    return nmf.make_nmf_problem(A, r=3, s=2), points


def value_case(name):
    """A problem and its line-search points."""
    if name == "bid":
        problem, x = bid_case(seed=3)
        return problem, bid_line_search_points(x, np.random.default_rng(5))
    if name == "convlasso":
        problem, x = convlasso_case()
        return problem, convlasso_line_search_points(x, np.random.default_rng(9))
    return nmf_line_search_points(np.random.default_rng(6))


def warm(fn, *args):
    return fn(*args)


@pytest.mark.parametrize("call", [warm, with_empty_memos], ids=["warm", "empty_memos"])
@pytest.mark.parametrize("case", ["bid", "convlasso", "nmf"])
def test_partial_grad_value_is_bitwise_the_gradient_and_eval_H(case, call):
    """``partial_grad(i, x, value=True)`` is ``(partial_grad(i, x), eval_H(x))``
    bit for bit at every line-search point, whatever the memos hold."""
    problem, points = value_case(case)
    for blocks in points:
        x = BlockVector(list(blocks))
        for i in range(2):
            grad, h = call(problem.partial_grad, i, x, True)
            assert isinstance(h, float)
            assert bits(grad) == bits(call(problem.partial_grad, i, x))
            assert bits(h) == bits(call(problem.eval_H, x))


# ---------------------------------------------------------------------------
# transforms per warm oracle call (the `transforms` fixture is in conftest.py)


def warm_counts(calls, oracle, args, remembered):
    """Transforms made by ``oracle(*args)`` once its memos are warm.  The
    memos hold the transforms they were built on, which the count cannot
    see, so the call must also leave each of the ``remembered`` spectra in
    place: a memo the oracle missed would have replaced its slot."""
    oracle(*args)
    spectra = [memo(*memo_args) for memo, memo_args in remembered]
    calls.clear()
    oracle(*args)
    count = len(calls)
    for (memo, memo_args), spectrum in zip(remembered, spectra):
        assert memo(*memo_args) is spectrum
    return count


def test_warm_bid_oracles_make_no_spatial_round_trip(transforms):
    problem, x = bid_case(seed=2)
    remembered = [(bid.image_spectrum, (x[0],)), (bid.kernel_spectrum, (x[1], x[0].shape))]
    assert warm_counts(transforms, problem.eval_H, (x,), remembered) == 0
    assert warm_counts(transforms, problem.partial_grad, (0, x), remembered) == 1
    # the kernel gradient is a centred window by DFT factors, no transform
    assert warm_counts(transforms, problem.partial_grad, (1, x), remembered) == 0
    assert warm_counts(transforms, problem.lipschitz, (0, x), remembered[1:]) == 0
    # asking for the value too costs no transform
    assert warm_counts(transforms, problem.partial_grad, (0, x, True), remembered) == 1
    assert warm_counts(transforms, problem.partial_grad, (1, x, True), remembered) == 0


def test_warm_convlasso_oracles_make_no_spatial_round_trip(transforms):
    problem, x = convlasso_case()
    remembered = [(convlasso.kernel_spectrum, (x[0], x[1].shape[1:])),
                  (convlasso.image_spectrum, (x[1],))]
    assert warm_counts(transforms, problem.eval_H, (x,), remembered) == 0
    # the filter gradient is a centred window by DFT factors, no transform
    assert warm_counts(transforms, problem.partial_grad, (0, x), remembered) == 0
    assert warm_counts(transforms, problem.partial_grad, (1, x), remembered) == 1
    assert warm_counts(transforms, problem.lipschitz, (0, x), remembered[1:]) == 0
    assert warm_counts(transforms, problem.lipschitz, (1, x), remembered[:1]) == 0
    assert warm_counts(transforms, problem.partial_grad, (0, x, True), remembered) == 0
    assert warm_counts(transforms, problem.partial_grad, (1, x, True), remembered) == 1
