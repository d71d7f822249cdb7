import numpy as np
import pytest
from oracles import InertialParams, block_axpy, block_norms_sq

import ipalm
from ipalm import bid, nmf
from ipalm.blockmodel import (
    BlockVector,
    DataError,
    ShapeMismatchError,
    check_data,
    extrapolate,
    step_deltas,
)


def random_bv(rng, shapes=((3, 2), (4,))):
    return BlockVector([rng.standard_normal(s) for s in shapes])


def test_axpy_zero_coefficient_is_identity():
    rng = np.random.default_rng(0)
    x, y = random_bv(rng), random_bv(rng)
    out = block_axpy(0.0, x, y)
    for ob, yb in zip(out.blocks, y.blocks):
        assert np.array_equal(ob, yb)


def test_axpy_unit_coefficient_on_zero():
    rng = np.random.default_rng(1)
    x = random_bv(rng)
    zero = BlockVector([np.zeros_like(b) for b in x.blocks])
    out = block_axpy(1.0, x, zero)
    for ob, xb in zip(out.blocks, x.blocks):
        assert np.array_equal(ob, xb)


def test_axpy_hand_example_against_loop_oracle():
    x = BlockVector([np.array([1.0]), np.array([2.0])])
    y = BlockVector([np.array([3.0]), np.array([4.0])])
    out = block_axpy(2.0, x, y)
    assert np.array_equal(out[0], [5.0])
    assert np.array_equal(out[1], [8.0])
    # elementwise loop oracle on random data
    rng = np.random.default_rng(2)
    a = 1.37
    x, y = random_bv(rng), random_bv(rng)
    out = block_axpy(a, x, y)
    for ob, xb, yb in zip(out.blocks, x.blocks, y.blocks):
        expect = np.empty_like(xb)
        for idx in np.ndindex(xb.shape):
            expect[idx] = a * xb[idx] + yb[idx]
        assert np.allclose(ob, expect, rtol=0, atol=0)


def test_axpy_shape_mismatch():
    x = BlockVector([np.zeros(3)])
    y = BlockVector([np.zeros(4)])
    with pytest.raises(ShapeMismatchError):
        block_axpy(1.0, x, y)


def test_extrapolate_zero_coeff_bitwise_identity():
    rng = np.random.default_rng(3)
    x_cur, x_prev = random_bv(rng), random_bv(rng)
    out = extrapolate(x_cur, x_prev, 0.0, 0)
    assert out is x_cur[0]  # not merely equal: the same array


def test_extrapolate_stationary():
    rng = np.random.default_rng(4)
    x = random_bv(rng)
    out = extrapolate(x, x, 0.7, 1)
    assert np.allclose(out, x[1], rtol=0, atol=1e-15)


def test_extrapolate_scalar_example():
    x_cur = BlockVector([np.array([2.0])])
    x_prev = BlockVector([np.array([1.0])])
    assert extrapolate(x_cur, x_prev, 0.5, 0) == pytest.approx([2.5])


def test_extrapolate_rejects_negative_coeff():
    x = BlockVector([np.zeros(2)])
    with pytest.raises(ValueError):
        extrapolate(x, x, -0.1, 0)


def test_step_deltas_examples():
    x = BlockVector([np.array([3.0]), np.array([0.0])])
    y = BlockVector([np.array([1.0]), np.array([0.0])])
    d = step_deltas(x, y)
    assert d == pytest.approx([2.0, 0.0])
    assert step_deltas(x, x) == pytest.approx([0.0, 0.0])


def test_step_deltas_sum_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = random_bv(rng), random_bv(rng)
        d = step_deltas(x, y)
        diff_sq = sum(float(np.sum((a - b) ** 2)) for a, b in zip(x.blocks, y.blocks))
        assert d.sum() == pytest.approx(0.5 * diff_sq, rel=1e-14)


def test_norm_additivity_property():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = random_bv(rng, shapes=((5, 3), (2, 2, 2), (7,)))
        total = x.norm_sq()
        per_block = block_norms_sq(x).sum()
        assert abs(total - per_block) <= 1e-12 * (1.0 + total)


def test_with_block_shape_check():
    x = BlockVector([np.zeros((2, 2)), np.zeros(3)])
    with pytest.raises(ShapeMismatchError):
        x.with_block(0, np.zeros(3))
    y = x.with_block(1, np.ones(3))
    assert np.array_equal(y[1], np.ones(3))
    assert np.array_equal(y[0], x[0])


def test_inertial_params_validation():
    ok = InertialParams(alpha=(0.2,), beta=(0.2,), tau=(1.0,), delta=(0.1,), L=(1.0,))
    assert ok.alpha == (0.2,)
    with pytest.raises(ValueError):
        InertialParams(alpha=(1.0,), beta=(0.0,), tau=(1.0,), delta=(0.0,), L=(1.0,))
    with pytest.raises(ValueError):
        InertialParams(alpha=(0.0,), beta=(1.5,), tau=(1.0,), delta=(0.0,), L=(1.0,))
    with pytest.raises(ValueError):
        InertialParams(alpha=(0.0,), beta=(0.0,), tau=(0.0,), delta=(0.0,), L=(1.0,))


def test_every_problem_raises_the_one_data_error():
    assert bid.DataError is nmf.DataError is ipalm.DataError is DataError
    assert issubclass(DataError, ValueError)


@pytest.mark.parametrize("data, message", [
    (np.zeros(4), "x must be 2-D, got ndim=1"),
    (np.array([[0.0, np.inf]]), "x has non-finite entries"),
])
def test_check_data_names_the_data(data, message):
    with pytest.raises(DataError, match=message):
        check_data(data, "x")
