import pickle

import numpy as np
import pytest
from oracles import InertialParams, block_axpy, block_norms_sq

import ipalm
from ipalm import bid, nmf
from ipalm.blockmodel import (
    BlockVector,
    DataError,
    ProblemSpec,
    ShapeMismatchError,
    check_data,
    extrapolate,
)


def random_bv(rng, shapes=((3, 2), (4,))):
    return BlockVector([rng.standard_normal(s) for s in shapes])


def test_block_vector_converts_every_block_to_float64():
    ints, floats32 = np.arange(6).reshape(2, 3), np.ones(4, dtype=np.float32)
    x = BlockVector([ints, floats32, [1, 2]])
    assert [b.dtype for b in x] == [np.float64] * 3
    assert np.array_equal(x[0], ints) and np.array_equal(x[1], floats32)
    assert np.array_equal(x[2], [1.0, 2.0])
    f64 = np.zeros(3)
    assert BlockVector([f64])[0] is f64  # float64 blocks are held as they are


def test_block_vector_rejects_an_empty_vector():
    with pytest.raises(ValueError, match="at least one block"):
        BlockVector([])


def test_block_vector_indexes_iterates_and_measures_as_a_tuple():
    blocks = [np.zeros((2, 2)), np.ones(3), np.full(1, 7.0)]
    x = BlockVector(blocks)
    assert isinstance(x, tuple) and len(x) == 3
    assert all(a is b for a, b in zip(x, blocks))
    assert x[1] is blocks[1] and x[-1] is blocks[2]
    assert type(x[1:]) is tuple and len(x[1:]) == 2
    first, *rest = x
    assert first is blocks[0] and len(rest) == 2
    with pytest.raises(IndexError):
        x[3]
    with pytest.raises(TypeError):
        hash(x)  # its blocks cannot be hashed


def test_block_vector_pickles_with_its_type_and_bits():
    rng = np.random.default_rng(7)
    x = BlockVector([rng.standard_normal((3, 2)), np.array([-0.0, np.inf]), np.arange(4.0)])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        y = pickle.loads(pickle.dumps(x, protocol=protocol))
        assert type(y) is BlockVector and len(y) == len(x)
        assert [(b.shape, b.dtype, b.tobytes()) for b in y] == [
            (b.shape, b.dtype, b.tobytes()) for b in x
        ]


def test_block_vector_has_no_instance_dict():
    x = BlockVector([np.zeros(2)])
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.extra = 1


def _spec(convex):
    return ProblemSpec(
        eval_F=lambda x: 0.0,
        eval_H=lambda x, above=None: 0.0,
        partial_grad=lambda i, x, value=False: np.zeros_like(x[i]),
        prox=lambda i, t, p: p,
        convex=convex,
    )


def test_problem_spec_counts_one_block_per_convex_flag():
    for convex in ((True,), (False, True), (True, False, True)):
        assert _spec(convex).num_blocks == len(convex)


def test_problem_spec_rejects_an_empty_convex_tuple():
    with pytest.raises(ValueError, match="at least one block"):
        _spec(())


def test_axpy_zero_coefficient_is_identity():
    rng = np.random.default_rng(0)
    x, y = random_bv(rng), random_bv(rng)
    out = block_axpy(0.0, x, y)
    for ob, yb in zip(out, y):
        assert np.array_equal(ob, yb)


def test_axpy_unit_coefficient_on_zero():
    rng = np.random.default_rng(1)
    x = random_bv(rng)
    zero = BlockVector([np.zeros_like(b) for b in x])
    out = block_axpy(1.0, x, zero)
    for ob, xb in zip(out, x):
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
    for ob, xb, yb in zip(out, x, y):
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


def test_extrapolate_rejects_a_nan_coeff():
    # a NaN coefficient would turn the whole block into NaN
    x = BlockVector([np.ones(2)])
    with pytest.raises(ValueError, match="coefficient must be >= 0"):
        extrapolate(x, x, float("nan"), 0)


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
