"""Property test: the DFT-factor kernel transforms in `ipalm.imageops` agree
with the full-size ones they replace, the zero-padded ``rfft2`` and the
windowed ``irfft2``, to 1e-12 of the largest modulus, for odd kernel sides
from 1 up to the image side, stacks of 1-8 kernels and even and odd image
sides.

A window's bound also carries a floor of 1e-14 of the whole ``irfft2``'s
largest modulus: a small window can cancel to far below the transform it is
cut from (one 1x1 window of a 5x47 transform is 4.5e-6 against 0.25), and
there both sides round at the transform's scale, not the window's (each is
1.5e-17 from the exact value in that case)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import irfft_kernel_window, padded_kernel_spectrum  # noqa: E402

from ipalm.imageops import centered_kernel_spectrum, centered_kernel_window  # noqa: E402

TOL = 1e-12
FLOOR = 1e-14


@st.composite
def transform_cases(draw):
    """Image shape, kernel shape (odd sides no larger than the image's) and
    stack depth."""
    m, n = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    n1 = 2 * draw(st.integers(0, (m - 1) // 2)) + 1
    n2 = 2 * draw(st.integers(0, (n - 1) // 2)) + 1
    depth = draw(st.integers(1, 8))
    return (m, n), (n1, n2), depth


def close(got, want, floor=0.0):
    """``got`` is within TOL of ``want``'s largest modulus, plus ``floor``."""
    assert got.shape == want.shape
    return np.abs(got - want).max() <= TOL * np.abs(want).max() + floor


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(case=transform_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=((256, 256), (31, 31), 2), seed=0)  # the paper's BID scale
@example(case=((64, 63), (63, 63), 1), seed=1)
@example(case=((1, 2), (1, 1), 8), seed=2)
@example(case=((5, 47), (1, 1), 5), seed=597)  # a window that cancels to 4.5e-6
def test_factor_transforms_match_full_size_references(case, seed):
    shape, kshape, depth = case
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((depth,) + kshape)
    assert close(centered_kernel_spectrum(stack, shape), padded_kernel_spectrum(stack, shape))
    assert close(centered_kernel_spectrum(stack[0], shape), padded_kernel_spectrum(stack[0], shape))
    # any half spectrum, Hermitian or not: both read it as irfft2 does
    half = (depth, shape[0], shape[1] // 2 + 1)
    spec = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    full = np.abs(np.fft.irfft2(spec, s=shape))
    assert close(centered_kernel_window(spec, kshape, shape),
                 irfft_kernel_window(spec, kshape, shape), FLOOR * full.max())
    assert close(centered_kernel_window(spec[0], kshape, shape),
                 irfft_kernel_window(spec[0], kshape, shape), FLOOR * full[0].max())
