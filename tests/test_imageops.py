import numpy as np
import pytest
from oracles import (
    centered_conv_direct,
    centered_corr_image_direct,
    centered_corr_kernel_direct,
    with_empty_memos,
)

from ipalm import bid, convlasso, synthetic
from ipalm.imageops import (
    DIRECTIONS,
    centered_conv,
    centered_corr_image,
    centered_corr_kernel,
    centered_kernel_spectrum,
    centered_kernel_window,
    dir_grad,
    dir_grad_adjoint,
    parseval_weights,
    phi_grad,
    phi_value,
    read_pgm,
    write_pgm,
)


def dir_grad_loop(u, p):
    """Per-pixel stencil oracle with explicit bound checks."""
    di, dj, w = DIRECTIONS[p - 1]
    m, n = u.shape
    out = np.zeros_like(u)
    for i in range(m):
        for j in range(n):
            ii, jj = i + di, j + dj
            if 0 <= ii < m and 0 <= jj < n:
                out[i, j] = w * (u[ii, jj] - u[i, j])
    return out


def test_dir_grad_annihilates_constants():
    u = np.full((6, 7), 3.4)
    for p in range(1, 9):
        assert np.abs(dir_grad(u, p)).max() == 0.0


def test_dir_grad_hand_example():
    u = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(dir_grad(u, 2), np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_dir_grad_matches_loop_oracle():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((7, 9))
    for p in range(1, 9):
        assert np.allclose(dir_grad(u, p), dir_grad_loop(u, p), atol=1e-15)


def test_dir_grad_adjoint_identity():
    rng = np.random.default_rng(32)
    for p in range(1, 9):
        u = rng.standard_normal((8, 6))
        v = rng.standard_normal((8, 6))
        lhs = float(np.vdot(dir_grad(u, p), v))
        rhs = float(np.vdot(u, dir_grad_adjoint(v, p)))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_dir_grad_invalid_direction():
    with pytest.raises(ValueError):
        dir_grad(np.zeros((3, 3)), 0)
    with pytest.raises(ValueError):
        dir_grad_adjoint(np.zeros((3, 3)), 9)


def test_phi_values_and_grad():
    assert phi_value(np.zeros(5), 1e4) == 0.0
    assert np.abs(phi_grad(np.zeros(5), 1e4)).max() == 0.0
    assert phi_value(np.array([1.0]), 1.0) == pytest.approx(np.log(2.0))
    assert phi_grad(np.array([1.0]), 1.0) == pytest.approx([1.0])
    for theta in (0.0, np.nan, np.inf):
        for fn in (phi_value, phi_grad):
            with pytest.raises(ValueError, match="theta"):
                fn(np.zeros(5), theta)


def test_phi_grad_value_is_bitwise_phi_value():
    rng = np.random.default_rng(14)
    for theta in (1e4, 1.0, 3e-2):
        x = rng.normal(scale=0.3, size=(7, 5))
        grad, value = phi_grad(x, theta, value=True)
        assert grad.tobytes() == phi_grad(x, theta).tobytes()
        assert value.hex() == phi_value(x, theta).hex()


def test_phi_grad_matches_finite_differences():
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.0, 1.0, size=20)
    theta = 7.3
    g = phi_grad(x, theta)
    h = 1e-6
    for idx in range(x.size):
        e = np.zeros_like(x)
        e[idx] = h
        fd = (phi_value(x + e, theta) - phi_value(x - e, theta)) / (2 * h)
        assert abs(fd - g[idx]) <= 1e-6 * (1.0 + abs(g[idx]))


def test_centered_conv_identity_kernel():
    rng = np.random.default_rng(34)
    u = rng.standard_normal((8, 8))
    b = np.zeros((3, 3))
    b[1, 1] = 1.0
    assert np.allclose(centered_conv_direct(u, b), u, atol=1e-12)
    assert np.allclose(centered_conv(u, b), u, atol=1e-12)


def test_centered_conv_mass_preservation():
    rng = np.random.default_rng(35)
    b = rng.uniform(0.0, 1.0, size=(3, 3))
    b /= b.sum()
    u = np.full((6, 6), 0.42)
    out = centered_conv(u, b)
    assert np.allclose(out, 0.42, atol=1e-12)


def test_centered_conv_linear_in_each_argument():
    rng = np.random.default_rng(37)
    u1, u2 = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
    b1, b2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    a = 1.7
    assert np.allclose(
        centered_conv(a * u1 + u2, b1),
        a * centered_conv(u1, b1) + centered_conv(u2, b1),
        atol=1e-12,
    )
    assert np.allclose(
        centered_conv(u1, a * b1 + b2),
        a * centered_conv(u1, b1) + centered_conv(u1, b2),
        atol=1e-12,
    )


# the two adjoint-view tests run on an even-sized image, whose half spectrum
# carries a Nyquist column; the other centred-view tests use odd sizes


def test_adjoint_image_view():
    # <conv(u, b), v> == <u, corr_image(v, b)>
    rng = np.random.default_rng(38)
    u = rng.standard_normal((8, 6))
    b = rng.standard_normal((3, 3))
    v = rng.standard_normal((8, 6))
    lhs = float(np.vdot(centered_conv(u, b), v))
    rhs = float(np.vdot(u, centered_corr_image(v, b)))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    assert np.allclose(
        centered_corr_image(v, b), centered_corr_image_direct(v, b), atol=1e-12
    )


def test_adjoint_kernel_view():
    # <conv(u, b), v> == <b, corr_kernel(v, u)>
    rng = np.random.default_rng(39)
    u = rng.standard_normal((8, 6))
    b = rng.standard_normal((3, 5))
    v = rng.standard_normal((8, 6))
    lhs = float(np.vdot(centered_conv(u, b), v))
    rhs = float(np.vdot(b, centered_corr_kernel(v, u, b.shape)))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    assert np.allclose(
        centered_corr_kernel(v, u, b.shape),
        centered_corr_kernel_direct(v, u, b.shape),
        atol=1e-10,
    )


def test_centered_views_match_direct_on_non_square_shapes():
    # odd non-square kernel on a non-square image: a swapped axis or a flipped
    # roll sign in the pre-rolled spectrum or the kernel window shows here
    rng = np.random.default_rng(41)
    u = rng.standard_normal((9, 7))
    r = rng.standard_normal((9, 7))
    b = rng.standard_normal((3, 5))
    assert np.allclose(centered_conv(u, b), centered_conv_direct(u, b), atol=1e-12)
    assert np.allclose(centered_corr_image(r, b), centered_corr_image_direct(r, b), atol=1e-12)
    assert np.allclose(
        centered_corr_kernel(r, u, b.shape),
        centered_corr_kernel_direct(r, u, b.shape),
        atol=1e-12,
    )


def test_centered_conv_shift_convention():
    # the center entry is the zero shift; one row below it shifts the image
    # down by one row, one column right of it shifts it right by one column
    rng = np.random.default_rng(42)
    u = rng.standard_normal((9, 7))
    b = np.zeros((3, 5))
    b[2, 2] = 1.0
    assert np.allclose(centered_conv(u, b), np.roll(u, 1, axis=0), atol=1e-12)
    b = np.zeros((3, 5))
    b[1, 3] = 1.0
    assert np.allclose(centered_conv(u, b), np.roll(u, 1, axis=1), atol=1e-12)


def test_stacked_kernel_spectrum_and_window_match_per_slice_direct():
    rng = np.random.default_rng(43)
    u = rng.standard_normal((9, 7))
    stack = rng.standard_normal((4, 3, 5))
    spec = centered_kernel_spectrum(stack, u.shape)
    assert spec.shape == (4, 9, 4)
    convs = np.fft.irfft2(np.fft.rfft2(u) * spec, s=u.shape)
    rs = rng.standard_normal((4, 9, 7))
    windows = centered_kernel_window(np.fft.rfft2(rs) * np.conj(np.fft.rfft2(u)), (3, 5), u.shape)
    assert windows.shape == (4, 3, 5)
    for j in range(4):
        assert np.allclose(convs[j], centered_conv_direct(u, stack[j]), atol=1e-12)
        assert np.allclose(windows[j], centered_corr_kernel_direct(rs[j], u, (3, 5)), atol=1e-12)


def test_bid_and_convlasso_share_the_spectrum_memos():
    assert bid.image_spectrum is convlasso.image_spectrum
    assert bid.kernel_spectrum is convlasso.kernel_spectrum


def test_alternating_bid_and_convlasso_calls_match_fresh_values_bitwise():
    f = synthetic.synth_bid(size=24, kernel=5, seed=1)["f"]
    params = bid.BidParams(kernel_shape=(5, 5))
    g = synthetic.synth_convlasso(size=12, seed=0)["f"]
    problems = [(bid.make_bid_problem(f, params), bid.init_bid(f, params)),
                (convlasso.make_convlasso_problem(g, p=4, l=3, lam=0.05),
                 convlasso.init_convlasso(g, p=4, l=3, seed=1))]
    fresh = [with_empty_memos(problem.eval_H, x).hex() for problem, x in problems]
    for _ in range(3):  # each call finds the slots holding the other problem's spectra
        for (problem, x), want in zip(problems, fresh):
            assert problem.eval_H(x).hex() == want


@pytest.mark.parametrize("shape", [(8, 6), (8, 7), (5, 9), (6, 1), (1, 2)])
def test_parseval_weights_give_half_squared_norm(shape):
    # odd and even widths: the half spectrum's DC and Nyquist columns count once
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    spec = np.fft.rfft2(x)
    got = float(((spec.real**2 + spec.imag**2) * parseval_weights(shape)).sum())
    want = 0.5 * float(np.vdot(x, x))
    assert abs(got - want) <= 1e-12 * want


def test_centered_adjoint_identities():
    # <conv(u, b), v> == <u, corr_image(v, b)> == <b, corr_kernel(v, u)>
    rng = np.random.default_rng(44)
    for _ in range(10):
        u = rng.standard_normal((9, 7))
        b = rng.standard_normal((3, 5))
        v = rng.standard_normal((9, 7))
        lhs = float(np.vdot(centered_conv(u, b), v))
        via_image = float(np.vdot(u, centered_corr_image(v, b)))
        via_kernel = float(np.vdot(b, centered_corr_kernel(v, u, b.shape)))
        assert abs(lhs - via_image) <= 1e-10 * (1.0 + abs(lhs))
        assert abs(lhs - via_kernel) <= 1e-10 * (1.0 + abs(lhs))


def test_centered_views_reject_oversized_kernel():
    with pytest.raises(ValueError):
        centered_conv(np.zeros((2, 5)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        centered_corr_kernel(np.zeros((5, 2)), np.zeros((5, 2)), (3, 3))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    img = rng.uniform(0.0, 1.0, size=(5, 8))
    img[0, 0] = 1.0  # pin the peak so scaling is the identity
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "wide.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_pgm_reads_comments(tmp_path):
    path = tmp_path / "c.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[1, 1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"P5\n-4 4\n255\n" + bytes(16), "image size must be positive"),
        (b"P5\n0 0\n255\n", "image size must be positive"),
        (b"P5\n4 4\n255\n" + bytes(15), "raster shorter"),
        (b"P5\n2 x\n255\n" + bytes(4), "malformed PGM header"),
        (b"P5\n2 2\n100\n" + bytes([0, 1, 2, 101]), "sample above maxval"),
    ],
    ids=["negative-width", "zero-size", "short-raster", "non-numeric", "sample-above-maxval"],
)
def test_pgm_rejects_malformed_file_naming_it(tmp_path, content, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=message) as err:
        read_pgm(path)
    assert str(path) in str(err.value)
