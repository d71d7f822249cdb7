"""Image-domain primitives: directional differences, robust edge penalty,
circular convolution/correlation, and 8-bit PGM I/O.

Centred convolutions run in the DFT domain on pre-rolled kernel spectra:
``centered_kernel_spectrum`` transforms a kernel, or a whole stack of them,
zero-padded with its center entry rolled to the origin, so a convolution is
one pointwise product and an adjoint the product with the conjugate;
``centered_kernel_window`` reads a kernel-side adjoint back out of a
full-size correlation."""

from __future__ import annotations

import math

import numpy as np

# directional finite differences: (row offset, column offset, weight)
DIRECTIONS = (
    (1, 0, 1.0),
    (0, 1, 1.0),
    (1, 1, 1.0 / math.sqrt(2.0)),
    (1, -1, 1.0 / math.sqrt(2.0)),
    (2, 1, 1.0 / math.sqrt(5.0)),
    (2, -1, 1.0 / math.sqrt(5.0)),
    (1, 2, 1.0 / math.sqrt(5.0)),
    (-1, 2, 1.0 / math.sqrt(5.0)),
)


def _valid_window(n: int, offset: int):
    """Index range [lo, hi) whose shifted copy stays inside [0, n)."""
    lo = max(0, -offset)
    hi = min(n, n - offset)
    return lo, hi


def dir_grad(u: np.ndarray, p: int) -> np.ndarray:
    """Weighted directional difference ``w*(u[i+di, j+dj] - u[i, j])``.

    ``p`` ranges over 1..8.  Entries whose stencil would reference a pixel
    outside the image are zero (natural boundary).
    """
    if not 1 <= p <= 8:
        raise ValueError(f"direction index must be in 1..8, got {p}")
    u = np.asarray(u, dtype=np.float64)
    di, dj, w = DIRECTIONS[p - 1]
    m, n = u.shape
    out = np.zeros_like(u)
    ilo, ihi = _valid_window(m, di)
    jlo, jhi = _valid_window(n, dj)
    out[ilo:ihi, jlo:jhi] = w * (
        u[ilo + di : ihi + di, jlo + dj : jhi + dj] - u[ilo:ihi, jlo:jhi]
    )
    return out


def dir_grad_adjoint(v: np.ndarray, p: int) -> np.ndarray:
    """Adjoint of ``dir_grad`` with the same direction and boundary rule."""
    if not 1 <= p <= 8:
        raise ValueError(f"direction index must be in 1..8, got {p}")
    v = np.asarray(v, dtype=np.float64)
    di, dj, w = DIRECTIONS[p - 1]
    m, n = v.shape
    out = np.zeros_like(v)
    ilo, ihi = _valid_window(m, di)
    jlo, jhi = _valid_window(n, dj)
    win = w * v[ilo:ihi, jlo:jhi]
    out[ilo + di : ihi + di, jlo + dj : jhi + dj] += win
    out[ilo:ihi, jlo:jhi] -= win
    return out


def phi_value(x: np.ndarray, theta: float) -> float:
    """Robust sparsity penalty ``sum log(1 + theta*x_i^2)``."""
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    x = np.asarray(x, dtype=np.float64)
    return float(np.log1p(theta * x * x).sum())


def phi_grad(x: np.ndarray, theta: float) -> np.ndarray:
    """Elementwise derivative ``2*theta*x / (1 + theta*x^2)``."""
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * theta * x / (1.0 + theta * x * x)


def _check_kernel_fits(u_shape, b_shape):
    if b_shape[0] > u_shape[0] or b_shape[1] > u_shape[1]:
        raise ValueError(f"kernel {b_shape} larger than image {u_shape}")


def _pad_kernel(b: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[: b.shape[0], : b.shape[1]] = b
    return out


def circ_conv_direct(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference O(M*N) loop for the 2D circular convolution ``u * b``:
    ``(u*b)[i,j] = sum_{k,l} b[k,l] * u[(i-k) mod m1, (j-l) mod m2]``."""
    u = np.asarray(u, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(u.shape, b.shape)
    out = np.zeros_like(u)
    for k in range(b.shape[0]):
        for l in range(b.shape[1]):
            out += b[k, l] * np.roll(u, (k, l), axis=(0, 1))
    return out


def circ_conv_fft(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(u.shape, b.shape)
    B = np.fft.rfft2(_pad_kernel(b, u.shape))
    return np.fft.irfft2(np.fft.rfft2(u) * B, s=u.shape)


def circ_conv(u: np.ndarray, b: np.ndarray, method: str = "fft") -> np.ndarray:
    """2D modulo circular convolution of an image with a smaller kernel."""
    if method == "fft":
        return circ_conv_fft(u, b)
    if method == "direct":
        return circ_conv_direct(u, b)
    raise ValueError(f"unknown method {method!r}")


def circ_corr_image(r: np.ndarray, b: np.ndarray, method: str = "fft") -> np.ndarray:
    """Adjoint of ``u -> u * b`` applied to ``r`` (full-size correlation):
    ``out[i,j] = sum_{k,l} b[k,l] * r[(i+k) mod m1, (j+l) mod m2]``."""
    r = np.asarray(r, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(r.shape, b.shape)
    if method == "direct":
        out = np.zeros_like(r)
        for k in range(b.shape[0]):
            for l in range(b.shape[1]):
                out += b[k, l] * np.roll(r, (-k, -l), axis=(0, 1))
        return out
    B = np.fft.rfft2(_pad_kernel(b, r.shape))
    return np.fft.irfft2(np.fft.rfft2(r) * np.conj(B), s=r.shape)


def circ_corr_kernel(r: np.ndarray, u: np.ndarray, shape, method: str = "fft") -> np.ndarray:
    """Adjoint of ``b -> u * b`` applied to ``r``, restricted to the kernel
    support: ``out[k,l] = sum_{i,j} r[i,j] * u[(i-k) mod m1, (j-l) mod m2]``."""
    r = np.asarray(r, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_kernel_fits(u.shape, shape)
    if method == "direct":
        out = np.zeros(shape)
        for k in range(shape[0]):
            for l in range(shape[1]):
                out[k, l] = float(np.vdot(r, np.roll(u, (k, l), axis=(0, 1))))
        return out
    full = np.fft.irfft2(np.fft.rfft2(r) * np.conj(np.fft.rfft2(u)), s=u.shape)
    return full[: shape[0], : shape[1]].copy()


# Centered-kernel views: odd-sized kernels whose entry (n1//2, n2//2) acts as
# the zero shift.  A kernel with its mass at the window center then blurs
# without translating, which is the natural convention for blur kernels and
# dictionary filters.  The FFT path folds the centring into the kernel
# spectrum and the kernel window; the ``method="direct"`` loops roll around
# the corner-anchored references instead and serve as test oracles.


def _center(shape):
    return shape[0] // 2, shape[1] // 2


def _window_index(shape, full_shape):
    """Index of the centred ``shape`` window inside a ``full_shape`` array:
    kernel entry ``(k, l)`` sits at the shift ``(k - n1//2, l - n2//2)``
    modulo the image size."""
    c1, c2 = _center(shape)
    rows = (np.arange(shape[0]) - c1) % full_shape[0]
    cols = (np.arange(shape[1]) - c2) % full_shape[1]
    return ..., rows[:, None], cols


def centered_kernel_spectrum(b: np.ndarray, shape) -> np.ndarray:
    """``rfft2`` of the centred kernel ``b`` (or a stack of kernels along
    leading axes) zero-padded to the image ``shape``, center entry at the
    origin."""
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(shape, b.shape[-2:])
    padded = np.zeros(b.shape[:-2] + tuple(shape))
    padded[_window_index(b.shape[-2:], shape)] = b
    return np.fft.rfft2(padded)


def centered_kernel_window(full: np.ndarray, shape) -> np.ndarray:
    """The centred kernel window of ``shape`` read out of a full-size
    correlation (or a stack of them along leading axes)."""
    return full[_window_index(shape, full.shape[-2:])]


def _check_method(method: str) -> None:
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")


def centered_conv(u: np.ndarray, b: np.ndarray, method: str = "fft") -> np.ndarray:
    """Circular convolution with the kernel anchored at its center entry."""
    _check_method(method)
    u = np.asarray(u, dtype=np.float64)
    if method == "direct":
        c1, c2 = _center(np.shape(b))
        return circ_conv_direct(np.roll(u, (-c1, -c2), axis=(0, 1)), b)
    spec = np.fft.rfft2(u) * centered_kernel_spectrum(b, u.shape)
    return np.fft.irfft2(spec, s=u.shape)


def centered_corr_image(r: np.ndarray, b: np.ndarray, method: str = "fft") -> np.ndarray:
    """Adjoint of ``u -> centered_conv(u, b)`` applied to ``r``."""
    _check_method(method)
    r = np.asarray(r, dtype=np.float64)
    if method == "direct":
        c1, c2 = _center(np.shape(b))
        return np.roll(circ_corr_image(r, b, method="direct"), (c1, c2), axis=(0, 1))
    spec = np.fft.rfft2(r) * np.conj(centered_kernel_spectrum(b, r.shape))
    return np.fft.irfft2(spec, s=r.shape)


def centered_corr_kernel(r: np.ndarray, u: np.ndarray, shape, method: str = "fft") -> np.ndarray:
    """Adjoint of ``b -> centered_conv(u, b)`` applied to ``r``."""
    _check_method(method)
    r = np.asarray(r, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if method == "direct":
        c1, c2 = _center(shape)
        return circ_corr_kernel(r, np.roll(u, (-c1, -c2), axis=(0, 1)), shape, method="direct")
    _check_kernel_fits(u.shape, shape)
    full = np.fft.irfft2(np.fft.rfft2(r) * np.conj(np.fft.rfft2(u)), s=u.shape)
    return centered_kernel_window(full, shape)


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5) image as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace after maxval
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    img = raster.reshape(height, width).astype(np.float64)
    return img / maxval


def write_pgm(path, img: np.ndarray) -> None:
    """Write an array as 8-bit PGM, scaled so its maximum maps to 255."""
    img = np.asarray(img, dtype=np.float64)
    peak = img.max()
    scaled = np.zeros_like(img) if peak <= 0 else np.clip(img, 0.0, None) / peak * 255.0
    raster = np.rint(scaled).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + raster.tobytes())
