"""Image-domain primitives: directional differences, robust edge penalty,
circular convolution and its adjoints, and 8-bit PGM I/O.

BID's edge term slices each direction's valid window itself, from a table
of the eight windows built once per image shape (``_edge_windows``); the
zero-padded ``dir_grad``/``dir_grad_adjoint`` pair stays here as the
reference that tests check it against, and under the names that the
benchmark's tracer patches in `ipalm.bid`.

Every convolution takes one convention, an odd kernel anchored at its
center entry, and runs in the DFT domain, so a convolution is one pointwise
product and an adjoint the product with the conjugate.  A kernel's
transforms are pruned DFTs, products with factors made once per kernel and
image shape: ``centered_kernel_spectrum`` gives the half spectrum of a
kernel (or a stack) as ``R @ b @ C`` with no zero padding, and
``centered_kernel_window`` only the centred kernel window of an inverse
transform, the kernel-side adjoint.  Both agree with the full-size
transforms to about 1e-15 of the largest modulus.  ``parseval_weights``
takes ``0.5*||r||^2`` from the half spectrum of ``r``, so a data term never
leaves the DFT domain.

``remember_last`` gives a pure function of one array a one-entry memory,
so an oracle that sees the same operand again (the block a line search holds
fixed) reuses its transform instead of recomputing it.  This module owns
the two spectrum memos that BID and convlasso share: ``image_spectrum``
(``rfft2`` of an image or a stack of them, run as its two 1-D passes, bit
for bit ``np.fft.rfft2``) and ``kernel_spectrum``
(``centered_kernel_spectrum``)."""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=16)
def _edge_windows(shape):
    """Per direction of ``DIRECTIONS``, for an image of ``shape``: its weight
    and the shifted and base index windows of its valid stencils."""
    m, n = shape
    windows = []
    for di, dj, w in DIRECTIONS:
        ilo, ihi = _valid_window(m, di)
        jlo, jhi = _valid_window(n, dj)
        windows.append((w, (slice(ilo + di, ihi + di), slice(jlo + dj, jhi + dj)),
                        (slice(ilo, ihi), slice(jlo, jhi))))
    return tuple(windows)


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
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    x = np.asarray(x, dtype=np.float64)
    t = theta * x
    t *= x
    return float(np.add.reduce(np.log1p(t, out=t), None))


def phi_grad(x: np.ndarray, theta: float, value: bool = False):
    """Elementwise derivative ``2*theta*x / (1 + theta*x^2)``.  With
    ``value``, returns ``(derivative, phi_value(x, theta))``, both from one
    ``theta*x^2``; the value is bitwise what ``phi_value`` returns."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    x = np.asarray(x, dtype=np.float64)
    den = theta * x
    den *= x
    if value:
        penalty = float(np.add.reduce(np.log1p(den), None))
    den += 1.0
    out = 2.0 * theta * x
    out /= den
    return (out, penalty) if value else out


def remember_last(fn):
    """``fn(a, *rest)``, a pure function of one array and plain values, with
    a memory of its last call: one slot, shared by all callers.

    A call whose arguments equal the remembered ones returns the remembered
    result; any other call runs ``fn`` and takes the slot.  The key is
    ``a``'s shape, dtype and bytes (so ``-0.0`` and ``0.0`` differ and a hit
    is bitwise what a fresh call returns), then the type and value of each
    plain argument.  The bytes are a copy, so an array mutated in place
    misses; array results come back read-only, so no caller can alter the
    slot.  Key and result share one tuple that one assignment replaces, so
    even callers on several threads never get another call's result.
    """
    slot = (None, None)

    @functools.wraps(fn)
    def remembered(a, *rest):
        nonlocal slot
        key = a.shape, a.dtype.str, a.tobytes(), tuple(map(type, rest)), rest
        last_key, last_result = slot
        if last_key == key:
            return last_result
        result = fn(a, *rest)
        if isinstance(result, np.ndarray):
            result.flags.writeable = False
        slot = key, result
        return result

    return remembered


def _check_kernel_fits(u_shape, b_shape):
    if b_shape[0] > u_shape[0] or b_shape[1] > u_shape[1]:
        raise ValueError(f"kernel {b_shape} larger than image {u_shape}")


# Centered-kernel views: odd-sized kernels whose entry (n1//2, n2//2) acts as
# the zero shift.  A kernel with its mass at the window center then blurs
# without translating, which is the natural convention for blur kernels and
# dictionary filters.  The centring is folded into the DFT factors.


@functools.lru_cache(maxsize=16)
def _dft_factors(kernel_shape, shape):
    """DFT factors of a centred ``n1 x n2`` kernel in an ``m x n`` image:
    ``R[p, k] = exp(-2 pi i p (k - n1//2) / m)``, ``C[l, q] = exp(-2 pi i q
    (l - n2//2) / n)`` as its real view, and the inverses ``conj(R).T`` and
    ``conj(C).T`` with the ``1/(m*n)`` scale and the doubled columns (other
    than DC and Nyquist) of ``irfft`` folded in, the latter real with rows
    ``Re``, ``-Im`` interleaved: the real view of a complex ``Z`` times it is
    ``Re(Z @ conj(C).T)``."""
    (n1, n2), (m, n) = kernel_shape, shape
    rows = np.exp(-2j * np.pi * (np.arange(m)[:, None] * (np.arange(n1) - n1 // 2) % m) / m)
    cols = np.exp(-2j * np.pi * ((np.arange(n2)[:, None] - n2 // 2) * np.arange(n // 2 + 1) % n) / n)
    cols_inv = cols.conj().T * 2.0 * parseval_weights(shape)[:, None]
    cols_inv = np.stack([cols_inv.real, -cols_inv.imag], axis=1).reshape(-1, n2)
    factors = rows, cols.view(np.float64), rows.conj().T, cols_inv
    for factor in factors:
        factor.flags.writeable = False
    return factors


def centered_kernel_spectrum(b: np.ndarray, shape) -> np.ndarray:
    """``rfft2`` of the centred kernel ``b`` (or a stack of kernels along
    leading axes) zero-padded to the image ``shape``, center entry at the
    origin, as the product ``R @ b @ C`` of its DFT factors."""
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(shape, b.shape[-2:])
    rows, cols, _, _ = _dft_factors(b.shape[-2:], tuple(shape))
    return rows @ (b @ cols).view(np.complex128)


def _rfft2(a, _rfft=np.fft.rfft, _fft=np.fft.fft):
    """``np.fft.rfft2(a)`` bit for bit, as the two 1-D passes it runs,
    without its argument handling."""
    return _fft(_rfft(a), axis=-2)


# During a line search one block stays fixed, and every candidate sees its
# spectrum again: BID's image or kernel, convlasso's coefficient or filter
# stack.  A solve runs one problem, so the two share these slots.
image_spectrum = remember_last(_rfft2)
kernel_spectrum = remember_last(centered_kernel_spectrum)


def parseval_weights(shape) -> np.ndarray:
    """Column weights ``w`` with ``sum(w*|rfft2(x)|^2) == 0.5*||x||^2`` for a
    real ``shape`` array: half-spectrum columns other than DC and (for even
    width) Nyquist stand for a conjugate pair."""
    m, n = shape
    weights = np.full(n // 2 + 1, 1.0 / (m * n))
    weights[0] /= 2.0
    if n % 2 == 0:
        weights[-1] /= 2.0
    return weights


def half_sq_norm(spec: np.ndarray, weights: np.ndarray) -> float:
    """``0.5*||x||^2`` from the half spectrum ``spec`` of a real ``x`` and
    ``weights = parseval_weights(x.shape)``, in place on one temporary."""
    t = spec.real**2
    t += spec.imag**2
    t *= weights
    return float(np.add.reduce(t, None))


def centered_kernel_window(spec: np.ndarray, shape, image_shape) -> np.ndarray:
    """The centred ``shape`` window of ``irfft2(spec, s=image_shape)`` (or of
    a stack of them along leading axes), as the product of the half spectrum
    ``spec`` with the inverse DFT factors; no other entry is formed."""
    _, _, rows_inv, cols_inv = _dft_factors(tuple(shape), tuple(image_shape))
    return (rows_inv @ spec).view(np.float64) @ cols_inv


def centered_conv(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution with the kernel anchored at its center entry."""
    u = np.asarray(u, dtype=np.float64)
    spec = np.fft.rfft2(u) * centered_kernel_spectrum(b, u.shape)
    return np.fft.irfft2(spec, s=u.shape)


def centered_corr_image(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjoint of ``u -> centered_conv(u, b)`` applied to ``r``."""
    r = np.asarray(r, dtype=np.float64)
    spec = np.fft.rfft2(r) * np.conj(centered_kernel_spectrum(b, r.shape))
    return np.fft.irfft2(spec, s=r.shape)


def centered_corr_kernel(r: np.ndarray, u: np.ndarray, shape) -> np.ndarray:
    """Adjoint of ``b -> centered_conv(u, b)`` applied to ``r``."""
    r = np.asarray(r, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_kernel_fits(u.shape, shape)
    return centered_kernel_window(np.fft.rfft2(r) * np.conj(np.fft.rfft2(u)), shape, u.shape)


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5) image as floats in [0, 1].

    A malformed header, a width or height below 1, a raster shorter than
    the header declares or a sample above ``maxval`` raises ``ValueError``
    naming the file."""
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
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image size must be positive, got {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < width * height:
        raise ValueError(f"{path}: raster shorter than the declared {width}x{height}")
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    if raster.max() > maxval:
        raise ValueError(f"{path}: sample above maxval {maxval}")
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
