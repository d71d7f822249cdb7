"""Convolutional LASSO dictionary learning problem instance.

Approximate an image ``f`` by ``sum_j d_j * v_j`` with small filters ``d_j``
and sparse coefficient images ``v_j``.  The first filter/coefficient pair is
pinned to a fixed Gaussian low-pass and the image itself so the free filters
capture high-frequency structure; free filters are constrained to zero mean
and the unit l2 ball, free coefficients carry an l1 penalty.

The fixed pair is excluded from the optimization variables: the block
vector holds only the free slots ``j >= 1`` and the fixed slot is a closure
constant.  Reported objective values include the (constant) l1 term of the
fixed coefficient image.
"""

from __future__ import annotations

import os

import numpy as np

from .blockmodel import BlockVector, ProblemSpec, check_data
from .imageops import (  # noqa: F401 -- benchmarks/tracing.py patches centered_* here
    centered_conv,
    centered_corr_image,
    centered_corr_kernel,
    centered_kernel_spectrum,
    centered_kernel_window,
    image_spectrum,
    kernel_spectrum,
    parseval_weights,
    write_pgm,
)
from .prox import prox_filter_constraint, prox_l1


def gaussian_filter(l: int, sigma: float = None) -> np.ndarray:
    """l-by-l sampled Gaussian normalized to sum one; ``sigma`` defaults to
    ``l/4``, the width of the pinned low-pass filter."""
    if l < 1 or l % 2 == 0:
        raise ValueError(f"filter size must be odd and positive, got {l}")
    if sigma is None:
        sigma = l / 4.0
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    ax = np.arange(l) - (l - 1) / 2.0
    gx = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    g = np.outer(gx, gx)
    return g / g.sum()


def make_convlasso_problem(f: np.ndarray, p: int, l: int, lam: float) -> ProblemSpec:
    """ProblemSpec over the free slots: block 0 = filter stack (p-1, l, l),
    block 1 = coefficient stack (p-1, m, n).

    The data term lives in the DFT domain: the residual spectrum is
    ``fhat*(ghat - 1) + sum_j D_j V_j`` (one batched transform per stack),
    ``H`` is taken from it by Parseval and each partial gradient is one
    batched inverse transform.  ``lipschitz`` is the Fourier energy of the
    other block's remembered spectra.  A non-finite image raises
    ``DataError``.
    """
    f = check_data(f, "image")
    if p < 2:
        raise ValueError(f"need at least 2 filters (one is pinned), got {p}")
    if l < 1 or l % 2 == 0:
        raise ValueError(f"filter size must be odd, got {l}")
    if not 0 < lam < np.inf:
        raise ValueError(f"l1 weight must be positive and finite, got {lam}")
    g = gaussian_filter(l)
    shape = f.shape
    base_hat = np.fft.rfft2(f) * (centered_kernel_spectrum(g, shape) - 1.0)
    fixed_l1 = float(np.abs(f).sum())
    weights = parseval_weights(shape)

    def _spectra(x: BlockVector):
        d_hat = kernel_spectrum(x[0], shape)
        v_hat = image_spectrum(x[1])
        return d_hat, v_hat, base_hat + (d_hat * v_hat).sum(axis=0)

    def eval_H(x: BlockVector, above=None) -> float:
        r_hat = _spectra(x)[2]
        return float(((r_hat.real**2 + r_hat.imag**2) * weights).sum())

    def eval_F(x: BlockVector) -> float:
        d_free, v_free = x[0], x[1]
        means = d_free.reshape(p - 1, -1).mean(axis=1)
        norms = np.sqrt((d_free.reshape(p - 1, -1) ** 2).sum(axis=1))
        if np.abs(means).max(initial=0.0) > 1e-9 or norms.max(initial=0.0) > 1.0 + 1e-9:
            return float("inf")
        return eval_H(x) + lam * (fixed_l1 + float(np.abs(v_free).sum()))

    def partial_grad(i: int, x: BlockVector) -> np.ndarray:
        d_hat, v_hat, r_hat = _spectra(x)
        if i == 0:
            full = np.fft.irfft2(r_hat * np.conj(v_hat), s=shape)
            return centered_kernel_window(full, (l, l))
        return np.fft.irfft2(r_hat * np.conj(d_hat), s=shape)

    def prox(i: int, t: float, q: np.ndarray) -> np.ndarray:
        if i == 0:
            out = np.empty_like(q)
            for j in range(q.shape[0]):
                out[j] = prox_filter_constraint(q[j])
            return out
        return prox_l1(q, lam / t)

    def lipschitz(i: int, x: BlockVector) -> float:
        spectra = image_spectrum(x[1]) if i == 0 else kernel_spectrum(x[0], shape)
        return float((np.abs(spectra) ** 2).sum(axis=0).max())

    return ProblemSpec(
        num_blocks=2,
        eval_F=eval_F,
        eval_H=eval_H,
        partial_grad=partial_grad,
        prox=prox,
        convex=(True, True),
        lipschitz=lipschitz,
        name=f"convlasso(image={f.shape}, p={p}, l={l}, lam={lam})",
    )


def init_convlasso(f: np.ndarray, p: int, l: int, seed: int = 0) -> BlockVector:
    """Free filters: normalized random noise projected onto the constraint
    set; free coefficients: zero."""
    rng = np.random.default_rng(seed)
    d_free = rng.normal(size=(p - 1, l, l))
    for j in range(p - 1):
        d_free[j] = prox_filter_constraint(d_free[j] / max(np.abs(d_free[j]).max(), 1.0))
    v_free = np.zeros((p - 1,) + np.asarray(f).shape)
    return BlockVector([d_free, v_free])


def assemble_stacks(x: BlockVector, f: np.ndarray, g: np.ndarray):
    """Full (d, v) stacks with the fixed pair in slot zero."""
    d_free, v_free = x[0], x[1]
    d = np.concatenate([g[None], d_free], axis=0)
    v = np.concatenate([np.asarray(f, dtype=np.float64)[None], v_free], axis=0)
    return d, v


def dump_dictionary_pgm(d: np.ndarray, path) -> None:
    """Mosaic of all filters, each tile normalized to [0, 255]."""
    p, l, _ = d.shape
    cols = int(np.ceil(np.sqrt(p)))
    rows = int(np.ceil(p / cols))
    pad = 1
    mosaic = np.zeros((rows * (l + pad) + pad, cols * (l + pad) + pad))
    for j in range(p):
        tile = d[j]
        lo, hi = tile.min(), tile.max()
        tile = (tile - lo) / (hi - lo) if hi > lo else np.zeros_like(tile)
        rr, cc = divmod(j, cols)
        r0 = pad + rr * (l + pad)
        c0 = pad + cc * (l + pad)
        mosaic[r0 : r0 + l, c0 : c0 + l] = tile
    write_pgm(path, mosaic)


def sparsity_report_csv(v: np.ndarray, path) -> None:
    """Per-coefficient-image nonzero fraction, one row per slot."""
    lines = ["slot,nonzero_fraction"]
    for j in range(v.shape[0]):
        frac = float((v[j] != 0).mean())
        lines.append(f"{j},{frac:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_outputs(x: BlockVector, f: np.ndarray, g: np.ndarray, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    d, v = assemble_stacks(x, f, g)
    dump_dictionary_pgm(d, os.path.join(out_dir, "dictionary.pgm"))
    sparsity_report_csv(v, os.path.join(out_dir, "sparsity.csv"))
