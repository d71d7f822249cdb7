"""Blind image deconvolution problem instance.

Recover a sharp image ``u`` in [0,1] and a blur kernel ``b`` on the unit
simplex from a blurry observation ``f``.  The smooth term combines a robust
log penalty on eight directional image differences with a circular
convolution data term; both nonsmooth terms are convex indicator functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blockmodel import BlockVector, DataError, ProblemSpec, check_data
# benchmarks/tracing.py patches the centered_* views and the four edge
# primitives (dir_grad, dir_grad_adjoint, phi_value, phi_grad) here by name
from .imageops import (  # noqa: F401
    DIRECTIONS,
    _check_kernel_fits,
    _edge_windows,
    centered_conv,
    centered_corr_image,
    centered_corr_kernel,
    centered_kernel_spectrum,
    centered_kernel_window,
    dir_grad,
    dir_grad_adjoint,
    image_spectrum,
    kernel_spectrum,
    parseval_weights,
    phi_grad,
    phi_value,
    remember_last,
)
from .lipschitz import EstimationError, operator_norm
from .prox import prox_box01, prox_simplex


@dataclass(frozen=True)
class BidParams:
    """Model weights and kernel geometry.

    ``kernel_step_scale`` is the preset multiplier for the kernel block's
    step parameter.  It does nothing by itself: it acts only when the caller
    passes it to the solver as ``step_scale[1]``, as the CLI does unless the
    run sets ``step_scale``.  A larger tau slows the kernel block down (always
    sound: larger tau is always admissible) and discourages the trivial
    identity-kernel solution.
    """

    lam: float = 1e6
    theta: float = 1e4
    kernel_shape: tuple = (31, 31)
    kernel_step_scale: float = 5.0

    def __post_init__(self):
        if not (0 < self.lam < np.inf and 0 < self.theta < np.inf):
            raise ValueError("lam and theta must be positive and finite")
        n1, n2 = self.kernel_shape
        if n1 < 1 or n2 < 1 or n1 % 2 == 0 or n2 % 2 == 0:
            raise ValueError(f"kernel dims must be odd and positive, got {self.kernel_shape}")
        if self.kernel_step_scale < 1.0:
            raise ValueError("kernel_step_scale must be >= 1")


def _edge_differences(u: np.ndarray):
    """Per direction: its weight, the shifted and base index windows of its
    valid stencils, and the weighted difference over that window.  Pixels
    whose stencil leaves the image have no difference (natural boundary)."""
    for w, shifted, base in _edge_windows(u.shape):
        d = u[shifted] - u[base]
        d *= w
        yield w, shifted, base, d


def edge_penalty(u: np.ndarray, theta: float) -> float:
    """Robust penalty on the eight directional differences of the image."""
    return sum(phi_value(d, theta) for _, _, _, d in _edge_differences(u))


def edge_grad(u: np.ndarray, theta: float, value: bool = False):
    """Gradient of ``edge_penalty`` in ``u``: each direction's weighted
    ``phi_grad`` scattered back onto the two ends of its stencils.  With
    ``value``, returns ``(gradient, edge_penalty(u, theta))``, each
    direction's difference serving both; the value is bitwise
    ``edge_penalty``'s."""
    g = np.zeros_like(u)
    penalties = []
    for w, shifted, base, d in _edge_differences(u):
        if value:
            t, penalty = phi_grad(d, theta, True)
            penalties.append(penalty)
        else:
            t = phi_grad(d, theta)
        t *= w
        g[shifted] += t
        g[base] -= t
    return (g, sum(penalties)) if value else g


# while a line search moves the kernel, every candidate sees the image's
# edge penalty again (the spectra are remembered in `imageops`)
_edge_penalty = remember_last(edge_penalty)


# sum of squared operator norms of the directional differences; each is a
# weighted two-point difference, so its norm is at most 2*weight
_DIFF_NORM_SQ_BOUND = sum(4.0 * w * w for _, _, w in DIRECTIONS)


@functools.lru_cache(maxsize=16)
def _gram_lag_index(kernel_shape):
    """Flat index into the ``(2*n1-1, 2*n2-1)`` lag window of each entry of
    the kernel Gram: entry ``((i,j), (i',j'))`` reads lag ``(i-i', j-j')``."""
    n1, n2 = kernel_shape
    i, j = np.indices(kernel_shape).reshape(2, -1)
    index = (np.subtract.outer(i, i) + n1 - 1) * (2 * n2 - 1) + np.subtract.outer(j, j) + n2 - 1
    index.flags.writeable = False
    return index


def bid_lipschitz(block: int, u: np.ndarray, b: np.ndarray, params: BidParams) -> float:
    """Safe partial moduli for the two blocks.

    Image block: the penalty's curvature is at most ``2*theta`` per
    direction, giving ``2*theta*sum_p ||D_p||^2 + lam*max_w |bhat(w)|^2``
    on the remembered kernel spectrum.  Kernel block: the term is quadratic
    in b, so the modulus is the exact operator norm of the restricted normal
    operator (power iteration).  In the DFT domain that operator multiplies
    the kernel spectrum by ``lam*|uhat|^2``.  A power step is one matvec with
    the ``b.size``-square Gram, entry ``((i,j), (i',j'))`` the autocorrelation
    ``irfft2(lam*|uhat|^2)`` at ``(i-i', j-j')``, read off the centred
    ``(2*n1-1, 2*n2-1)`` window of that transform, when it has no more
    entries than the image; otherwise the kernel's spectrum times the weight
    and its centred window back.  The kernel modulus is 0 on a zero image;
    the solver floors it.  A Gram weight ``lam*|uhat|^2`` that overflows
    raises ``EstimationError`` before the Gram is formed.
    """
    if block == 0:
        bhat_sq = np.abs(kernel_spectrum(b, u.shape)) ** 2
        return 2.0 * params.theta * _DIFF_NORM_SQ_BOUND + params.lam * float(bhat_sq.max())
    if block == 1:
        u_hat = image_spectrum(u)
        power = u_hat.real**2 + u_hat.imag**2
        peak = float(power.max())
        if not math.isfinite(params.lam * peak):
            raise EstimationError(
                f"kernel modulus: the Gram weight lam*|u_hat|^2 is not finite "
                f"(lam {params.lam:.4g}, largest |u_hat|^2 {peak:.4g})"
            )
        weight = params.lam * power
        if b.size**2 <= u.size:
            _check_kernel_fits(u.shape, b.shape)
            n1, n2 = b.shape
            lags = centered_kernel_window(weight, (2 * n1 - 1, 2 * n2 - 1), u.shape)
            gram = lags.take(_gram_lag_index(b.shape))
            return operator_norm(gram.dot, (b.size,))

        def normal_op(k):
            spec = centered_kernel_spectrum(k, u.shape) * weight
            return centered_kernel_window(spec, b.shape, u.shape)

        return operator_norm(normal_op, b.shape)
    raise ValueError(f"block index must be 0 or 1, got {block}")


def make_bid_problem(f: np.ndarray, params: BidParams) -> ProblemSpec:
    """ProblemSpec with block 0 = image (box [0,1]) and block 1 = kernel
    (unit simplex).  Both nonsmooth terms are convex, so static-c gives both
    blocks the prox factor 2.  The problem does not scale the kernel block's
    tau: pass ``(1.0, params.kernel_step_scale)`` as the run's ``step_scale``
    for that.  ``lipschitz`` holds the moduli of ``bid_lipschitz``.  The data
    term stays in the DFT domain: ``H`` takes it by Parseval from the
    residual spectrum ``uhat*bhat - fhat``.  The image gradient's data part
    is one inverse transform; the kernel gradient is the centred window of
    the correlation spectrum, with no transform, and raises
    ``EstimationError`` where ``lam`` scales it past the float range.  Asked
    for ``H`` too, a partial gradient adds the data term from the residual
    spectrum to the edge penalty (the image block's from the gradient's own
    differences).  A non-finite observation raises ``DataError``."""
    f = check_data(f, "observed image")
    if f.min() < 0.0 or f.max() > 1.0:
        raise DataError("observed image entries must lie in [0, 1]")
    n1, n2 = params.kernel_shape
    if n1 > f.shape[0] or n2 > f.shape[1]:
        raise DataError(f"kernel {params.kernel_shape} larger than image {f.shape}")
    shape, lam, theta = f.shape, params.lam, params.theta
    f_hat = np.fft.rfft2(f)
    weights = parseval_weights(shape)

    def _spectra(x: BlockVector):
        u_hat = image_spectrum(x[0])
        b_hat = kernel_spectrum(x[1], shape)
        r_hat = u_hat * b_hat
        r_hat -= f_hat
        return u_hat, b_hat, r_hat

    def _data(r_hat) -> float:
        t = r_hat.real**2
        t += r_hat.imag**2
        t *= weights
        return lam * float(np.add.reduce(t, None))

    def eval_H(x: BlockVector, above=None) -> float:
        # the data term first: above the bound, it decides without the edge term
        data = _data(_spectra(x)[2])
        if above is not None and data > above:
            return data
        return _edge_penalty(x[0], theta) + data

    def eval_F(x: BlockVector) -> float:
        u, b = x[0], x[1]
        if u.min() < 0.0 or u.max() > 1.0:
            return float("inf")
        if (b < 0).any() or abs(float(b.sum()) - 1.0) > 1e-9:
            return float("inf")
        return eval_H(x)

    def partial_grad(i: int, x: BlockVector, value: bool = False):
        u_hat, b_hat, r_hat = _spectra(x)
        if i == 0:
            data_grad = lam * np.fft.irfft2(r_hat * np.conj(b_hat), s=shape)
            if not value:
                g = edge_grad(x[0], theta)
                g += data_grad
                return g
            g, edge = edge_grad(x[0], theta, value=True)
            g += data_grad
            return g, edge + _data(r_hat)
        corr = centered_kernel_window(r_hat * np.conj(u_hat), x[1].shape, shape)
        peak = float(np.abs(corr).max())
        if not math.isfinite(lam * peak):
            raise EstimationError(
                f"kernel gradient: lam times the residual-image correlation is not "
                f"finite (lam {lam:.4g}, largest |correlation| {peak:.4g})"
            )
        g = lam * corr
        return (g, _edge_penalty(x[0], theta) + _data(r_hat)) if value else g

    def prox(i: int, t: float, p: np.ndarray) -> np.ndarray:
        if i == 0:
            return prox_box01(p)
        return prox_simplex(p)

    def lipschitz(i: int, x: BlockVector) -> float:
        return bid_lipschitz(i, x[0], x[1], params)

    return ProblemSpec(
        eval_F=eval_F,
        eval_H=eval_H,
        partial_grad=partial_grad,
        prox=prox,
        convex=(True, True),
        lipschitz=lipschitz,
        name=f"bid(image={shape}, kernel={params.kernel_shape})",
    )


def init_bid(f: np.ndarray, params: BidParams) -> BlockVector:
    """Image starts at the observation, kernel at the uniform distribution."""
    f = np.asarray(f, dtype=np.float64)
    n1, n2 = params.kernel_shape
    b0 = np.full((n1, n2), 1.0 / (n1 * n2))
    return BlockVector([f.copy(), b0])
