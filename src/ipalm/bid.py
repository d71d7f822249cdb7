"""Blind image deconvolution problem instance.

Recover a sharp image ``u`` in [0,1] and a blur kernel ``b`` on the unit
simplex from a blurry observation ``f``.  The smooth term combines a robust
log penalty on eight directional image differences with a circular
convolution data term; both nonsmooth terms are convex indicator functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmodel import BlockVector, ProblemSpec
from .imageops import (
    DIRECTIONS,
    centered_conv,
    centered_corr_image,
    centered_corr_kernel,
    centered_kernel_spectrum,
    centered_kernel_window,
    dir_grad,
    dir_grad_adjoint,
    phi_grad,
    phi_value,
)
from .lipschitz import operator_norm
from .prox import prox_box01, prox_simplex


class DataError(ValueError):
    """Observed image violates the model's domain."""


@dataclass(frozen=True)
class BidParams:
    """Model weights and kernel geometry.

    ``kernel_step_scale`` slows the kernel block down by taking a larger
    step parameter (always sound: larger tau is always admissible); it
    discourages the trivial identity-kernel solution.
    """

    lam: float = 1e6
    theta: float = 1e4
    kernel_shape: tuple = (31, 31)
    kernel_step_scale: float = 5.0

    def __post_init__(self):
        if self.lam <= 0 or self.theta <= 0:
            raise ValueError("lam and theta must be positive")
        n1, n2 = self.kernel_shape
        if n1 < 1 or n2 < 1 or n1 % 2 == 0 or n2 % 2 == 0:
            raise ValueError(f"kernel dims must be odd and positive, got {self.kernel_shape}")
        if self.kernel_step_scale < 1.0:
            raise ValueError("kernel_step_scale must be >= 1")


def bid_smooth(u: np.ndarray, b: np.ndarray, f: np.ndarray, params: BidParams) -> float:
    """Smooth coupling term: edge penalty plus data fidelity."""
    reg = sum(phi_value(dir_grad(u, p), params.theta) for p in range(1, 9))
    resid = centered_conv(u, b) - f
    return reg + 0.5 * params.lam * float(np.vdot(resid, resid).real)


def bid_grad_u(u: np.ndarray, b: np.ndarray, f: np.ndarray, params: BidParams) -> np.ndarray:
    grad = np.zeros_like(u)
    for p in range(1, 9):
        grad += dir_grad_adjoint(phi_grad(dir_grad(u, p), params.theta), p)
    resid = centered_conv(u, b) - f
    return grad + params.lam * centered_corr_image(resid, b)


def bid_grad_b(u: np.ndarray, b: np.ndarray, f: np.ndarray, params: BidParams) -> np.ndarray:
    resid = centered_conv(u, b) - f
    return params.lam * centered_corr_kernel(resid, u, b.shape)


def bid_grads(u: np.ndarray, b: np.ndarray, f: np.ndarray, params: BidParams):
    return bid_grad_u(u, b, f, params), bid_grad_b(u, b, f, params)


# sum of squared operator norms of the directional differences; each is a
# weighted two-point difference, so its norm is at most 2*weight
_DIFF_NORM_SQ_BOUND = sum(4.0 * w * w for _, _, w in DIRECTIONS)


def bid_lipschitz(block: int, u: np.ndarray, b: np.ndarray, params: BidParams) -> float:
    """Safe partial moduli for the two blocks.

    Image block: the penalty's curvature is at most ``2*theta`` per
    direction, giving ``2*theta*sum_p ||D_p||^2 + lam*max_w |bhat(w)|^2``.
    Kernel block: the term is quadratic in b, so the modulus is the exact
    operator norm of the restricted normal operator (power iteration).  In
    the DFT domain that operator multiplies the kernel spectrum by
    ``lam*|uhat|^2``, computed once per call, so each power step costs one
    forward and one inverse transform.
    """
    if block == 0:
        bhat_sq = np.abs(np.fft.fft2(b, s=u.shape)) ** 2
        return 2.0 * params.theta * _DIFF_NORM_SQ_BOUND + params.lam * float(bhat_sq.max())
    if block == 1:

        u_hat = np.fft.rfft2(u)
        weight = params.lam * (u_hat.real**2 + u_hat.imag**2)

        def normal_op(k):
            spec = centered_kernel_spectrum(k, u.shape) * weight
            return centered_kernel_window(np.fft.irfft2(spec, s=u.shape), b.shape)

        return max(operator_norm(normal_op, b.shape), 1e-12)
    raise ValueError(f"block index must be 0 or 1, got {block}")


def make_bid_problem(
    f: np.ndarray, params: BidParams, exact_lipschitz: bool = False
) -> ProblemSpec:
    """ProblemSpec with block 0 = image (box [0,1]) and block 1 = kernel
    (unit simplex).  Both nonsmooth terms are convex, so both blocks use the
    tighter convex step rule; the kernel block's tau is further multiplied by
    ``kernel_step_scale`` through the solver's per-block step scaling."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise DataError(f"observed image must be 2-D, got ndim={f.ndim}")
    if f.min() < 0.0 or f.max() > 1.0:
        raise DataError("observed image entries must lie in [0, 1]")
    n1, n2 = params.kernel_shape
    if n1 > f.shape[0] or n2 > f.shape[1]:
        raise DataError(f"kernel {params.kernel_shape} larger than image {f.shape}")

    def eval_H(x: BlockVector) -> float:
        return bid_smooth(x[0], x[1], f, params)

    def eval_F(x: BlockVector) -> float:
        u, b = x[0], x[1]
        if u.min() < 0.0 or u.max() > 1.0:
            return float("inf")
        if (b < 0).any() or abs(float(b.sum()) - 1.0) > 1e-9:
            return float("inf")
        return eval_H(x)

    def partial_grad(i: int, x: BlockVector) -> np.ndarray:
        if i == 0:
            return bid_grad_u(x[0], x[1], f, params)
        return bid_grad_b(x[0], x[1], f, params)

    def prox(i: int, t: float, p: np.ndarray) -> np.ndarray:
        if i == 0:
            return prox_box01(p)
        return prox_simplex(p)

    lipschitz = None
    if exact_lipschitz:

        def lipschitz(i: int, x: BlockVector) -> float:
            return bid_lipschitz(i, x[0], x[1], params)

    return ProblemSpec(
        num_blocks=2,
        eval_F=eval_F,
        eval_H=eval_H,
        partial_grad=partial_grad,
        prox=prox,
        convex=(True, True),
        lipschitz=lipschitz,
        name=f"bid(image={f.shape}, kernel={params.kernel_shape})",
    )


def init_bid(f: np.ndarray, params: BidParams) -> BlockVector:
    """Image starts at the observation, kernel at the uniform distribution."""
    f = np.asarray(f, dtype=np.float64)
    n1, n2 = params.kernel_shape
    b0 = np.full((n1, n2), 1.0 / (n1 * n2))
    return BlockVector([f.copy(), b0])
