"""Test oracles and helpers that only the tests use.

The convolution loops are O(M*N) references for the FFT views in
`ipalm.imageops`; the centred loops roll around the corner-anchored ones.
The BID references recompute the smooth term and its gradients in the image
domain from the centred views with no remembered spectra, the convlasso
references do the same filter by filter on complete stacks, and
``fourier_energy`` is the corner-padded reference for the convlasso moduli;
``with_empty_memos`` evaluates any oracle from scratch, with every memo in
`ipalm.bid` and `ipalm.convlasso` swapped for an empty one.
The rest are small block-vector, Lyapunov and trace helpers checked against
the solver's own records, or read out of them.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ipalm import bid, convlasso
from ipalm.blockmodel import BlockVector, ProblemSpec, ShapeMismatchError, step_deltas
from ipalm.imageops import (
    _check_kernel_fits,
    centered_conv,
    centered_corr_image,
    centered_corr_kernel,
    dir_grad,
    dir_grad_adjoint,
    phi_grad,
    phi_value,
    remember_last,
)


def circ_conv_direct(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2D circular convolution ``u * b``:
    ``(u*b)[i,j] = sum_{k,l} b[k,l] * u[(i-k) mod m1, (j-l) mod m2]``."""
    u = np.asarray(u, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(u.shape, b.shape)
    out = np.zeros_like(u)
    for k in range(b.shape[0]):
        for l in range(b.shape[1]):
            out += b[k, l] * np.roll(u, (k, l), axis=(0, 1))
    return out


def circ_corr_image_direct(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i,j] = sum_{k,l} b[k,l] * r[(i+k) mod m1, (j+l) mod m2]``."""
    r = np.asarray(r, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_kernel_fits(r.shape, b.shape)
    out = np.zeros_like(r)
    for k in range(b.shape[0]):
        for l in range(b.shape[1]):
            out += b[k, l] * np.roll(r, (-k, -l), axis=(0, 1))
    return out


def circ_corr_kernel_direct(r: np.ndarray, u: np.ndarray, shape) -> np.ndarray:
    """``out[k,l] = sum_{i,j} r[i,j] * u[(i-k) mod m1, (j-l) mod m2]``."""
    r = np.asarray(r, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_kernel_fits(u.shape, shape)
    out = np.zeros(shape)
    for k in range(shape[0]):
        for l in range(shape[1]):
            out[k, l] = float(np.vdot(r, np.roll(u, (k, l), axis=(0, 1))))
    return out


def _center(shape):
    return shape[0] // 2, shape[1] // 2


def centered_conv_direct(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    c1, c2 = _center(np.shape(b))
    return circ_conv_direct(np.roll(u, (-c1, -c2), axis=(0, 1)), b)


def centered_corr_image_direct(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    c1, c2 = _center(np.shape(b))
    return np.roll(circ_corr_image_direct(r, b), (c1, c2), axis=(0, 1))


def centered_corr_kernel_direct(r: np.ndarray, u: np.ndarray, shape) -> np.ndarray:
    c1, c2 = _center(shape)
    return circ_corr_kernel_direct(r, np.roll(u, (-c1, -c2), axis=(0, 1)), shape)


def block_norms_sq(x: BlockVector) -> np.ndarray:
    """Squared norm of each block."""
    return np.array([float(np.vdot(b, b).real) for b in x.blocks])


def trace_column(trace, name: str) -> np.ndarray:
    """One field of every trace row, e.g. ``"F"`` or ``"step_norm"``."""
    return np.array([getattr(r, name) for r in trace.rows])


def block_axpy(a: float, x: BlockVector, y: BlockVector) -> BlockVector:
    """Return ``a*x + y`` blockwise."""
    if x.shapes != y.shapes:
        raise ShapeMismatchError(f"shapes {x.shapes} vs {y.shapes}")
    return BlockVector([a * xb + yb for xb, yb in zip(x.blocks, y.blocks)])


def lyapunov_psi(
    x_cur: BlockVector,
    x_prev: BlockVector,
    delta: Sequence[float],
    problem: ProblemSpec,
) -> float:
    """``F(x_cur) + sum_i (delta_i/2)*||x_cur_i - x_prev_i||^2``."""
    d = np.asarray(delta, dtype=np.float64)
    if (d < 0).any():
        raise ValueError("step weights must be >= 0")
    return float(problem.eval_F(x_cur)) + float(d @ step_deltas(x_cur, x_prev))


@dataclass(frozen=True)
class InertialParams:
    """Per-block extrapolation and step parameters for one iteration."""

    alpha: tuple
    beta: tuple
    tau: tuple
    delta: tuple
    L: tuple

    def __post_init__(self):
        n = len(self.alpha)
        for name in ("beta", "tau", "delta", "L"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have {n} entries")
        for a in self.alpha:
            if not 0.0 <= a < 1.0:
                raise ValueError(f"alpha must lie in [0, 1), got {a}")
        for b in self.beta:
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"beta must lie in [0, 1], got {b}")
        for t in self.tau:
            if not t > 0:
                raise ValueError(f"tau must be positive, got {t}")


def params_at(trace, k: int) -> InertialParams:
    """Validated per-block parameters of iteration ``k >= 1`` of a trace."""
    row = trace.rows[k]
    if row.alpha is None:
        raise ValueError(f"row {k} records no iteration parameters")
    return InertialParams(alpha=row.alpha, beta=row.beta, tau=row.tau, delta=row.delta, L=row.L)


def bid_smooth_ref(u, b, f, params):
    """BID smooth term, every part computed afresh."""
    reg = sum(phi_value(dir_grad(u, p), params.theta) for p in range(1, 9))
    resid = centered_conv(u, b) - f
    return reg + 0.5 * params.lam * float(np.vdot(resid, resid).real)


def bid_grad_u_ref(u, b, f, params):
    grad = np.zeros_like(u)
    for p in range(1, 9):
        grad += dir_grad_adjoint(phi_grad(dir_grad(u, p), params.theta), p)
    resid = centered_conv(u, b) - f
    return grad + params.lam * centered_corr_image(resid, b)


def bid_grad_b_ref(u, b, f, params):
    resid = centered_conv(u, b) - f
    return params.lam * centered_corr_kernel(resid, u, b.shape)


class ContractError(ValueError):
    """A pinned slot (fixed filter or fixed coefficient image) was mutated."""


def convlasso_residual(d: np.ndarray, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    out = -np.asarray(f, dtype=np.float64)
    for j in range(d.shape[0]):
        out = out + centered_conv(v[j], d[j])
    return out


def convlasso_objective(
    d: np.ndarray, v: np.ndarray, f: np.ndarray, lam: float, g: np.ndarray = None
) -> float:
    """Full convlasso objective on complete stacks (fixed slot included).

    When the fixed filter ``g`` is supplied the pinned slots are checked:
    ``d[0]`` must equal ``g`` and ``v[0]`` must equal ``f`` exactly.
    """
    d = np.asarray(d, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if g is not None:
        if not np.array_equal(d[0], g):
            raise ContractError("fixed filter slot was mutated")
        if not np.array_equal(v[0], f):
            raise ContractError("fixed coefficient slot was mutated")
    r = convlasso_residual(d, v, f)
    return lam * float(np.abs(v).sum()) + 0.5 * float(np.vdot(r, r).real)


def convlasso_grads(d: np.ndarray, v: np.ndarray, f: np.ndarray):
    """Gradients of the convlasso smooth part on complete stacks; pinned
    slots get zero."""
    d = np.asarray(d, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = convlasso_residual(d, v, f)
    gd = np.zeros_like(d)
    gv = np.zeros_like(v)
    for j in range(1, d.shape[0]):
        gv[j] = centered_corr_image(r, d[j])
        gd[j] = centered_corr_kernel(r, v[j], d[j].shape)
    return gd, gv


def fourier_energy(stack: np.ndarray, shape) -> float:
    """max over frequencies of ``sum_j |hat(stack_j)|^2`` from a corner-padded
    transform of ``stack`` to ``shape``: the Fourier energy that the
    convlasso moduli read off their centred spectra."""
    return float((np.abs(np.fft.rfft2(stack, s=shape)) ** 2).sum(axis=0).max())


def with_empty_memos(fn, *args):
    """``fn(*args)`` with each module-level memo of `ipalm.bid` and
    `ipalm.convlasso` (a ``remember_last`` function, so it has
    ``__wrapped__``) replaced by an empty one for the call; the memos the
    problems normally use keep their slots."""
    saved = [(module, name, memo) for module in (bid, convlasso)
             for name, memo in vars(module).items() if hasattr(memo, "__wrapped__")]
    assert saved, "no memos to empty"
    try:
        for module, name, memo in saved:
            setattr(module, name, remember_last(memo.__wrapped__))
        return fn(*args)
    finally:
        for module, name, memo in saved:
            setattr(module, name, memo)
