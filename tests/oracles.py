"""Test oracles and helpers that only the tests use.

The convolution loops are O(M*N) references for the FFT views in
`ipalm.imageops`; the centred loops roll around the corner-anchored ones.
The BID references recompute the smooth term and its gradients in the image
domain from the centred views with no remembered spectra, the convlasso
references do the same filter by filter on complete stacks,
``filter_projection_ref`` is the per-filter loop of the filter projection, and
``fourier_energy`` is the corner-padded reference for the convlasso moduli,
``prox_l0_nonneg_cols_ref`` and ``nmf_feasible_ref`` the gather-and-scatter
projection and the elementwise sign test that the NMF oracles replace,
``padded_kernel_spectrum`` and ``irfft_kernel_window`` the full-size
transforms that the DFT-factor kernel transforms replace;
``with_empty_memos`` evaluates any oracle from scratch, with every memo in
`ipalm.bid` and `ipalm.convlasso` swapped for an empty one.  The ``*_two_branch``
functions are the static step rules written once per convexity, the
references for `ipalm.schedules`' one formula in the prox factor;
``ipalm_ref`` is the paper's sweep written plainly on them, the reference
for `ipalm.solver`'s compiled loop, and ``row_bits`` the exact record of a
trace row that the two are compared on.
The rest are small block-vector, Lyapunov and trace helpers checked against
the solver's own records, or read out of them.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ipalm import bid, convlasso
from ipalm.blockmodel import BlockVector, ProblemSpec, ShapeMismatchError
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
from ipalm.lipschitz import GROWTH, MAX_ROUNDS, MODULUS_FLOOR, SHRINK, START
from ipalm.schedules import Dynamic, ParameterDomainError


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


def _centred_index(shape, full_shape):
    """Index of the centred ``shape`` window inside a ``full_shape`` array:
    kernel entry ``(k, l)`` sits at the shift ``(k - n1//2, l - n2//2)``
    modulo the image size."""
    rows = (np.arange(shape[0]) - shape[0] // 2) % full_shape[0]
    cols = (np.arange(shape[1]) - shape[1] // 2) % full_shape[1]
    return ..., rows[:, None], cols


def padded_kernel_spectrum(b: np.ndarray, shape) -> np.ndarray:
    """``rfft2`` of the centred kernel ``b`` (or a stack along leading axes)
    zero-padded to ``shape``, center entry rolled to the origin: the
    full-size reference for `imageops.centered_kernel_spectrum`."""
    b = np.asarray(b, dtype=np.float64)
    padded = np.zeros(b.shape[:-2] + tuple(shape))
    padded[_centred_index(b.shape[-2:], shape)] = b
    return np.fft.rfft2(padded)


def irfft_kernel_window(spec: np.ndarray, shape, image_shape) -> np.ndarray:
    """The centred ``shape`` window of the full ``irfft2(spec, s=image_shape)``:
    the full-size reference for `imageops.centered_kernel_window`."""
    return np.fft.irfft2(spec, s=image_shape)[_centred_index(shape, image_shape)]


def block_norms_sq(x: BlockVector) -> np.ndarray:
    """Squared norm of each block."""
    return np.array([float(np.vdot(b, b).real) for b in x])


def trace_column(trace, name: str) -> np.ndarray:
    """One field of every trace row, e.g. ``"F"`` or ``"step_norm"``."""
    return np.array([getattr(r, name) for r in trace.rows])


def block_axpy(a: float, x: BlockVector, y: BlockVector) -> BlockVector:
    """Return ``a*x + y`` blockwise."""
    x_shapes, y_shapes = [b.shape for b in x], [b.shape for b in y]
    if x_shapes != y_shapes:
        raise ShapeMismatchError(f"shapes {x_shapes} vs {y_shapes}")
    return BlockVector([a * xb + yb for xb, yb in zip(x, y)])


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
    half_sq = [0.5 * float(np.vdot(a - b, a - b).real) for a, b in zip(x_cur, x_prev)]
    return float(problem.eval_F(x_cur)) + float(d @ np.array(half_sq))


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


def filter_projection_ref(stack: np.ndarray) -> np.ndarray:
    """The one-filter projection onto {zero mean} intersected with the unit
    l2 ball, filter by filter along the first axis of ``stack``: subtract the
    mean, then divide by the norm when it is above one."""
    out = np.empty_like(stack, dtype=np.float64)
    for j, d in enumerate(np.asarray(stack, dtype=np.float64)):
        out[j] = d - d.mean()
        nrm = float(np.sqrt(np.vdot(out[j], out[j]).real))
        if nrm > 1.0:
            out[j] = out[j] / nrm
    return out


def prox_l0_nonneg_cols_ref(P: np.ndarray, s: int) -> np.ndarray:
    """The columnwise projection onto {nonnegative, at most ``s`` nonzeros}
    by gather and scatter: clamp at zero, stable-sort each negated column,
    and copy the first ``s`` rows of the order into a zero matrix."""
    clamped = np.maximum(np.asarray(P, dtype=np.float64), 0.0)
    order = np.argsort(-clamped, axis=0, kind="stable")
    out = np.zeros_like(clamped)
    keep = order[:s, :]
    cols = np.arange(clamped.shape[1])
    out[keep, cols[None, :]] = clamped[keep, cols[None, :]]
    return out


def nmf_feasible_ref(B: np.ndarray, C: np.ndarray, s: int) -> bool:
    """Is ``(B, C)`` in the NMF constraint set: no entry below zero in either
    factor, and at most ``s`` nonzeros in every column of ``B``."""
    if (B < 0).any() or (C < 0).any():
        return False
    return int((B != 0).sum(axis=0).max(initial=0)) <= s


def fourier_energy(stack: np.ndarray, shape) -> float:
    """max over frequencies of ``sum_j |hat(stack_j)|^2`` from a corner-padded
    transform of ``stack`` to ``shape``: the Fourier energy that the
    convlasso moduli read off their centred spectra."""
    return float((np.abs(np.fft.rfft2(stack, s=shape)) ** 2).sum(axis=0).max())


# every function that `remember_last` returns runs this one code object, its
# mark; an `lru_cache` or another `functools.wraps` wrapper has ``__wrapped__``
# too, and is no memo to empty
_MEMO_CODE = remember_last(abs).__code__


def with_empty_memos(fn, *args):
    """``fn(*args)`` with each module-level memo of `ipalm.bid` and
    `ipalm.convlasso` (a ``remember_last`` function, marked by its code)
    replaced by an empty one for the call; the memos the problems normally
    use keep their slots, and other wrapped functions are left alone."""
    saved = [(module, name, memo) for module in (bid, convlasso)
             for name, memo in vars(module).items()
             if getattr(memo, "__code__", None) is _MEMO_CODE]
    assert saved, "no memos to empty"
    try:
        for module, name, memo in saved:
            setattr(module, name, remember_last(memo.__wrapped__))
        return fn(*args)
    finally:
        for module, name, memo in saved:
            setattr(module, name, memo)


def static_bound_two_branch(alpha_bar: float, eps: float, convex: bool) -> bool:
    """Does ``Static`` accept ``alpha_bar`` (given its other checks pass)?"""
    if convex:
        return 1.0 - eps - alpha_bar > 0.0
    return 1.0 - eps - 2.0 * alpha_bar > 0.0


def delta_star_two_branch(alpha_bar, beta_bar, eps, lambda_plus, convex=False) -> float:
    """``schedules.delta_star`` with one branch per convexity."""
    if lambda_plus <= 0.0:
        raise ParameterDomainError(f"lambda_plus must be positive, got {lambda_plus}")
    if convex:
        den = 2.0 * (1.0 - eps - alpha_bar)
        if den <= 0.0:
            raise ParameterDomainError("convex step weight needs alpha_bar < 1-eps")
        return (alpha_bar + 2.0 * beta_bar) * lambda_plus / den
    den = 1.0 - eps - 2.0 * alpha_bar
    if den <= 0.0:
        raise ParameterDomainError("nonconvex step weight needs alpha_bar < (1-eps)/2")
    return (alpha_bar + beta_bar) * lambda_plus / den


def tau_for_delta_two_branch(alpha, beta, delta, L, eps=0.0, convex=False) -> float:
    """``schedules.tau_for_delta`` with one branch per convexity."""
    if L <= 0.0:
        raise ParameterDomainError(f"L must be positive, got {L}")
    num = (1.0 + eps) * delta + (1.0 + beta) * L
    return num / (2.0 - alpha) if convex else num / (1.0 - alpha)


def descent_coefficients_two_branch(alpha, beta, delta, tau, L, convex=False):
    """``schedules.descent_coefficients`` with one branch per convexity."""
    if convex:
        g = tau * (2.0 - alpha) - (1.0 + beta) * L - delta
    else:
        g = tau * (1.0 - alpha) - (1.0 + beta) * L - delta
    h = delta - tau * alpha - L * beta
    return g, h


def ipalm_ref(problem, x0, kinds, iters, backtracking=False, step_scale=None,
              constant_delta=None, tol=0.0):
    """The iPALM sweep of Pock & Sabach written plainly: the trace rows, as
    ``row_bits`` of every `TraceRow` field but ``seconds``, and the final
    blocks, of ``make_state(...)`` driven by ``run_state(..., iters, tol)``.

    Block ``i`` of sweep ``k`` takes its coefficients from its kind (the
    dynamic ones are ``(k-1)/(k+2)``), anchors the prox at
    ``y = x_i + alpha*(x_i - x_i_prev)`` and takes the gradient at
    ``z = x_i + beta*(x_i - x_i_prev)`` (a zero coefficient takes ``x_i``
    itself), with the blocks before ``i`` already updated.  Its step comes
    from the two-branch rules: ``tau = tau_for_delta(delta)`` with the
    pinned ``delta`` or ``delta_star`` at the modulus, ``tau = L`` and no
    ``delta`` on a dynamic block, times the block's step scale.  The modulus
    is the floored closed form, or the line search of ``backtrack_L``'s
    documented policy: levels ``start*GROWTH**j`` from the block's start
    level (``START`` at its first call), the descent lemma at ``z``
    with its slack, and a rejected level jumping to the highest one at or
    below the curvature the step showed.  The next call starts at the
    accepted level when the accepted step's curvature lies above one shrink
    below it, and one shrink below otherwise.  The finiteness checks are
    left out: the runs it is compared on stay finite.
    """
    nb = len(x0)
    x_cur = x_prev = [np.asarray(b, dtype=np.float64) for b in x0]
    scale = (1.0,) * nb if step_scale is None else step_scale
    start = [START] * nb
    heuristic = any(isinstance(kd, Dynamic) for kd in kinds)
    F = float(problem.eval_F(BlockVector(x_cur)))
    rows = [row_bits((0, F, None if heuristic else F, None, None, None, None, None,
                      (0.0,) * nb, 0.0))]
    for k in range(1, iters + 1):
        ref = math.sqrt(BlockVector(x_cur).norm_sq()) if tol > 0 else 0.0
        x_next = list(x_cur)
        record = []
        for i, kind in enumerate(kinds):
            if isinstance(kind, Dynamic):
                alpha = beta = (k - 1.0) / (k + 2.0)
            else:
                alpha, beta = kind.alpha_bar, kind.beta_bar
            cur, prev = x_cur[i], x_prev[i]
            y = cur if alpha == 0.0 else cur + alpha * (cur - prev)
            z = cur if beta == 0.0 else cur + beta * (cur - prev)

            def at(block):
                parts = list(x_next)
                parts[i] = block
                return BlockVector(parts)

            def step(L):
                if isinstance(kind, Dynamic):
                    tau, delta = L, math.nan
                else:
                    delta = (delta_star_two_branch(alpha, beta, kind.eps, L, kind.convex)
                             if constant_delta is None else constant_delta[i])
                    tau = tau_for_delta_two_branch(alpha, beta, delta, L, kind.eps, kind.convex)
                tau *= scale[i]
                cand = np.asarray(problem.prox(i, tau, y - grad / tau), dtype=np.float64)
                return cand, tau, delta

            if not backtracking:
                grad = problem.partial_grad(i, at(z))
                L = max(float(problem.lipschitz(i, at(z))), MODULUS_FLOOR)
                cand, tau, delta = step(L)
            else:
                grad, h_z = problem.partial_grad(i, at(z), value=True)
                h_z = float(h_z)
                slack = 1e-12 * (1.0 + abs(h_z))
                L = max(start[i], MODULUS_FLOOR)
                for _ in range(MAX_ROUNDS + 1):
                    cand, tau, delta = step(L)
                    d = cand - z
                    dd = float(np.vdot(d, d).real)
                    bound = h_z + float(np.vdot(grad, d).real) + 0.5 * L * dd + slack
                    h = float(problem.eval_H(at(cand), bound))
                    if h <= bound:
                        break
                    seen = L + 2.0 * (h - bound) / dd if dd > 0 else math.inf
                    levels = math.log(seen / L, GROWTH)
                    j = max(1, math.floor(levels)) if math.isfinite(levels) else 1
                    L = L * GROWTH ** (j - 1) * GROWTH
                else:
                    raise AssertionError("the reference line search ran out of rounds")
                # the curvature the accepted step showed; a zero step shows none
                seen = 2.0 * (h - h_z - float(np.vdot(grad, d).real) - slack) / dd if dd else 0.0
                start[i] = L if seen > SHRINK * L else SHRINK * L
            x_next[i] = cand
            record.append((alpha, beta, tau, delta, L))
        bd = np.array([0.5 * float(np.vdot(a - b, a - b).real) for a, b in zip(x_next, x_cur)])
        F = float(problem.eval_F(BlockVector(x_next)))
        alphas, betas, taus, deltas, Ls = (tuple(c) for c in zip(*record))
        psi = None if any(math.isnan(d) for d in deltas) else F + float(np.asarray(deltas) @ bd)
        step_norm = math.sqrt(2.0 * float(bd.sum()))
        rows.append(row_bits((k, F, psi, deltas, Ls, taus, alphas, betas, tuple(bd), step_norm)))
        x_prev, x_cur = x_cur, x_next
        if step_norm <= tol * (1.0 + ref):
            break
    return rows, x_cur


def row_bits(row):
    """Every field of a trace row but ``seconds`` (a `TraceRow` or a tuple of
    its fields in order), each value as its type's name and its exact bits."""
    if not isinstance(row, tuple):
        row = (row.k, row.F, row.Psi, row.delta, row.L, row.tau, row.alpha, row.beta,
               row.block_deltas, row.step_norm)
    return tuple(_bits(v) for v in row)


def _bits(v):
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    return type(v).__name__, v.hex() if isinstance(v, float) else v
