"""Proximal and projection operators used by the shipped problem instances.

Every operator returns one deterministic minimizer of
``sigma(q) + (t/2)*||q - p||^2`` for its nonsmooth term ``sigma`` (projections
are the indicator case and do not depend on ``t``).  All operators are
idempotent on their own output.
"""

from __future__ import annotations

import numpy as np


def prox_box01(p: np.ndarray) -> np.ndarray:
    """Elementwise clamp to the box [0, 1]."""
    return np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)


def prox_nonneg(p: np.ndarray) -> np.ndarray:
    """Elementwise truncation at zero."""
    return np.maximum(np.asarray(p, dtype=np.float64), 0.0)


def prox_l0_nonneg_cols(P: np.ndarray, s: int) -> np.ndarray:
    """Columnwise projection onto {nonnegative with at most s nonzeros}.

    Negative entries are first clamped to zero, then the ``s`` largest
    entries of each column are kept and the remaining ones zeroed.  Ties at
    the cutoff keep the lower row index (stable sort), and an all-zero
    column stays zero; both choices make the operator deterministic.
    ``s = 0`` is the documented degenerate edge returning the zero matrix.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={P.ndim}")
    m = P.shape[0]
    if s > m:
        raise ValueError(f"sparsity level s={s} exceeds column length m={m}")
    if s < 0:
        raise ValueError(f"sparsity level must be >= 0, got {s}")
    clamped = np.maximum(P, 0.0)
    if s == 0:
        return np.zeros_like(clamped)
    if s == m:
        return clamped
    # stable argsort of the negated column: ties resolve to the lower index
    order = np.argsort(-clamped, axis=0, kind="stable")
    out = np.zeros_like(clamped)
    keep = order[:s, :]
    cols = np.arange(P.shape[1])
    out[keep, cols[None, :]] = clamped[keep, cols[None, :]]
    return out


def prox_simplex(p: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort + threshold).

    Output entries are exactly nonnegative and sum to one up to roundoff;
    runs in O(N log N).  A vector with a non-finite entry raises
    ``ValueError``.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    v = p.ravel()
    if not np.isfinite(v).all():
        raise ValueError("no simplex threshold exists: the vector has non-finite entries")
    u = np.sort(v)[::-1]
    if abs(u[0]) >= 2.0**52:
        # from 2**52 up the float spacing reaches 1 and the sums below lose
        # the unit; the projection is shift-invariant, so project p - max(p)
        v, u = v - u[0], u - u[0]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = ks[u - (css - 1.0) / ks > 0][-1]
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0).reshape(p.shape)


def prox_l1(p: np.ndarray, w: float) -> np.ndarray:
    """Elementwise soft threshold ``sign(p) * max(|p| - w, 0)`` for ``w >= 0``."""
    if w < 0:
        raise ValueError(f"threshold must be >= 0, got {w}")
    p = np.asarray(p, dtype=np.float64)
    if w == 0.0:
        return p.copy()
    return np.sign(p) * np.maximum(np.abs(p) - w, 0.0)


def prox_filter_constraint(d: np.ndarray) -> np.ndarray:
    """Projection onto {zero mean} intersected with the unit l2 ball.

    Computed sequentially: subtract the mean, then scale into the ball if
    needed.  The sequential formula is exact for this pair of sets: the
    zero-mean set is a linear subspace containing the ball's center, the
    first step is the orthogonal projection onto it, and radial scaling
    stays inside the subspace, so the composition satisfies the variational
    characterization of the projection onto the intersection.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.size < 2:
        raise ValueError("filter must have at least 2 entries")
    out = d - d.mean()
    nrm = float(np.sqrt(np.vdot(out, out).real))
    if nrm > 1.0:
        out = out / nrm
    return out
