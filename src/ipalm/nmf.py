"""Sparse nonnegative matrix factorization problem instance.

Factorize a nonnegative data matrix A (columns = samples) as B @ C with
B >= 0 column-sparse (at most ``s`` nonzeros per column) and C >= 0.  The
smooth coupling term is ``0.5*||A - B C||_F^2``; both nonsmooth terms are
indicator functions with closed-form projections.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .blockmodel import BlockVector, DataError, ProblemSpec, check_data
from .imageops import read_pgm, write_pgm
from .lipschitz import spectral_norm
from .prox import prox_l0_nonneg_cols, prox_nonneg


def _feasible(B: np.ndarray, C: np.ndarray, s: int) -> bool:
    # fmin skips NaN entries as (B < 0).any() does, where min() would return
    # NaN; initial=0 keeps a factor with no entries feasible.  Each column's
    # nonzeros are counted by the ufuncs' reductions, without the methods'
    # Python layers
    if (np.fmin.reduce(B, axis=None, initial=0.0) < 0
            or np.fmin.reduce(C, axis=None, initial=0.0) < 0):
        return False
    return np.maximum.reduce(np.add.reduce(B != 0, 0), None, initial=0) <= s


def make_nmf_problem(A: np.ndarray, r: int, s: int) -> ProblemSpec:
    """ProblemSpec for the column-sparse NMF model.

    Block 0 is B (nonconvex constraint set: nonnegative, at most ``s``
    nonzeros per column), block 1 is C (nonnegative).  ``s = 0`` is the
    degenerate documented edge pinning B at zero.  Non-finite or negative
    data raises ``DataError``.
    """
    A = check_data(A, "data matrix")
    if A.size == 0:
        raise DataError(f"data matrix has no entries (shape {A.shape})")
    if (A < 0).any():
        raise DataError("data matrix must be elementwise nonnegative")
    m = A.shape[0]
    if r < 1:
        raise DataError(f"rank must be >= 1, got {r}")
    if not 0 <= s <= m:
        raise DataError(f"sparsity level must lie in [0, {m}], got {s}")

    # the smooth part is 0.5*||A - B C||_F^2, each oracle forming it inline
    def eval_H(x: BlockVector, above=None) -> float:
        R = A - x[0] @ x[1]
        return 0.5 * float(np.vdot(R, R).real)

    def eval_F(x: BlockVector) -> float:
        B, C = x[0], x[1]
        if not _feasible(B, C, s):
            return float("inf")
        R = A - B @ C
        return 0.5 * float(np.vdot(R, R).real)

    def partial_grad(i: int, x: BlockVector, value: bool = False):
        B, C = x[0], x[1]
        E = B @ C
        E -= A  # exactly -(A - B C), so its squared norm is H's
        g = E @ C.T if i == 0 else B.T @ E
        return (g, 0.5 * float(np.vdot(E, E).real)) if value else g

    def prox(i: int, t: float, p: np.ndarray) -> np.ndarray:
        if i == 0:
            return prox_l0_nonneg_cols(p, s)
        return prox_nonneg(p)

    # exact partial moduli: ||C C^T||_2 for block B, ||B^T B||_2 for C, 0 at
    # degenerate iterates, which the solver floors; the Gram matrices are
    # r-by-r, so one dense eigensolve is cheap and exact also on the
    # near-degenerate spectra of aligned factor columns
    def lipschitz(i: int, x: BlockVector) -> float:
        if i == 0:
            C = x[1]
            return spectral_norm(C @ C.T)
        B = x[0]
        return spectral_norm(B.T @ B)

    return ProblemSpec(
        eval_F=eval_F,
        eval_H=eval_H,
        partial_grad=partial_grad,
        prox=prox,
        convex=(False, True),
        lipschitz=lipschitz,
        name=f"nmf(m={m}, n={A.shape[1]}, r={r}, s={s})",
    )


def init_nmf(A: np.ndarray, r: int, s: int = None, seed: int = 0) -> BlockVector:
    """Uniform random factors scaled to the data magnitude, fixed seed.

    When the sparsity level ``s`` is given, the left factor is projected
    onto its constraint set so the starting point is feasible.
    """
    A = np.asarray(A, dtype=np.float64)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(A.mean(), np.finfo(float).tiny) / r)
    B = rng.uniform(0.0, 1.0, size=(A.shape[0], r)) * scale
    C = rng.uniform(0.0, 1.0, size=(r, A.shape[1])) * scale
    if s is not None:
        B = prox_l0_nonneg_cols(B, s)
    return BlockVector([B, C])


def load_matrix_csv(path) -> np.ndarray:
    """Comma-separated matrix, no header; a column loads as ``(m, 1)``, and an
    empty file as no entries, with no warning, for the problem to reject."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def save_matrix_csv(path, M: np.ndarray) -> None:
    np.savetxt(path, np.asarray(M, dtype=np.float64), delimiter=",", fmt="%.17g")


def load_pgm_dir(path) -> tuple:
    """Stack every PGM image in a directory as columns of a data matrix.

    Images are flattened in row-major order and normalized to [0, 1]; all
    images must share one shape.  Returns ``(A, image_shape)``.
    """
    names = sorted(n for n in os.listdir(path) if n.lower().endswith(".pgm"))
    if not names:
        raise DataError(f"no .pgm files found in {path}")
    cols = []
    shape = None
    for name in names:
        img = read_pgm(os.path.join(path, name))
        if shape is None:
            shape = img.shape
        elif img.shape != shape:
            raise DataError(f"{name}: shape {img.shape} differs from {shape}")
        cols.append(img.ravel())
    return np.stack(cols, axis=1), shape


def dump_basis_pgm(B: np.ndarray, image_shape, out_dir) -> list:
    """Write each column of B as a PGM image scaled to [0, 255]."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(B.shape[1]):
        p = os.path.join(out_dir, f"basis_{i:03d}.pgm")
        write_pgm(p, B[:, i].reshape(image_shape))
        paths.append(p)
    return paths
