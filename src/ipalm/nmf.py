"""Sparse nonnegative matrix factorization problem instance.

Factorize a nonnegative data matrix A (columns = samples) as B @ C with
B >= 0 column-sparse (at most ``s`` nonzeros per column) and C >= 0.  The
smooth coupling term is ``0.5*||A - B C||_F^2``; both nonsmooth terms are
indicator functions with closed-form projections.
"""

from __future__ import annotations

import os

import numpy as np

from .blockmodel import BlockVector, DataError, ProblemSpec, check_data
from .imageops import read_pgm, write_pgm
from .lipschitz import spectral_norm
from .prox import prox_l0_nonneg_cols, prox_nonneg


def nmf_objective(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    R = A - B @ C
    return 0.5 * float(np.vdot(R, R).real)


def nmf_grad_B(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Gradient of the coupling term in B: ``(B C - A) C^T``."""
    return (B @ C - A) @ C.T


def nmf_grad_C(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Gradient of the coupling term in C: ``B^T (B C - A)``."""
    return B.T @ (B @ C - A)


def nmf_lipschitz(block: int, B: np.ndarray, C: np.ndarray) -> float:
    """Exact partial moduli: ``||C C^T||_2`` for block B, ``||B^T B||_2`` for C;
    0 at degenerate iterates, which the solver floors.

    The Gram matrices are r-by-r, so one dense eigensolve is cheap and exact
    also on the near-degenerate spectra that show up when factor columns
    align during a run.
    """
    if block == 0:
        gram = C @ C.T
    elif block == 1:
        gram = B.T @ B
    else:
        raise ValueError(f"block index must be 0 or 1, got {block}")
    return spectral_norm(gram)


def _feasible(B: np.ndarray, C: np.ndarray, s: int) -> bool:
    if (B < 0).any() or (C < 0).any():
        return False
    return int((B != 0).sum(axis=0).max(initial=0)) <= s


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

    def eval_H(x: BlockVector, above=None) -> float:
        return nmf_objective(A, x[0], x[1])

    def eval_F(x: BlockVector) -> float:
        if not _feasible(x[0], x[1], s):
            return float("inf")
        return eval_H(x)

    def partial_grad(i: int, x: BlockVector) -> np.ndarray:
        if i == 0:
            return nmf_grad_B(A, x[0], x[1])
        return nmf_grad_C(A, x[0], x[1])

    def prox(i: int, t: float, p: np.ndarray) -> np.ndarray:
        if i == 0:
            return prox_l0_nonneg_cols(p, s)
        return prox_nonneg(p)

    def lipschitz(i: int, x: BlockVector) -> float:
        return nmf_lipschitz(i, x[0], x[1])

    return ProblemSpec(
        num_blocks=2,
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
    """Comma-separated matrix, no header."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))


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
