"""Block-structured variables and the problem contract consumed by the solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np


class ShapeMismatchError(ValueError):
    """A block value does not have the shape of the block it stands for."""


class DataError(ValueError):
    """A problem's input data violates its domain (e.g. negative entries)."""


def check_data(a, name: str) -> np.ndarray:
    """``a`` as a float64 array; ``DataError`` naming it ``name`` unless it
    is 2-D with finite entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DataError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DataError(f"{name} has non-finite entries")
    return a


class BlockVector(tuple):
    """Ordered tuple of dense float64 tensors treated as a single variable.

    Indexing, ``len``, iteration, ``==`` and ``+`` are the tuple's own; the
    vector cannot be hashed, as its blocks cannot.  Blocks must not be
    mutated after construction; all operations return new instances.  The
    squared norm of the whole vector is the sum of per-block squared norms,
    which is what makes per-block step measurements add up to the full step
    measurement.
    """

    __slots__ = ()

    def __new__(cls, blocks: Iterable[np.ndarray]):
        self = super().__new__(cls, [np.asarray(b, dtype=np.float64) for b in blocks])
        if not self:
            raise ValueError("BlockVector needs at least one block")
        return self

    def with_block(self, i: int, value: np.ndarray) -> "BlockVector":
        """New vector with block ``i`` replaced (shape must match)."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self[i].shape:
            raise ShapeMismatchError(
                f"block {i}: expected shape {self[i].shape}, got {value.shape}"
            )
        parts = list(self)
        parts[i] = value
        return BlockVector(parts)

    def norm_sq(self) -> float:
        return float(sum(np.vdot(b, b).real for b in self))

    def __repr__(self) -> str:
        return f"BlockVector(shapes={tuple(b.shape for b in self)})"


def extrapolate(
    x_cur: BlockVector, x_prev: BlockVector, coeff: float, block: int
) -> np.ndarray:
    """Inertial extrapolation ``x_cur[block] + coeff*(x_cur[block] - x_prev[block])``.

    ``coeff == 0`` returns ``x_cur[block]`` itself, so the inertia-free mode
    is bitwise identical to not extrapolating at all.  Both vectors have the
    same block shapes; the solver's iterates always do.
    """
    if not coeff >= 0:
        raise ValueError(f"extrapolation coefficient must be >= 0, got {coeff}")
    cur = x_cur[block]
    if coeff == 0.0:
        return cur
    out = cur - x_prev[block]
    out *= coeff
    out += cur
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Objective contract: smooth coupling term plus per-block nonsmooth terms.

    The objective is ``F(x) = H(x) + sum_i f_i(x_i)`` where ``H`` is smooth
    with blockwise Lipschitz gradients and each ``f_i`` is handled through
    its proximal map only.

    Parameters
    ----------
    eval_F : callable
        Full objective on a BlockVector; ``inf`` on infeasible points.
    eval_H : callable
        ``eval_H(x, above=None)`` -> the smooth part ``H(x)``.  Backtracking
        passes ``above``, the value a candidate must not exceed.  A problem
        may ignore it; one whose ``H`` sums nonnegative parts may instead
        return a partial sum, computed exactly as inside ``H``, once it
        exceeds ``above``.  Rounding is monotone, so that value is a lower
        bound on ``H`` and ``H > above`` as well.
    partial_grad : callable
        ``partial_grad(i, x, value=False)`` -> gradient of H in block ``i``
        at ``x``.  With ``value=True`` it returns ``(gradient, H(x))``, where
        ``H(x)`` is what ``eval_H(x)`` returns, so a problem can build it
        from what the gradient already formed.  Backtracking asks for it at
        each line search's base point; exact moduli never do, so a
        ``partial_grad`` without ``value`` runs only with exact moduli
        (with backtracking it raises `TypeError` at the first block step).
    prox : callable
        ``prox(i, t, p)`` -> one minimizer of ``f_i(q) + (t/2)||q - p||^2``.
        Always returns a point where ``f_i`` is finite, as an array with
        block ``i``'s shape; the solver checks the shape at every prox call
        and raises `ShapeMismatchError` naming the block and the iteration.
    convex : tuple of bool
        Per-block flag: is ``f_i`` convex.  Convex blocks admit larger steps.
        There is one flag per block, so ``num_blocks`` is its length.
    lipschitz : callable or None
        ``lipschitz(i, x)`` -> partial Lipschitz modulus of ``grad_i H`` with
        the other blocks fixed at ``x``; it may be 0, as the solver floors
        it at ``MODULUS_FLOOR``.  ``None`` means no closed form is
        available, so the problem runs only with backtracking.  A problem
        that has one always sets it; the run, not the problem, picks exact
        moduli or backtracking (``RunConfig.backtrack``).
    """

    eval_F: Callable[[BlockVector], float]
    eval_H: Callable[..., float]
    partial_grad: Callable[..., np.ndarray]
    prox: Callable[[int, float, np.ndarray], np.ndarray]
    convex: tuple
    lipschitz: Optional[Callable[[int, BlockVector], float]] = None
    name: str = ""

    @property
    def num_blocks(self) -> int:
        return len(self.convex)

    def __post_init__(self):
        if not self.convex:
            raise ValueError("a problem needs at least one block; convex is empty")
