"""Block-structured variables and the problem contract consumed by the solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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


class BlockVector:
    """Ordered list of dense float64 tensors treated as a single variable.

    Blocks are stored as-is and must not be mutated after construction; all
    operations return new instances.  The squared norm of the whole vector is
    the sum of per-block squared norms, which is what makes per-block step
    measurements add up to the full step measurement.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Sequence[np.ndarray]):
        self._blocks = tuple(np.asarray(b, dtype=np.float64) for b in blocks)
        if not self._blocks:
            raise ValueError("BlockVector needs at least one block")

    @property
    def blocks(self) -> tuple:
        return self._blocks

    @property
    def shapes(self) -> tuple:
        return tuple(b.shape for b in self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._blocks[i]

    def with_block(self, i: int, value: np.ndarray) -> "BlockVector":
        """New vector with block ``i`` replaced (shape must match)."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._blocks[i].shape:
            raise ShapeMismatchError(
                f"block {i}: expected shape {self._blocks[i].shape}, got {value.shape}"
            )
        parts = list(self._blocks)
        parts[i] = value
        return BlockVector(parts)

    def norm_sq(self) -> float:
        return float(sum(np.vdot(b, b).real for b in self._blocks))

    def __repr__(self) -> str:
        return f"BlockVector(shapes={self.shapes})"


def extrapolate(
    x_cur: BlockVector, x_prev: BlockVector, coeff: float, block: int
) -> np.ndarray:
    """Inertial extrapolation ``x_cur[block] + coeff*(x_cur[block] - x_prev[block])``.

    ``coeff == 0`` returns ``x_cur[block]`` itself, so the inertia-free mode
    is bitwise identical to not extrapolating at all.  Both vectors have the
    same block shapes; the solver's iterates always do.
    """
    if coeff < 0:
        raise ValueError(f"extrapolation coefficient must be >= 0, got {coeff}")
    cur = x_cur[block]
    if coeff == 0.0:
        return cur
    return cur + coeff * (cur - x_prev[block])


def step_deltas(x_next: BlockVector, x_cur: BlockVector) -> np.ndarray:
    """Per-block half squared step lengths ``0.5*||x_next_i - x_cur_i||^2``.

    Their sum equals half the squared norm of the full step.
    """
    out = np.empty(len(x_next))
    for i, (a, b) in enumerate(zip(x_next.blocks, x_cur.blocks)):
        d = a - b
        out[i] = 0.5 * float(np.vdot(d, d).real)
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Objective contract: smooth coupling term plus per-block nonsmooth terms.

    The objective is ``F(x) = H(x) + sum_i f_i(x_i)`` where ``H`` is smooth
    with blockwise Lipschitz gradients and each ``f_i`` is handled through
    its proximal map only.

    Parameters
    ----------
    num_blocks : int
        Number of variable blocks.
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
        ``partial_grad(i, x)`` -> gradient of H in block ``i`` at ``x``.
    prox : callable
        ``prox(i, t, p)`` -> one minimizer of ``f_i(q) + (t/2)||q - p||^2``.
        Always returns a point where ``f_i`` is finite, as an array with
        block ``i``'s shape; the solver checks the shape at every prox call
        and raises `ShapeMismatchError` naming the block and the iteration.
    convex : tuple of bool
        Per-block flag: is ``f_i`` convex.  Convex blocks admit larger steps.
    lipschitz : callable or None
        ``lipschitz(i, x)`` -> partial Lipschitz modulus of ``grad_i H`` with
        the other blocks fixed at ``x``; it may be 0, as the solver floors
        it at ``MODULUS_FLOOR``.  ``None`` means no closed form is
        available, so the problem runs only with backtracking.  A problem
        that has one always sets it; the run, not the problem, picks exact
        moduli or backtracking (``RunConfig.backtrack``).
    """

    num_blocks: int
    eval_F: Callable[[BlockVector], float]
    eval_H: Callable[..., float]
    partial_grad: Callable[[int, BlockVector], np.ndarray]
    prox: Callable[[int, float, np.ndarray], np.ndarray]
    convex: tuple
    lipschitz: Optional[Callable[[int, BlockVector], float]] = None
    name: str = ""

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if len(self.convex) != self.num_blocks:
            raise ValueError("convex flags must have one entry per block")
