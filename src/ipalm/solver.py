"""Inertial proximal alternating linearized minimization: the outer loop.

Each outer iteration sweeps the blocks in order.  For block ``i`` it forms
two extrapolated points from the last two iterates -- the prox anchor
``y_i = x_i + alpha*(x_i - x_i_prev)`` and the gradient point
``z_i = x_i + beta*(x_i - x_i_prev)`` -- evaluates the partial gradient of
the smooth part at the mixed point (already-updated blocks before ``i``,
``z_i`` in slot ``i``, not-yet-updated blocks after), and applies the block's
proximal map to ``y_i - grad/tau``.  With ``alpha = beta = 0`` the sweep is
exactly the non-inertial alternating proximal-gradient method.

`make_state` checks every setting once and compiles the run's plan: per
block, its schedule kind, its compiled step rule (``kind.rule()``, which
checks nothing; a pinned step weight is the kind's own) and its step
scale.  A sweep then does per block only the kind's coefficients
(``kind.coeffs(k)``), the extrapolation, the oracles, the rule, the prox
with its shape and finiteness checks, and the block's half squared step;
the trace row is assembled once, after the last block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from .blockmodel import BlockVector, ProblemSpec, ShapeMismatchError, extrapolate
from .config import block_kinds
from .lipschitz import MODULUS_FLOOR, START, backtrack_L
from .schedules import Dynamic, Static


def _trace_columns(nb: int) -> str:
    """The trace CSV's header for ``nb`` blocks: each per-block group
    expands to one column per block."""
    groups = [f"{g}{i + 1}" for g in ("delta", "L", "tau", "alpha", "beta") for i in range(nb)]
    return ",".join(["k", "F", "Psi", *groups, "step_norm", "seconds"])


TRACE_COLUMNS = _trace_columns(2)


class DivergenceError(RuntimeError):
    """An iterate left the floating-point range; carries the finite trace."""

    def __init__(self, message: str, trace: "SolverTrace"):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):  # keep the trace when a sweep worker sends it back
        return type(self), (str(self), self.trace)


@dataclass
class TraceRow:
    """One per-iteration record.  Row ``k`` describes the step into iterate
    ``x^k``: ``block_deltas[i] = 0.5*||x_i^k - x_i^{k-1}||^2``."""

    k: int
    F: float
    Psi: Optional[float]
    delta: Optional[tuple]
    L: Optional[tuple]
    tau: Optional[tuple]
    alpha: Optional[tuple]
    beta: Optional[tuple]
    block_deltas: tuple
    step_norm: float
    seconds: float


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.17g}"


@dataclass
class SolverTrace:
    """Complete run record: one row per iteration plus the initial point."""

    rows: List[TraceRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        """Write the trace in the fixed column layout, 17 significant digits.

        Per-block column groups expand to the trace's block count; for two
        blocks the header is ``TRACE_COLUMNS``.
        """
        nb = len(self.rows[0].block_deltas) if self.rows else 2
        lines = [_trace_columns(nb)]
        for r in self.rows:
            cells = [str(r.k), _fmt(r.F), _fmt(r.Psi)]
            for group in (r.delta, r.L, r.tau, r.alpha, r.beta):
                if group is None:
                    cells += [""] * nb
                else:
                    cells += [_fmt(v) for v in group]
            cells += [_fmt(r.step_norm), _fmt(r.seconds)]
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class SolverState:
    """Mutable per-run state: current and previous iterates plus the compiled
    plan.  `make_state` builds it and checks it; build it there."""

    x_cur: BlockVector
    x_prev: BlockVector
    k: int
    plan: tuple  # per block: (schedule kind, its kind.rule(), step scale >= 1)
    # None: exact moduli; else the level each block's next line search starts at
    backtrack: Optional[list]
    trace: SolverTrace = field(default_factory=SolverTrace)
    t0: float = field(default_factory=time.perf_counter)


def initial_trace_row(problem: ProblemSpec, x0: BlockVector, heuristic: bool) -> TraceRow:
    F0 = float(problem.eval_F(x0))
    nb = len(x0)
    return TraceRow(
        k=0,
        F=F0,
        Psi=None if heuristic else F0,
        delta=None,
        L=None,
        tau=None,
        alpha=None,
        beta=None,
        block_deltas=(0.0,) * nb,
        step_norm=0.0,
        seconds=0.0,
    )


# ``BlockVector(parts)`` without the per-block conversion.  Every part the
# solver passes is float64 already: a block of an iterate, an extrapolation
# of one, or a prox output that ``_prox_point`` converted.
_vector = partial(tuple.__new__, BlockVector)


def _prox_point(problem: ProblemSpec, i: int, k: int, tau: float, y, grad) -> np.ndarray:
    """Block ``i``'s prox point ``prox_i(tau, y - grad/tau)``, as float64
    and with the block's shape, at iteration ``k``."""
    q = grad / tau
    # float64 here, once: the vectors `_vector` builds rely on it
    x_new = np.asarray(problem.prox(i, tau, np.subtract(y, q, out=q)), dtype=np.float64)
    if x_new.shape != y.shape:  # y has block i's shape
        raise ShapeMismatchError(
            f"{problem.name}: the prox of block {i} at iteration {k} returned "
            f"shape {x_new.shape}, the block has {y.shape}"
        )
    return x_new


def _candidate(problem, i, k, rule, alpha, beta, scale, y, grad, L):
    """The line search's candidate for modulus ``L``: the prox point at the
    compiled rule's scaled ``tau``."""
    return _prox_point(problem, i, k, rule(alpha, beta, L)[0] * scale, y, grad)


def _h_at(eval_H, blocks: list, i: int, block_value, above=None) -> float:
    """``H`` at ``blocks`` with block ``i`` replaced by ``block_value``."""
    parts = list(blocks)
    parts[i] = block_value
    return eval_H(_vector(parts), above)


def ipalm_iterate(state: SolverState, problem: ProblemSpec) -> SolverState:
    """Advance the state by one full sweep over the blocks (in place), by
    the plan `make_state` compiled."""
    k = state.k + 1
    x_cur, x_prev = state.x_cur, state.x_prev
    mixed_blocks = list(x_cur)
    backtrack = state.backtrack
    steps = []  # per block: (alpha, beta, tau, delta, L)
    bdeltas = np.empty(len(x_cur))

    for i, (kind, rule, scale) in enumerate(state.plan):
        alpha, beta = kind.coeffs(k)
        y = extrapolate(x_cur, x_prev, alpha, i)
        # with beta == alpha the gradient point is the prox anchor
        z = y if beta == alpha else extrapolate(x_cur, x_prev, beta, i)
        mixed_blocks[i] = z
        mixed = _vector(mixed_blocks)
        if backtrack is None:
            grad = problem.partial_grad(i, mixed)
            L = max(float(problem.lipschitz(i, mixed)), MODULUS_FLOOR)
        else:
            # H at the base point comes from the gradient's own pass
            grad, h_z = problem.partial_grad(i, mixed, value=True)
            L, x_new, _, backtrack[i] = backtrack_L(
                partial(_h_at, problem.eval_H, mixed_blocks, i), h_z, grad, z,
                partial(_candidate, problem, i, k, rule, alpha, beta, scale, y, grad),
                backtrack[i],
            )
        # with backtracking, the accepted modulus's tau and delta: the line
        # search's last candidate was built from them
        tau, delta = rule(alpha, beta, L)
        tau *= scale
        if backtrack is None:
            x_new = _prox_point(problem, i, k, tau, y, grad)
        d = x_new - x_cur[i]
        dd = float(np.vdot(d, d).real)
        # a finite squared step has a finite x_new; only a non-finite one
        # needs the entrywise check
        if not math.isfinite(dd) and not np.isfinite(x_new).all():
            raise DivergenceError(
                f"non-finite values in block {i} at iteration {k}", state.trace
            )
        mixed_blocks[i] = x_new
        bdeltas[i] = 0.5 * dd
        steps.append((alpha, beta, tau, delta, L))

    x_next = _vector(mixed_blocks)
    F = float(problem.eval_F(x_next))
    if not math.isfinite(F):
        raise DivergenceError(f"non-finite objective at iteration {k}", state.trace)
    alphas, betas, taus, deltas, Ls = zip(*steps)
    if any(math.isnan(d) for d in deltas):
        psi = None
    else:
        psi = F + float(np.asarray(deltas) @ bdeltas)
    # positional: k, F, Psi, delta, L, tau, alpha, beta, block_deltas,
    # step_norm, seconds
    state.trace.rows.append(TraceRow(
        k, F, psi, deltas, Ls, taus, alphas, betas, tuple(bdeltas),
        math.sqrt(2.0 * float(np.add.reduce(bdeltas, None))),
        time.perf_counter() - state.t0,
    ))
    state.x_prev = x_cur
    state.x_cur = x_next
    state.k = k
    return state


def make_state(
    problem: ProblemSpec,
    x0,
    kinds,
    backtracking: bool = False,
    step_scale=None,
) -> SolverState:
    """Assemble a fresh solver state with the first step inertia-free
    (the predecessor of the starting point is the starting point itself).

    ``x0`` is taken as ``BlockVector(x0)``: float64 blocks, copy-free when
    they are float64 already.  ``backtracking`` picks the moduli source for
    every block: descent-lemma backtracking, each block's first line search
    starting at ``lipschitz.START``, or the problem's closed-form
    ``lipschitz``, floored at ``MODULUS_FLOOR``.  Every setting is checked
    here, and each block's step is compiled once for the run from its kind
    and its step scale; a rejection names the problem and comes before
    ``F_0``.  A dynamic run's initial row carries no Lyapunov
    value, like every later row.
    """
    nb = problem.num_blocks
    if len(x0) != nb:
        raise ValueError(f"{problem.name}: x0 has {len(x0)} blocks, the problem {nb}")
    x0 = BlockVector(x0)
    if not backtracking and problem.lipschitz is None:
        raise ValueError(
            f"{problem.name}: no closed-form Lipschitz moduli; run with backtracking"
        )
    kinds = tuple(kinds) if isinstance(kinds, (tuple, list)) else (kinds,) * nb
    step_scale = (1.0,) * nb if step_scale is None else tuple(step_scale)
    for name, value in {"kinds": kinds, "step_scale": step_scale}.items():
        if len(value) != nb:
            raise ValueError(
                f"{problem.name}: {name} needs one entry per block ({nb}), got {value}"
            )
    for i, kind in enumerate(kinds):
        if not isinstance(kind, (Static, Dynamic)):
            raise ValueError(
                f"{problem.name}: the schedule kind of block {i} must be Static or "
                f"Dynamic, got {kind!r}"
            )
    if not all(1.0 <= c < math.inf for c in step_scale):
        raise ValueError(f"{problem.name}: step_scale must be >= 1 and finite, got {step_scale}")
    heuristic = any(isinstance(kd, Dynamic) for kd in kinds)
    state = SolverState(
        x_cur=x0,
        x_prev=x0,
        k=0,
        plan=tuple((kind, kind.rule(), scale) for kind, scale in zip(kinds, step_scale)),
        backtrack=[START] * nb if backtracking else None,
    )
    state.trace.rows.append(initial_trace_row(problem, x0, heuristic))
    state.trace.meta["heuristic"] = heuristic
    if heuristic:
        state.trace.meta["mode_note"] = (
            "heuristic mode: dynamic coefficients lie outside the descent theory"
        )
    return state


def run_state(state: SolverState, problem: ProblemSpec, iters: int, tol: float) -> SolverTrace:
    """Drive an assembled state for ``iters`` sweeps or until the relative
    step criterion ``||x_new - x|| <= tol*(1 + ||x||)`` fires; with
    ``tol == 0`` it fires on an exactly zero step, whatever ``||x||`` is."""
    if iters < 1:
        raise ValueError(f"iteration budget must be >= 1, got {iters}")
    for _ in range(iters):
        ref = math.sqrt(state.x_cur.norm_sq()) if tol > 0 else 0.0
        ipalm_iterate(state, problem)
        if state.trace.rows[-1].step_norm <= tol * (1.0 + ref):
            break
    return state.trace


def run(problem: ProblemSpec, x0: BlockVector, config) -> SolverState:
    """Run the solver as described by a ``RunConfig`` (see `ipalm.config`).

    Returns the finished state: the trace is ``.trace`` and the final
    iterate ``.x_cur``.  The trace's ``meta`` holds the run's mode only;
    the config stays the one record of its settings.
    """
    state = make_state(
        problem,
        x0,
        block_kinds(problem, config),
        backtracking=config.backtrack,
        step_scale=config.step_scale,
    )
    run_state(state, problem, config.iters, config.tol)
    return state
