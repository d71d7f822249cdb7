"""Inertial proximal alternating linearized minimization: the outer loop.

Each outer iteration sweeps the blocks in order.  For block ``i`` it forms
two extrapolated points from the last two iterates -- the prox anchor
``y_i = x_i + alpha*(x_i - x_i_prev)`` and the gradient point
``z_i = x_i + beta*(x_i - x_i_prev)`` -- evaluates the partial gradient of
the smooth part at the mixed point (already-updated blocks before ``i``,
``z_i`` in slot ``i``, not-yet-updated blocks after), and applies the block's
proximal map to ``y_i - grad/tau``.  With ``alpha = beta = 0`` the sweep is
exactly the non-inertial alternating proximal-gradient method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .blockmodel import BlockVector, ProblemSpec, ShapeMismatchError, extrapolate, step_deltas
from .config import block_kinds
from .lipschitz import MODULUS_FLOOR, START, backtrack_L
from .schedules import Dynamic, inertial_coeffs, tau_step

TRACE_COLUMNS = (
    "k,F,Psi,delta1,delta2,L1,L2,tau1,tau2,alpha1,alpha2,beta1,beta2,"
    "step_norm,seconds"
)


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

    def __getitem__(self, k: int) -> TraceRow:
        return self.rows[k]

    def block_delta_matrix(self) -> np.ndarray:
        """(iterations+1) x num_blocks matrix of half squared block steps."""
        return np.array([r.block_deltas for r in self.rows])

    def psi_values(self, deltas: Sequence[float]) -> np.ndarray:
        """Lyapunov values recomputed with the given constant step weights."""
        d = np.asarray(deltas, dtype=np.float64)
        return np.array([r.F + float(d @ np.asarray(r.block_deltas)) for r in self.rows])

    def max_block_L(self) -> np.ndarray:
        """Per-block maximum of the recorded Lipschitz moduli."""
        vals = [r.L for r in self.rows if r.L is not None]
        if not vals:
            raise ValueError("trace holds no Lipschitz records")
        return np.max(np.array(vals), axis=0)

    def to_csv(self, path) -> None:
        """Write the trace in the fixed column layout, 17 significant digits.

        Per-block column groups expand to the trace's block count; for two
        blocks the header is ``TRACE_COLUMNS``.
        """
        nb = len(self.rows[0].block_deltas) if self.rows else 2
        cols = ["k", "F", "Psi"]
        for g in ("delta", "L", "tau", "alpha", "beta"):
            cols += [f"{g}{i + 1}" for i in range(nb)]
        cols += ["step_norm", "seconds"]
        header = ",".join(cols)
        lines = [header]
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
    """Mutable per-run state: current and previous iterates plus schedule.
    `make_state` builds it and checks it; build it there."""

    x_cur: BlockVector
    x_prev: BlockVector
    k: int
    kinds: tuple
    backtrack: Optional[list]  # None: exact moduli; else each block's last accepted modulus
    step_scale: tuple  # per-block tau multiplier >= 1
    constant_delta: Optional[tuple]  # per-block constant step weight
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


def ipalm_iterate(state: SolverState, problem: ProblemSpec) -> SolverState:
    """Advance the state by one full sweep over the blocks (in place)."""
    k = state.k + 1
    x_cur, x_prev = state.x_cur, state.x_prev
    mixed_blocks = list(x_cur.blocks)
    alphas, betas, taus, deltas_used, Ls = [], [], [], [], []
    tau = delta = None

    # step and h_eval act on the block the loop below is at
    def step(L):
        """The prox point for modulus ``L``; sets the block's tau and delta."""
        nonlocal tau, delta
        tau, delta = tau_step(alpha, beta, L, kind, const_delta)
        tau *= scale
        x_new = problem.prox(i, tau, y - grad / tau)
        if x_new.shape != y.shape:  # y has block i's shape
            raise ShapeMismatchError(
                f"{problem.name}: the prox of block {i} at iteration {k} returned "
                f"shape {x_new.shape}, the block has {y.shape}"
            )
        return x_new

    def h_eval(block_value, above=None):
        parts = list(mixed_blocks)
        parts[i] = block_value
        return problem.eval_H(BlockVector(parts), above)

    for i in range(problem.num_blocks):
        kind = state.kinds[i]
        alpha, beta = inertial_coeffs(kind, k)
        y = extrapolate(x_cur, x_prev, alpha, i)
        z = extrapolate(x_cur, x_prev, beta, i)
        mixed_blocks[i] = z
        mixed = BlockVector(mixed_blocks)
        grad = problem.partial_grad(i, mixed)
        scale = state.step_scale[i]
        const_delta = None if state.constant_delta is None else state.constant_delta[i]
        if state.backtrack is None:
            L = max(float(problem.lipschitz(i, mixed)), MODULUS_FLOOR)
            x_new = step(L)
        else:
            # the accepted modulus is the last one tested, so tau and delta
            # are the accepted step's
            L, x_new, _ = backtrack_L(h_eval, grad, z, step, state.backtrack[i])
            state.backtrack[i] = L

        if not np.isfinite(x_new).all():
            raise DivergenceError(
                f"non-finite values in block {i} at iteration {k}", state.trace
            )
        mixed_blocks[i] = x_new
        alphas.append(alpha)
        betas.append(beta)
        taus.append(tau)
        deltas_used.append(delta)
        Ls.append(L)

    x_next = BlockVector(mixed_blocks)
    bdeltas = step_deltas(x_next, x_cur)
    F = float(problem.eval_F(x_next))
    if not math.isfinite(F):
        raise DivergenceError(f"non-finite objective at iteration {k}", state.trace)
    if any(math.isnan(d) for d in deltas_used):
        psi = None
    else:
        psi = F + float(np.asarray(deltas_used) @ bdeltas)
    state.trace.rows.append(
        TraceRow(
            k=k,
            F=F,
            Psi=psi,
            delta=tuple(deltas_used),
            L=tuple(Ls),
            tau=tuple(taus),
            alpha=tuple(alphas),
            beta=tuple(betas),
            block_deltas=tuple(bdeltas),
            step_norm=float(np.sqrt(2.0 * bdeltas.sum())),
            seconds=time.perf_counter() - state.t0,
        )
    )
    state.x_prev = x_cur
    state.x_cur = x_next
    state.k = k
    return state


def make_state(
    problem: ProblemSpec,
    x0: BlockVector,
    kinds,
    backtracking: bool = False,
    step_scale=None,
    constant_delta=None,
) -> SolverState:
    """Assemble a fresh solver state with the first step inertia-free
    (the predecessor of the starting point is the starting point itself).

    ``backtracking`` picks the moduli source for every block: descent-lemma
    backtracking, each block's line search starting from ``lipschitz.START``,
    or the problem's closed-form ``lipschitz``, floored at ``MODULUS_FLOOR``.
    Every setting is checked here; a rejection names the problem and comes
    before ``F_0``.  A dynamic run's initial row carries no Lyapunov value,
    like every later row.
    """
    nb = len(x0)
    if nb != problem.num_blocks:
        raise ValueError(
            f"{problem.name}: x0 has {nb} blocks, the problem {problem.num_blocks}"
        )
    if not backtracking and problem.lipschitz is None:
        raise ValueError(
            f"{problem.name}: no closed-form Lipschitz moduli; run with backtracking"
        )
    kinds = tuple(kinds) if isinstance(kinds, (tuple, list)) else (kinds,) * nb
    step_scale = (1.0,) * nb if step_scale is None else tuple(step_scale)
    constant_delta = None if constant_delta is None else tuple(constant_delta)
    per_block = {"kinds": kinds, "step_scale": step_scale, "constant_delta": constant_delta}
    for name, value in per_block.items():
        if value is not None and len(value) != nb:
            raise ValueError(
                f"{problem.name}: {name} needs one entry per block ({nb}), got {value}"
            )
    if not all(1.0 <= c < math.inf for c in step_scale):
        raise ValueError(f"{problem.name}: step_scale must be >= 1 and finite, got {step_scale}")
    heuristic = any(isinstance(kd, Dynamic) for kd in kinds)
    if constant_delta is not None and heuristic:
        raise ValueError(
            f"{problem.name}: constant_delta needs static schedules; the dynamic "
            f"schedule sets no step weights"
        )
    if constant_delta is not None and not all(0.0 <= d < math.inf for d in constant_delta):
        raise ValueError(
            f"{problem.name}: constant_delta must be >= 0 and finite, got {constant_delta}"
        )
    state = SolverState(
        x_cur=x0,
        x_prev=x0,
        k=0,
        kinds=kinds,
        backtrack=[START] * nb if backtracking else None,
        step_scale=step_scale,
        constant_delta=constant_delta,
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
    step criterion ``||x_new - x|| <= tol*(1 + ||x||)`` fires."""
    if iters < 1:
        raise ValueError(f"iteration budget must be >= 1, got {iters}")
    for _ in range(iters):
        ref = math.sqrt(state.x_cur.norm_sq())
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
        constant_delta=config.constant_delta,
    )
    run_state(state, problem, config.iters, config.tol)
    return state
