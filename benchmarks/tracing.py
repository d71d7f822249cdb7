"""Outside-in tracing of the ipalm layers.

Nothing inside the package is edited.  The benchmark wraps the public
callables each layer exposes -- the ``ProblemSpec`` oracles (replaced with
``dataclasses.replace``) and the module-level names the solver, the problem
modules and the CLI look up at call time -- and aggregates one span per call:
its count, its duration and the part of that duration covered by child spans.
A layer's self time is the difference.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import ipalm.bid
import ipalm.cli
import ipalm.convlasso
import ipalm.nmf
import ipalm.solver

_CONV = ("centered_conv", "centered_corr_image", "centered_corr_kernel")
_EDGE = ("dir_grad", "dir_grad_adjoint", "phi_value", "phi_grad")


def _array_bytes(args, out) -> int:
    """Bytes read and written by a convolution, computed from array sizes."""
    arrays = [a for a in args if isinstance(a, np.ndarray)] + [out]
    return sum(a.nbytes for a in arrays)


def _backtrack_rounds(args, out) -> int:
    """Moduli tested by one ``backtrack_L`` call (its third return value)."""
    return len(out[2])


class Tracer:
    """Per-name span aggregates: calls, seconds, child seconds, one extra count."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)
        self.extra = defaultdict(int)
        self._open = []  # child seconds accumulated by each open span

    def _close(self, name: str, elapsed: float) -> None:
        covered = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        self.calls[name] += 1
        self.seconds[name] += elapsed
        self.child_seconds[name] += covered

    def wrap(self, name: str, fn, extra=None):
        """``fn`` with every call recorded as a span named ``name``; ``extra``
        maps ``(args, result)`` to a count added under the same name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, time.perf_counter() - start)
            if extra is not None:
                self.extra[name] += extra(args, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - start)

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]


def instrument_problem(spec, tracer: Tracer, prefix: str):
    """The problem with each oracle traced; ``prefix`` names the problem layer."""
    lipschitz = spec.lipschitz
    if lipschitz is not None:
        lipschitz = tracer.wrap("lipschitz.modulus", lipschitz)
    return dataclasses.replace(
        spec,
        eval_F=tracer.wrap(f"{prefix}.eval_F", spec.eval_F),
        eval_H=tracer.wrap(f"{prefix}.eval_H", spec.eval_H),
        partial_grad=tracer.wrap(f"{prefix}.grad", spec.partial_grad),
        prox=tracer.wrap("prox", spec.prox),
        lipschitz=lipschitz,
    )


def _patches(tracer: Tracer):
    """(owner, attribute, traced replacement) for every module-level name."""
    solver = ipalm.solver
    out = [
        (solver, "run_state", tracer.wrap("solver.run", solver.run_state)),
        (solver, "ipalm_iterate", tracer.wrap("solver.iterate", solver.ipalm_iterate)),
        (solver, "backtrack_L",
         tracer.wrap("lipschitz.backtrack", solver.backtrack_L, _backtrack_rounds)),
        (ipalm.nmf, "spectral_norm",
         tracer.wrap("lipschitz.spectral_norm", ipalm.nmf.spectral_norm)),
        (ipalm.bid, "operator_norm",
         tracer.wrap("lipschitz.operator_norm", ipalm.bid.operator_norm)),
        (solver.SolverTrace, "to_csv", tracer.wrap("cli.write", solver.SolverTrace.to_csv)),
        (ipalm.cli, "write_pgm", tracer.wrap("cli.write", ipalm.cli.write_pgm)),
        # the set-up the CLI does inside its own call
        (solver, "make_state", tracer.wrap("setup.build", solver.make_state)),
        (ipalm.bid, "init_bid", tracer.wrap("setup.build", ipalm.bid.init_bid)),
    ]
    make_bid = ipalm.bid.make_bid_problem
    out.append((ipalm.bid, "make_bid_problem", tracer.wrap(
        "setup.build",
        lambda *a, **k: instrument_problem(make_bid(*a, **k), tracer, "bid"),
    )))
    for module in (ipalm.bid, ipalm.convlasso):
        for attr in _CONV:
            out.append((module, attr,
                        tracer.wrap("imageops.conv", getattr(module, attr), _array_bytes)))
    for attr in _EDGE:
        out.append((ipalm.bid, attr, tracer.wrap("imageops.edge", getattr(ipalm.bid, attr))))
    return out


@contextmanager
def instrument_modules(tracer: Tracer):
    """Swap the traced names in for the duration of the block."""
    saved = []
    try:
        for owner, attr, traced in _patches(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, traced)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
