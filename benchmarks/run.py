"""Outside-in benchmark of the ipalm solver.

Run from the repository root:

    python3 benchmarks/run.py --workload bid-bt --seed 1 --seconds 25 --trace 0

A run builds the workload's instance bank from the seed and solves it in
passes for as long as another pass fits in ``--seconds`` (at least one),
leaving time for the set-up-only passes that ``setup_s`` needs.  Every pass
repeats the same solves, so every pass must produce bitwise the same
trajectories; each solve's output is also checked on its own.

``--trace 0`` reports the end-to-end metrics: for ``solve_s`` and
``iters_per_s`` the median over the passes of the bank's summed solve time
and of its sweeps per second; for the target metrics the median over the
solves of the bank (each solve's times are the median over its passes); the
mean for ``F_rel_final``; and the median over several set-ups of the bank
for ``setup_s``.  Times are calibrated against a fixed kernel, see
``calibration.py``.  ``--trace 1`` runs one untraced pass and then one traced
pass, and reports the per-layer metrics of the traced pass, including the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results --
medians, high percentiles and sample counts of every metric, plus the run
environment -- go to ``benchmarks/out/``.  The exit status is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List

START = time.perf_counter()  # the time budget counts the imports below as well

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out"

# Claims made against this benchmark must hold on both of these seeds.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# setup_s is the median of this many set-ups of the bank
SETUP_REPEATS = 11


def _import_package():
    """Import ipalm from the checkout's own source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ipalm" / "__init__.py").is_file():
        sys.exit(f"error: no ipalm source tree at {src}; run from a full checkout")
    sys.path.insert(0, str(src))


_import_package()

import numpy as np  # noqa: E402

from calibration import REFERENCE_SECONDS, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, Outcome, Workload  # noqa: E402

END_TO_END_UNITS = {
    "solve_s": "s",
    "iters_per_s": "1/s",
    "time_to_target_s": "s",
    "iters_to_target": "sweeps",
    "F_rel_final": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
# failed_frac is reported but not part of the result line: it is 0 on
# working code, and failures count through ``failed`` there.
RESULT_LINE_END_TO_END = ("solve_s", "iters_per_s", "time_to_target_s", "iters_to_target",
                          "F_rel_final", "setup_s", "peak_rss_mb")


@dataclass(slots=True)
class Solve:
    """What a run keeps of one solve; the trajectory itself is dropped, so
    that memory use does not grow with the number of passes."""

    label: str
    wall: float
    mid: float  # perf_counter at the middle of the solve
    problems: List[str]
    sweeps: int = 0
    F0: float = math.nan
    FK: float = math.nan
    to_target: tuple = (math.inf, math.inf)  # (sweeps, seconds), see target_hit
    trajectory: int = 0  # hash of the objective values, compared across passes
    factor: float = 1.0  # calibration factor at the middle of the solve

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Pass:
    synthetic_s: float
    build_s: float
    setup_factor: float  # calibration factor at the time of the set-up
    solves: List[Solve]
    # the process's peak memory so far; later passes repeat the same work
    peak_rss_mb: float

    @property
    def setup_s(self) -> float:
        return self.synthetic_s + self.build_s


def run_pass(w: Workload, seed: int, workdir: str, tracer: Tracer = None,
             solve: bool = True) -> Pass:
    """Set up the bank and, unless ``solve`` is false, solve and check it."""
    probe = SpeedProbe()
    probe.sample(force=True)
    probe.sample(force=True)
    ctx = Context(seed=seed, workdir=workdir, tracer=tracer)
    setup_start = time.perf_counter()
    jobs = w.jobs(ctx)
    setup_mid = (setup_start + time.perf_counter()) / 2
    solves = []
    for job in jobs if solve else ():
        probe.sample()
        start = time.perf_counter()
        try:
            job.solve()
            wall = time.perf_counter() - start
            out = job.outcome()
            record = Solve(job.label, wall, start + wall / 2, job.check(out))
            if out.F:
                record.sweeps = len(out.F) - 1
                record.F0, record.FK = out.F[0], out.F[-1]
                record.to_target = target_hit(out, w.target)
                record.trajectory = hash(tuple(out.F))
        except Exception as exc:  # a failed solve is counted, the run goes on
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            record = Solve(job.label, wall, start + wall / 2,
                           [f"raised {type(exc).__name__}: {exc}"])
        for p in record.problems:
            print(f"check failed: {job.label}: {p}", file=sys.stderr)
        solves.append(record)
    probe.sample(force=True)
    probe.sample(force=True)
    for s in solves:
        s.factor = probe.factor_at(s.mid)
    return Pass(ctx.clock.synthetic, ctx.clock.build, probe.factor_at(setup_mid), solves,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def timed_passes(w: Workload, seed: int, workdir: str, seconds: float):
    """Solve passes, and set-up-only passes until there are ``SETUP_REPEATS``
    set-ups in all, within ``seconds`` of the start of the process: the solve
    passes stop while there is still time for the set-ups left to do.  At
    least one solve pass runs."""
    setup_start = time.perf_counter()
    setups = [run_pass(w, seed, os.path.join(workdir, "s0"), solve=False)]
    setup_wall = time.perf_counter() - setup_start
    passes, pass_wall = [], 0.0
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(w, seed, os.path.join(workdir, f"p{len(passes)}")))
        # the slowest pass and set-up so far stand for the ones to come
        pass_wall = max(pass_wall, time.perf_counter() - pass_start)
        setup_wall = max(setup_wall, passes[-1].setup_s)
        left = max(0, SETUP_REPEATS - len(setups) - len(passes) - 1)
        if time.perf_counter() - START + pass_wall + left * setup_wall > seconds:
            break  # one more pass would not leave time for the set-ups
    setups += passes
    while len(setups) < SETUP_REPEATS:
        setups.append(run_pass(w, seed, os.path.join(workdir, f"s{len(setups)}"),
                               solve=False))
    return passes, setups


def mark_nondeterminism(passes: List[Pass]) -> None:
    """Every pass repeats the same solves: their trajectories must agree bitwise."""
    first = passes[0].solves
    for p in passes[1:]:
        for ref, s in zip(first, p.solves):
            if ref.ok and s.ok and ref.trajectory != s.trajectory:
                s.problems.append("trajectory differs from the first pass")
                print(f"check failed: {s.label}: trajectory differs from the first pass",
                      file=sys.stderr)


def target_hit(out: Outcome, target: float):
    """(sweeps, seconds) until the objective first reaches ``target * F_0``.

    Both are interpolated linearly inside the sweep that crosses the target,
    so that their medians move smoothly rather than in whole sweeps.
    """
    F, sec = out.F, out.seconds
    goal = target * F[0]
    for k in range(1, len(F)):
        if F[k] <= goal:
            frac = (F[k - 1] - goal) / (F[k - 1] - F[k])
            return k - 1 + frac, sec[k - 1] + frac * (sec[k] - sec[k - 1])
    return math.inf, math.inf


def summarize(values) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            idx = min(n - 1, math.ceil(pct / 100 * n) - 1)
            out[f"p{pct}"] = values[idx]
            break
    else:
        out["max"] = values[-1]
    return out


def end_to_end(w: Workload, passes: List[Pass], setups: List[Pass],
               calibrated: bool = True) -> dict:
    """``solve_s`` and ``iters_per_s`` have one sample per pass: the summed
    solve time of the bank and its sweeps per second of that time, so that
    slow instances weigh in with their full cost.  The target metrics have
    one sample per solve of the bank, each the median over the passes that
    repeated it, and ``setup_s`` one per set-up.  Calibrated times are scaled
    by the calibration factor at the moment they were measured."""

    def scale(s: Solve) -> float:
        return s.factor if calibrated else 1.0

    repeats = list(zip(*(p.solves for p in passes)))
    good = [reps for reps in repeats if all(s.ok for s in reps)]
    # per pass: calibrated seconds of the solves that succeeded in every pass
    totals = [sum(scale(s) * s.wall for s in solves) for solves in zip(*good)]
    sweeps = sum(reps[0].sweeps for reps in good)
    to_target = [statistics.median(scale(s) * s.to_target[1] for s in reps) for reps in good]
    # a failed solve misses its target
    misses = [math.inf] * (len(repeats) - len(good))
    rel = [reps[0].FK / reps[0].F0 for reps in good]
    samples = {
        "solve_s": totals,
        "iters_per_s": [sweeps / t for t in totals],
        "time_to_target_s": to_target + misses,
        "iters_to_target": [reps[0].to_target[0] for reps in good] + misses,
        "F_rel_final": rel,
        "setup_s": [p.setup_s * (p.setup_factor if calibrated else 1.0) for p in setups],
        "peak_rss_mb": [passes[0].peak_rss_mb],
        "failed_frac": [(len(repeats) - len(good)) / len(repeats)],
    }
    metrics = {}
    for name, values in samples.items():
        entry = summarize(values) if values else {"median": math.nan, "n": 0}
        entry["unit"] = END_TO_END_UNITS[name]
        metrics[name] = entry
    for entry in metrics.values():
        entry["value"] = entry["median"]
    # F_rel_final is defined as the mean over solves
    metrics["F_rel_final"]["value"] = statistics.fmean(rel) if rel else math.nan
    return metrics


def per_solve_times(passes: List[Pass]) -> dict:
    """Calibrated seconds and sweeps per second of single solves (each the
    median over its passes), for the results file only."""
    good = [reps for reps in zip(*(p.solves for p in passes)) if all(s.ok for s in reps)]
    walls = [statistics.median(s.factor * s.wall for s in reps) for reps in good]
    if not walls:
        return {}
    return {"solve_s": summarize(walls),
            "iters_per_s": summarize(reps[0].sweeps / t for reps, t in zip(good, walls))}


PROBLEMS = ("nmf", "bid", "convlasso")


def per_layer(t: Tracer, traced: Pass, untraced: Pass) -> dict:
    """Counts and seconds of the traced pass.  Seconds are calibrated with the
    pass's median factor; the overhead compares the two passes' calibrated
    solve times."""
    sweeps = t.calls["solver.iterate"]
    m = {
        "imageops.conv.calls": (t.calls["imageops.conv"], "count"),
        "imageops.conv.s": (t.seconds["imageops.conv"], "s"),
        "imageops.conv.computed_bytes": (t.extra["imageops.conv"], "B"),
        "imageops.edge.calls": (t.calls["imageops.edge"], "count"),
        "imageops.edge.s": (t.seconds["imageops.edge"], "s"),
    }
    for p in PROBLEMS:
        evals = t.calls[f"{p}.eval_H"] + t.calls[f"{p}.eval_F"]
        m[f"{p}.smooth_evals"] = (evals, "count")
        m[f"{p}.smooth_evals_per_iter"] = (evals / sweeps if sweeps else 0.0, "count/iter")
        m[f"{p}.eval_H.s"] = (t.seconds[f"{p}.eval_H"], "s")
        m[f"{p}.eval_F.s"] = (t.seconds[f"{p}.eval_F"], "s")
        m[f"{p}.grad.calls"] = (t.calls[f"{p}.grad"], "count")
        m[f"{p}.grad.s"] = (t.seconds[f"{p}.grad"], "s")
    calls, rounds = t.calls["lipschitz.backtrack"], t.extra["lipschitz.backtrack"]
    m.update({
        "lipschitz.backtrack.calls": (calls, "count"),
        "lipschitz.backtrack.rounds": (rounds, "count"),
        "lipschitz.backtrack.accept_ratio": (calls / rounds if rounds else 0.0, "ratio"),
        "lipschitz.backtrack.self_s": (t.self_seconds("lipschitz.backtrack"), "s"),
        "lipschitz.spectral_norm.calls": (t.calls["lipschitz.spectral_norm"], "count"),
        "lipschitz.spectral_norm.s": (t.seconds["lipschitz.spectral_norm"], "s"),
        "lipschitz.operator_norm.calls": (t.calls["lipschitz.operator_norm"], "count"),
        "lipschitz.operator_norm.s": (t.seconds["lipschitz.operator_norm"], "s"),
        "lipschitz.modulus.calls": (t.calls["lipschitz.modulus"], "count"),
        "lipschitz.modulus.s": (t.seconds["lipschitz.modulus"], "s"),
        "solver.iterate.calls": (sweeps, "count"),
        "solver.iterate.self_s": (t.self_seconds("solver.iterate"), "s"),
        "prox.calls": (t.calls["prox"], "count"),
        "prox.s": (t.seconds["prox"], "s"),
        # in-process workloads build outside any span; the CLI builds inside
        # its own call, where the traced set-up names record it
        "synthetic.s": (traced.synthetic_s, "s"),
        "setup.build_s": (traced.build_s + t.seconds["setup.build"], "s"),
        "cli.self_s": (t.self_seconds("cli.main"), "s"),
        "cli.write_s": (t.seconds["cli.write"], "s"),
    })
    factor = statistics.median(s.factor for s in traced.solves)
    out = {name: {"value": value * factor if unit == "s" else value, "unit": unit}
           for name, (value, unit) in m.items()}
    # traced solve_s minus untraced solve_s, both calibrated
    out["trace.overhead_s"] = {
        "value": sum(s.factor * s.wall for s in traced.solves)
        - sum(s.factor * s.wall for s in untraced.solves),
        "unit": "s",
    }
    return out


def _blas_threads():
    """Thread count of the OpenBLAS build numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def print_table(name: str, metrics: dict) -> None:
    """One line per metric: the reported value and unit, then for sampled
    metrics the median, the high percentile and the sample count."""
    for key, m in metrics.items():
        line = f"{name:14s} {key:36s} {m['value']:<12.6g} [{m['unit']}]"
        if "median" in m:
            spread = " ".join(f"{k}={v:.6g}" for k, v in m.items()
                              if k == "max" or (k.startswith("p") and k[1:].isdigit()))
            line += f"  median={m['median']:.6g} {spread} n={m['n']}"
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    w = WORKLOADS[args.workload]

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        tracer = None
        if args.trace:
            passes = [run_pass(w, args.seed, os.path.join(workdir, "p0"))]
            tracer = Tracer()
            passes.append(run_pass(w, args.seed, os.path.join(workdir, "p1"), tracer))
            setups = passes
        else:
            passes, setups = timed_passes(w, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mark_nondeterminism(passes)

    solves = [s for p in passes for s in p.solves]
    failed = sum(not s.ok for s in solves)
    e2e = end_to_end(w, passes, setups)
    layers = per_layer(tracer, passes[1], passes[0]) if args.trace else {}
    correct = failed == 0 and all(math.isfinite(e2e[k]["value"])
                                  for k in RESULT_LINE_END_TO_END)

    print_table(w.name, e2e)
    print_table(w.name, layers)
    results = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "config": {"bank": w.bank, "iters": w.iters, "target": w.target,
                   "instance_seeds": [w.instance_seeds(args.seed)[0],
                                      w.instance_seeds(args.seed)[-1]]},
        "environment": environment(),
        "correct": correct,
        "attempted": len(solves),
        "failed": failed,
        "calibration": {"reference_s": REFERENCE_SECONDS,
                        "solve_factor": summarize(s.factor for s in solves),
                        "setup_factors": [p.setup_factor for p in setups]},
        "end_to_end": e2e,
        "end_to_end_raw": end_to_end(w, passes, setups, calibrated=False),
        "per_solve": per_solve_times(passes),
        "per_layer": layers,
    }
    path = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, default=str) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")

    if args.trace:
        line_metrics = layers
    else:
        line_metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                        for k in RESULT_LINE_END_TO_END}
    for m in line_metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None  # not valid JSON otherwise; the run is not correct
    print(json.dumps({"correct": correct, "attempted": len(solves), "failed": failed,
                      "metrics": line_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
