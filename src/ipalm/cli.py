"""Command-line entry point: problem presets, sweeps, verification, synthesis.

Subcommands
-----------
``nmf`` / ``bid`` / ``convlasso``
    Run one problem (from files or the built-in synthetic desk instance)
    and write the trace plus problem-specific artifacts.
``sweep``
    Grid of runs over inertial settings; emits a checkpoint table with one
    row per setting and one column per checkpoint iteration count.
``verify``
    Standalone numerical verification battery; exit status is nonzero when
    any check reports a violation.
``synth``
    Generate the synthetic desk instances (with ground truth) as files.

Exit status 2 reports a configuration, usage or input error, 3 a solver
failure (divergence or an exhausted modulus estimate).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import bid as bid_mod
from . import convlasso as cl_mod
from . import nmf as nmf_mod
from . import synthetic, verify
from .config import (
    FILE_KEYS,
    SCHEDULES,
    ConfigError,
    RunConfig,
    block_kinds,
    config_defaults_help,
    float_tuple,
    int_tuple,
    load_config,
)
from .imageops import read_pgm, write_pgm
from .lipschitz import EstimationError
from .solver import DivergenceError, run


def _fmt17(v) -> str:
    return f"{v:.17g}"


def _add_run_options(p: argparse.ArgumentParser) -> None:
    # defaults are None sentinels so that precedence is explicit flag, then
    # config file, then the built-in RunConfig defaults
    p.add_argument("--schedule", choices=SCHEDULES, default=None,
                   help="parameter regime (default: static-c)")
    p.add_argument("--alpha-bar", type=float, default=None,
                   help="extrapolation bound/value (default 0)")
    p.add_argument("--beta-bar", type=float, default=None,
                   help="gradient-point bound/value (default 0)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="descent margin (default 0)")
    p.add_argument("--iters", type=int, default=None, help="iteration budget (default 1000)")
    p.add_argument("--tol", type=float, default=None,
                   help="relative step-norm stop (default 1e-9)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for data and initialization (default 0)")
    bt = p.add_mutually_exclusive_group()
    bt.add_argument("--backtrack", dest="backtrack", action="store_true", default=None,
                    help="estimate Lipschitz moduli by backtracking (default)")
    bt.add_argument("--exact-lipschitz", dest="backtrack", action="store_false",
                    help="use the problem's closed-form moduli")
    p.add_argument("--step-scale", type=float_tuple, default=None,
                   help="per-block step-parameter multipliers >= 1, e.g. 1,5 "
                        "(default: all ones; bid presets 1,5)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help=f"key=value config file; defaults: {config_defaults_help()}")


def _config_from_args(args) -> RunConfig:
    """The run flags laid over the ``--config`` file over the defaults; every
    run flag sets the file key of the same name."""
    flags = {key: value for key, value in vars(args).items() if key in FILE_KEYS}
    return load_config(args.config, **flags)


def _write_trace(trace, cfg, label: str) -> None:
    if trace.meta.get("heuristic"):
        print(f"[{label}] {trace.meta['mode_note']}")
    final = trace.rows[-1]
    print(f"[{label}] k={final.k} F={_fmt17(final.F)} step_norm={_fmt17(final.step_norm)}")
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, f"{label}_trace.csv")
        trace.to_csv(path)
        print(f"[{label}] trace written to {path}")
        _write_checkpoints(
            [(_setting_label(cfg), trace)], cfg.checkpoints,
            os.path.join(cfg.out, f"{label}_checkpoints.csv"),
        )


def _setting_label(cfg: RunConfig) -> str:
    if cfg.schedule == "dynamic":
        return "dynamic"
    return f"{cfg.schedule} alpha=beta={cfg.alpha_bar:g}/{cfg.beta_bar:g}"


def _write_checkpoints(labeled_traces, checkpoints, path) -> None:
    """Objective values at checkpoint iterations; cells for checkpoints the
    run never reached stay empty.  The wall-time column is informational
    only (hardware-dependent, never asserted against)."""
    header = "setting," + ",".join(f"K{k}" for k in checkpoints) + ",time_s"
    lines = [header]
    for label, trace in labeled_traces:
        cells = [label]
        for k in checkpoints:
            cells.append(_fmt17(trace.rows[k].F) if k < len(trace.rows) else "")
        cells.append(f"{trace.rows[-1].seconds:.2f}")
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"checkpoint table written to {path}")


def _load_nmf(args, seed):
    if args.data:
        A = nmf_mod.load_matrix_csv(args.data)
        shape = None
    elif args.pgm_dir:
        A, shape = nmf_mod.load_pgm_dir(args.pgm_dir)
    else:
        A = synthetic.synth_nmf(seed=seed)["A"]
        shape = None
    return A, shape


def cmd_nmf(args) -> int:
    if not 0.0 < args.s_percent < math.inf:
        raise ConfigError(f"--s-percent must be > 0 and finite, got {args.s_percent}")
    cfg = _config_from_args(args)
    A, image_shape = _load_nmf(args, cfg.seed)
    m = A.shape[0]
    s = args.s_count if args.s_count is not None else max(1, round(args.s_percent / 100.0 * m))
    problem = nmf_mod.make_nmf_problem(A, r=args.rank, s=s)
    x0 = nmf_mod.init_nmf(A, r=args.rank, s=s, seed=cfg.seed)
    state = run(problem, x0, cfg)
    _write_trace(state.trace, cfg, "nmf")
    if cfg.out and image_shape is not None:
        nmf_mod.dump_basis_pgm(state.x_cur[0], image_shape, os.path.join(cfg.out, "basis"))
    return 0


def _bid_config(cfg, params):
    """``cfg`` for a BID run: unless it sets ``step_scale``, the kernel
    block's tau takes the ``params.kernel_step_scale`` preset."""
    if cfg.step_scale is None:
        return dataclasses.replace(cfg, step_scale=(1.0, params.kernel_step_scale))
    return cfg


def cmd_bid(args) -> int:
    cfg = _config_from_args(args)
    if args.image:
        f = read_pgm(args.image)
    else:
        f = synthetic.synth_bid(seed=cfg.seed)["f"]
    ks = args.kernel_size
    params = bid_mod.BidParams(lam=args.lam, theta=args.theta, kernel_shape=(ks, ks))
    problem = bid_mod.make_bid_problem(f, params)
    state = run(problem, bid_mod.init_bid(f, params), _bid_config(cfg, params))
    _write_trace(state.trace, cfg, "bid")
    if cfg.out:
        write_pgm(os.path.join(cfg.out, "bid_image.pgm"), state.x_cur[0])
        write_pgm(os.path.join(cfg.out, "bid_kernel.pgm"), state.x_cur[1])
    return 0


def cmd_convlasso(args) -> int:
    cfg = _config_from_args(args)
    if args.image:
        f = read_pgm(args.image)
    else:
        f = synthetic.synth_convlasso(seed=cfg.seed)["f"]
    problem = cl_mod.make_convlasso_problem(
        f, p=args.filters, l=args.filter_size, lam=args.lasso_weight
    )
    x0 = cl_mod.init_convlasso(f, p=args.filters, l=args.filter_size, seed=cfg.seed)
    state = run(problem, x0, cfg)
    _write_trace(state.trace, cfg, "convlasso")
    if cfg.out:
        g = cl_mod.gaussian_filter(args.filter_size)
        cl_mod.dump_outputs(state.x_cur, f, g, cfg.out)
    return 0


_SWEEP_BID = bid_mod.BidParams(kernel_shape=(7, 7))


def _sweep_instance(problem_kind, seed):
    """The sweep's problem and start point for ``seed``."""
    if problem_kind == "bid":
        f = synthetic.synth_bid(seed=seed)["f"]
        return bid_mod.make_bid_problem(f, _SWEEP_BID), bid_mod.init_bid(f, _SWEEP_BID)
    if problem_kind == "nmf":
        A = synthetic.synth_nmf(seed=seed)["A"]
        return nmf_mod.make_nmf_problem(A, r=3, s=2), nmf_mod.init_nmf(A, r=3, s=2, seed=seed)
    f = synthetic.synth_convlasso(seed=seed)["f"]
    return (cl_mod.make_convlasso_problem(f, p=8, l=5, lam=0.2),
            cl_mod.init_convlasso(f, p=8, l=5, seed=seed))


def _sweep_cell(problem_kind, cfg):
    """One sweep cell's trace; module-level, so a worker process can run it."""
    problem, x0 = _sweep_instance(problem_kind, cfg.seed)
    if problem_kind == "bid":
        cfg = _bid_config(cfg, _SWEEP_BID)
    return run(problem, x0, cfg).trace


def cmd_sweep(args) -> int:
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    cfg = _config_from_args(args)
    alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    cells = [dataclasses.replace(cfg, alpha_bar=a, beta_bar=a) for a in alphas]
    if args.include_dynamic:
        cells.append(dataclasses.replace(cfg, schedule="dynamic", alpha_bar=0.0, beta_bar=0.0))
    if not cells:
        raise ConfigError(f"no sweep settings: --alphas {args.alphas!r} names no value "
                          f"and --include-dynamic is off")
    # a setting the schedule rejects fails here, before any cell starts
    problem = _sweep_instance(args.problem, cfg.seed)[0]
    for cell in cells:
        block_kinds(problem, cell)
    # fork starts every worker at the first submit: no more than cells or cores
    workers = min(cfg.jobs, len(cells), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        traces = list(pool.map(functools.partial(_sweep_cell, args.problem), cells))
    labels = ["dynamic" if c.schedule == "dynamic" else f"alpha=beta={c.alpha_bar:g}"
              for c in cells]
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_checkpoints(zip(labels, traces), cfg.checkpoints,
                       os.path.join(out_dir, "sweep_checkpoints.csv"))
    return 0


def cmd_verify(args) -> int:
    reports = verify.run_battery(
        seed=args.seed, trials=args.trials, points=args.points, out_dir=args.out
    )
    bad = 0
    for rep in reports:
        print(rep.summary())
        bad += len(rep.violations)
    return 1 if bad else 0


def cmd_synth(args) -> int:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if args.problem == "nmf":
        inst = synthetic.synth_nmf(seed=args.seed)
        for key in ("A", "B_true", "C_true"):
            nmf_mod.save_matrix_csv(os.path.join(out, f"nmf_{key}.csv"), inst[key])
    elif args.problem == "bid":
        inst = synthetic.synth_bid(seed=args.seed)
        write_pgm(os.path.join(out, "bid_f.pgm"), inst["f"])
        write_pgm(os.path.join(out, "bid_u_true.pgm"), inst["u_true"])
        nmf_mod.save_matrix_csv(os.path.join(out, "bid_b_true.csv"), inst["b_true"])
    else:
        inst = synthetic.synth_convlasso(seed=args.seed)
        write_pgm(os.path.join(out, "convlasso_f.pgm"), inst["f"])
    print(f"synthetic {args.problem} instance written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipalm",
        description="Inertial proximal alternating linearized minimization runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nmf", help="column-sparse nonnegative matrix factorization")
    _add_run_options(p)
    p.add_argument("--data", default=None, help="CSV data matrix (no header)")
    p.add_argument("--pgm-dir", default=None, help="directory of PGM images as columns")
    p.add_argument("--rank", type=int, default=25, help="number of basis columns")
    sp = p.add_mutually_exclusive_group()
    sp.add_argument("--s-percent", type=float, default=33.0,
                    help="nonzeros per basis column, percent of rows")
    sp.add_argument("--s-count", type=int, default=None, help="nonzeros per basis column")
    p.set_defaults(func=cmd_nmf)

    p = sub.add_parser("bid", help="blind image deconvolution")
    _add_run_options(p)
    p.add_argument("--image", default=None, help="blurry PGM image")
    p.add_argument("--kernel-size", type=int, default=31, help="odd kernel side length")
    p.add_argument("--lam", type=float, default=1e6, help="data term weight")
    p.add_argument("--theta", type=float, default=1e4, help="edge penalty shape")
    p.set_defaults(func=cmd_bid)

    p = sub.add_parser("convlasso", help="convolutional dictionary learning")
    _add_run_options(p)
    p.add_argument("--image", default=None, help="PGM image to factorize")
    p.add_argument("--filters", type=int, default=81, help="dictionary size (incl. fixed)")
    p.add_argument("--filter-size", type=int, default=9, help="odd filter side length")
    p.add_argument("--lasso-weight", type=float, default=0.2, help="l1 penalty weight")
    p.set_defaults(func=cmd_convlasso)

    p = sub.add_parser("sweep", help="grid over inertial settings, checkpoint table out")
    _add_run_options(p)
    p.add_argument("--problem", choices=("nmf", "bid", "convlasso"), default="nmf")
    p.add_argument("--alphas", default="0,0.2,0.4",
                   help="comma-separated alpha=beta settings")
    p.add_argument("--include-dynamic", action="store_true",
                   help="append a dynamic-schedule row")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="run cells on at most N worker processes (default 1)")
    p.add_argument("--checkpoints", type=int_tuple, default=None,
                   help="comma-separated checkpoint iteration counts "
                        "(default 100,500,1000,5000)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="numerical verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000, help="proximal-bound trials")
    p.add_argument("--points", type=int, default=10000, help="step-rule grid points")
    p.add_argument("--out", default=None, help="directory for per-check CSV reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="write synthetic desk instances")
    p.add_argument("--problem", choices=("nmf", "bid", "convlasso"), default="nmf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
