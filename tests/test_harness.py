import csv
import math
import os
import subprocess
import sys

import pytest
from oracles import trace_column

from ipalm.cli import main
from ipalm.config import ConfigError, RunConfig, load_config
from ipalm.nmf import init_nmf, make_nmf_problem
from ipalm.schedules import Dynamic
from ipalm.solver import TRACE_COLUMNS, make_state
from ipalm.synthetic import synth_nmf


# ---------------------------------------------------------------------------
# config files


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == RunConfig()


def test_config_parses_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment settings\n"
        "epsilon = 0.05\n"
        "schedule=static-nc\n"
        "alpha_bar=0.2  # inline comment\n"
        "iters=250\n"
        "backtrack=false\n"
        "checkpoints=10,20\n"
    )
    cfg = load_config(path)
    assert cfg.epsilon == 0.05
    assert cfg.schedule == "static-nc"
    assert cfg.alpha_bar == 0.2
    assert cfg.iters == 250
    assert cfg.backtrack is False
    assert cfg.checkpoints == (10, 20)


def test_config_rejects_unknown_key_with_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("iters=5\nbogus_key=1\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_every_run_config_field_is_a_file_key():
    from dataclasses import fields

    from ipalm.config import FILE_KEYS

    # constant_delta is set from code only: it is derived from a run's moduli
    assert {f.name for f in fields(RunConfig)} == set(FILE_KEYS) | {"constant_delta"}


@pytest.mark.parametrize("key", ["bt_growth", "bt_shrink", "bt_max_rounds", "bt_l0"])
def test_config_rejects_the_line_search_constants_as_unknown_keys(tmp_path, key):
    # the line search's constants are module constants, not run settings
    path = tmp_path / "bt.cfg"
    path.write_text(f"iters=5\n{key}=2\n")
    with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
        load_config(path)


def test_config_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("iters=5\nthis is not a pair\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_config_reports_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("iters=five\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_config_rejects_unknown_schedule():
    with pytest.raises(ConfigError):
        RunConfig(schedule="warp")


@pytest.mark.parametrize("values", [{"checkpoints": (10, -1)}, {"jobs": 0}, {"jobs": -2}])
def test_config_rejects_negative_checkpoints_and_fewer_than_one_job(values):
    with pytest.raises(ConfigError, match=next(iter(values))):
        RunConfig(**values)


def test_config_file_rejects_a_negative_seed_naming_it(tmp_path):
    path = tmp_path / "seed.cfg"
    path.write_text("iters=2\nseed=-1\n")
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        load_config(path)


@pytest.mark.parametrize("command", [["nmf", "--iters", "2"], ["synth"], ["verify"]])
def test_cli_rejects_a_negative_seed_naming_it(command, tmp_path, capsys):
    # synth and verify take no RunConfig: argparse rejects their seed and exits
    try:
        rc = main(command + ["--seed", "-1", "--out", str(tmp_path / "out")])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_precedence_flag_over_file_over_default(tmp_path, monkeypatch):
    from ipalm import cli

    path = tmp_path / "run.cfg"
    path.write_text("iters=250\nalpha_bar=0.3\nstep_scale=1,2\n")
    parser = cli.build_parser()
    # flag beats file; file beats built-in default; untouched keys keep defaults
    args = parser.parse_args(["nmf", "--config", str(path), "--alpha-bar", "0.1",
                              "--step-scale", "1,3"])
    cfg = cli._config_from_args(args)
    assert cfg.alpha_bar == 0.1  # flag wins
    assert cfg.step_scale == (1.0, 3.0)  # flag wins
    assert cfg.iters == 250  # file wins over the built-in 1000
    assert cfg.tol == RunConfig().tol  # untouched default

    # the step scale a bid run hands the solver
    seen = []
    real_run = cli.run

    def spy(problem, x0, config):
        seen.append(config.step_scale)
        return real_run(problem, x0, config)

    monkeypatch.setattr(cli, "run", spy)
    bid = ["bid", "--kernel-size", "3", "--iters", "1", "--tol", "0"]
    assert cli.main(bid + ["--config", str(path), "--step-scale", "1,3"]) == 0
    assert cli.main(bid + ["--config", str(path)]) == 0
    assert cli.main(bid) == 0
    assert seen[0] == (1.0, 3.0)  # flag beats file
    assert seen[1] == (1.0, 2.0)  # file beats the bid preset
    assert seen[2] == (1.0, 5.0)  # preset applies when nothing is set


def test_cli_calls_share_one_parser_and_leak_nothing_between_calls(tmp_path, monkeypatch):
    import argparse

    from ipalm import cli

    path = tmp_path / "run.cfg"
    path.write_text("alpha_bar=0.3\nstep_scale=1,2\n")
    seen = []
    real_run = cli.run

    def spy(problem, x0, config):
        seen.append(config)
        return real_run(problem, x0, config)

    monkeypatch.setattr(cli, "run", spy)
    bid = ["bid", "--kernel-size", "3", "--iters", "1", "--tol", "0"]
    assert main(bid) == 0  # warm-up: builds the parser if nothing has yet

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(bid + ["--exact-lipschitz", "--config", str(path), "--step-scale", "1,3"]) == 0
    assert main(bid) == 0
    first, second = seen[1:]
    assert (first.backtrack, first.alpha_bar, first.step_scale) == (False, 0.3, (1.0, 3.0))
    assert (second.backtrack, second.alpha_bar, second.step_scale) == (True, 0.0, (1.0, 5.0))

    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "-1"])
    assert exc.value.code == 2
    out = tmp_path / "synth"
    assert main(["synth", "--problem", "bid", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["bid_b_true.csv", "bid_f.pgm", "bid_u_true.pgm"]
    assert built == []


def test_every_run_flag_sets_the_file_key_of_the_same_name(tmp_path):
    import argparse

    from ipalm.cli import _add_run_options, _config_from_args
    from ipalm.config import FILE_KEYS

    samples = {
        "schedule": "static-nc", "alpha_bar": "0.3", "beta_bar": "0.2", "epsilon": "0.1",
        "iters": "7", "tol": "0.001", "seed": "3", "step_scale": "1,5",
        "out": "somewhere",
    }
    parser = argparse.ArgumentParser()
    _add_run_options(parser)
    flags = [a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")]
    assert {a.dest for a in flags} == set(samples) | {"backtrack"}
    default = RunConfig()
    for action in flags:
        key = action.dest
        assert key in FILE_KEYS
        if action.nargs == 0:  # --backtrack / --exact-lipschitz
            argv, raw = [action.option_strings[0]], str(action.const)
        else:
            argv, raw = [action.option_strings[0], samples[key]], samples[key]
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key}={raw}\n")
        by_flag = _config_from_args(parser.parse_args(argv))
        by_file = _config_from_args(parser.parse_args(["--config", str(path)]))
        assert getattr(by_flag, key) == getattr(by_file, key)
        if key != "backtrack":  # --backtrack restates the default
            assert getattr(by_flag, key) != getattr(default, key)
        assert by_flag == by_file


@pytest.mark.parametrize("command", ["nmf", "bid", "convlasso", "sweep"])
def test_run_help_names_each_file_key_flag_with_its_run_config_default(
        command, capsys, monkeypatch):
    import re

    from ipalm.config import FILE_KEYS

    monkeypatch.setenv("COLUMNS", "400")  # no help line wraps
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    default = RunConfig()
    for key in FILE_KEYS:
        flag = "--" + key.replace("_", "-")
        if key in ("checkpoints", "jobs") and command != "sweep":
            assert flag not in text
            continue
        value = getattr(default, key)
        shown = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        # the flag's own help, up to the first default note after it
        assert re.search(rf"{flag} [^()]*\(default: {re.escape(shown)}\)", text), key
    assert "--exact-lipschitz" in text


def test_bid_preset_scale_equals_explicit_step_scale_bitwise(tmp_path):
    from ipalm.bid import BidParams, init_bid, make_bid_problem
    from ipalm.solver import run
    from ipalm.synthetic import synth_bid

    out = tmp_path / "bid"
    assert main(["bid", "--kernel-size", "3", "--iters", "5", "--tol", "0", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = (out / "bid_trace.csv").read_text().strip().split("\n")
    F_cli = [float(line.split(",")[1]) for line in lines[1:]]

    f = synth_bid(seed=1)["f"]
    params = BidParams(kernel_shape=(3, 3))
    state = run(make_bid_problem(f, params), init_bid(f, params),
                RunConfig(iters=5, tol=0.0, seed=1, step_scale=(1.0, 5.0)))
    assert F_cli == trace_column(state.trace, "F").tolist()


def test_cli_rejects_step_scale_of_wrong_length(capsys):
    rc = main(["bid", "--kernel-size", "3", "--iters", "1", "--step-scale", "5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_solver_failure_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"

    def fails_with_one_error_line(argv):
        assert main(argv + ["--iters", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    # both runs fail by a line search with one round from a tiny start (the
    # solver imports START by name); the fork start method carries the
    # patches into the sweep's worker processes
    monkeypatch.setattr("ipalm.solver.START", 1e-12)
    monkeypatch.setattr("ipalm.lipschitz.MAX_ROUNDS", 1)
    fails_with_one_error_line(["bid", "--kernel-size", "3"])
    fails_with_one_error_line(["sweep", "--problem", "bid", "--jobs", "2"])


def test_cli_bid_smooth_part_overflow_exits_3_naming_the_cause(tmp_path, capsys):
    # lam * data overflows, so H is inf at the first base point and no
    # modulus can pass the descent lemma: the line search stops at once
    out = tmp_path / "out"
    rc = main(["bid", "--kernel-size", "3", "--lam", "1.7e308", "--iters", "3",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: the smooth part is inf at the line search's base point\n"
    assert not out.exists()


@pytest.mark.parametrize("lam, quotient", [("1e200", "5.163e+203"), ("1e300", "5.163e+303")])
def test_cli_bid_exact_kernel_modulus_overflow_exits_3_naming_the_value(tmp_path, capsys, lam,
                                                                        quotient):
    # the kernel block's normal operator scales with lam: its image norm
    # overflows in the first power step, which stops the run
    out = tmp_path / "out"
    rc = main(["bid", "--kernel-size", "3", "--lam", lam, "--iters", "5", "--exact-lipschitz",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == ("error: operator power iteration reached a non-finite value "
                   f"(Rayleigh quotient {quotient}, image norm inf)\n")
    assert not out.exists()


def test_cli_bid_exact_gram_weight_overflow_exits_3_with_no_numpy_warning(tmp_path, capsys):
    # lam*|u_hat|^2 overflows before the kernel Gram is formed; the suite
    # turns RuntimeWarning into an error, so a numpy overflow warning fails here
    out = tmp_path / "out"
    rc = main(["bid", "--kernel-size", "3", "--lam", "1e305", "--iters", "5",
               "--exact-lipschitz", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == ("error: kernel modulus: the Gram weight lam*|u_hat|^2 is not finite "
                   "(lam 1e+305, largest |u_hat|^2 1.291e+06)\n")
    assert not out.exists()


def test_cli_bid_exact_kernel_gradient_overflow_exits_3_with_no_numpy_warning(tmp_path, capsys):
    # lam times the residual-image correlation leaves the float range in the
    # kernel gradient, which comes before the kernel modulus in a block step
    out = tmp_path / "out"
    rc = main(["bid", "--kernel-size", "3", "--lam", "1.7e308", "--iters", "5",
               "--exact-lipschitz", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: kernel gradient: lam times the residual-image correlation "
                          "is not finite (lam 1.7e+308, largest |correlation| ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_bid_line_search_reaches_a_huge_data_weight(tmp_path):
    # the image block's modulus is about lam = 1e30, far more than 60
    # doublings above the start; the rejected candidates' curvature carries
    # the line search there in a few rounds
    out = tmp_path / "out"
    rc = main(["bid", "--kernel-size", "3", "--lam", "1e30", "--iters", "3", "--out", str(out)])
    assert rc == 0
    header, *rows = (out / "bid_trace.csv").read_text().strip().split("\n")
    col = header.split(",").index("F")
    F = [float(row.split(",")[col]) for row in rows]
    assert len(F) == 4 and all(math.isfinite(v) for v in F)


# ---------------------------------------------------------------------------
# CLI subcommands (desk-sized budgets)


def test_cli_nmf_writes_trace_with_exact_header(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "nmf", "--rank", "3", "--s-count", "2", "--iters", "5", "--tol", "0",
        "--exact-lipschitz", "--out", str(out), "--seed", "1",
    ])
    assert rc == 0
    lines = (out / "nmf_trace.csv").read_text().strip().split("\n")
    assert lines[0] == TRACE_COLUMNS
    assert len(lines) == 7  # header + initial row + 5 iterations
    assert (out / "nmf_checkpoints.csv").exists()


def test_cli_single_run_checkpoint_label_names_each_coefficient(tmp_path):
    out = tmp_path / "out"
    rc = main(["nmf", "--rank", "3", "--s-count", "2", "--iters", "2", "--exact-lipschitz",
               "--alpha-bar", "0.3", "--beta-bar", "0.2", "--out", str(out)])
    assert rc == 0
    lines = (out / "nmf_checkpoints.csv").read_text().strip().split("\n")
    assert lines[1].startswith("static-c alpha=0.3 beta=0.2,")


def test_cli_dynamic_run_prints_the_trace_mode_note(capsys):
    A = synth_nmf(seed=1)["A"]
    problem = make_nmf_problem(A, r=3, s=2)
    note = make_state(problem, init_nmf(A, r=3, s=2), Dynamic()).trace.meta["mode_note"]
    rc = main(["nmf", "--rank", "3", "--s-count", "2", "--iters", "2", "--schedule", "dynamic",
               "--seed", "1"])
    assert rc == 0
    assert f"[nmf] {note}\n" in capsys.readouterr().out


def test_cli_nmf_reference_configuration(tmp_path):
    # the reference configuration: rank 25, sparsity one third of the rows
    out = tmp_path / "out"
    rc = main([
        "nmf", "--rank", "25", "--s-percent", "33", "--iters", "2", "--tol", "0",
        "--exact-lipschitz", "--out", str(out),
    ])
    assert rc == 0
    header = (out / "nmf_trace.csv").read_text().split("\n")[0]
    assert header == TRACE_COLUMNS


def test_cli_file_inputs_round_trip(tmp_path):
    import numpy as np

    from ipalm.imageops import write_pgm
    from ipalm.nmf import save_matrix_csv
    from ipalm.synthetic import synth_bid, synth_nmf

    rng = np.random.default_rng(0)
    save_matrix_csv(tmp_path / "A.csv", synth_nmf(seed=0)["A"])
    rc = main(["nmf", "--data", str(tmp_path / "A.csv"), "--rank", "3",
               "--s-count", "2", "--iters", "2", "--tol", "0",
               "--exact-lipschitz", "--out", str(tmp_path / "n")])
    assert rc == 0

    write_pgm(tmp_path / "f.pgm", synth_bid(size=16, kernel=3, seed=0)["f"])
    rc = main(["bid", "--image", str(tmp_path / "f.pgm"), "--kernel-size", "3",
               "--iters", "2", "--tol", "0", "--out", str(tmp_path / "b")])
    assert rc == 0

    write_pgm(tmp_path / "t.pgm", rng.uniform(0, 1, (16, 16)))
    rc = main(["convlasso", "--image", str(tmp_path / "t.pgm"), "--filters", "3",
               "--filter-size", "3", "--lasso-weight", "0.05", "--iters", "2",
               "--tol", "0", "--out", str(tmp_path / "c")])
    assert rc == 0

    faces = tmp_path / "faces"
    faces.mkdir()
    for i in range(4):
        write_pgm(faces / f"face{i}.pgm", rng.uniform(0, 1, (6, 5)))
    rc = main(["nmf", "--pgm-dir", str(faces), "--rank", "2", "--s-count", "5",
               "--iters", "2", "--tol", "0", "--exact-lipschitz",
               "--out", str(tmp_path / "orl")])
    assert rc == 0
    basis = tmp_path / "orl" / "basis"
    assert basis.exists() and len(list(basis.iterdir())) == 2


def test_cli_rejects_non_finite_data_file(tmp_path, capsys):
    path = tmp_path / "A.csv"
    path.write_text("1,2,3\n4,nan,6\n7,8,9\n")
    rc = main(["nmf", "--data", str(path), "--rank", "1", "--s-count", "1", "--iters", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


def test_cli_bid_and_convlasso_run(tmp_path):
    rc = main([
        "bid", "--kernel-size", "3", "--iters", "3", "--tol", "0",
        "--out", str(tmp_path / "bid"), "--seed", "1",
    ])
    assert rc == 0
    assert (tmp_path / "bid" / "bid_kernel.pgm").exists()
    rc = main([
        "convlasso", "--filters", "4", "--filter-size", "3", "--lasso-weight",
        "0.05", "--iters", "3", "--tol", "0", "--out", str(tmp_path / "cl"),
    ])
    assert rc == 0
    assert (tmp_path / "cl" / "dictionary.pgm").exists()
    assert (tmp_path / "cl" / "sparsity.csv").exists()


def test_cli_sweep_emits_grid_ordered_table(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--problem", "nmf", "--alphas", "0,0.2,0.4", "--iters", "30",
        "--tol", "0", "--exact-lipschitz", "--checkpoints", "10,20,5000",
        "--out", str(out), "--jobs", "2",
    ])
    assert rc == 0
    lines = (out / "sweep_checkpoints.csv").read_text().strip().split("\n")
    assert lines[0] == "setting,K10,K20,K5000,time_s"
    assert len(lines) == 4  # three alpha rows in grid order
    assert lines[1].startswith("alpha=beta=0,")
    assert lines[2].startswith("alpha=beta=0.2,")
    assert lines[3].startswith("alpha=beta=0.4,")
    for line in lines[1:]:
        cells = line.split(",")
        # earlier checkpoints are populated, the unreached one stays empty,
        # and the trailing wall-time cell is informational
        assert cells[1] != "" and cells[2] != ""
        assert cells[3] == ""
        assert float(cells[4]) >= 0.0


@pytest.fixture
def pool_workers(monkeypatch):
    """Worker counts that ``cmd_sweep`` asks for, from a stand-in pool that
    starts no process and maps the cells inline, on a machine reporting
    eight cores."""
    import concurrent.futures

    from ipalm import cli

    workers = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # cmd_sweep imports the pool class when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return workers


def test_cli_sweep_caps_workers_at_cells_and_cores(tmp_path, pool_workers, monkeypatch):
    from ipalm import cli

    argv = ["sweep", "--alphas", "0,0.2", "--iters", "2", "--out", str(tmp_path / "sw")]
    assert main(argv + ["--jobs", "64"]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one worker
    assert main(argv + ["--jobs", "64"]) == 0
    assert pool_workers == [2, 1]


def test_cli_sweep_rejects_a_bad_setting_before_any_cell_runs(tmp_path, capsys, pool_workers,
                                                              monkeypatch):
    """alpha=0.6 breaks nmf's nonconvex step rule; the valid alpha=0 cell
    listed before it must not run, and no pool may start."""
    from ipalm import cli

    ran = []
    real_run = cli.run

    def recording_run(problem, x0, cfg):
        ran.append(cfg.alpha_bar)
        return real_run(problem, x0, cfg)

    monkeypatch.setattr(cli, "run", recording_run)
    argv = ["sweep", "--problem", "nmf", "--alphas", "0,0.6", "--jobs", "2", "--iters", "2",
            "--out", str(tmp_path / "sw")]
    assert main(argv) == 2
    assert "alpha_bar" in capsys.readouterr().err
    assert ran == [] and pool_workers == []
    assert not (tmp_path / "sw").exists()


def test_cli_import_leaves_multiprocessing_unloaded():
    """Only ``sweep`` uses worker processes; importing the CLI must not load
    ``multiprocessing`` into every other command."""
    code = "import sys, ipalm.cli; sys.exit('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_sweep_reads_out_checkpoints_and_jobs_from_config(tmp_path, pool_workers):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"out={tmp_path / 'sw'}\ncheckpoints=1,2\niters=3\njobs=2\n")
    assert main(["sweep", "--alphas", "0,0.2", "--config", str(path)]) == 0
    lines = (tmp_path / "sw" / "sweep_checkpoints.csv").read_text().strip().split("\n")
    assert lines[0] == "setting,K1,K2,time_s"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] != "" and cells[2] != ""
    assert pool_workers == [2]
    # the flag overrides the file
    assert main(["sweep", "--alphas", "0", "--config", str(path), "--checkpoints", "3"]) == 0
    lines = (tmp_path / "sw" / "sweep_checkpoints.csv").read_text().strip().split("\n")
    assert lines[0] == "setting,K3,time_s"
    assert lines[1].split(",")[1] != ""


def test_cli_empty_checkpoint_list_writes_a_well_formed_table(tmp_path, pool_workers):
    # from the sweep's flag and from a single run's config file; every row of
    # the table has the header's two fields, the setting and its time
    cfg = tmp_path / "run.cfg"
    cfg.write_text("checkpoints=\n")
    sweep, single = tmp_path / "sweep", tmp_path / "single"
    assert main(["sweep", "--alphas", "0", "--iters", "2", "--checkpoints", "",
                 "--out", str(sweep)]) == 0
    assert main(["nmf", "--iters", "2", "--config", str(cfg), "--out", str(single)]) == 0
    for table in (sweep / "sweep_checkpoints.csv", single / "nmf_checkpoints.csv"):
        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["setting", "time_s"] and len(rows) == 2
        assert [len(row) for row in rows] == [len(rows[0])] * len(rows)


@pytest.mark.parametrize("problem", ["bid", "convlasso"])
def test_cli_sweep_cells_match_across_job_counts(tmp_path, problem):
    """Cells run in worker processes, each with its own copy of the oracles'
    spectrum memos; every checkpoint cell must match a one-worker run byte
    for byte."""
    tables = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        rc = main([
            "sweep", "--problem", problem, "--alphas", "0,0.2,0.4", "--iters", "6",
            "--tol", "0", "--checkpoints", "1,3,6", "--out", str(out), "--jobs", jobs,
        ])
        assert rc == 0
        lines = (out / "sweep_checkpoints.csv").read_text().strip().split("\n")
        assert len(lines) == 4 and lines[0].endswith(",time_s")
        tables.append([line.rsplit(",", 1)[0] for line in lines])  # drop time_s
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["nmf", "bid", "convlasso"])
def test_cli_jobs_is_a_sweep_only_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--iters", "2", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--checkpoints=-1,2,3", "--jobs=0"])
def test_cli_sweep_rejects_bad_checkpoints_and_jobs(tmp_path, capsys, flag):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--alphas", "0", "--iters", "3", "--out", str(out), flag])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "sweep_checkpoints.csv").exists()


def test_cli_sweep_dynamic_row(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--problem", "nmf", "--alphas", "0", "--include-dynamic",
        "--iters", "10", "--tol", "0", "--exact-lipschitz",
        "--checkpoints", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep_checkpoints.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2].startswith("dynamic,")


def test_cli_verify_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    rc1 = main(["verify", "--seed", "7", "--trials", "40", "--points", "150",
                "--out", str(out1)])
    rc2 = main(["verify", "--seed", "7", "--trials", "40", "--points", "150",
                "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("counts", [["--trials", "-3", "--points", "0"],
                                    ["--trials", "0", "--points", "5"],
                                    ["--trials", "5", "--points", "-1"]])
def test_cli_verify_without_trials_exits_2_with_no_report(tmp_path, capsys, counts):
    out = tmp_path / "v"
    assert main(["verify", *counts, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_synth_writes_instances(tmp_path):
    for problem, expect in (
        ("nmf", "nmf_A.csv"),
        ("bid", "bid_f.pgm"),
        ("convlasso", "convlasso_f.pgm"),
    ):
        out = tmp_path / problem
        rc = main(["synth", "--problem", problem, "--out", str(out)])
        assert rc == 0
        assert (out / expect).exists()


def test_cli_config_file_feeds_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters=4\ntol=0\nbacktrack=false\n")
    out = tmp_path / "out"
    rc = main(["nmf", "--rank", "3", "--s-count", "2", "--iters", "4",
               "--tol", "0", "--exact-lipschitz", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0


def test_cli_config_seed_reaches_the_synthetic_instance(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n")
    common = ["nmf", "--rank", "3", "--s-count", "2", "--iters", "2", "--tol", "0",
              "--exact-lipschitz"]
    assert main(common + ["--seed", "3", "--out", str(tmp_path / "flag")]) == 0
    assert main(common + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == 0

    def F_column(run_dir):
        lines = (run_dir / "nmf_trace.csv").read_text().strip().split("\n")
        return [line.split(",")[1] for line in lines[1:]]

    assert F_column(tmp_path / "flag") == F_column(tmp_path / "file")


def test_cli_usage_error_exit_code(tmp_path):
    rc = main(["nmf", "--data", str(tmp_path / "missing.csv"), "--iters", "2"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (["bid", "--step-scale", "1,nan"], None),
        (["bid", "--step-scale", "nan,1"], None),
        (["bid", "--step-scale", "inf,1"], None),
        (["bid", "--beta-bar", "nan"], None),
        (["bid", "--beta-bar", "inf"], None),
        (["bid"], "bt_growth=nan\n"),
        (["bid"], "bt_l0=nan\n"),
        (["nmf", "--s-percent", "-50"], None),
        (["sweep", "--alphas", ","], None),
        (["bid", "--theta", "nan"], None),
        (["bid", "--lam", "nan"], None),
        (["bid", "--lam", "inf"], None),
        (["convlasso", "--lasso-weight", "nan"], None),
        (["nmf", "--tol", "nan"], None),
        (["nmf", "--tol", "-1"], None),
        (["sweep", "--alphas", "0,0.6", "--jobs", "2"], None),
    ],
    ids=["step-scale-1-nan", "step-scale-nan-1", "step-scale-inf-1", "beta-bar-nan",
         "beta-bar-inf", "removed-key-bt-growth", "removed-key-bt-l0", "s-percent-negative",
         "sweep-no-alphas", "theta-nan", "lam-nan", "lam-inf", "lasso-weight-nan", "tol-nan",
         "tol-negative", "sweep-alpha-rejected-in-a-worker"],
)
def test_cli_rejects_bad_run_settings_with_one_error_line(tmp_path, capsys, argv, config):
    argv = argv + ["--iters", "2", "--out", str(tmp_path / "out")]
    if argv[0] == "bid":
        argv += ["--kernel-size", "3"]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:loadtxt")
def test_cli_rejects_an_empty_data_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    rc = main(["nmf", "--data", str(path), "--iters", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "no entries" in err


def test_cli_rejects_an_empty_data_file_with_no_warning(tmp_path, capsys):
    import warnings

    # loadtxt warns on an empty file; the warning stays inside the loader
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["nmf", "--data", str(path), "--iters", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "no entries" in err


def test_cli_defaults_echo_reference_configurations():
    from ipalm.cli import build_parser

    parser = build_parser()
    nmf_args = parser.parse_args(["nmf"])
    assert nmf_args.rank == 25 and nmf_args.s_percent == 33.0
    bid_args = parser.parse_args(["bid"])
    assert bid_args.kernel_size == 31
    assert bid_args.lam == 1e6 and bid_args.theta == 1e4
    cl_args = parser.parse_args(["convlasso"])
    assert cl_args.filters == 81 and cl_args.filter_size == 9
    assert cl_args.lasso_weight == 0.2
