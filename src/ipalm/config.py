"""Run configuration and the plain-text key=value config file format."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .schedules import Dynamic, Static

SCHEDULES = ("static-nc", "static-c", "dynamic")


class ConfigError(ValueError):
    """A configuration file or value could not be parsed."""


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOL_WORDS[word]


def int_tuple(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def float_tuple(raw: str) -> tuple:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _setting(default, parse, help: str, **flag):
    """A RunConfig field that is also a file key and a CLI run flag, declared
    once: ``parse`` reads the file value and the flag's argument, the flag's
    help is ``help`` with ``default`` appended, and ``flag`` holds any other
    ``add_argument`` options."""
    return field(default=default, metadata={"parse": parse, "help": help, "flag": flag})


@dataclass
class RunConfig:
    """Everything a single solver run needs besides the problem itself.

    ``schedule`` selects the parameter regime:

    * ``static-nc`` -- constant coefficients, prox factor ``c = 1`` on every
      block (always sound, conservative);
    * ``static-c`` -- constant coefficients, ``c = 2`` on blocks whose
      nonsmooth term is convex and ``c = 1`` elsewhere (the usual choice);
    * ``dynamic`` -- coefficients ``(k-1)/(k+2)`` with ``tau = L`` (heuristic).

    ``backtrack`` picks where the moduli come from (false: every block takes
    the problem's closed-form moduli); the line search's own constants are
    module constants of ``ipalm.lipschitz``, not settings of a run.
    """

    schedule: str = _setting("static-c", str, "parameter regime", choices=SCHEDULES)
    alpha_bar: float = _setting(0.0, float, "extrapolation bound/value")
    beta_bar: float = _setting(0.0, float, "gradient-point bound/value")
    epsilon: float = _setting(0.0, float, "descent margin")
    iters: int = _setting(1000, int, "iteration budget")
    tol: float = _setting(1e-9, float, "relative step-norm stop")
    seed: int = _setting(0, int, "seed for data and initialization")
    backtrack: bool = _setting(True, _parse_bool, "estimate Lipschitz moduli by backtracking")
    step_scale: Optional[tuple] = _setting(
        None, float_tuple, "per-block step-parameter multipliers >= 1, e.g. 1,5; "
        "None: all ones, bid presets 1,5")
    constant_delta: Optional[tuple] = None  # pins the Lyapunov step weights; no file key
    checkpoints: tuple = _setting((100, 500, 1000, 5000), int_tuple,
                                  "comma-separated checkpoint iteration counts")
    out: Optional[str] = _setting(None, str, "output directory; None: no files, or . for sweep")
    jobs: int = _setting(1, int, "run cells on at most N worker processes", metavar="N")

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ConfigError(
                f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}"
            )
        if not self.tol >= 0:  # also rejects NaN; inf stops after one sweep
            raise ConfigError(f"tol must be >= 0, got {self.tol}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if any(k < 0 for k in self.checkpoints):
            raise ConfigError(f"checkpoints must be >= 0, got {self.checkpoints}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


def block_kinds(problem, config: RunConfig) -> tuple:
    """Per-block schedule kinds implied by the configuration."""
    if config.schedule == "dynamic":
        return (Dynamic(),) * problem.num_blocks
    return tuple(
        Static(config.alpha_bar, config.beta_bar, config.epsilon,
               convex=bool(config.schedule == "static-c" and convex))
        for convex in problem.convex
    )


# keys settable from a config file, the fields declared by _setting; each
# CLI run flag sets the key of the same name
FILE_KEYS = {f.name: f for f in fields(RunConfig) if f.metadata}


def _read_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key=value, got {line.rstrip()!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in FILE_KEYS:
                known = ", ".join(sorted(FILE_KEYS))
                raise ConfigError(f"line {lineno}: unknown key {key!r} (known: {known})")
            try:
                values[key] = FILE_KEYS[key].metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def load_config(path=None, **overrides) -> RunConfig:
    """Build a RunConfig from a ``key=value`` file with ``overrides`` on top.

    The file holds one key per line with ``#`` comments; unknown keys are
    rejected, malformed lines report their line number, and an empty file
    yields all defaults.  Every override that is not ``None`` replaces the
    file's value (the CLI passes its flags here); keys set by neither keep
    the RunConfig defaults.
    """
    values = {} if path is None else _read_file(path)
    for key, value in overrides.items():
        if key not in FILE_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        if value is not None:
            values[key] = value
    return RunConfig(**values)
