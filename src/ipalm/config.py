"""Run configuration and the plain-text key=value config file format."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .schedules import Dynamic, Static

SCHEDULES = ("static-nc", "static-c", "dynamic")


class ConfigError(ValueError):
    """A configuration file or value could not be parsed."""


@dataclass
class RunConfig:
    """Everything a single solver run needs besides the problem itself.

    ``schedule`` selects the parameter regime:

    * ``static-nc`` -- constant coefficients, prox factor ``c = 1`` on every
      block (always sound, conservative);
    * ``static-c`` -- constant coefficients, ``c = 2`` on blocks whose
      nonsmooth term is convex and ``c = 1`` elsewhere (the usual choice);
    * ``dynamic`` -- coefficients ``(k-1)/(k+2)`` with ``tau = L`` (heuristic).

    ``backtrack`` picks where the moduli come from; the line search's own
    constants are module constants of ``ipalm.lipschitz``, not settings of
    a run.
    """

    schedule: str = "static-c"
    alpha_bar: float = 0.0
    beta_bar: float = 0.0
    epsilon: float = 0.0
    iters: int = 1000
    tol: float = 1e-9
    seed: int = 0
    backtrack: bool = True  # False: every block takes the problem's closed-form moduli
    step_scale: Optional[tuple] = None  # per-block tau multipliers; None: all ones
    constant_delta: Optional[tuple] = None  # pins the Lyapunov step weights
    checkpoints: tuple = (100, 500, 1000, 5000)
    out: Optional[str] = None
    jobs: int = 1

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


# keys settable from a config file, with their parsers; each CLI run flag
# sets the key of the same name
FILE_KEYS = {
    "schedule": str,
    "alpha_bar": float,
    "beta_bar": float,
    "epsilon": float,
    "iters": int,
    "tol": float,
    "seed": int,
    "backtrack": _parse_bool,
    "step_scale": float_tuple,
    "checkpoints": int_tuple,
    "out": str,
    "jobs": int,
}


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
                values[key] = FILE_KEYS[key](raw)
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


def config_defaults_help() -> str:
    """One line per config key with its default, for CLI help output."""
    default = RunConfig()
    lines = []
    for f in fields(RunConfig):
        if f.name in FILE_KEYS:
            lines.append(f"{f.name}={getattr(default, f.name)}")
    return "; ".join(lines)
