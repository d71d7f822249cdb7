"""Inertial proximal alternating linearized minimization for block-structured
nonconvex composite objectives, with sparse NMF, blind deconvolution and
convolutional dictionary-learning instances plus a verification battery."""

from .blockmodel import (
    BlockVector,
    DataError,
    ProblemSpec,
    ShapeMismatchError,
    extrapolate,
    step_deltas,
)
from .config import ConfigError, RunConfig, block_kinds, load_config
from .lipschitz import EstimationError, backtrack_L, spectral_norm
from .schedules import (
    Dynamic,
    ParameterDomainError,
    ScheduleKind,
    Static,
    delta_star,
    dynamic_coeff,
    descent_coefficients,
    tau_for_delta,
    tau_step,
)
from .solver import (
    DivergenceError,
    SolverState,
    SolverTrace,
    ipalm_iterate,
    make_state,
    run,
    run_state,
)

__all__ = [
    "BlockVector",
    "ConfigError",
    "DataError",
    "DivergenceError",
    "Dynamic",
    "EstimationError",
    "ParameterDomainError",
    "ProblemSpec",
    "RunConfig",
    "ScheduleKind",
    "ShapeMismatchError",
    "SolverState",
    "SolverTrace",
    "Static",
    "backtrack_L",
    "block_kinds",
    "delta_star",
    "dynamic_coeff",
    "extrapolate",
    "ipalm_iterate",
    "descent_coefficients",
    "load_config",
    "make_state",
    "run",
    "run_state",
    "spectral_norm",
    "step_deltas",
    "tau_for_delta",
    "tau_step",
]

__version__ = "0.1.0"
