import ipalm

# The package's public names.  A change here is a change to the public
# surface: add or remove a name on purpose, in the same change as the code.
PUBLIC = [
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
    "descent_coefficients",
    "dynamic_coeff",
    "extrapolate",
    "ipalm_iterate",
    "load_config",
    "make_state",
    "run",
    "run_state",
    "spectral_norm",
    "step_deltas",
    "tau_for_delta",
    "tau_step",
]


def test_public_names_are_the_listed_ones():
    assert sorted(ipalm.__all__) == PUBLIC
    assert len(set(ipalm.__all__)) == len(ipalm.__all__)


def test_every_public_name_resolves():
    missing = [name for name in ipalm.__all__ if not hasattr(ipalm, name)]
    assert missing == []
