import dataclasses

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


def test_problem_spec_init_fields_are_the_ones_the_benchmark_tracer_replaces():
    # benchmarks/tracing.py rebuilds a problem with dataclasses.replace,
    # naming the oracles it wraps; a field it names must stay an init field
    names = [f.name for f in dataclasses.fields(ipalm.ProblemSpec) if f.init]
    assert names == ["eval_F", "eval_H", "partial_grad", "prox", "convex", "lipschitz", "name"]
