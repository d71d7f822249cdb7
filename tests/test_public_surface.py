import ast
import dataclasses
from pathlib import Path

import ipalm

ROOT = Path(__file__).resolve().parent.parent

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
    "ShapeMismatchError",
    "SolverState",
    "SolverTrace",
    "Static",
    "backtrack_L",
    "block_kinds",
    "delta_star",
    "descent_coefficients",
    "extrapolate",
    "ipalm_iterate",
    "load_config",
    "make_state",
    "run",
    "run_state",
    "spectral_norm",
    "tau_for_delta",
]


def test_public_names_are_the_listed_ones():
    assert sorted(ipalm.__all__) == PUBLIC
    assert len(set(ipalm.__all__)) == len(ipalm.__all__)


def test_every_public_name_resolves():
    missing = [name for name in ipalm.__all__ if not hasattr(ipalm, name)]
    assert missing == []


def used_names(path: Path) -> set:
    """The names a module reads, plain or as attributes, each outside the
    top-level statement that defines it."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        own = {getattr(stmt, "name", None)}
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            own |= {t.id for t in targets if isinstance(t, ast.Name)}
        nodes = list(ast.walk(stmt))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        used |= read - own
    return used


def test_every_public_name_has_a_user_in_the_package_or_the_benchmarks():
    # code that only tests use belongs in tests/: a public name must be read
    # somewhere in src/ipalm/ or benchmarks/ besides its definition and the
    # package's re-export
    sources = [p for p in (ROOT / "src" / "ipalm").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "benchmarks").glob("*.py"))
    used = set().union(*(used_names(p) for p in sources))
    assert sorted(set(ipalm.__all__) - used) == []


def test_problem_spec_init_fields_are_the_ones_the_benchmark_tracer_replaces():
    # benchmarks/tracing.py rebuilds a problem with dataclasses.replace,
    # naming the oracles it wraps; a field it names must stay an init field
    names = [f.name for f in dataclasses.fields(ipalm.ProblemSpec) if f.init]
    assert names == ["eval_F", "eval_H", "partial_grad", "prox", "convex", "lipschitz", "name"]
