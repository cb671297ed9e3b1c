"""Alignment dynamics with singular communication weights.

Simulates N interacting particles whose velocities relax toward each
other through a pairwise weight that blows up at contact, resolves the
resulting finite-time sticking collisions into cluster merges, and ships
the analysis tools used to study them: the exact two-body separation
problem, trajectory diagnostics, and convergence runs across capped
approximations of the weight.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in ``__all__`` order.  A
# submodule is imported on the first access to one of its names, so
# ``import flocksim`` loads none of them.
_HOME = {
    "SingularKernel": "kernels", "RegularizedKernel": "kernels", "CuckerSmaleKernel": "kernels",
    "ClusterPartition": "dynamics", "ParticleSystem": "dynamics", "make_system": "dynamics",
    "merge_clusters": "dynamics",
    "TwoBodyProblem": "twobody", "StickFiniteTime": "twobody", "CollideNonstick": "twobody",
    "NoCollision": "twobody", "critical_velocity": "twobody", "stick_time": "twobody",
    "classify": "twobody", "LevelGapRecord": "twobody", "level_time_bound_check": "twobody",
    "FloorCheckResult": "twobody", "bounded_weight_floor_check": "twobody",
    "SolverConfig": "integrator", "CollisionEvent": "integrator",
    "PiecewiseTrajectory": "integrator", "solve_piecewise": "integrator",
    "STICKING": "integrator", "NON_STICK": "integrator", "UNRESOLVED": "integrator",
    "DiagnosticsReport": "diagnostics", "DissipationResult": "diagnostics",
    "HolderFit": "diagnostics", "IntegrabilityRecord": "diagnostics",
    "conservation_residual": "diagnostics", "dissipation_check": "diagnostics",
    "ordered_sums_check": "diagnostics", "holder_exponent": "diagnostics",
    "integrability_probe": "diagnostics", "run_diagnostics": "diagnostics",
    "FINITE": "diagnostics", "DIVERGENT": "diagnostics", "INCONCLUSIVE": "diagnostics",
    "ConvergenceReport": "convergence", "run_family": "convergence",
    "cauchy_table": "convergence",
    "FlockError": "errors", "DomainError": "errors", "SingularEvaluationError": "errors",
    "DivergenceError": "errors", "LocalizationError": "errors",
    "InsufficientDataError": "errors", "ConfigError": "errors", "ValidationError": "errors",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """A public name, imported from its submodule on first access and then
    kept as an attribute of the package."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
