"""Alignment dynamics with singular communication weights.

Simulates N interacting particles whose velocities relax toward each
other through a pairwise weight that blows up at contact, resolves the
resulting finite-time sticking collisions into cluster merges, and ships
the analysis tools used to study them: the exact two-body separation
problem, trajectory diagnostics, and convergence runs across capped
approximations of the weight.
"""

from .convergence import ConvergenceReport, cauchy_table, run_family
from .diagnostics import (
    DIVERGENT,
    FINITE,
    INCONCLUSIVE,
    DiagnosticsReport,
    DissipationResult,
    HolderFit,
    IntegrabilityRecord,
    conservation_residual,
    dissipation_check,
    holder_exponent,
    integrability_probe,
    ordered_sums_check,
    run_diagnostics,
)
from .dynamics import ClusterPartition, ParticleSystem, make_system, merge_clusters
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    FlockError,
    InsufficientDataError,
    LocalizationError,
    SingularEvaluationError,
    ValidationError,
)
from .integrator import (
    NON_STICK,
    STICKING,
    UNRESOLVED,
    CollisionEvent,
    PiecewiseTrajectory,
    SolverConfig,
    solve_piecewise,
)
from .kernels import CuckerSmaleKernel, RegularizedKernel, SingularKernel
from .twobody import (
    CollideNonstick,
    FloorCheckResult,
    LevelGapRecord,
    NoCollision,
    StickFiniteTime,
    TwoBodyProblem,
    bounded_weight_floor_check,
    classify,
    critical_velocity,
    level_time_bound_check,
    stick_time,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SingularKernel",
    "RegularizedKernel",
    "CuckerSmaleKernel",
    "ClusterPartition",
    "ParticleSystem",
    "make_system",
    "merge_clusters",
    "TwoBodyProblem",
    "StickFiniteTime",
    "CollideNonstick",
    "NoCollision",
    "critical_velocity",
    "stick_time",
    "classify",
    "LevelGapRecord",
    "level_time_bound_check",
    "FloorCheckResult",
    "bounded_weight_floor_check",
    "SolverConfig",
    "CollisionEvent",
    "PiecewiseTrajectory",
    "solve_piecewise",
    "STICKING",
    "NON_STICK",
    "UNRESOLVED",
    "DiagnosticsReport",
    "DissipationResult",
    "HolderFit",
    "IntegrabilityRecord",
    "conservation_residual",
    "dissipation_check",
    "ordered_sums_check",
    "holder_exponent",
    "integrability_probe",
    "run_diagnostics",
    "FINITE",
    "DIVERGENT",
    "INCONCLUSIVE",
    "ConvergenceReport",
    "run_family",
    "cauchy_table",
    "FlockError",
    "DomainError",
    "SingularEvaluationError",
    "DivergenceError",
    "LocalizationError",
    "InsufficientDataError",
    "ConfigError",
    "ValidationError",
]
