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
    divergent_components,
    holder_exponent,
    integrability_probe,
    ordered_sums_check,
    run_diagnostics,
)
from .dynamics import (
    ClusterPartition,
    ParticleSystem,
    acceleration,
    acceleration_arrays,
    make_system,
    merge_clusters,
    pair_weights,
)
from .errors import (
    ConfigError,
    ContinuationError,
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
from .kernels import (
    CuckerSmaleKernel,
    RegularizedKernel,
    SingularKernel,
    eval_weight,
)
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
    phi_critical,
    stick_time,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SingularKernel",
    "RegularizedKernel",
    "CuckerSmaleKernel",
    "eval_weight",
    "ClusterPartition",
    "ParticleSystem",
    "make_system",
    "pair_weights",
    "acceleration",
    "acceleration_arrays",
    "merge_clusters",
    "TwoBodyProblem",
    "StickFiniteTime",
    "CollideNonstick",
    "NoCollision",
    "critical_velocity",
    "stick_time",
    "phi_critical",
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
    "divergent_components",
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
    "ContinuationError",
    "InsufficientDataError",
    "ConfigError",
    "ValidationError",
]
