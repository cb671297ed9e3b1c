"""Closed-form analysis of the two-particle separation equation.

With separation ``phi = x2 - x1`` and the singular weight, the two-body
system reduces to

    phi'' = -2 phi' w(|phi|),

which integrates once to ``phi'(t) = -2 P(phi(t)) + c`` where ``P`` is the
weight's antiderivative and ``c = 2 P(phi(0)) + phi'(0)`` is conserved.
The sign of ``c`` decides the fate of an approaching pair:

* ``c == 0``  -- the pair meets with matched velocities after the finite
  time :func:`stick_time`; the orbit is :func:`phi_critical`.
* ``c < 0``   -- the pair meets with residual closing speed ``|c|``.
* ``c > 0``   -- the separation never reaches zero; it tends to the level
  where ``2 P(phi) == c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import DomainError
from .kernels import CuckerSmaleKernel, _check_alpha

__all__ = [
    "TwoBodyProblem",
    "StickFiniteTime",
    "CollideNonstick",
    "NoCollision",
    "TwoBodyOutcome",
    "critical_velocity",
    "stick_time",
    "phi_critical",
    "classify",
    "LevelGapRecord",
    "level_time_bound_check",
    "FloorCheckResult",
    "bounded_weight_floor_check",
]

T_HIT_TOL = 1e-10


def _check_phi0(phi0: float) -> None:
    if not (np.isfinite(phi0) and phi0 > 0.0):
        raise DomainError(f"initial separation must be positive and finite, got {phi0!r}")


def _primitive(s, alpha: float):
    """Antiderivative ``P(s) = s**(1-alpha)/(1-alpha)`` of the singular weight."""
    return s ** (1.0 - alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class TwoBodyProblem:
    """Initial separation, separation rate, and weight exponent."""

    phi0: float
    dphi0: float
    alpha: float

    def __post_init__(self) -> None:
        _check_phi0(self.phi0)
        if not np.isfinite(self.dphi0):
            raise DomainError(f"initial separation rate must be finite, got {self.dphi0!r}")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class StickFiniteTime:
    t0: float


@dataclass(frozen=True)
class CollideNonstick:
    impact_speed: float
    t_hit: float


@dataclass(frozen=True)
class NoCollision:
    phi_limit: float


TwoBodyOutcome = Union[StickFiniteTime, CollideNonstick, NoCollision]


def critical_velocity(phi0: float, alpha: float) -> float:
    """Approach rate that lands the pair at zero separation with zero speed."""
    _check_phi0(phi0)
    _check_alpha(alpha)
    return -2.0 * _primitive(float(phi0), alpha)


def stick_time(phi0: float, alpha: float) -> float:
    """Time for the critical orbit to collapse: ``(1-alpha) phi0**alpha / (2 alpha)``."""
    _check_phi0(phi0)
    _check_alpha(alpha)
    return (1.0 - alpha) * float(phi0) ** alpha / (2.0 * alpha)


def phi_critical(phi0: float, alpha: float, t) -> np.ndarray:
    """Separation along the critical orbit at time(s) ``t`` in ``[0, t0]``.

    The orbit is ``(phi0**alpha - (2 alpha/(1-alpha)) t) ** (1/alpha)``,
    reaching zero exactly at :func:`stick_time`.
    """
    _check_phi0(phi0)
    _check_alpha(alpha)
    t_arr = np.asarray(t, dtype=float)
    t0 = stick_time(phi0, alpha)
    if np.any(t_arr < 0.0) or np.any(t_arr > t0 * (1.0 + 1e-12)):
        raise DomainError(f"time must lie in [0, {t0}], got {t!r}")
    base = np.maximum(float(phi0) ** alpha - (2.0 * alpha / (1.0 - alpha)) * t_arr, 0.0)
    out = base ** (1.0 / alpha)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def classify(problem: TwoBodyProblem) -> TwoBodyOutcome:
    """Resolve the trichotomy for an approaching pair.

    Separating data (``dphi0 > 0``) trivially never collides and is
    reported as :class:`NoCollision` with an infinite sentinel limit.
    """
    if problem.dphi0 > 0.0:
        return NoCollision(phi_limit=math.inf)
    c = 2.0 * _primitive(problem.phi0, problem.alpha) + problem.dphi0
    if c == 0.0:
        return StickFiniteTime(t0=stick_time(problem.phi0, problem.alpha))
    if c < 0.0:
        speed = -c
        # Time to contact: integrate d phi / |phi'| with |phi'| = 2 P(phi) + |c|.
        val, _ = quad(
            lambda u: 1.0 / (2.0 * _primitive(u, problem.alpha) + speed),
            0.0,
            problem.phi0,
            epsabs=T_HIT_TOL,
            epsrel=T_HIT_TOL,
            limit=200,
        )
        return CollideNonstick(impact_speed=speed, t_hit=val)
    limit = ((1.0 - problem.alpha) * c / 2.0) ** (1.0 / (1.0 - problem.alpha))
    return NoCollision(phi_limit=limit)


@dataclass(frozen=True)
class LevelGapRecord:
    n: int
    gap: float
    bound: float
    ok: bool


def level_time_bound_check(phi0: float, alpha: float, n_max: int) -> list[LevelGapRecord]:
    """Check the geometric bound on times between halvings of the separation.

    Along the critical orbit let ``t_n`` be the first time the separation
    reaches ``2**(-n) * phi0``.  In the time scale normalized by
    ``phi0**alpha`` the gaps obey

        t_n - t_{n-1} <= ((1-alpha) ln 2 / 2) * 2**(alpha (1-n))

    for every ``n >= 2``.  Returns one record per ``n`` in ``2..n_max``
    with the normalized gap, the bound, and the comparison.
    """
    _check_phi0(phi0)
    _check_alpha(alpha)
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    coeff = (1.0 - alpha) / (2.0 * alpha)

    def t_level(n: int) -> float:
        # time, divided by phi0**alpha, to reach level 2**(-n) * phi0
        return coeff * (1.0 - 2.0 ** (-alpha * n))

    records = []
    for n in range(2, n_max + 1):
        gap = t_level(n) - t_level(n - 1)
        bound = (1.0 - alpha) * math.log(2.0) / 2.0 * 2.0 ** (alpha * (1 - n))
        records.append(LevelGapRecord(n=n, gap=gap, bound=bound, ok=gap <= bound * (1.0 + 1e-12)))
    return records


@dataclass(frozen=True)
class FloorCheckResult:
    min_ratio: float
    ok: bool


def _check_floor_rate(dphi0: float) -> None:
    if dphi0 == 0.0:
        raise DomainError("the speed floor needs a nonzero initial rate", key="dphi0")


def bounded_weight_floor_check(
    phi0: float, dphi0: float, K: float, beta: float, t_end: float
) -> FloorCheckResult:
    """Verify the exponential speed floor under a bounded weight.

    Integrates the separation equation with the Cucker-Smale weight and
    checks ``|phi'(t)| >= exp(-2 K t) |phi'(0)|`` on a uniform sample grid.
    Returns the minimum of the ratio of the two sides and whether it stays
    above ``1 - 1e-6``.  A resting pair (``dphi0 == 0``) has no floor to
    check and is rejected.
    """
    _check_phi0(phi0)
    _check_floor_rate(dphi0)
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    kernel = CuckerSmaleKernel(K=K, beta=beta)

    def rhs(t, y):
        phi, dphi = y
        # the bounded weight is plain arithmetic, safe on scalars
        return [dphi, -2.0 * dphi * kernel.weight(abs(phi))]

    ts = np.linspace(0.0, t_end, int(round(t_end / 1e-2)) + 1)
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [phi0, dphi0],
        method="RK45",
        t_eval=ts,
        rtol=1e-11,
        atol=1e-13,
        max_step=1e-2,
    )
    if not sol.success:
        raise DomainError(f"floor check integration failed: {sol.message}")
    ratio = np.abs(sol.y[1]) / (np.exp(-2.0 * K * sol.t) * abs(dphi0))
    min_ratio = float(ratio.min())
    return FloorCheckResult(min_ratio=min_ratio, ok=min_ratio >= 1.0 - 1e-6)
