"""Closed-form analysis of the two-particle separation equation.

With separation ``phi = x2 - x1`` and the singular weight, the two-body
system reduces to

    phi'' = -2 phi' w(|phi|),

which integrates once to ``phi'(t) = -2 P(phi(t)) + c`` where ``P`` is the
weight's antiderivative and ``c = 2 P(phi(0)) + phi'(0)`` is conserved.
The sign of ``c`` decides the fate of an approaching pair:

* ``c == 0``  -- the pair meets with matched velocities after the finite
  time :func:`stick_time`.
* ``c < 0``   -- the pair meets with residual closing speed ``s = -c``
  after the time ``t_hit = int_0^phi0 du / (2 P(u) + s)``, which
  :func:`classify` evaluates with a fixed numpy rule to 2.1e-14 relative.
* ``c > 0``   -- the separation never reaches zero; it tends to the level
  where ``2 P(phi) == c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .kernels import CuckerSmaleKernel, _check_alpha, _check_int, _check_positive, _finite_real

__all__ = [
    "TwoBodyProblem",
    "StickFiniteTime",
    "CollideNonstick",
    "NoCollision",
    "TwoBodyOutcome",
    "critical_velocity",
    "stick_time",
    "classify",
    "LevelGapRecord",
    "level_time_bound_check",
    "FloorCheckResult",
    "bounded_weight_floor_check",
]


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
        _check_positive(self.phi0, "phi0")
        if not _finite_real(self.dphi0):
            raise DomainError(f"dphi0 must be finite, got {self.dphi0!r}", key="dphi0")
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
    _check_positive(phi0, "phi0")
    _check_alpha(alpha)
    return -2.0 * _primitive(float(phi0), alpha)


def stick_time(phi0: float, alpha: float) -> float:
    """Time for the critical orbit to collapse: ``(1-alpha) phi0**alpha / (2 alpha)``."""
    _check_positive(phi0, "phi0")
    _check_alpha(alpha)
    return (1.0 - alpha) * float(phi0) ** alpha / (2.0 * alpha)


def classify(problem: TwoBodyProblem) -> TwoBodyOutcome:
    """Resolve the trichotomy for an approaching pair.

    Separating data (``dphi0 > 0``) trivially never collides and is
    reported as :class:`NoCollision` with an infinite sentinel limit.
    A colliding pair's time to contact is, with ``beta = 1 - alpha``,
    ``p = alpha/beta`` and ``z = 2 P(phi0)/s``, exactly
    ``t_hit = phi0/(beta s) * int_0^inf exp(-p y) / (exp(y) + z) dy``:
    tanh-sinh on ``[0, c0]`` and exp-sinh on ``[c0, inf)``, ``c0 = max(ln z,
    0)``, each with step 1/32 and 321 nodes.  Over alpha 0.01-0.99, phi0
    1e-9-1e3 and ``s/2P(phi0)`` 1e-16-1e12 the rule is within 2.1e-14
    relative of ``(phi0/s) 2F1(1, 1/beta; 1 + 1/beta; -z)`` at 40 digits,
    and it raises no floating-point warning.
    """
    if problem.dphi0 > 0.0:
        return NoCollision(phi_limit=math.inf)
    two_p = 2.0 * _primitive(problem.phi0, problem.alpha)
    c = two_p + problem.dphi0
    if c == 0.0:
        return StickFiniteTime(t0=stick_time(problem.phi0, problem.alpha))
    if c < 0.0:
        s, beta = -c, 1.0 - problem.alpha
        z = two_p / s
        c0 = max(math.log(z), 0.0)
        t = np.arange(-160, 161) / 32.0
        u, du = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
        y = np.concatenate([0.5 * c0 * (1.0 + np.tanh(u)), c0 + np.exp(u)])
        w = np.concatenate([0.5 * c0 * du / np.cosh(u) ** 2, du * np.exp(u)])
        # the integrand as exp(-y/beta) / (1 + z exp(-y)), so that no node overflows
        g = np.exp(-y / beta) / (1.0 + z * np.exp(-y))
        t_hit = problem.phi0 / (beta * s) * (w @ g) / 32.0
        return CollideNonstick(impact_speed=s, t_hit=float(t_hit))
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
    _check_positive(phi0, "phi0")
    _check_alpha(alpha)
    n_max = _check_int(n_max, "n_max", 2)
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


def _floor_samples(phi0: float, dphi0: float, kernel: CuckerSmaleKernel, t_end: float):
    """The floor check's sample times and ``(phi, phi')`` there, each read
    from the first step that reaches it (scipy's ``t_eval`` rule), on its
    own so that a test can compare the samples with scipy's.
    The stepper is imported here: ``integrator`` imports :func:`stick_time`."""
    from .integrator import RK45, _steps

    def rhs(t, y):
        phi, dphi = y
        # the bounded weight is plain arithmetic, safe on scalars
        return np.array([dphi, -2.0 * dphi * kernel.weight(abs(phi))])

    ts = np.linspace(0.0, t_end, int(round(t_end / 1e-2)) + 1)
    ys = np.empty((2, len(ts)))
    solver = RK45(rhs, 0.0, np.array([phi0, dphi0]), t_end, max_step=1e-2, rtol=1e-11, atol=1e-13)
    done = 0
    for _, t, _, dense in _steps(solver, "in the floor check"):
        upto = int(np.searchsorted(ts, t, side="right"))
        ys[:, done:upto] = dense(ts[done:upto])
        done = upto
    return ts, ys


def bounded_weight_floor_check(
    phi0: float, dphi0: float, K: float, beta: float, t_end: float
) -> FloorCheckResult:
    """Verify the exponential speed floor under a bounded weight.

    Integrates the separation equation with the Cucker-Smale weight and
    checks ``|phi'(t)| >= exp(-2 K t) |phi'(0)|`` on a uniform sample grid.
    Returns the minimum of the ratio of the two sides and whether it stays
    above ``1 - 1e-6``.  A resting pair (``dphi0 == 0``) has no floor to
    check and is rejected; a failed integration raises the solver's error.
    """
    _check_positive(phi0, "phi0")
    _check_floor_rate(dphi0)
    _check_positive(t_end, "t_end")
    ts, ys = _floor_samples(phi0, dphi0, CuckerSmaleKernel(K=K, beta=beta), t_end)
    ratio = np.abs(ys[1]) / (np.exp(-2.0 * K * ts) * abs(dphi0))
    min_ratio = float(ratio.min())
    return FloorCheckResult(min_ratio=min_ratio, ok=min_ratio >= 1.0 - 1e-6)
