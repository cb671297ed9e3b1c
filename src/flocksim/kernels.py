"""Communication weight kernels.

Three weight families drive the velocity-alignment force:

* :class:`SingularKernel` -- the inverse-power weight ``s**(-alpha)`` with
  ``alpha`` in (0, 1), set to exactly 0 at ``s == 0``.
* :class:`RegularizedKernel` -- a capped version of the singular weight.
  It equals the cap height ``n`` on ``[0, n**(-1/alpha)]``, agrees exactly
  with the singular weight on ``[(n-1)**(-1/alpha), inf)``, and joins the
  two branches with a monotone C1 cubic Hermite bridge.  When every
  separation lies on the inverse-power branch it returns the power at
  once, bitwise equal to the branch code.
* :class:`CuckerSmaleKernel` -- the bounded weight ``K*(1+s**2)**(-beta/2)``.

Each ``weight`` takes an array of separations, 0-d included, and returns
weights of the same shape; given a float array ``out`` of that shape, it
writes them there (the force's weight buffer) and returns ``out``.  The
antiderivative of the singular weight, ``s**(1-alpha)/(1-alpha)``, belongs
to the two-body analysis in :mod:`flocksim.twobody`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "SingularKernel",
    "RegularizedKernel",
    "CuckerSmaleKernel",
    "WeightKernel",
]


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number.  Each numeric rule asks
    this before it compares, so text, None and NaN fail by the rule's own
    message rather than as a bare TypeError.  Integers are finite, also
    those beyond the float range, on which ``math.isfinite`` overflows."""
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value)
    )


def _check_alpha(alpha) -> None:
    if not (_finite_real(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha!r}", key="alpha")


def _check_positive(value, key: str) -> None:
    if not (_finite_real(value) and value > 0.0):
        raise DomainError(f"{key} must be positive and finite, got {value!r}", key=key)


def _check_int(n, key: str, least: Optional[int]) -> int:
    """An integer ``n``, of at least ``least`` unless that is None, as an int."""
    if not (_finite_real(n) and int(n) == n and (least is None or n >= least)):
        rule = "an integer" if least is None else f"an integer >= {least}"
        raise DomainError(f"{key} must be {rule}, got {n!r}", key=key)
    return int(n)


@dataclass(frozen=True)
class SingularKernel:
    """Inverse-power weight ``s**(-alpha)``, zero at zero separation."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def weight(self, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.zeros_like(s, dtype=float)
        else:
            out.fill(0.0)
        pos = s > 0.0
        out[pos] = s[pos] ** (-self.alpha)
        return out


@dataclass(frozen=True)
class RegularizedKernel:
    """Capped inverse-power weight with a monotone C1 bridge.

    The cap height is ``n`` (an integer, at least 2).  Branches:

    * ``s <= n**(-1/alpha)``: constant ``n``;
    * ``s >= (n-1)**(-1/alpha)``: exactly ``s**(-alpha)``;
    * in between: the cubic Hermite interpolant matching value ``n`` and
      slope 0 on the left, and the value and slope of ``s**(-alpha)`` on
      the right.  The endpoint data satisfy the monotonicity criterion for
      cubic Hermite interpolation, so the bridge is nonincreasing.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        object.__setattr__(self, "n", _check_int(self.n, "n", 2))

    @cached_property
    def cap_end(self) -> float:
        """Right end of the constant branch, ``n**(-1/alpha)``."""
        return float(self.n) ** (-1.0 / self.alpha)

    @cached_property
    def bridge_end(self) -> float:
        """Left end of the inverse-power branch, ``(n-1)**(-1/alpha)``."""
        return float(self.n - 1) ** (-1.0 / self.alpha)

    def weight(self, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        a = self.alpha
        hi = self.bridge_end
        if s.size and s.min() >= hi:
            # every separation is on the power branch (NaN fails the test):
            # the same power on the same values as below
            if out is None:
                return np.asarray(s ** (-a), dtype=float)
            return np.power(s, -a, out=out)
        lo = self.cap_end
        if out is None:
            out = np.empty_like(s, dtype=float)

        cap = s <= lo
        power = s >= hi
        mid = ~(cap | power)

        out[cap] = float(self.n)
        out[power] = s[power] ** (-a)
        if np.any(mid):
            h = hi - lo
            u = (s[mid] - lo) / h
            u2 = u * u
            u3 = u2 * u
            v1 = hi ** (-a)
            m1 = -a * hi ** (-a - 1.0)
            # Hermite basis; left slope is 0 so its term drops out.
            h00 = 2.0 * u3 - 3.0 * u2 + 1.0
            h01 = -2.0 * u3 + 3.0 * u2
            h11 = u3 - u2
            out[mid] = h00 * float(self.n) + h01 * v1 + h11 * h * m1
        return out


@dataclass(frozen=True)
class CuckerSmaleKernel:
    """Bounded weight ``K * (1 + s**2) ** (-beta/2)``."""

    K: float
    beta: float

    def __post_init__(self) -> None:
        _check_positive(self.K, "K")
        if not (_finite_real(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be nonnegative and finite, got {self.beta!r}", key="beta")

    def weight(self, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.multiply(self.K, (1.0 + s * s) ** (-self.beta / 2.0), out=out)


WeightKernel = Union[SingularKernel, RegularizedKernel, CuckerSmaleKernel]


def _check_kernel(kernel) -> None:
    if not isinstance(kernel, (SingularKernel, RegularizedKernel, CuckerSmaleKernel)):
        raise DomainError(f"not a weight kernel: {kernel!r}")

