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

:func:`eval_weight` evaluates any of them at validated separations.  The
antiderivative of the singular weight, ``s**(1-alpha)/(1-alpha)``, belongs
to the two-body analysis in :mod:`flocksim.twobody`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError

__all__ = [
    "SingularKernel",
    "RegularizedKernel",
    "CuckerSmaleKernel",
    "WeightKernel",
    "eval_weight",
]


def _check_alpha(alpha: float) -> None:
    if not (0.0 < float(alpha) < 1.0):
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha!r}")


def _check_positive(value, key: str) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise DomainError(f"{key} must be positive and finite, got {value!r}", key=key)


def _check_int(n, key: str, least: int) -> int:
    """An integer ``n`` of at least ``least``, as an int; a value that is
    not a finite real number is rejected before any conversion."""
    if not (isinstance(n, numbers.Real) and math.isfinite(n) and int(n) == n and n >= least):
        raise DomainError(f"{key} must be an integer >= {least}, got {n!r}", key=key)
    return int(n)


def _check_cap(n, key: str) -> int:
    """A cap index ``n``, an integer of at least 2, as an int."""
    return _check_int(n, key, 2)


def _check_separation(s: np.ndarray) -> None:
    if not np.all(np.isfinite(s)):
        raise DomainError("separation must be finite")
    if np.any(s < 0.0):
        raise DomainError("separation must be nonnegative")


@dataclass(frozen=True)
class SingularKernel:
    """Inverse-power weight ``s**(-alpha)``, zero at zero separation."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def weight(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s, dtype=float)
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
        object.__setattr__(self, "n", _check_cap(self.n, "n"))

    @property
    def cap_end(self) -> float:
        """Right end of the constant branch, ``n**(-1/alpha)``."""
        return float(self.n) ** (-1.0 / self.alpha)

    @property
    def bridge_end(self) -> float:
        """Left end of the inverse-power branch, ``(n-1)**(-1/alpha)``."""
        return float(self.n - 1) ** (-1.0 / self.alpha)

    def weight(self, s: np.ndarray) -> np.ndarray:
        a = self.alpha
        lo = self.cap_end
        hi = self.bridge_end
        if s.size and s.min() >= hi:
            # every separation is on the power branch (NaN fails the test):
            # the same power on the same values as below
            return np.asarray(s ** (-a), dtype=float)
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
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be nonnegative and finite, got {self.beta!r}", key="beta")

    def weight(self, s: np.ndarray) -> np.ndarray:
        return self.K * (1.0 + s * s) ** (-self.beta / 2.0)


WeightKernel = Union[SingularKernel, RegularizedKernel, CuckerSmaleKernel]


def _check_kernel(kernel) -> None:
    if not isinstance(kernel, (SingularKernel, RegularizedKernel, CuckerSmaleKernel)):
        raise DomainError(f"not a weight kernel: {kernel!r}")


def eval_weight(kernel: WeightKernel, s):
    """Evaluate a weight kernel at separation(s) ``s``.

    Accepts a scalar or an array; negative or non-finite separations raise
    :class:`~flocksim.errors.DomainError`.
    """
    _check_kernel(kernel)
    arr = np.asarray(s, dtype=float)
    _check_separation(arr)
    out = kernel.weight(arr)
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out

