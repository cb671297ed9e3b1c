"""Convergence study across the regularized kernel family.

Solves the same initial data once per cap index n (everything else held
fixed) and measures sup-norm gaps between runs on the shared uniform
sample grid: consecutive gaps between neighbors in n, and reference gaps
against the largest-n run.  Because the capped weights agree above their
floor, runs whose separations never visit the floor region are bitwise
identical and every gap is exactly zero; otherwise the gaps concentrate
near close encounters and shrink as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import make_system
from .errors import DomainError
from .integrator import PiecewiseTrajectory, SolverConfig, solve_piecewise
from .kernels import SingularKernel, _check_int

__all__ = ["ConvergenceReport", "run_family", "cauchy_table"]


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps over the family; consecutive lists have length
    ``len(n_list) - 1``, reference lists align with ``n_list``."""

    n_list: tuple[int, ...]
    sup_dx: np.ndarray
    sup_dv: np.ndarray
    reference_gap_x: np.ndarray
    reference_gap_v: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.n_list)
        if len(self.sup_dx) != k - 1 or len(self.sup_dv) != k - 1:
            raise DomainError("consecutive gap lists must have one entry per adjacent pair")
        if len(self.reference_gap_x) != k or len(self.reference_gap_v) != k:
            raise DomainError("reference gap lists must align with n_list")


def _check_n_list(n_list) -> tuple[int, ...]:
    out = tuple(_check_int(n, "n_list", 2) for n in n_list)
    if len(out) < 2:
        raise DomainError(f"n_list must hold at least two cap indices, got {out}", key="n_list")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise DomainError(f"n_list must be strictly increasing, got {out}", key="n_list")
    return out


def run_family(
    x: np.ndarray,
    v: np.ndarray,
    alpha: float,
    n_list,
    config: SolverConfig,
) -> list[PiecewiseTrajectory]:
    """One piecewise solve per cap index, shared data and tolerances."""
    ns = _check_n_list(n_list)
    kernel = SingularKernel(alpha=alpha)
    runs = []
    for n in ns:
        system = make_system(x, v, kernel)
        cfg = replace(config, n_reg=n)
        try:
            runs.append(solve_piecewise(system, cfg))
        except Exception as exc:
            raise type(exc)(f"cap index n={n}: {exc}") from exc
    return runs


def _grid_arrays(runs: list[PiecewiseTrajectory]):
    grids = [run.grid() for run in runs]
    length = min(len(g[0]) for g in grids)
    if length < 2:
        raise DomainError("runs share fewer than 2 grid samples")
    t0 = grids[0][0][:length]
    for t, _, _ in grids[1:]:
        if not np.array_equal(t[:length], t0):
            raise DomainError("sample grids do not match across runs")
    return [(x[:length], v[:length]) for _, x, v in grids]


def _sup_gap(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(np.sqrt(np.einsum("snd,snd->sn", diff, diff)).max())


def cauchy_table(runs: list[PiecewiseTrajectory], n_list) -> ConvergenceReport:
    """Consecutive and against-largest sup-norm gaps on the common grid."""
    ns = _check_n_list(n_list)
    if len(runs) != len(ns):
        raise DomainError(f"{len(runs)} runs for {len(ns)} cap indices")
    grids = _grid_arrays(runs)
    ref_x, ref_v = grids[-1]
    sup_dx = np.array([_sup_gap(grids[k + 1][0], grids[k][0]) for k in range(len(ns) - 1)])
    sup_dv = np.array([_sup_gap(grids[k + 1][1], grids[k][1]) for k in range(len(ns) - 1)])
    reference_gap_x = np.array([_sup_gap(gx, ref_x) for gx, _ in grids])
    reference_gap_v = np.array([_sup_gap(gv, ref_v) for _, gv in grids])
    return ConvergenceReport(
        n_list=ns,
        sup_dx=sup_dx,
        sup_dv=sup_dv,
        reference_gap_x=reference_gap_x,
        reference_gap_v=reference_gap_v,
    )
