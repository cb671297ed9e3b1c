"""Convergence study across the regularized kernel family.

Solves the same initial data once per cap index n (everything else held
fixed) and measures sup-norm gaps between runs on the shared uniform
sample grid: consecutive gaps between neighbors in n, and reference gaps
against the largest-n run.  Because the capped weights agree above their
floor, runs whose separations never visit the floor region are bitwise
identical and every gap is exactly zero; otherwise the gaps concentrate
near close encounters and shrink as n grows.

The same fact lets the runs share their common prefix.  Each run after
the first resumes from a state the run of the next-smaller cap recorded:
the last step boundary of its first main phase before any RHS call (a
rejected attempt or a starting call included) saw a separation below that
cap's ``bridge_end``.  Up to there the larger cap's weight is the same,
so the run goes on exactly as its own solve would.  Points lie in the
first main phase only: it has no event and one partition, while the
encounter probe's fit floor depends on the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import make_system
from .errors import DomainError
from .integrator import PiecewiseTrajectory, SolverConfig, _Chain, _solve
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
    """One piecewise solve per cap index, shared data and tolerances.

    Each run equals ``solve_piecewise`` on its own cap, bit for bit.  The
    runs go in ``n_list`` order, so an error comes from the first cap whose
    own solve raises it.  Each run after the first resumes from the last
    step boundary of the previous run's first main phase at which every
    RHS call so far saw each inter-cluster separation at or above that
    cap's ``bridge_end``: up to there the larger cap's weight is the same.
    Only the first main phase is shared, since it has no event and one
    partition, while the probe's fit floor depends on the cap."""
    ns = _check_n_list(n_list)
    system = make_system(x, v, SingularKernel(alpha=alpha))  # _solve works on a copy
    runs = []
    chain = _Chain()
    for k, n in enumerate(ns):
        cfg = replace(config, n_reg=n)
        chain.record = k + 1 < len(ns)
        try:
            runs.append(_solve(system, cfg, chain))
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


def cauchy_table(runs: list[PiecewiseTrajectory]) -> ConvergenceReport:
    """Consecutive and against-largest sup-norm gaps on the common grid of
    ``runs``, whose cap indices (``run.config.n_reg``) must increase."""
    ns = _check_n_list([run.config.n_reg for run in runs])
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
