"""Structural checks and collision-signature estimates for trajectories.

Every analysis here is pure: it reads a :class:`PiecewiseTrajectory` and
returns numbers.  The checks fall in two groups.

Conservation-style checks (mean velocity, velocity dispersion, ordered
partial sums) verify properties the dynamics preserves exactly, so their
residuals measure integrator error and should scale down with the
tolerances.

Collision signatures quantify behavior near sticking events: the Hölder
exponent of the velocity against the group separation (the collapse obeys
``|v - v_event| ~ diam**(1-alpha)``), and a dyadic ratio test on the
accumulated pair interaction ``∫ psi(|x_i - x_j|) dt``, which diverges
like a harmonic tail at a genuine collapse and converges geometrically
when the pair stays apart or passes through transversally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import make_system
from .errors import DomainError, InsufficientDataError
from .integrator import STICKING, CollisionEvent, PiecewiseTrajectory, _fit_floor, _working_kernel

__all__ = [
    "FINITE",
    "DIVERGENT",
    "INCONCLUSIVE",
    "HolderFit",
    "IntegrabilityRecord",
    "DissipationResult",
    "DiagnosticsReport",
    "conservation_residual",
    "dissipation_check",
    "ordered_sums_check",
    "holder_exponent",
    "integrability_probe",
    "run_diagnostics",
]

FINITE = "Finite"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

_RATIO_THRESHOLD = 0.9
_MIN_WINDOW_SAMPLES = 3
_HOLDER_MIN_SAMPLES = 10
_HOLDER_WINDOW_FRAC = 0.1

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class HolderFit:
    exponent: float
    residual: float


@dataclass(frozen=True)
class IntegrabilityRecord:
    pair: tuple[int, int]
    estimate: float
    classification: str


@dataclass(frozen=True)
class DissipationResult:
    r_t: np.ndarray
    r_values: np.ndarray
    r_violation: float
    velocity_bound_margin: float


@dataclass(frozen=True)
class DiagnosticsReport:
    mean_velocity_drift: float
    r_t: np.ndarray
    r_values: np.ndarray
    r_violation: float
    ordered_sum_violation: float
    velocity_bound_margin: float
    holder: Optional[HolderFit]
    integrability: list[IntegrabilityRecord]


def _require_samples(traj: PiecewiseTrajectory) -> None:
    if len(traj.t) < 2:
        raise InsufficientDataError(f"need at least 2 samples, have {len(traj.t)}")


def conservation_residual(traj: PiecewiseTrajectory) -> float:
    """Largest drift of the mean velocity from its initial value."""
    _require_samples(traj)
    mean_v = traj.v.mean(axis=1)
    drift = mean_v - mean_v[0]
    return float(np.sqrt(np.einsum("sd,sd->s", drift, drift)).max())


def _dispersion(v: np.ndarray) -> np.ndarray:
    """Sum over ordered pairs of |v_i - v_j|^2, per sample row."""
    n = v.shape[1]
    mean = v.mean(axis=1, keepdims=True)
    dev = v - mean
    return 2.0 * n * np.einsum("snd,snd->s", dev, dev)


def dissipation_check(traj: PiecewiseTrajectory) -> DissipationResult:
    """Velocity dispersion series, its worst increase, and the speed bound.

    The dispersion is nonincreasing along the dynamics and can only drop
    at merges, so any positive increment is integrator error.  Every
    speed stays below ``sqrt(N)*sqrt(r(0)) + |mean v(0)|``.
    """
    _require_samples(traj)
    r = _dispersion(traj.v)
    increments = np.diff(r)
    r_violation = float(max(0.0, increments.max())) if len(increments) else 0.0
    n = traj.v.shape[1]
    mean0 = traj.v[0].mean(axis=0)
    bound = math.sqrt(n) * math.sqrt(max(r[0], 0.0)) + float(np.linalg.norm(mean0))
    speeds = np.sqrt(np.einsum("snd,snd->sn", traj.v, traj.v))
    margin = bound - float(speeds.max())
    return DissipationResult(
        r_t=traj.t.copy(), r_values=r, r_violation=r_violation, velocity_bound_margin=margin
    )


def ordered_sums_check(traj: PiecewiseTrajectory) -> float:
    """Worst violation of the sorted partial-sum monotonicity.

    Per coordinate axis, sort the velocity components at each sample;
    every bottom-l running sum must be nondecreasing in time and every
    top-l sum nonincreasing.  Sorting anew at each sample deliberately
    lets the ordering permutation change over time.
    """
    _require_samples(traj)
    s = np.sort(traj.v, axis=1)
    bottom = np.cumsum(s, axis=1)
    top = np.cumsum(s[:, ::-1, :], axis=1)
    bottom_drop = bottom[:-1] - bottom[1:]
    top_rise = top[1:] - top[:-1]
    worst = max(float(bottom_drop.max(initial=0.0)), float(top_rise.max(initial=0.0)))
    return max(worst, 0.0)


def holder_exponent(traj: PiecewiseTrajectory, event: CollisionEvent) -> HolderFit:
    """Regularity exponent of the velocity at a sticking collapse.

    Least-squares slope of ``log max_i |v_i(t) - v_ref|`` against the log
    of the group's largest pairwise separation, over the window
    ``[0.9 t_event, t_event)``; ``v_ref`` is the group's mean
    velocity at the window's last row.  Only rows that strictly
    shrink the running minimum separation are fitted: the scaling law is
    an approach law, and rows after the closest approach (a pass through
    the capped core, or the creep towards the resting gap) would pollute
    the slope.  Rows below the working kernel's cap region are dropped
    for the same reason.
    """
    if event.kind != STICKING:
        raise DomainError(f"exponent fit needs a sticking event, got {event.kind}")
    t_event = event.t_event
    w = _HOLDER_WINDOW_FRAC * t_event
    rows = np.nonzero((traj.t >= t_event - w) & (traj.t < t_event))[0]
    if len(rows) < _HOLDER_MIN_SAMPLES:
        raise InsufficientDataError(
            f"only {len(rows)} samples in the fit window, need {_HOLDER_MIN_SAMPLES}"
        )
    idx = np.asarray(event.group, dtype=np.intp)
    # the velocity the merge assigns, which a two-cluster group conserves;
    # a sample after t_event can see the merged cluster already moving on
    v_ref = traj.v[rows[-1]][idx].mean(axis=0)
    dv = traj.v[rows][:, idx, :] - v_ref
    dv_max = np.sqrt(np.einsum("snd,snd->sn", dv, dv)).max(axis=1)
    x = traj.x[rows][:, idx, :]
    dx = x[:, None, :, :] - x[:, :, None, :]
    diam = np.sqrt(np.einsum("sijd,sijd->sij", dx, dx).max(axis=(1, 2)))
    floor = _fit_floor(_working_kernel(traj.final_state.kernel, traj.config)[0])
    prev_min = np.concatenate(([np.inf], np.minimum.accumulate(diam)[:-1]))
    keep = (diam < prev_min) & (dv_max > 0.0) & (diam > floor)
    if keep.sum() < _HOLDER_MIN_SAMPLES:
        raise InsufficientDataError(
            f"only {int(keep.sum())} usable samples after filtering, need {_HOLDER_MIN_SAMPLES}"
        )
    log_d = np.log(diam[keep])
    log_v = np.log(dv_max[keep])
    design = np.column_stack([np.ones_like(log_d), log_d])
    coef, *_ = np.linalg.lstsq(design, log_v, rcond=None)
    resid = design @ coef - log_v
    return HolderFit(exponent=float(coef[1]), residual=float(np.sqrt(np.mean(resid**2))))


def _pair_merge_time(traj: PiecewiseTrajectory, i: int, j: int) -> Optional[float]:
    for e in traj.events:
        if e.kind == STICKING and i in e.group and j in e.group:
            return e.t_event
    return None


def _probe_window(
    traj: PiecewiseTrajectory, pair: tuple[int, int], t_upper: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Window end, sample times and pair separations of an integrability
    probe: the samples from the start up to ``t_upper``, or up to the
    pair's merge time if it sticks earlier."""
    i, j = int(pair[0]), int(pair[1])
    if i == j:
        raise DomainError("pair must be two distinct particles")
    x0 = traj.x[0]
    v0 = traj.v[0]
    if np.array_equal(x0[i], x0[j]) and np.array_equal(v0[i], v0[j]):
        raise DomainError(f"particles {i} and {j} share a cluster from the start")
    t_merge = _pair_merge_time(traj, i, j)
    t_eff = min(t_upper, t_merge) if t_merge is not None else t_upper
    t0 = float(traj.t[0])
    if not t_eff > t0:
        raise DomainError(f"empty probe window: t_upper {t_eff} at or before start {t0}")
    rows = np.nonzero((traj.t >= t0) & (traj.t < t_eff))[0]
    if len(rows) < 2:
        raise InsufficientDataError("need at least 2 samples below t_upper")
    dx = traj.x[rows, i, :] - traj.x[rows, j, :]
    return t_eff, traj.t[rows], np.sqrt(np.einsum("sd,sd->s", dx, dx))


def _ratio_test(kernel, t_eff: float, ts: np.ndarray, dist: np.ndarray) -> tuple[float, str]:
    """(estimate, classification) of the dyadic ratio test on one window."""
    psi = kernel.weight(dist)
    estimate = float(_trapezoid(psi, ts))

    span = t_eff - float(ts[0])
    integrals = []
    for m in range(1, 60):
        lo = t_eff - span * 2.0 ** (1 - m)
        hi = t_eff - span * 2.0**-m
        sel = (ts >= lo) & (ts < hi)
        if sel.sum() < _MIN_WINDOW_SAMPLES:
            break
        # close each window with interpolated boundary values: integrating
        # only first-to-last sample clips a chunk off every window and the
        # clipped fraction grows with m, biasing the ratios downward
        t_win = np.concatenate(([lo], ts[sel], [hi]))
        p_win = np.concatenate(([np.interp(lo, ts, psi)], psi[sel], [np.interp(hi, ts, psi)]))
        integrals.append(float(_trapezoid(p_win, t_win)))
    if len(integrals) < 3:
        return estimate, INCONCLUSIVE
    if integrals[-2] <= 0.0 or integrals[-3] <= 0.0:
        return estimate, INCONCLUSIVE
    r1 = integrals[-2] / integrals[-3]
    r2 = integrals[-1] / integrals[-2]
    if r1 >= _RATIO_THRESHOLD and r2 >= _RATIO_THRESHOLD:
        cls = DIVERGENT
    elif r1 < _RATIO_THRESHOLD and r2 < _RATIO_THRESHOLD:
        cls = FINITE
    else:
        cls = INCONCLUSIVE
    return estimate, cls


def integrability_probe(
    traj: PiecewiseTrajectory, pair: tuple[int, int], t_upper: float
) -> IntegrabilityRecord:
    """Dyadic ratio test on the accumulated pair interaction.

    Accumulates ``∫ psi(|x_i - x_j|) dt`` by the trapezoid rule up to
    ``t_upper`` (truncated at the pair's merge time if it sticks earlier)
    and compares the integral over successive dyadic windows closing on
    the upper end: ratios pinned near 1 mean a harmonic, divergent tail;
    ratios bounded away below mean geometric decay, hence a finite
    integral.  The last two resolvable ratios decide.

    :func:`run_diagnostics` runs the same test once per pair of starting
    clusters; this entry point tests one given pair up to a given time.
    It stays public because acceptance check 7 classifies pairs with it,
    and the ``run_diagnostics`` record tests compare against it.
    """
    t_eff, ts, dist = _probe_window(traj, pair, t_upper)
    estimate, cls = _ratio_test(traj.final_state.kernel, t_eff, ts, dist)
    return IntegrabilityRecord((int(pair[0]), int(pair[1])), estimate, cls)


def run_diagnostics(traj: PiecewiseTrajectory) -> DiagnosticsReport:
    """All checks on one trajectory, with per-event integrability probes."""
    drift = conservation_residual(traj)
    dis = dissipation_check(traj)
    ordered = ordered_sums_check(traj)

    holder: Optional[HolderFit] = None
    for event in traj.events:
        if event.kind != STICKING:
            continue
        try:
            holder = holder_exponent(traj, event)
            break
        except InsufficientDataError:
            continue

    # probe the pairs of each event's group that were in distinct clusters
    # just before it; the partition follows the run's merges.  The rows of a
    # cluster of the first sample coincide over the whole run, so the pairs
    # of an event across two such clusters, named by their roots, have one
    # separation series and one test.  The rows of a cluster merged later
    # differ before the merge, so its members' pairs are tested apart
    integrability: list[IntegrabilityRecord] = []
    kernel = traj.final_state.kernel
    part = make_system(traj.x[0], traj.v[0], kernel).partition
    roots = part.labels()
    for event in traj.events:
        tested: dict[tuple[int, int], tuple[float, str]] = {}
        pi, pj = part.inter_pairs()
        in_group = np.isin(pi, event.group) & np.isin(pj, event.group)
        for pair in zip(pi[in_group].tolist(), pj[in_group].tolist()):
            key = tuple(sorted((roots[pair[0]], roots[pair[1]])))
            if key not in tested:
                try:
                    tested[key] = _ratio_test(kernel, *_probe_window(traj, pair, event.t_event))
                except (DomainError, InsufficientDataError):
                    tested[key] = (math.nan, INCONCLUSIVE)
            integrability.append(IntegrabilityRecord(pair, *tested[key]))
        if event.kind == STICKING:
            part.union(*event.group)

    return DiagnosticsReport(
        mean_velocity_drift=drift,
        r_t=dis.r_t,
        r_values=dis.r_values,
        r_violation=dis.r_violation,
        ordered_sum_violation=ordered,
        velocity_bound_margin=dis.velocity_bound_margin,
        holder=holder,
        integrability=integrability,
    )
