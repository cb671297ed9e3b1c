"""Event-driven piecewise integration of the alignment dynamics.

The flow is smooth between close encounters, so :func:`solve_piecewise`
runs one segment per encounter, each alternating two phases.  A main phase
advances the system with an adaptive embedded Runge-Kutta stepper (max
step capped at the sample spacing) while watching the distances of the
pairs of cluster roots (``ClusterPartition.root_pairs``: a cluster's rows
coincide bitwise, so each pair of clusters has one gap, that of its roots)
through a boolean mask of armed pairs (a pair inside ``d_stick`` at the
segment start is disarmed until it climbs back out).  Each step's dense
output is read once, as a block of subsample columns: the per-column armed
masks and crossing candidates of the whole block are found together, and
only the columns with a candidate are visited, in order.  A candidate is
an armed pair whose gap, less the travel it could manage in the
subinterval, reaches the sticking distance ``d_stick``; the pair speeds
that decide it are computed only when a per-column bound on all of them
(the norm of the per-axis velocity ranges) lets some pair travel that
far.  There is one crossing search, per candidate: a pair at or below
``d_stick`` at the column (a threshold hit) is bisected on its gap over
the subinterval, and any other is first searched for its closest approach
by golden section, which brackets the crossing of one that dips below and
climbs back out between columns.  The earliest crossing in the column
wins, and a probe phase takes over there.

The probe integrates through the encounter at full resolution.  Per step
it grows the proximal group of cluster roots over the root-pair gaps it
already holds, and takes the group's diameter (largest gap) and velocity
spread (largest pair speed) over the root pairs inside it: a cluster's
rows coincide, so these are the largest over all its members.  Only the
event lists the member particles.  The probe builds the event itself and
ends in one of four dispositions:

* ``stick``   -- the group diameter and spread fell below the sticking
  thresholds and the collapse either went deep (diameter below
  ``d_stick/256``) or visibly stalled.  The event time is refined by a
  least-squares fit of the power-law collapse ``t = t0 - C * diam**alpha``
  over the monitor rows above the cap region of the working kernel, where
  the regularized and singular weights coincide and the collapse follows
  the singular profile.
* ``rebound`` -- every watched pair climbed back above ``d_stick``.  Only
  here is the closest-approach time refined, by golden-section search on
  the dense output; the event is a sticking if the spread there is below
  ``v_stick`` and a non-stick collision otherwise.
* ``horizon`` / ``budget`` -- the encounter reached the end of the time
  span, or exhausted the probe step budget, and is reported unresolved.

Sticking events merge the group to its mean state and integration
continues; non-stick collisions continue from the post-encounter state
without merging; a single surviving cluster drifts linearly to the end.

The working kernel of a singular system is the regularized weight with
the cap index ``n_reg`` and the system's exponent; a bounded kernel is
integrated as it is.  The cap has that one setting, so a system built on
a regularized kernel is rejected.  All stepping is deterministic, so
identical configurations reproduce trajectories bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.integrate import RK45

from .dynamics import ParticleSystem, acceleration_arrays, merge_clusters, pair_norms, pair_slots
from .errors import ContinuationError, DivergenceError, DomainError, LocalizationError
from .kernels import (
    CuckerSmaleKernel, RegularizedKernel, _check_cap, _check_int, _check_kernel, _check_positive
)
from .twobody import stick_time

__all__ = [
    "STICKING",
    "NON_STICK",
    "UNRESOLVED",
    "SolverConfig",
    "CollisionEvent",
    "PiecewiseTrajectory",
    "solve_piecewise",
]

STICKING = "Sticking"
NON_STICK = "NonStickCollision"
UNRESOLVED = "Unresolved"

# event-machinery constants
_NSUB = 8                  # dense-output subsamples per step for the distance watch
_BISECT_TOL_FACTOR = 1e-12  # event localization tolerance, relative to the span
_PHI_DEEP_FACTOR = 256.0    # deep-collapse threshold is d_stick / this
_STALL_LOOKBACK = 4         # monitor rows used by the stall detector
_STALL_RATE_FACTOR = 100.0  # stall when |d diam/dt| < v_stick / this
_FIT_MIN_POINTS = 8
_FIT_RESIDUAL_FRAC = 0.02
_MAX_PROBE_STEPS = 50_000


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, thresholds, and budget of a piecewise solve."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    d_stick: float = 1e-6
    v_stick: float = 1e-4
    n_reg: int = 10**6
    max_segments: int = 1000
    t_end: float = 5.0
    sample_dt: float = 1e-2

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "d_stick", "v_stick", "t_end", "sample_dt"):
            _check_positive(getattr(self, name), name)
        object.__setattr__(self, "n_reg", _check_cap(self.n_reg, "n_reg"))
        object.__setattr__(self, "max_segments", _check_int(self.max_segments, "max_segments", 1))


@dataclass(frozen=True)
class CollisionEvent:
    """A resolved close encounter.

    ``rel_speed`` is the largest pairwise speed within the group at the
    event; ``min_dist`` the smallest group separation seen there.
    """

    t_event: float
    group: tuple[int, ...]
    kind: str
    rel_speed: float
    min_dist: float


@dataclass
class PiecewiseTrajectory:
    """Sampled solution, its events, and the final state."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    grid_mask: np.ndarray
    events: list[CollisionEvent]
    final_state: ParticleSystem
    config: SolverConfig

    @property
    def n_sticking(self) -> int:
        return sum(1 for e in self.events if e.kind == STICKING)

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Samples on the uniform ``sample_dt`` grid only."""
        m = self.grid_mask
        return self.t[m], self.x[m], self.v[m]


def _working_kernel(kernel, config: SolverConfig):
    """The kernel actually integrated, and its exponent if it has one."""
    _check_kernel(kernel)
    if isinstance(kernel, CuckerSmaleKernel):
        return kernel, None
    if isinstance(kernel, RegularizedKernel):
        msg = f"the cap is n_reg, not the system's RegularizedKernel n={kernel.n}; use SingularKernel"
        raise DomainError(msg, key="n_reg")
    return RegularizedKernel(alpha=kernel.alpha, n=config.n_reg), kernel.alpha


def _fit_floor(work) -> float:
    """Separation below which the working kernel ``work`` leaves the singular law.

    Collapse fits (the stick-time fit here, the Hölder fit in
    :mod:`flocksim.diagnostics`) use only separations above it.
    """
    if isinstance(work, RegularizedKernel):
        return max(4.0 * work.bridge_end, 1e-12)
    return 1e-12


class _Driver:
    """Packed right-hand side over the inter-cluster pairs, and the watch
    over the root pairs, for a fixed partition."""

    def __init__(self, system: ParticleSystem, config: SolverConfig):
        self.kernel, self.alpha = _working_kernel(system.kernel, config)
        self.fit_floor = _fit_floor(self.kernel)
        self.n, self.d = system.x.shape
        self.nd = self.n * self.d
        part = system.partition
        self.pairs = part.inter_pairs()
        self.slots = pair_slots(self.pairs, self.n)
        self.labels = part.labels()
        # all singletons: the root pairs are the pair list, shared to spare a
        # second copy (2 MB of peak RSS over 120 runs of an N = 128 swarm)
        self.watch = self.pairs if part.n_clusters == self.n else part.root_pairs()
        self.pi, self.pj = self.watch

    @property
    def n_pairs(self) -> int:
        return len(self.pi)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        x = y[: self.nd].reshape(self.n, self.d)
        v = y[self.nd :].reshape(self.n, self.d)
        a = acceleration_arrays(x, v, self.pairs, self.kernel, self.slots)
        return np.concatenate([v.ravel(), a.ravel()])

    def unpack(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            y[: self.nd].reshape(self.n, self.d).copy(),
            y[self.nd :].reshape(self.n, self.d).copy(),
        )

    def _pair_norms(self, z: np.ndarray) -> np.ndarray:
        """Watched pair norms of ``(n*d,)`` rows, or per column of ``(n*d, C)``."""
        rows = np.ascontiguousarray(z.T).reshape(z.shape[1:] + (self.n, self.d))
        return pair_norms(rows, self.watch)

    def pair_dists(self, y: np.ndarray) -> np.ndarray:
        return self._pair_norms(y[: self.nd])

    def pair_rel_speeds(self, y: np.ndarray) -> np.ndarray:
        return self._pair_norms(y[self.nd :])

    def rel_speed_bound(self, y: np.ndarray) -> np.ndarray:
        """At least every entry of :meth:`pair_rel_speeds`, per column: the
        norm of the per-axis velocity ranges, padded by 1e-9 relative for
        the rounding of a different summation order."""
        v = y[self.nd :].reshape((self.n, self.d) + y.shape[1:])
        span = v.max(axis=0) - v.min(axis=0)
        return np.sqrt(np.einsum("d...,d...->...", span, span)) * (1.0 + 1e-9)

    def component(self, dists: np.ndarray, threshold: float) -> tuple[int, np.ndarray]:
        """The closest watched pair (index into the root-pair distances
        ``dists``) and the ``(n,)`` mask of the cluster roots reachable
        from it through root-pair gaps <= threshold."""
        close = dists <= threshold
        pi, pj = self.pi[close], self.pj[close]
        seed = int(np.argmin(dists))
        reach = np.zeros(self.n, dtype=bool)
        reach[[self.pi[seed], self.pj[seed]]] = True
        size = 0
        while reach.sum() > size:
            size = reach.sum()
            link = reach[pi] | reach[pj]
            reach[pi[link]] = reach[pj[link]] = True
        return seed, reach

    def members(self, roots: np.ndarray) -> tuple[int, ...]:
        """The particles of the clusters whose roots the mask ``roots`` marks."""
        return tuple(np.flatnonzero(roots[self.labels]).tolist())

    def group_stats(self, y: np.ndarray, dists: np.ndarray, roots: np.ndarray) -> tuple[float, float]:
        """(diameter, velocity spread) of the clusters whose roots the mask
        ``roots`` marks: the largest root-pair gap ``dists`` and pair speed
        among them.  A cluster's rows coincide, so these are the largest
        over all their members."""
        inside = roots[self.pi] & roots[self.pj]
        v = y[self.nd :].reshape(self.n, self.d)
        spread = pair_norms(v, (self.pi[inside], self.pj[inside])).max()
        return float(dists[inside].max()), float(spread)


class _SampleStore:
    """Strictly increasing packed state rows with a uniform-grid flag."""

    def __init__(self, n: int, d: int, sample_dt: float):
        self.n = n
        self.d = d
        self.sample_dt = sample_dt
        self.ts: list[float] = []
        self.ys: list[np.ndarray] = []

    def emit(self, t: float, y: np.ndarray) -> None:
        if self.ts:
            if t == self.ts[-1]:
                return
            if t < self.ts[-1]:
                raise AssertionError(f"samples out of order: {t} after {self.ts[-1]}")
        self.ts.append(float(t))
        self.ys.append(np.array(y, dtype=float))

    def emit_grid_range(self, evaluate, t_lo: float, t_hi: float) -> None:
        """Emit rows at grid times in ``(t_lo, t_hi]``, from ``evaluate(t) -> y``."""
        dt = self.sample_dt
        k = int(math.floor(t_lo / dt))
        while k * dt <= t_lo:
            k += 1
        tg = k * dt
        while tg <= t_hi:
            self.emit(tg, evaluate(tg))
            k += 1
            tg = k * dt

    def arrays(self):
        """(t, x, v, grid mask); a row is on the grid when ``round(t/dt)*dt == t``,
        which holds for every time ``emit_grid_range`` produces."""
        t = np.array(self.ts, dtype=float)
        y = np.array(self.ys, dtype=float).reshape(len(t), 2, self.n, self.d)
        dt = self.sample_dt
        return t, y[:, 0], y[:, 1], np.round(t / dt) * dt == t


def _stepper(driver: _Driver, t0: float, y0: np.ndarray, t_bound: float, config: SolverConfig):
    return RK45(
        driver.rhs,
        t0,
        y0,
        t_bound,
        max_step=config.sample_dt,
        rtol=config.rel_tol,
        atol=config.abs_tol,
    )


def _steps(solver, where: str):
    """Step ``solver`` to its bound, yielding ``(t_old, t, y, dense)`` per step."""
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise LocalizationError(f"step size underflow {where}: {msg}")
        if not np.all(np.isfinite(solver.y)):
            raise DivergenceError(f"non-finite state at t={solver.t}")
        yield solver.t_old, solver.t, solver.y, solver.dense_output()


def _bisect_crossing(g, level: float, t_lo: float, t_hi: float, tol: float) -> float:
    """First crossing g(t_lo) > level >= g(t_hi), by bisection."""
    lo, hi = t_lo, t_hi
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


def _golden_min(f, t_lo: float, t_hi: float, tol: float) -> float:
    """Argmin of a scalar function by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_lo, t_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _probe(
    driver: _Driver,
    t_cross: float,
    y_cross: np.ndarray,
    t_bound: float,
    span: float,
    config: SolverConfig,
    store: _SampleStore,
) -> tuple[CollisionEvent, float, np.ndarray]:
    """Resolve the encounter that begins at the d_stick crossing: its event,
    and the time and state at which the probe stopped."""
    d_stick = config.d_stick
    v_stick = config.v_stick
    phi_deep = d_stick / _PHI_DEEP_FACTOR

    dists = driver.pair_dists(y_cross)
    seed, roots = driver.component(dists, d_stick * (1.0 + 1e-9))
    watch = np.zeros(driver.n_pairs, dtype=bool)
    watch[seed] = True

    solver = _stepper(driver, t_cross, y_cross, t_bound, config)

    diam, spread = driver.group_stats(y_cross, dists, roots)
    mon_t = [t_cross]
    mon_diam = [diam]

    best_val = float(dists[seed])
    best_lo = t_cross

    disposition = "horizon"
    t_cur, y_cur = t_cross, y_cross

    steps = _steps(solver, "during encounter probe")
    for k, (t_prev, t_now, y_now, dense) in enumerate(steps, 1):
        # track the closest approach at subsample resolution: the first
        # column holding the smallest distance, if it beats the best so far
        ts_sub = np.linspace(t_prev, t_now, _NSUB + 1)
        col_min = driver.pair_dists(dense(ts_sub)[:, 1:]).min(axis=1)
        c = int(np.argmin(col_min))
        if k == 1:
            # until a column beats the crossing distance, the closest
            # approach lies between the crossing and the first column
            best_dense = dense
            best_hi = float(ts_sub[1])
        if col_min[c] < best_val:
            best_val = float(col_min[c])
            best_dense = dense
            best_lo = float(ts_sub[c])
            best_hi = float(ts_sub[min(c + 2, _NSUB)])

        store.emit_grid_range(dense, t_prev, t_now)
        store.emit(t_now, y_now)
        t_cur, y_cur = t_now, y_now

        dists = driver.pair_dists(y_now)
        near = dists <= d_stick
        # extend the watch to encounter-adjacent pairs
        watch |= near & (roots[driver.pi] | roots[driver.pj])
        if not near[watch].any():
            disposition = "rebound"
            break

        _, roots = driver.component(dists, d_stick)
        diam, spread = driver.group_stats(y_now, dists, roots)
        mon_t.append(t_now)
        mon_diam.append(diam)

        if diam < d_stick and spread < v_stick:
            stalled = False
            if len(mon_t) > _STALL_LOOKBACK:
                dt_lb = mon_t[-1] - mon_t[-1 - _STALL_LOOKBACK]
                if dt_lb > 0.0:
                    rate = abs(mon_diam[-1] - mon_diam[-1 - _STALL_LOOKBACK]) / dt_lb
                    stalled = rate < v_stick / _STALL_RATE_FACTOR
            if diam < phi_deep or stalled:
                disposition = "stick"
                break
        if k == _MAX_PROBE_STEPS:
            disposition = "budget"
            break

    # the event sits at the last step, except a rebound's, which is refined
    # to the closest approach inside its bracketing subinterval; a
    # collapse's time is the later of that step and the power-law fit
    t_event = t_cur
    min_dist = float(dists.min())
    if disposition == "rebound":
        tol = max(_BISECT_TOL_FACTOR * span, 1e-15)
        t_event = _golden_min(lambda s: driver.pair_dists(best_dense(s)).min(), best_lo, best_hi, tol)
        y_min = best_dense(t_event)
        dists = driver.pair_dists(y_min)
        seed, roots = driver.component(dists, d_stick)
        min_dist = float(dists[seed])
        _, spread = driver.group_stats(y_min, dists, roots)
    elif disposition == "stick":
        t_fit = _stick_time_fit(mon_t, mon_diam, driver, config)
        if t_fit is not None:
            t_event = max(t_event, t_fit)

    event = classify_event(disposition, float(t_event), driver.members(roots), spread, min_dist, config)
    return event, float(t_cur), np.array(y_cur, dtype=float)


def _run_segment(
    system: ParticleSystem,
    t0: float,
    t1: float,
    config: SolverConfig,
    store: _SampleStore,
) -> tuple[float, ParticleSystem, Optional[CollisionEvent]]:
    driver = _Driver(system, config)
    y0 = np.concatenate([system.x.ravel(), system.v.ravel()])
    span = t1 - t0
    store.emit(t0, y0)
    solver = _stepper(driver, t0, y0, t1, config)

    # pairs already inside d_stick at the segment start stay disarmed until
    # they climb back out, so a fresh segment does not instantly retrigger
    d_stick = config.d_stick
    armed = driver.pair_dists(y0) > d_stick
    tol = max(_BISECT_TOL_FACTOR * span, 1e-15)

    t_end, y_end, event = t1, y0, None
    steps = _steps(solver, f"below {_BISECT_TOL_FACTOR * span:.3e} while advancing the segment")
    for t_prev, t_now, y_now, dense in steps:
        ts_sub = np.linspace(t_prev, t_now, _NSUB + 1)
        ys_sub = dense(ts_sub)
        dists = driver.pair_dists(ys_sub)
        # row c of the block masks describes the subinterval that ends at
        # column c + 1; armed is the mask after that column
        armed = armed | np.logical_or.accumulate(dists[1:] > d_stick, axis=0)
        # a candidate is an armed pair above d_stick at column c whose
        # endpoint gap minus the travel it could manage in the subinterval
        # reaches d_stick: one at or below it at column c + 1 (a threshold
        # hit), or a fast pair that can dip below and climb back out
        reach = np.minimum(dists[:-1], dists[1:])
        dt_sub = np.diff(ts_sub)
        chase = armed & (dists[:-1] > d_stick)
        # the pair speeds are needed only if the per-column speed bound,
        # whose travel rounds to at least every pair's, lets a pair get
        # there; if not, the bare gaps of the chase pairs exceed d_stick too
        bound = driver.rel_speed_bound(ys_sub)
        lead = np.where(chase, reach, math.inf).min(axis=1)
        if np.any(lead - dt_sub * np.maximum(bound[:-1], bound[1:]) <= d_stick):
            speeds = driver.pair_rel_speeds(ys_sub)
            reach -= dt_sub[:, None] * np.maximum(speeds[:-1], speeds[1:])
        chase &= reach <= d_stick
        # per column with candidates, each one's crossing is bracketed: a
        # hit's by the subinterval, a dip's up to its closest approach found
        # by golden section; the earliest crossing in the column wins
        crossing_t = None
        for c in np.flatnonzero(chase.any(axis=1)):
            t_lo, t_col = float(ts_sub[c]), float(ts_sub[c + 1])
            for k in np.flatnonzero(chase[c]):

                def gap(s):
                    return float(driver.pair_dists(dense(s))[k])

                t_in = t_col
                if dists[c + 1, k] > d_stick:
                    t_in = _golden_min(gap, t_lo, t_col, tol)
                    if gap(t_in) > d_stick:
                        continue
                t_c = _bisect_crossing(gap, d_stick, t_lo, t_in, tol)
                if crossing_t is None or t_c < crossing_t:
                    crossing_t = t_c
            if crossing_t is not None:
                break
        armed = armed[-1]

        if crossing_t is not None:
            y_cross = dense(crossing_t)
            store.emit_grid_range(dense, t_prev, crossing_t)
            store.emit(crossing_t, y_cross)
            event, t_end, y_end = _probe(driver, crossing_t, y_cross, t1, span, config, store)
            break
        store.emit_grid_range(dense, t_prev, t_now)
        y_end = y_now
    else:
        store.emit(t1, y_end)

    return t_end, ParticleSystem(*driver.unpack(y_end), system.kernel, system.partition.copy()), event


def _drift(store: _SampleStore, system: ParticleSystem, t0: float, t1: float) -> ParticleSystem:
    """Exact linear motion of a fully merged (or force-free) system from
    ``t0`` to ``t1``: emits its samples and returns the state at ``t1``."""

    def evaluate(t):
        x = system.x + (t - t0) * system.v
        return np.concatenate([x.ravel(), system.v.ravel()])

    store.emit(t0, evaluate(t0))
    store.emit_grid_range(evaluate, t0, t1)
    store.emit(t1, evaluate(t1))
    out = system.copy()
    out.x = out.x + (t1 - t0) * out.v
    return out


def _stick_time_fit(mon_t, mon_diam, driver: _Driver, config: SolverConfig) -> Optional[float]:
    """Collapse-time estimate from the probe's monitor rows ``mon_t``, ``mon_diam``.

    Fits ``t = t0 - C * diam**alpha`` over the strictly decreasing monitor
    rows between the working-kernel cap region and ``d_stick``; the
    intercept estimates the instant of collapse.  Returns None when the
    kernel has no exponent, the window is too thin or the power law does
    not hold.
    """
    alpha = driver.alpha
    if alpha is None:
        return None
    ts, diams = [], []
    last = math.inf
    for t, diam in zip(mon_t, mon_diam):
        if driver.fit_floor <= diam <= config.d_stick and diam < last:
            ts.append(t)
            diams.append(diam)
            last = diam
    if len(ts) < _FIT_MIN_POINTS:
        return None
    ts = np.array(ts)
    diams = np.array(diams)
    u = diams**alpha
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, ts, rcond=None)
    t0_hat = float(coef[0])
    c_hat = -float(coef[1])
    if c_hat <= 0.0:
        return None
    resid = design @ coef - ts
    rms = float(np.sqrt(np.mean(resid * resid)))
    span = float(ts[-1] - ts[0])
    if rms > max(_FIT_RESIDUAL_FRAC * span, 1e-12):
        return None
    remaining_cap = stick_time(float(diams[-1]), alpha) * 2.0 * driver.n
    if t0_hat < ts[-1] - 1e-9 * max(1.0, abs(ts[-1])) or t0_hat > ts[-1] + remaining_cap:
        return None
    return t0_hat


def classify_event(
    disposition: str,
    t_event: float,
    group: tuple[int, ...],
    rel_speed: float,
    min_dist: float,
    config: SolverConfig,
) -> CollisionEvent:
    """The typed event of a probe's disposition.

    A resolved encounter (a ``stick`` collapse certified by the
    thresholds, or a ``rebound``) is a sticking when its spread
    ``rel_speed`` is below ``v_stick`` and a non-stick collision
    otherwise; a ``horizon`` or ``budget`` exit is unresolved.
    """
    if disposition in ("stick", "rebound"):
        kind = STICKING if rel_speed < config.v_stick else NON_STICK
    else:
        kind = UNRESOLVED
    return CollisionEvent(t_event, group, kind, rel_speed, min_dist)


def solve_piecewise(system: ParticleSystem, config: SolverConfig) -> PiecewiseTrajectory:
    """Integrate to ``config.t_end`` through all close encounters.

    Sticking events merge their group and strictly reduce the cluster
    count, so a run carries at most ``N - 1`` of them; cluster membership
    only ever grows.  Once one cluster remains the tail is exact linear
    drift.  Raises :class:`ContinuationError` when the segment budget is
    exhausted before the horizon.
    """
    sys_cur = system.copy()
    n, d = sys_cur.x.shape
    store = _SampleStore(n, d, config.sample_dt)
    events: list[CollisionEvent] = []
    t = 0.0
    t_end = config.t_end
    eps_t = 1e-12 * max(1.0, t_end)
    segments_used = 0

    while t < t_end - eps_t:
        if sys_cur.partition.n_clusters == 1:
            sys_cur = _drift(store, sys_cur, t, t_end)
            t = t_end
            break
        if segments_used >= config.max_segments:
            raise ContinuationError(
                f"exceeded max_segments={config.max_segments} before reaching t_end"
            )
        segments_used += 1
        t_term, state, event = _run_segment(sys_cur, t, t_end, config, store)
        sys_cur = state
        if event is None:
            t = t_term
            continue
        t_floor = events[-1].t_event + eps_t if events else 0.0
        t_clamped = min(max(event.t_event, t_floor), t_end)
        if t_clamped != event.t_event:
            event = replace(event, t_event=t_clamped)
        events.append(event)
        if event.kind == STICKING:
            sys_cur = merge_clusters(sys_cur, event.group)
        t = t_term

    ts, xs, vs, grid_mask = store.arrays()
    return PiecewiseTrajectory(
        t=ts,
        x=xs,
        v=vs,
        grid_mask=grid_mask,
        events=events,
        final_state=sys_cur,
        config=config,
    )
