"""Event-driven piecewise integration of the alignment dynamics.

The flow is smooth between close encounters, so :func:`solve_piecewise`
alternates two phases on one driver (pair list, weight buffer and watch)
per cluster partition, which only a sticking event changes.  A main phase
advances the system with an adaptive embedded Runge-Kutta stepper (max
step capped at the sample spacing) while watching the distances of the
pairs of cluster roots (``ClusterPartition.root_pairs``: a cluster's rows
coincide bitwise, so each pair of clusters has one gap, that of its
roots).  Each step's dense output is read once, as a block of subsample
columns, and watched on the step's live pairs only: those whose gap at
the step's start is at most twice the sum of ``d_stick``, twice the
largest particle displacement over the block, and the step's travel at
the speed bound below.  Any other pair provably stays above ``d_stick``
at every column and in every reach, so it can be no candidate; an
event-free swarm watches a fraction of a percent of its pairs.  Each
pair's norms round the same whichever pairs are computed beside them, so
the live pairs' watch finds what a watch over all pairs would, bit for
bit.  The watch carries nothing from step to step: the crossing
candidates of the live pairs are found per column of the step's block,
and only the columns with a candidate are visited, in order.  A
candidate is a pair above ``d_stick`` at a column whose gap, less the
travel it could manage in the subinterval, reaches ``d_stick`` (so a
pair that starts a phase inside ``d_stick`` triggers nothing until it
climbs back out); the pair speeds that decide it are computed only when
a per-column bound on all of them (the norm of the per-axis velocity
ranges) lets some pair travel that far.  There is one crossing search,
per candidate: a pair at or below ``d_stick`` at the column (a threshold
hit) is bisected on its gap over the subinterval, and any other is first
searched for its closest approach by golden section, which brackets the
crossing of one that dips below and climbs back out between columns.
The earliest crossing in the column wins, and its pair and the search
tolerance pass to a probe phase.

The probe steps through the encounter with the main phase's settings,
watching that pair and each pair inside ``d_stick`` that touches the
group.  Per step it grows the group of cluster roots over the root-pair
gaps from the closest watched pair (the crossing pair may pass and leave
while another watched pair collapses), and takes the group's diameter
(largest gap) and velocity spread (largest pair speed) over the root
pairs inside it: a cluster's rows coincide, so these are the largest
over all its members.  The closest approach and ``min_dist`` are over
the watched pairs.  The probe builds the event, listing the member
particles, and ends in one of four dispositions:

* ``stick``   -- the group diameter and spread fell below the sticking
  thresholds and the collapse either went deep (diameter below
  ``d_stick/256``) or visibly stalled.  The event time is a least-squares
  fit of the power-law collapse ``t = t0 - C * diam**alpha`` over the
  monitor rows above the working kernel's cap region, where the collapse
  follows the singular profile, or the certifying step if the fit fails.
* ``rebound`` -- every watched pair climbed back above ``d_stick``.  Only
  here is the closest-approach time refined, by golden-section search on
  the dense output; the event is a sticking if the spread there is below
  ``v_stick`` and a non-stick collision otherwise.
* ``horizon`` / ``budget`` -- the encounter reached the end of the time
  span, or exhausted the probe step budget, and is reported unresolved.

Sticking events merge the group to its mean state and integration
continues on a new driver; after any other event a fresh stepper resumes
at the probe's exit on the same driver; a single surviving cluster drifts
linearly to the end.

The working kernel of a singular system is the regularized weight with
the cap index ``n_reg`` and the system's exponent; a bounded kernel is
integrated as it is.  The cap has that one setting, so a system built on
a regularized kernel is rejected.  All stepping is deterministic, so
identical configurations reproduce trajectories bitwise.

A cap family (:func:`flocksim.convergence.run_family`) solves through
the same loop.  Its runs' first main phases resume at and record a step
boundary (:class:`_Chain`), taken while every RHS call has seen each
inter-cluster separation on the power branch of the working kernel, where
a larger cap's weight is the same.  A plain solve neither resumes nor
records.

The stepper is :class:`RK45`, the package's own Dormand-Prince 5(4)
(DOPRI5) with FSAL stages and quartic dense output.  It matches scipy's
``RK45`` bit for bit, so the solver needs numpy only.  Its right-hand side
writes each derivative in place, ``fun(t, y, out)``: the driver's
:meth:`_Driver.rhs` fills the stepper's stage row, and no RHS call
allocates a derivative.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import ParticleSystem, acceleration_arrays, merge_clusters, pair_norms, pair_slots
from .errors import DivergenceError, DomainError, LocalizationError
from .kernels import (
    CuckerSmaleKernel, RegularizedKernel, _check_int, _check_kernel, _check_positive
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
_CULL_PAD = 2.0**-40       # the watch cull's margin, relative to the largest coordinate


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, thresholds, cap index and time grid of a piecewise solve."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    d_stick: float = 1e-6
    v_stick: float = 1e-4
    n_reg: int = 10**6
    t_end: float = 5.0
    sample_dt: float = 1e-2

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "d_stick", "v_stick", "t_end", "sample_dt"):
            _check_positive(getattr(self, name), name)
        object.__setattr__(self, "n_reg", _check_int(self.n_reg, "n_reg", 2))


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
        self.halves = (2, self.n, self.d)  # a packed state's positions and velocities
        part = system.partition
        self.pairs = part.inter_pairs()
        self.slots = pair_slots(self.pairs, self.n)
        self.labels = part.labels()
        # all singletons: the root pairs are the pair list, shared to spare a
        # second copy (2 MB of peak RSS over 120 runs of an N = 128 swarm)
        self.watch = self.pairs if part.n_clusters == self.n else part.root_pairs()
        self.pi, self.pj = self.watch
        # set while a cap family's first main phase marks resume points in
        # its :class:`_Chain`, and cleared by the first RHS call that sees an
        # inter-cluster separation below it
        self.power_floor: Optional[float] = None

    def rhs(self, t: float, y: np.ndarray, out: np.ndarray) -> None:
        """Write the derivative at ``y`` into ``out``, a contiguous array of
        ``y``'s shape (a row of the stepper's stage array)."""
        xv = y.reshape(self.halves)
        dxv = out.reshape(self.halves)
        dxv[0] = xv[1]
        acceleration_arrays(xv[0], xv[1], self.pairs, self.kernel, self.slots, out=dxv[1])
        # the call left the separations in the slots
        if self.power_floor is not None and not self.slots[3].min() >= self.power_floor:
            self.power_floor = None  # a NaN separation clears it too

    def unpack(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            y[: self.nd].reshape(self.n, self.d).copy(),
            y[self.nd :].reshape(self.n, self.d).copy(),
        )

    def _pair_norms(self, z: np.ndarray, sel=None) -> np.ndarray:
        """Watched pair norms of ``(n*d,)`` rows, or per column of ``(n*d, C)``;
        with ``sel``, those of the watched pairs it indexes (an index array,
        or one index for one pair's norms).  An entry rounds the same
        whatever pairs are computed beside it (:func:`pair_norms`)."""
        if z.ndim == 1:
            rows = z.reshape(self.n, self.d)
        else:
            rows = np.ascontiguousarray(z.T).reshape(z.shape[1:] + (self.n, self.d))
        return pair_norms(rows, self.watch if sel is None else (self.pi[sel], self.pj[sel]))

    def pair_dists(self, y: np.ndarray, sel=None) -> np.ndarray:
        return self._pair_norms(y[: self.nd], sel)

    def pair_rel_speeds(self, y: np.ndarray, sel=None) -> np.ndarray:
        return self._pair_norms(y[self.nd :], sel)

    def rel_speed_bound(self, y: np.ndarray) -> np.ndarray:
        """At least every entry of :meth:`pair_rel_speeds`, per column: the
        norm of the per-axis velocity ranges, padded by 1e-9 relative for
        the rounding of a different summation order."""
        v = y[self.nd :].reshape((self.n, self.d) + y.shape[1:])
        span = v.max(axis=0) - v.min(axis=0)
        return np.sqrt(np.einsum("d...,d...->...", span, span)) * (1.0 + 1e-9)

    def live_pairs(self, block: np.ndarray, h: float, speed: float, d_stick: float) -> np.ndarray:
        """Indices, in order, of the watched pairs that can matter in a main
        phase step of length ``h`` with the subsample block ``block``
        (``(2*n*d, C)``, column 0 the step's start state) and the largest
        :meth:`rel_speed_bound` ``speed`` over its columns: every pair whose
        gap g at column 0 is at most ``2*(d_stick + 2*D + h*speed + pad)``.
        D is the largest displacement of any particle from column 0 over the
        columns, and pad is ``_CULL_PAD`` times the largest coordinate
        magnitude.  That bound is at least 2*d_stick, so every pair at or
        below d_stick at column 0 is among them.

        Every other pair is never a candidate: in :meth:`crossing_candidates`
        each of its column gaps and reaches exceeds d_stick.  Proof, first in
        exact arithmetic on the block's values: by the triangle inequality a
        column gap is at least g - 2D; a reach is the smaller gap of a
        subinterval less at most its length (at most h) times the larger
        pair speed at its ends, and every pair speed is at most its
        column's bound, so the reach is at least g - 2D - h*speed.  With
        K = d_stick + 2D + h*speed + pad and g > 2K, that is more than
        g/2 + d_stick.  Rounding: each computed gap, displacement, speed
        and reach is its exact value on the block's floats to a relative
        (d + 6)u, u = 2**-53 (coordinates enter only through differences;
        then d products, a sum, a root, and the reach's product and
        difference), so a computed reach falls short of the exact one by
        far less than the g/2 to spare, and a computed K short of the
        exact one by far less than the factor 2 covers.  The pad is a
        margin on top of that account, at the scale at which the
        coordinates themselves round."""
        x = block[: self.nd].reshape(self.n, self.d, -1)
        moved = x - x[:, :, :1]
        travel = math.sqrt(np.einsum("idc,idc->ic", moved, moved).max())
        pad = _CULL_PAD * float(np.abs(x).max())
        live = pair_norms(x[:, :, 0], self.watch) <= 2.0 * (d_stick + 2.0 * travel + h * speed + pad)
        return live.nonzero()[0]

    def crossing_candidates(self, block: np.ndarray, dists: np.ndarray, dt_sub: np.ndarray,
                            bound: np.ndarray, live: np.ndarray, d_stick: float) -> np.ndarray:
        """The watch over one step's subsample block ``block`` (``(2*n*d, C)``,
        subintervals ``dt_sub``, per-column :meth:`rel_speed_bound` ``bound``)
        for the watched pairs ``live``, with column gaps ``dists``
        (``(C, L)``): their candidate mask ``(C - 1, L)``, whose row c
        describes the subinterval that ends at column c + 1.

        A candidate is a pair above d_stick at column c whose endpoint gap
        minus the travel it could manage in the subinterval reaches
        d_stick: one at or below it at column c + 1 (a threshold hit), or a
        fast pair that can dip below and climb back out.  A pair that stays
        at or below d_stick is none, so a phase that starts with a pair in
        contact does not retrigger on it until it climbs back out."""
        reach = np.minimum(dists[:-1], dists[1:])
        chase = dists[:-1] > d_stick
        # the pair speeds are needed only if the per-column speed bound,
        # whose travel rounds to at least every pair's, lets a pair get
        # there; if not, the bare gaps of the chase pairs exceed d_stick too
        lead = np.where(chase, reach, math.inf).min(axis=1, initial=math.inf)
        if (lead - dt_sub * np.maximum(bound[:-1], bound[1:]) <= d_stick).any():
            speeds = self.pair_rel_speeds(block, live)
            reach -= dt_sub[:, None] * np.maximum(speeds[:-1], speeds[1:])
        return chase & (reach <= d_stick)

    def component(self, dists: np.ndarray, threshold: float, seed: int) -> np.ndarray:
        """The ``(n,)`` mask of the cluster roots reachable from the watched
        pair ``seed`` through root-pair gaps ``dists`` <= threshold."""
        close = (dists <= threshold).nonzero()[0]
        pi, pj = self.pi[close], self.pj[close]
        reach = np.zeros(self.n, dtype=bool)
        reach[self.pi[seed]] = reach[self.pj[seed]] = True
        size = 2
        while True:
            link = reach[pi] | reach[pj]
            reach[pi[link]] = reach[pj[link]] = True
            grown = np.count_nonzero(reach)
            if grown == size:
                return reach
            size = grown

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


class _Dense:
    """The quartic interpolant of one step, at a time (``(n,)`` out) or at a
    1-D array of ``m`` times (``(n, m)`` out, one column per time)."""

    __slots__ = ("t_old", "h", "y_old", "q")

    def __init__(self, t_old: float, t: float, y_old: np.ndarray, q: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.q = q

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        if isinstance(x, np.ndarray) and x.ndim:
            p = np.empty((self.q.shape[1], x.size))
            p[:] = x
            np.multiply.accumulate(p, axis=0, out=p)  # the powers of x, as np.cumprod
            y = np.dot(self.q, p)
            y *= self.h
            y += self.y_old[:, None]
            return y
        # one time: the powers x, x**2, x**3, x**4 by the same multiplies
        x2 = x * x
        x3 = x2 * x
        y = np.dot(self.q, np.array([x, x2, x3, x3 * x]))
        y *= self.h
        y += self.y_old
        return y


_SUB_K = np.arange(_NSUB + 1.0)
_SUB_FRAC = _SUB_K / _NSUB


def _subsample_times(t0: float, t1: float) -> np.ndarray:
    """``np.linspace(t0, t1, _NSUB + 1)`` bit for bit, without its Python
    layers: the same two branches (k * step, or (k / _NSUB) * span where the
    step underflows to zero), the same shift by ``t0`` and the same last
    entry ``t1``."""
    step = (t1 - t0) / _NSUB
    ts = _SUB_K * step if step != 0 else _SUB_FRAC * (t1 - t0)
    ts += t0
    ts[-1] = t1
    return ts


def _constant(y: np.ndarray):
    """The interpolant of a step of zero length, with the shapes of :class:`_Dense`."""
    return lambda t: y if np.ndim(t) == 0 else np.repeat(y[:, None], len(t), axis=1)


def _rms(x: np.ndarray):
    """The stepper's error norm: the root mean square of the entries, with
    the root of the sum of squares computed as ``np.linalg.norm`` does for a
    float vector.  The result is a numpy scalar, so a zero norm as a divisor
    gives inf rather than an exception."""
    return np.sqrt(x.dot(x)) / x.size**0.5


class RK45:
    """Dormand-Prince 5(4) stepper with FSAL stages and quartic dense output,
    integrating ``y' = f(t, y)`` forward from ``(t0, y0)`` to ``t_bound``.
    ``fun(t, y, out)`` writes ``f(t, y)`` into ``out``, a contiguous float
    array of ``y``'s shape, and keeps no reference to ``y`` or ``out``.

    The arithmetic is scipy 1.17.1's ``RK45``, operation for operation, so
    both produce the same steps, states and dense output bit for bit: the
    tableau, the initial-step heuristic with its extra RHS call, the
    I-controller (safety 0.9, factor limits 0.2 to 10, exponent -1/5, no
    growth right after a rejection), the RMS error norm, ``rtol`` raised to
    100 machine epsilons, and the ``np.dot`` call shapes, on which BLAS
    rounding depends.  ``step()`` advances one accepted step and returns
    None, or sets ``status`` to ``"failed"`` and returns the reason when
    the step would fall below ten spacings of the floats at ``t``.

    The stages live in one ``(7, n)`` array ``K``, and ``fun`` writes each
    stage's derivative straight into its row.  The rows and the transposed
    views that the ``np.dot`` calls read (``K[:s].T`` for stages 1 to 5,
    ``K[:-1].T`` for the new state, ``K.T`` for the error and the dense
    output) are built once, with ``K``, in the constructor.  The stage
    states, the new state and the error vector are scaled and shifted in
    place, in the operand order that keeps scipy's bits (``x*h == h*x``,
    ``y + dy == dy + y``).  The stage states and the new state are fresh
    arrays, since the new state escapes into the samples, the dense output
    and the next stepper; the FSAL derivative ``f`` is copied out of
    ``K[-1]`` once per accepted step, so it never aliases ``K``.
    """

    C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ])
    B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
    E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
    # dense-output polynomial (Shampine's optimal c_6), one column per power of x
    P = np.array([
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ])
    # (c_s, a_s[:s]) of stages 1 to 5; stage 0 is f at the step's start, the
    # last accepted step's final stage (FSAL)
    STAGES = [(c, a[:s]) for s, (c, a) in enumerate(zip(C[1:], A[1:]), 1)]
    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 10
    EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, fun, t0, y0, t_bound, max_step=np.inf, rtol=1e-3, atol=1e-6):
        if t_bound < t0:
            raise ValueError(f"RK45 integrates forward: t_bound={t_bound!r} < t0={t0!r}")
        rtol_min = 100 * np.finfo(float).eps
        if rtol < rtol_min:
            warnings.warn(f"rtol={rtol!r} is below 100 machine epsilons; using {rtol_min!r}",
                          stacklevel=2)
            rtol = rtol_min
        self.fun = fun
        self.t_old = None
        self.t = t0
        self.y = np.asarray(y0, dtype=float)
        self.y_old = None
        self.t_bound = t_bound
        self.max_step = max_step
        self.rtol = rtol
        self.atol = atol
        self.status = "running"
        self.f = np.empty_like(self.y)
        fun(t0, self.y, self.f)
        self.h_abs = self._initial_step()
        self.K = K = np.empty((7, self.y.size))
        self.KT = K.T
        self.KT_new = K[:-1].T
        self.stages = [(K[s], float(c), a, K[:s].T) for s, (c, a) in enumerate(self.STAGES, 1)]

    def _initial_step(self) -> float:
        """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4),
        at one RHS call unless the span is empty."""
        t0, y0, f0 = self.t, self.y, self.f
        span = self.t_bound - t0
        if span == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = np.empty_like(y0)
        self.fun(t0 + h0, y0 + h0 * f0, f1)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, span, self.max_step)

    def step(self):
        t, y = self.t, self.y
        if t == self.t_bound:
            self.t_old = t
            self.status = "finished"
            return None
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        rejected = False
        abs_y = np.abs(y)
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            y_new = self._attempt(t, y, h)
            scale = np.abs(y_new)
            np.maximum(abs_y, scale, out=scale)
            scale *= self.rtol
            scale += self.atol
            err = np.dot(self.KT, self.E)
            err *= h
            err /= scale
            error_norm = _rms(err)
            if error_norm < 1:
                if error_norm == 0:
                    factor = self.MAX_FACTOR
                else:
                    factor = min(self.MAX_FACTOR, self.SAFETY * error_norm**self.EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs = h * factor
                break
            h_abs = h * max(self.MIN_FACTOR, self.SAFETY * error_norm**self.EXPONENT)
            rejected = True
        self.t_old, self.y_old = t, y
        # the FSAL derivative is copied out of K, which resumed copies share
        self.t, self.y, self.f = t_new, y_new, self.K[-1].copy()
        self.h_abs = h_abs
        if t_new == self.t_bound:
            self.status = "finished"
        return None

    def _attempt(self, t, y, h):
        """One Runge-Kutta attempt of size ``h``: the 5th-order state, with
        every stage, its derivative last, written into ``K`` for the error
        and the dense output.  Each stage state and the new state are fresh
        arrays: the new state escapes into the store and the dense output."""
        K = self.K
        K[0] = self.f
        for k, c, a, KT in self.stages:
            y_stage = np.dot(KT, a)
            y_stage *= h
            y_stage += y
            self.fun(t + c * h, y_stage, k)
        y_new = np.dot(self.KT_new, self.B)
        y_new *= h
        y_new += y
        self.fun(t + h, y_new, K[-1])
        return y_new

    def dense_output(self):
        """The interpolant over the last accepted step."""
        if self.t == self.t_old:
            return _constant(self.y)
        return _Dense(self.t_old, self.t, self.y_old, self.KT.dot(self.P))


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


class _Chain:
    """The link between consecutive members of a cap family.

    ``RegularizedKernel(alpha, n)`` returns exactly ``s**(-alpha)`` when
    every separation is at least its ``bridge_end``, which falls as n
    grows, so two members step bit for bit alike until one of them
    evaluates its RHS below its own ``bridge_end``.  A member resumes its
    first main phase at the chain's point (``solver`` None: from its
    start), and when ``record`` is set it marks there the last step
    boundary of that phase at which every RHS call so far (rejected
    attempts and the stepper's two starting calls included) saw each
    inter-cluster separation at or above its kernel's ``bridge_end``.
    Only that phase is shared: it has no event and one partition, while
    from the probe on the fit floor depends on the cap.  A step replaces
    the stepper's ``t``, ``y``, ``f``, ``h_abs`` and ``status`` and writes
    only its stages ``K``, which the copies share (:meth:`mark`); stored
    rows are never written again, so a member shares the store's first
    ``rows`` rows; and the watch carries nothing across a step boundary."""

    def __init__(self) -> None:
        self.solver: Optional[RK45] = None
        self.store: Optional[_SampleStore] = None
        self.rows = 0
        self.record = False

    def mark(self, solver: RK45, store: _SampleStore) -> None:
        """Make the step boundary at which ``solver`` stands the resume point.

        The copy shares ``solver``'s stage array ``K``, and so does every
        stepper resumed from it; the RHS writes each derivative into a row
        of that shared ``K``.  That is safe because ``_attempt`` writes
        ``K[0] = self.f`` and then each later stage before any read of it;
        the FSAL derivative ``f`` that a copy resumes from is its own array,
        copied out of ``K[-1]`` once per accepted step, never a view of
        ``K``, so a later step of another copy cannot change it; the error
        norm and ``dense_output`` read only the stages of the accepted
        attempt, and :class:`_Dense` keeps its own coefficient array
        (``KT.dot(P)``); and the copies that share one ``K`` step one after
        another: a member's first-phase stepper is finished before the next
        member resumes, and a recorded copy never steps itself."""
        self.solver = copy.copy(solver)
        self.store = store
        self.rows = len(store.ts)


def _steps(solver, where: str):
    """Step ``solver`` to its bound, yielding ``(t_old, t, y, dense)`` per step."""
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            # a non-finite derivative makes every error norm NaN, so the
            # step shrinks to underflow; name the cause, not the symptom
            if not np.isfinite(solver.f).all():
                raise DivergenceError(f"non-finite derivative at t={solver.t}")
            raise LocalizationError(f"step size underflow {where}: {msg} (t={solver.t})")
        if not np.isfinite(solver.y).all():
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
    seed: int,
    t_bound: float,
    tol: float,
    config: SolverConfig,
    store: _SampleStore,
) -> tuple[CollisionEvent, float, np.ndarray]:
    """Resolve the encounter of the watched pair ``seed``, which crossed
    d_stick at ``t_cross`` (found to ``tol``): its event, and the time and
    state at which the probe stopped."""
    d_stick = config.d_stick
    v_stick = config.v_stick

    watch = np.zeros(len(driver.pi), dtype=bool)
    watch[seed] = True
    watched = watch.nonzero()[0]  # the indices of the watched pairs, kept with the mask

    def group(dists: np.ndarray, threshold: float = d_stick) -> np.ndarray:
        # from the closest watched pair, which need not be the crossing pair
        return driver.component(dists, threshold, watched[dists[watched].argmin()])

    dists = driver.pair_dists(y_cross)
    roots = group(dists, d_stick * (1.0 + 1e-9))

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
        # track the watched pairs' closest approach at subsample resolution:
        # the first column holding the smallest gap, if it beats the best so far
        ts_sub = _subsample_times(t_prev, t_now)
        col_min = driver.pair_dists(dense(ts_sub)[:, 1:], watched).min(axis=1)
        c = int(col_min.argmin())
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
        watched = watch.nonzero()[0]
        if not near[watched].any():
            disposition = "rebound"
            break

        roots = group(dists)
        diam, spread = driver.group_stats(y_now, dists, roots)
        mon_t.append(t_now)
        mon_diam.append(diam)

        if diam < d_stick and spread < v_stick:
            stalled = False
            if len(mon_t) > _STALL_LOOKBACK:
                dt_lb = mon_t[-1] - mon_t[-1 - _STALL_LOOKBACK]
                rate = abs(mon_diam[-1] - mon_diam[-1 - _STALL_LOOKBACK]) / dt_lb
                stalled = rate < v_stick / _STALL_RATE_FACTOR
            if diam < d_stick / _PHI_DEEP_FACTOR or stalled:
                disposition = "stick"
                break
        if k == _MAX_PROBE_STEPS:
            disposition = "budget"
            break

    # the event sits at the last step, except a rebound's, refined to the
    # closest approach in its bracket, and a collapse's with a passing fit
    t_event = t_cur
    if disposition == "rebound":
        t_event = _golden_min(
            lambda s: driver.pair_dists(best_dense(s), watched).min(), best_lo, best_hi, tol
        )
        y_min = best_dense(t_event)
        dists = driver.pair_dists(y_min)
        roots = group(dists)
        _, spread = driver.group_stats(y_min, dists, roots)
    elif disposition == "stick":
        t_fit = _stick_time_fit(mon_t, mon_diam, driver, config)
        t_event = t_cur if t_fit is None else t_fit
    min_dist = float(dists[watched].min())

    event = classify_event(disposition, float(t_event), driver.members(roots), spread, min_dist, config)
    return event, float(t_cur), np.array(y_cur, dtype=float)


def _run_segment(
    driver: _Driver,
    t0: float,
    y0: np.ndarray,
    t1: float,
    config: SolverConfig,
    store: _SampleStore,
    chain: Optional[_Chain] = None,
) -> tuple[float, np.ndarray, Optional[CollisionEvent]]:
    """One main phase from ``(t0, y0)`` towards ``t1``: where it stopped,
    ``(t, y)``, and the event that stopped it (None at ``t1``).  With a
    ``chain``, the phase is a cap family member's first: it resumes at the
    chain's point, if any, and records its own there if asked."""
    d_stick = config.d_stick
    if chain is not None and chain.record:
        driver.power_floor = driver.kernel.bridge_end
    if chain is None or chain.solver is None:
        store.emit(t0, y0)
        solver = _stepper(driver, t0, y0, t1, config)
    else:
        store.ts = chain.store.ts[: chain.rows]
        store.ys = chain.store.ys[: chain.rows]
        solver = copy.copy(chain.solver)
        solver.fun = driver.rhs
    if driver.power_floor is not None:
        chain.mark(solver, store)
    tol = max(_BISECT_TOL_FACTOR * (t1 - t0), 1e-15)

    t_end, y_end, event = t1, solver.y, None
    steps = _steps(solver, "during main phase")
    for t_prev, t_now, y_now, dense in steps:
        ts_sub = _subsample_times(t_prev, t_now)
        ys_sub = dense(ts_sub)
        bound = driver.rel_speed_bound(ys_sub)
        # the step is watched on the pairs that can reach d_stick in it; the
        # others cannot be candidates, so a step without such a pair only
        # stores its samples
        live = driver.live_pairs(ys_sub, t_now - t_prev, float(bound.max()), d_stick)
        crossing_t = crossing_k = None
        if live.size:
            dists = driver.pair_dists(ys_sub, live)
            chase = driver.crossing_candidates(
                ys_sub, dists, ts_sub[1:] - ts_sub[:-1], bound, live, d_stick
            )
            # per column with candidates, each one's crossing is bracketed: a
            # hit's by the subinterval, a dip's up to its closest approach
            # found by golden section; the earliest crossing in the column wins
            for c in chase.any(axis=1).nonzero()[0]:
                t_lo, t_col = float(ts_sub[c]), float(ts_sub[c + 1])
                for j in chase[c].nonzero()[0]:
                    k = live[j]

                    def gap(s):
                        return float(driver.pair_dists(dense(s), k))

                    t_in = t_col
                    if dists[c + 1, j] > d_stick:
                        t_in = _golden_min(gap, t_lo, t_col, tol)
                        if gap(t_in) > d_stick:
                            continue
                    t_c = _bisect_crossing(gap, d_stick, t_lo, t_in, tol)
                    if crossing_t is None or t_c < crossing_t:
                        crossing_t, crossing_k = t_c, k
                if crossing_t is not None:
                    break

        if crossing_t is not None:
            y_cross = dense(crossing_t)
            store.emit_grid_range(dense, t_prev, crossing_t)
            store.emit(crossing_t, y_cross)
            driver.power_floor = None
            event, t_end, y_end = _probe(driver, crossing_t, y_cross, crossing_k, t1, tol, config, store)
            break
        store.emit_grid_range(dense, t_prev, t_now)
        y_end = y_now
        if driver.power_floor is not None:
            chain.mark(solver, store)
    else:
        store.emit(t1, y_end)

    return t_end, y_end, event


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
    count, so a run carries at most ``N - 1`` of them and builds at most
    ``N`` drivers; cluster membership only ever grows.  Once one cluster
    remains the tail is exact linear drift.  The main phases need no
    budget: each reaches the horizon or ends after a probe that took an
    accepted step, at least ten float spacings long short of the horizon
    (a shorter one raises :class:`LocalizationError`), so time strictly
    increases.
    """
    return _solve(system, config)


def _solve(system: ParticleSystem, config: SolverConfig,
           chain: Optional[_Chain] = None) -> PiecewiseTrajectory:
    """:func:`solve_piecewise`, whose first main phase resumes at and
    records into ``chain`` (see :class:`_Chain`) when one is given."""
    sys_cur = system.copy()
    n, d = sys_cur.x.shape
    store = _SampleStore(n, d, config.sample_dt)
    events: list[CollisionEvent] = []
    t = 0.0
    t_end = config.t_end
    eps_t = 1e-12 * max(1.0, t_end)

    while t < t_end - eps_t:
        if sys_cur.partition.n_clusters == 1:
            sys_cur = _drift(store, sys_cur, t, t_end)
            break
        driver = _Driver(sys_cur, config)
        y = np.concatenate([sys_cur.x.ravel(), sys_cur.v.ravel()])
        event = None
        while t < t_end - eps_t and (event is None or event.kind != STICKING):
            t, y, event = _run_segment(driver, t, y, t_end, config, store, chain)
            chain = None  # only the first main phase resumes or records
            if event is not None:
                t_floor = events[-1].t_event + eps_t if events else 0.0
                t_clamped = min(max(event.t_event, t_floor), t_end)
                if t_clamped != event.t_event:
                    event = replace(event, t_event=t_clamped)
                events.append(event)
        sys_cur = ParticleSystem(*driver.unpack(y), sys_cur.kernel, sys_cur.partition)
        if event is not None and event.kind == STICKING:
            sys_cur = merge_clusters(sys_cur, event.group)

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
