"""Seeded workload inputs and the correctness check run after every operation.

An operation is one CLI command run in-process on one generated config.
Each workload turns ``(seed, slot)`` into a :class:`Case`: the config text
the program sees plus the facts the check needs (particle count, horizon,
closed-form stick time).  Inputs depend only on the workload name, the
seed and the slot, so a slot's config is the same however many slots a
run reaches.

Only the standard library is imported at module level: the set-up timing
imports ``flocksim`` (and with it numpy and scipy) after this module has
produced the config texts.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

# Acceptance tolerances shared with the package's own acceptance checks.
INVARIANT_TOL = 1e-8
STICK_TIME_TOL = 1e-3
# Event times must match the stored reference to this absolute tolerance;
# kinds and groups must match exactly.
REFERENCE_T_TOL = 1e-6
# Convergence gaps below this are round-off of unit-scale states (the
# solver's rel_tol is 1e-9); the doubling rule applies above it.
ROUNDOFF_GAP = 1e-9
DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Case:
    """One generated config and what its check needs to know."""

    slot: int
    text: str
    n: int
    d: int
    horizon: float
    members: int = 1  # solves per operation; a converge family has one per cap
    phi0: Optional[float] = None
    alpha: Optional[float] = None

    @property
    def sim_work(self) -> float:
        """Particle-time units the operation integrates."""
        return self.n * self.horizon * self.members


@dataclass
class CheckResult:
    ok: bool
    message: str = ""
    stick_err: Optional[float] = None  # |t_event - stick_time| over sticking solves
    events: Optional[list] = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make: Callable[[int, int], Case]  # (seed, slot) -> Case
    check: Callable[..., CheckResult]
    pool: int  # configs parsed and built in set-up; operations cycle through them
    stratum: int  # slots per schedule cycle; a timed run ends on a cycle boundary
    nominal_op_s: float  # sizes the traced run from --seconds


def _rng(workload: str, seed: int, key: int) -> random.Random:
    # str seeds hash through SHA-512, so streams are stable across processes
    return random.Random(f"{workload}:{seed}:{key}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _inline_text(alpha: float, xs, vs, t_end: float) -> str:
    lines = ["[scenario]", f"n = {len(xs)}", f"d = {len(xs[0])}", f"alpha = {_fmt(alpha)}"]
    lines += [f"x_{i} = " + " ".join(_fmt(c) for c in row) for i, row in enumerate(xs, 1)]
    lines += [f"v_{i} = " + " ".join(_fmt(c) for c in row) for i, row in enumerate(vs, 1)]
    lines += ["", "[solver]", f"t_end = {_fmt(t_end)}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- storm, swarm

# The solver's cost differs several-fold between random scenarios of the
# same size, so a run that drew fresh scenarios would measure its seed's
# luck.  Instead each workload has a fixed set of base scenarios, drawn
# once from fixed streams in ``generate_scenario``'s distribution
# (box-uniform positions, velocities uniform in the ball of radius
# ``speed``), and the seed draws, per slot, a symmetry of the box and a
# relabelling of the particles.  The program sees other numbers in another
# order, but the dynamics and the solver's work (its error norm treats
# every component alike) are those of the base scenario, and every run
# measures the same mix.

STORM_N, STORM_ALPHA, STORM_BOX, STORM_SPEED, STORM_T_END = 16, 0.5, 1.0, 5.0, 0.5
STORM_BASES = 8
# Pairs that would cross within STORM_FLIGHT time units in free flight
# predict the solver's crossing count closely (alignment stops most pairs
# from meeting later), and crossings set an operation's cost.
STORM_FLIGHT, STORM_CROSSINGS = 0.15, 40

SWARM_N, SWARM_D, SWARM_ALPHA, SWARM_SPEED, SWARM_T_END = 128, 2, 0.5, 1.0, 0.1
SWARM_BASES = 8
# No pair of a base swarm comes closer than this in free flight over the
# horizon, far above the sticking distance, so the swarm has no events.
SWARM_CLEARANCE = 1e-3


def _draw(rng: random.Random, n: int, d: int, box: float, speed: float):
    xs = [[box * (rng.random() - 0.5) for _ in range(d)] for _ in range(n)]
    vs = []
    for _ in range(n):
        while True:
            c = [2.0 * rng.random() - 1.0 for _ in range(d)]
            if sum(u * u for u in c) <= 1.0:
                vs.append([speed * u for u in c])
                break
    return xs, vs


def _free_flight_crossings(xs, vs) -> int:
    ends = [x[0] + v[0] * STORM_FLIGHT for x, v in zip(xs, vs)]
    return sum(
        1
        for i in range(len(xs))
        for j in range(i + 1, len(xs))
        if (xs[i][0] - xs[j][0]) * (ends[i] - ends[j]) < 0.0
    )


def _closest_approach(xs, vs, horizon: float) -> float:
    """Smallest pair distance over [0, horizon] in free flight."""
    best = math.inf
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx = [a - b for a, b in zip(xs[i], xs[j])]
            du = [a - b for a, b in zip(vs[i], vs[j])]
            uu = sum(u * u for u in du)
            t = min(max(-sum(a * u for a, u in zip(dx, du)) / uu, 0.0), horizon) if uu else 0.0
            best = min(best, math.sqrt(sum((a + u * t) ** 2 for a, u in zip(dx, du))))
    return best


@functools.lru_cache(maxsize=None)
def _storm_base(k: int):
    """Base storm ``k``, redrawn until exactly STORM_CROSSINGS pairs cross
    in free flight, so it carries about that many non-stick crossings."""
    rng = _rng("storm_1d", "base", k)
    while True:
        xs, vs = _draw(rng, STORM_N, 1, STORM_BOX, STORM_SPEED)
        if _free_flight_crossings(xs, vs) == STORM_CROSSINGS:
            return xs, vs


@functools.lru_cache(maxsize=None)
def _swarm_base(k: int):
    rng = _rng("swarm_2d", "base", k)
    while True:
        xs, vs = _draw(rng, SWARM_N, SWARM_D, 1.0, SWARM_SPEED)
        if _closest_approach(xs, vs, SWARM_T_END) > SWARM_CLEARANCE:
            return xs, vs


def _box_symmetry(rng: random.Random, xs, vs):
    """The scenario under a seeded permutation of the axes, sign flips of
    the axes and relabelling of the particles."""
    d = len(xs[0])
    axes = list(range(d))
    rng.shuffle(axes)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(d)]
    order = list(range(len(xs)))
    rng.shuffle(order)

    def move(rows):
        return [[s * rows[i][a] for s, a in zip(signs, axes)] for i in order]

    return move(xs), move(vs)


def _make_storm(seed: int, slot: int) -> Case:
    xs, vs = _box_symmetry(_rng("storm_1d", seed, slot), *_storm_base(slot % STORM_BASES))
    text = _inline_text(STORM_ALPHA, xs, vs, STORM_T_END)
    return Case(slot=slot, text=text, n=STORM_N, d=1, horizon=STORM_T_END)


def _make_swarm(seed: int, slot: int) -> Case:
    xs, vs = _box_symmetry(_rng("swarm_2d", seed, slot), *_swarm_base(slot % SWARM_BASES))
    text = _inline_text(SWARM_ALPHA, xs, vs, SWARM_T_END)
    return Case(slot=slot, text=text, n=SWARM_N, d=SWARM_D, horizon=SWARM_T_END)


# ---------------------------------------------------------------- two-cluster

# Cost of a two-cluster collapse depends mostly on N, d, alpha and the
# cluster sizes, so those follow a fixed schedule (one entry per slot of a
# cycle) and the seed draws the direction, the row order and the
# separation (within 5% of 1, since it sets the horizon and the cost).
# Every run then measures the same mix.  The merge entries cost about the
# same, so the median operation draws on every entry, not on one.
MERGE_SCHEDULE = (
    # (N, d, alpha, size of the first cluster)
    (16, 1, 0.75, 8),
    (24, 3, 0.25, 6),
    (32, 2, 0.5, 8),
    (56, 2, 0.25, 1),
    (64, 3, 0.5, 1),
)
CONVERGE_SCHEDULE = (
    (16, 1, 0.75, 8),
    (20, 2, 0.5, 5),
    (16, 3, 0.25, 8),
)
CONVERGE_N_LIST = (10, 100, 1000, 10000, 100000, 1000000)


def _unit_vector(rng: random.Random, d: int) -> list[float]:
    while True:
        e = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(c * c for c in e))
        if norm > 1e-3:
            return [c / norm for c in e]


def _two_cluster(rng: random.Random, slot: int, schedule) -> Case:
    """Clusters of m and N-m coincident rows closing at the critical rate.

    The 2/N coupling gives the cluster separation the two-body law
    ``phi'' = -2 psi(|phi|) phi'`` for any split, so with separation rate
    ``-2 P(phi0)`` the clusters stick at ``(1-alpha) phi0**alpha / (2 alpha)``.
    """
    n, d, alpha, m = schedule[slot % len(schedule)]
    phi0 = rng.uniform(0.95, 1.05)
    e = _unit_vector(rng, d)
    u = 2.0 * phi0 ** (1.0 - alpha) / (1.0 - alpha)  # critical closing speed
    # centre of mass at rest at the origin; cluster b moves towards cluster a
    xa = [-(n - m) / n * phi0 * c for c in e]
    xb = [m / n * phi0 * c for c in e]
    va = [(n - m) / n * u * c for c in e]
    vb = [-m / n * u * c for c in e]
    in_a = [True] * m + [False] * (n - m)
    rng.shuffle(in_a)
    horizon = 1.25 * (1.0 - alpha) * phi0**alpha / (2.0 * alpha)
    text = _inline_text(alpha, [xa if a else xb for a in in_a], [va if a else vb for a in in_a],
                        horizon)
    return Case(slot=slot, text=text, n=n, d=d, horizon=horizon, phi0=phi0, alpha=alpha)


def _make_merge(seed: int, slot: int) -> Case:
    return _two_cluster(_rng("merge_2c", seed, slot), slot, MERGE_SCHEDULE)


def _make_converge(seed: int, slot: int) -> Case:
    case = _two_cluster(_rng("converge_2c", seed, slot), slot, CONVERGE_SCHEDULE)
    text = case.text + "\n[converge]\nn_list = " + " ".join(map(str, CONVERGE_N_LIST)) + "\n"
    return replace(case, text=text, members=len(CONVERGE_N_LIST))


# ---------------------------------------------------------------- checks


def _read_events(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]


def _load_trajectory(out: Path, n: int, d: int):
    """trajectory.csv as an object with the ``t``, ``x``, ``v`` arrays the
    diagnostics read."""
    import numpy as np
    from types import SimpleNamespace

    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 1 + 2 * n * d:
        raise ValueError(f"trajectory.csv has {data.shape[1]} columns, want {1 + 2 * n * d}")
    rows = data.shape[0]
    return SimpleNamespace(
        t=data[:, 0],
        x=data[:, 1 : 1 + n * d].reshape(rows, n, d),
        v=data[:, 1 + n * d :].reshape(rows, n, d),
    )


def check_simulate(case: Case, out: Path, reference: Optional[dict], captured) -> CheckResult:
    """Invariants within the acceptance tolerance, ordered events, no
    Unresolved, and the stored reference where one exists."""
    from flocksim.diagnostics import conservation_residual, dissipation_check, ordered_sums_check

    traj = _load_trajectory(out, case.n, case.d)
    t = traj.t
    if not (t[0] == 0.0 and t[-1] == case.horizon and (t[1:] > t[:-1]).all()):
        return CheckResult(False, "sample times do not run strictly from 0 to t_end")
    drift = conservation_residual(traj)
    diss = dissipation_check(traj)
    ordered = ordered_sums_check(traj)
    if not (drift <= INVARIANT_TOL and diss.r_violation <= INVARIANT_TOL
            and ordered <= INVARIANT_TOL and diss.velocity_bound_margin >= 0.0):
        return CheckResult(
            False,
            f"invariants: drift {drift:.3e}, r_violation {diss.r_violation:.3e},"
            f" ordered {ordered:.3e}, margin {diss.velocity_bound_margin:.3e}",
        )
    events = _read_events(out)
    times = [e["t_event"] for e in events]
    if any(b <= a for a, b in zip(times, times[1:])):
        return CheckResult(False, "event times not strictly increasing")
    if any(e["kind"] == "Unresolved" for e in events):
        return CheckResult(False, "Unresolved event")
    if reference is not None:
        msg = compare_reference(events, reference)
        if msg:
            return CheckResult(False, msg)
    return CheckResult(True, events=events)


def compare_reference(events: list[dict], reference: dict) -> str:
    want = reference["events"]
    if len(events) != len(want):
        return f"reference: {len(events)} events, want {len(want)}"
    for k, (got, ref) in enumerate(zip(events, want)):
        if got["kind"] != ref["kind"] or got["group"] != ref["group"]:
            return (f"reference: event {k} is {got['kind']} {got['group']},"
                    f" want {ref['kind']} {ref['group']}")
        if abs(got["t_event"] - ref["t_event"]) > REFERENCE_T_TOL:
            return f"reference: event {k} at {got['t_event']!r}, want {ref['t_event']!r}"
    return ""


def check_merge(case: Case, out: Path, reference, captured) -> CheckResult:
    """Exactly one Sticking of all N particles at the closed-form time."""
    from flocksim.twobody import stick_time

    events = _read_events(out)
    if len(events) != 1 or events[0]["kind"] != "Sticking":
        return CheckResult(False, f"want one Sticking event, got {[e['kind'] for e in events]}")
    if events[0]["group"] != list(range(case.n)):
        return CheckResult(False, f"sticking group {events[0]['group']} is not all {case.n}")
    err = abs(events[0]["t_event"] - stick_time(case.phi0, case.alpha))
    report = (out / "report.txt").read_text()
    if "n_sticking = 1\n" not in report:
        return CheckResult(False, "report.txt does not record the sticking", err)
    if not err <= STICK_TIME_TOL:
        return CheckResult(False, f"stick time off by {err:.3e}", err)
    return CheckResult(True, stick_err=err)


def _fits_singular(traj, alpha: float) -> bool:
    """Whether the solver's stick-time fit sees the singular collapse: its
    window runs from four times the cap region's edge up to d_stick.  At
    smaller caps the weight is already flat at d_stick, so the capped pair
    sticks later than the singular law says; that gap is what the family
    study measures, not an error."""
    cfg = traj.config
    return 4.0 * (cfg.n_reg - 1) ** (-1.0 / alpha) < cfg.d_stick


def check_converge(case: Case, out: Path, reference, captured) -> CheckResult:
    """Reference gaps keep the pattern of acceptance check 10, and every
    family member that sticks inside its fit window does so at the
    closed-form time."""
    from flocksim.twobody import stick_time

    lines = (out / "convergence.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(CONVERGE_N_LIST):
        return CheckResult(False, "convergence.csv rows do not match n_list")
    ref_v = [float(r[4]) for r in rows]
    if not (all(ref_v[k + 1] <= 2.0 * ref_v[k] + ROUNDOFF_GAP for k in range(len(ref_v) - 1))
            and ref_v[-1] < ref_v[0]):
        return CheckResult(False, f"reference gaps {ref_v} break the convergence pattern")
    if len(captured) != len(CONVERGE_N_LIST):
        return CheckResult(False, f"captured {len(captured)} family solves")
    t_ref = stick_time(case.phi0, case.alpha)
    errs = [abs(e.t_event - t_ref) for traj in captured if _fits_singular(traj, case.alpha)
            for e in traj.events if e.kind == "Sticking"]
    err = max(errs) if errs else None
    if err is not None and not err <= STICK_TIME_TOL:
        return CheckResult(False, f"family stick time off by {err:.3e}", err)
    return CheckResult(True, stick_err=err)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("storm_1d", "simulate", _make_storm, check_simulate,
                 pool=STORM_BASES, stratum=STORM_BASES, nominal_op_s=3.0),
        Workload("swarm_2d", "simulate", _make_swarm, check_simulate,
                 pool=2 * SWARM_BASES, stratum=SWARM_BASES, nominal_op_s=1.0),
        Workload("merge_2c", "diagnose", _make_merge, check_merge,
                 pool=6 * len(MERGE_SCHEDULE), stratum=len(MERGE_SCHEDULE), nominal_op_s=0.45),
        Workload("converge_2c", "converge", _make_converge, check_converge,
                 pool=4 * len(CONVERGE_SCHEDULE), stratum=len(CONVERGE_SCHEDULE),
                 nominal_op_s=1.7),
    )
}

# Tiny inputs run once before timing so lazy imports and first-call costs
# land outside the timed operations.
WARMUP_TEXT = (
    "[scenario]\nn = 2\nd = 1\nalpha = 0.5\nx_1 = -0.5\nx_2 = 0.5\nv_1 = 2.0\nv_2 = -2.0\n"
    "\n[solver]\nt_end = 0.6\n\n[converge]\nn_list = 10 100\n"
)


def load_reference(workload: str, seed: int) -> dict:
    """Stored events per slot for ``seed``; empty unless it is the default."""
    if seed != DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return {}
    data = json.loads(REFERENCE_FILE.read_text())
    return {int(k): v for k, v in data.get(workload, {}).items()}
