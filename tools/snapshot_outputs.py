"""Write the CLI outputs of a fixed set of configs, for diffing two versions.

Usage::

    PYTHONPATH=src python3 tools/snapshot_outputs.py OUT_DIR

Runs ``simulate``, ``twobody``, ``converge`` and ``diagnose`` in-process
through the public ``parse_config``/``run_command`` on fixed configs and
writes each config's files to ``OUT_DIR/<name>/``, then parses a fixed
list of invalid configs and writes one line per config to
``OUT_DIR/errors.txt``: the exception type, its ``.key`` and its message
(or ``accepted``), so that a changed validation message shows up in the
diff too.  Last it solves a fixed set of seeded random scenarios (storms,
pairs that start inside ``d_stick``, coincident clusters and cap
families) and writes one line per scenario to ``OUT_DIR/hashes.txt``: a
SHA-256 over each run's ``t``, ``x``, ``v`` and ``grid_mask``, its
events with their floats in hex, and its final state (or the error the
solve raised), so that a change in the last bit of any of them shows up
in the diff.  ``flocksim`` is imported from ``PYTHONPATH``, so another
checkout (a clone of an older commit, say) can be snapshotted with this
same script and the two snapshots compared with ``diff -r``.  The whole
set runs in well under 30 seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from flocksim import (
    SingularKernel,
    SolverConfig,
    critical_velocity,
    make_system,
    run_family,
    solve_piecewise,
)
from flocksim.cli import generate_scenario, parse_config, run_command
from flocksim.errors import ConfigError, FlockError, ValidationError

README_PAIR = """\
[scenario]
n = 2
d = 1
alpha = 0.5
x_1 = -0.5
x_2 = 0.5
v_1 = 2.0
v_2 = -2.0

[solver]
t_end = 0.7
"""

# the README pair under the bounded weight, fast enough to cross
BOUNDED_PAIR = (
    README_PAIR.replace("alpha = 0.5", "kernel = cucker_smale\nK = 2.5\nbeta = 1.5")
    .replace("v_1 = 2.0", "v_1 = 3.0")
    .replace("v_2 = -2.0", "v_2 = -3.0")
)


def _generated(n: int, d: int, seed: int, speed: float, t_end: float) -> str:
    return (
        f"[scenario]\nn = {n}\nd = {d}\nalpha = 0.5\nmode = generate\n"
        f"seed = {seed}\nbox = 1.0\nspeed = {speed!r}\n\n[solver]\nt_end = {t_end!r}\n"
    )


def _twobody(phi0: float, dphi0: float, weight: str = "alpha = 0.5") -> str:
    return (
        f"[scenario]\n{weight}\n\n[solver]\nt_end = 2.0\n\n"
        f"[twobody]\nphi0 = {phi0!r}\ndphi0 = {dphi0!r}\nn_levels = 12\n"
    )


def _near_critical(phi0: float, alpha: float, excess: float) -> str:
    """A pair closing at (1 + excess) times the critical rate."""
    return _twobody(phi0, critical_velocity(phi0, alpha) * (1.0 + excess), f"alpha = {alpha!r}")


def _two_cluster(
    n: int, m: int, d: int, alpha: float, t_end: float, u=None, direction=(1.0, 2.0, 3.0)
) -> str:
    """Clusters of m and n-m coincident rows closing at speed u (by default
    the critical rate) from unit separation along ``direction`` (its first
    d components)."""
    raw = list(direction[:d])
    norm = math.sqrt(sum(c * c for c in raw))
    e = [c / norm for c in raw]
    if u is None:
        u = 2.0 / (1.0 - alpha)  # critical closing speed from unit separation
    xa, xb = [-0.5 * c for c in e], [0.5 * c for c in e]
    va, vb = [0.5 * u * c for c in e], [-0.5 * u * c for c in e]
    return _inline([xa] * m + [xb] * (n - m), [va] * m + [vb] * (n - m), alpha, t_end)


def _three_cluster(u: float) -> str:
    """1D clusters A = rows {1, 3, 6} and B = rows {0, 4} (0-based) closing
    at speed u from unit separation, and C = rows {2, 5, 7} at x = 3
    moving in at speed 1."""
    member = [1, 0, 2, 0, 1, 2, 0, 2]  # cluster of each row: A 0, B 1, C 2
    x0, v0 = [-0.5, 0.5, 3.0], [0.5 * u, -0.5 * u, -1.0]
    return _inline([[x0[c]] for c in member], [[v0[c]] for c in member], 0.5, 1.5)


def _swarm_dip() -> str:
    """A 2D swarm of 48 (seed 3, unit box, speed 1) and, above it, a head-on
    pair closing at speed 2000 from unit separation: the pair dips below
    d_stick between subsample columns, so the main phase chases the dip,
    while the watch culls almost every swarm pair in each short step."""
    x, v = generate_scenario(48, 2, 3, box=1.0, speed=1.0)
    rows_x = x.tolist() + [[-0.5, 2.0], [0.5, 2.0]]
    rows_v = v.tolist() + [[1000.0, 0.0], [-1000.0, 0.0]]
    return _inline(rows_x, rows_v, 0.5, 1e-3) + "sample_dt = 1e-05\n"


def _inline(rows_x, rows_v, alpha: float, t_end: float) -> str:
    lines = ["[scenario]", f"n = {len(rows_x)}", f"d = {len(rows_x[0])}", f"alpha = {alpha!r}"]
    lines += [f"x_{i} = " + " ".join(map(repr, r)) for i, r in enumerate(rows_x, 1)]
    lines += [f"v_{i} = " + " ".join(map(repr, r)) for i, r in enumerate(rows_v, 1)]
    lines += ["", "[solver]", f"t_end = {t_end!r}"]
    return "\n".join(lines) + "\n"


_N_LIST = "\n[converge]\nn_list = "

CASES = [
    # (name, command, config text)
    ("readme_pair", "simulate", README_PAIR),
    # the horizon falls inside the encounter: the probe's horizon exit
    ("unresolved_pair", "simulate", README_PAIR.replace("t_end = 0.7", "t_end = 0.4999")),
    ("storm_1d", "simulate", _generated(16, 1, 3, 5.0, 0.3)),
    # seven non-stick crossings, each resuming on the same partition, then
    # (0, 2) stick near t = 0.1065 and six clusters integrate to the end
    ("storm_merge", "simulate", _generated(7, 1, 2, 4.0, 0.5)),
    ("swarm_2d", "simulate", _generated(48, 2, 3, 1.0, 0.2)),
    # d = 4: pair norms sum two even and two odd axes
    ("swarm_4d", "simulate", _generated(12, 4, 3, 5.0, 0.3)),
    ("rebound_3d", "simulate", _two_cluster(2, 1, 3, 0.5, 0.7, u=5.0)),
    ("twobody_stick", "twobody", _twobody(1.0, -4.0)),
    ("twobody_collide", "twobody", _twobody(1.0, -5.0)),
    ("twobody_no_collision", "twobody", _twobody(1.0, -3.0)),
    ("twobody_cucker_smale", "twobody", _twobody(1.0, -1.0, "kernel = cucker_smale")),
    # collide times just past the critical rate, where a plateau of height 1/s
    # near contact carries most of the integral
    ("twobody_near_critical_a05", "twobody", _near_critical(1.0, 0.05, 1e-8)),
    ("twobody_near_critical_a25", "twobody", _near_critical(1.0, 0.25, 1e-6)),
    ("twobody_near_critical_small", "twobody", _near_critical(1e-7, 0.9, 1e-3)),
    (
        "converge_2c",
        "converge",
        _two_cluster(6, 2, 2, 0.5, 0.6) + "\n[converge]\nn_list = 10 100 1000 10000 1000000\n",
    ),
    ("diagnose_2c", "diagnose", _two_cluster(6, 2, 3, 0.5, 0.6)),
    ("diagnose_2c_alpha_quarter", "diagnose", _two_cluster(6, 1, 2, 0.25, 1.8)),
    # along axis 0 the second axis is -0.0 in one cluster and 0.0 in the
    # other: columns equal in value, not in bits, side by side
    ("diagnose_2c_signed_zero", "diagnose", _two_cluster(6, 2, 2, 0.5, 0.6, direction=(1.0, 0.0))),
    # 8 x 24 = 192 coincident pairs in one chase column and one diagnose event
    ("diagnose_2c_wide", "diagnose", _two_cluster(32, 8, 2, 0.5, 0.6)),
    # bounded weight with non-default K and beta: a head-on pass-through
    ("bounded_pair", "simulate", BOUNDED_PAIR),
    # A and B stick near t = 0.735 (u found by bisection between a stall and
    # a crossing); the merged cluster takes B's root 0 in place of A's root
    # 1 and keeps pulling on C to the end
    ("diagnose_3c", "diagnose", _three_cluster(2.9345703125)),
    # rows 0 and 1 start in contact (their pair is no crossing candidate
    # and stays the closest) while rows 2 and 3 cross head-on: the event is
    # (2, 3)'s
    (
        "contact_and_crossing",
        "simulate",
        _inline([[0.0], [0.0], [10.0], [10.002]], [[-1e-3], [1e-3], [10.0], [-10.0]], 0.5, 2e-4)
        + "sample_dt = 1e-05\n",
    ),
    # rows 1 and 2 start in contact closing at the critical rate; row 0
    # crosses both and leaves, and the group follows the pair that sticks
    (
        "crossing_leaves_pair",
        "simulate",
        _inline([[2e-3], [0.0], [-5e-7]], [[-20.0], [-2 * 5e-7**0.5], [2 * 5e-7**0.5]], 0.5, 3e-3)
        + "sample_dt = 1e-05\n",
    ),
    # the critical head-on pair at alpha 0.7 to 1.2 times its stick time
    # (1 - alpha) / (2 alpha): the power-law fit sets the event time
    ("stick_alpha_07", "simulate", _two_cluster(2, 1, 1, 0.7, 1.2 * 0.3 / 1.4)),
    ("swarm_dip", "simulate", _swarm_dip()),
    # a pair that starts inside d_stick and collapses at the critical rate
    (
        "contact_collapse",
        "simulate",
        _inline([[0.0], [-5e-7]], [[-1.414e-3], [1.414e-3]], 0.5, 3e-3) + "sample_dt = 1e-05\n",
    ),
    # rows 0 and 1 start in contact and separate slowly while row 2
    # crosses them head-on
    (
        "crossing_through_contact",
        "simulate",
        _inline([[0.0], [0.0], [0.002]], [[-1e-3], [1e-3], [-20.0]], 0.5, 2e-4) + "sample_dt = 1e-05\n",
    ),
    # cap families whose runs share a prefix: a storm whose first crossing
    # comes before any member leaves the power branch, a pair that starts
    # inside the smallest cap's bridge, and a pair that never comes close
    ("converge_storm", "converge", _generated(6, 1, 7, 5.0, 0.05) + _N_LIST + "1000 10000 100000\n"),
    (
        "converge_inside_bridge",
        "converge",
        _inline([[-0.0055], [0.0055]], [[1.0], [-1.0]], 0.5, 0.1) + _N_LIST + "10 100 1000\n",
    ),
    (
        "converge_free",
        "converge",
        _inline([[-0.5], [0.5]], [[0.5], [-0.5]], 0.5, 5.0) + _N_LIST + "5 50 500\n",
    ),
]

# (name, command, config text) of configs that parse_config must reject
_TWO_ROWS = "n = 2\nd = 1\nalpha = 0.5\n"
_INLINE = "[scenario]\n" + _TWO_ROWS + "x_1 = -0.5\nx_2 = 0.5\nv_1 = 1.0\nv_2 = -1.0\n"
_TB = "[scenario]\nalpha = 0.5\n[twobody]\n"
INVALID = [
    ("unknown_section", "simulate", "[weird]\n"),
    ("no_equals", "simulate", "[solver]\nrel_tol 1e-9\n"),
    ("key_outside_section", "simulate", "rel_tol = 1e-9\n"),
    ("duplicate_key", "simulate", "[solver]\nrel_tol = 1e-9\nrel_tol = 1e-8\n"),
    ("empty_key", "simulate", "[solver]\n= 3\n"),
    ("unknown_command", "explode", _INLINE),
    ("unknown_key_scenario", "simulate", _INLINE + "colour = red\n"),
    ("unknown_key_solver", "simulate", _INLINE + "[solver]\nrel_tolx = 1\n"),
    ("unknown_key_twobody", "twobody", _TB + "phi0 = 1.0\ndphi0 = -1.0\nlevels = 3\n"),
    ("unknown_key_converge", "converge", _INLINE + "[converge]\nn_list = 5 50\ncaps = 3\n"),
    ("bad_number", "simulate", _INLINE + "[solver]\nrel_tol = fast\n"),
    ("not_finite", "simulate", _INLINE + "[solver]\nt_end = inf\n"),
    ("bad_integer", "simulate", _INLINE + "[solver]\nn_reg = 1e6\n"),
    ("bad_solver_value", "simulate", _INLINE + "[solver]\nd_stick = -1e-6\n"),
    ("bad_solver_integer", "simulate", _INLINE + "[solver]\nmax_segments = 0\n"),
    ("bad_cap", "simulate", _INLINE + "[solver]\nn_reg = 1\n"),
    ("bad_mode", "simulate", _INLINE + "mode = auto\n"),
    ("bad_kernel", "simulate", _INLINE + "kernel = bounded\n"),
    ("bad_alpha", "simulate", _INLINE.replace("alpha = 0.5", "alpha = 1.5")),
    ("bad_K", "simulate", _INLINE + "kernel = cucker_smale\nK = -1\n"),
    ("bad_beta", "simulate", _INLINE + "kernel = cucker_smale\nbeta = -3\n"),
    ("rows_without_n", "simulate", "[scenario]\nalpha = 0.5\nx_1 = 0.0\n"),
    ("missing_inline_row", "simulate", "[scenario]\n" + _TWO_ROWS + "x_1 = 0.0\nv_1 = 1.0\nv_2 = -1.0\n"),
    ("row_width", "simulate", _INLINE.replace("x_1 = -0.5", "x_1 = -0.5 1.0")),
    ("row_out_of_range", "simulate", _INLINE + "x_5 = 9.0\n"),
    ("no_rows", "simulate", "[scenario]\n" + _TWO_ROWS),
    ("missing_n", "simulate", "[scenario]\nd = 1\nalpha = 0.5\n"),
    ("zero_particles", "simulate", "[scenario]\nn = 0\nd = 1\nalpha = 0.5\n"),
    ("zero_dimensions", "simulate", "[scenario]\nn = 2\nd = 0\nalpha = 0.5\n"),
    ("missing_alpha", "simulate", _INLINE.replace("alpha = 0.5\n", "")),
    ("missing_seed", "simulate", "[scenario]\nmode = generate\n" + _TWO_ROWS),
    ("bad_box", "simulate", "[scenario]\nmode = generate\nseed = 1\nbox = 0\n" + _TWO_ROWS),
    ("bad_speed", "simulate", "[scenario]\nmode = generate\nseed = 1\nspeed = -1\n" + _TWO_ROWS),
    ("missing_phi0", "twobody", _TB + "dphi0 = -1.0\n"),
    ("bad_phi0", "twobody", _TB + "phi0 = -1.0\ndphi0 = -1.0\n"),
    ("few_levels", "twobody", _TB + "phi0 = 1.0\ndphi0 = -1.0\nn_levels = 1\n"),
    ("bounded_rest", "twobody", "[scenario]\nkernel = cucker_smale\n[twobody]\nphi0 = 1.0\ndphi0 = 0.0\n"),
    ("no_twobody_section", "twobody", "[scenario]\nalpha = 0.5\n"),
    ("no_converge_section", "converge", _INLINE),
    ("bad_n_list", "converge", _INLINE + "[converge]\nn_list = 50 5\n"),
    ("bad_n_list_entry", "converge", _INLINE + "[converge]\nn_list = 5 lots\n"),
    ("small_cap_in_n_list", "converge", _INLINE + "[converge]\nn_list = 1 5\n"),
    ("converge_bounded", "converge", _INLINE + "kernel = cucker_smale\n[converge]\nn_list = 5 50\n"),
    ("converge_n_reg", "converge", _INLINE + "[solver]\nn_reg = 50\n[converge]\nn_list = 5 50\n"),
]


def _hash_cases():
    """(name, solve) of the seeded random scenarios in ``hashes.txt``; each
    solve returns a list of trajectories."""
    d_stick = SolverConfig().d_stick
    cases = []

    def unit(rng, d):
        e = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
        return e / np.linalg.norm(e)

    def storm(seed):
        # off the line, random rows never pass within d_stick: there, row 1
        # starts 1e-3 from row 0 and closes on it head-on
        rng = random.Random(seed)
        n, d = rng.randint(3, 12), rng.choice((1, 1, 2, 3))
        x, v = generate_scenario(n, d, seed, box=1.0, speed=rng.uniform(3.0, 8.0))
        if d > 1:
            e = unit(rng, d)
            x[1] = x[0] + 1e-3 * e
            v[1] = v[0] - rng.uniform(3.0, 8.0) * e
        return rng, x, v

    def solve(x, v, alpha, t_end, sample_dt=1e-2):
        config = SolverConfig(t_end=t_end, sample_dt=sample_dt)
        return lambda: [solve_piecewise(make_system(x, v, SingularKernel(alpha=alpha)), config)]

    def family(x, v, t_end):
        config = SolverConfig(t_end=t_end)
        return lambda: run_family(x, v, 0.5, (100, 1000, 10000), config)

    for seed in range(20):
        rng, x, v = storm(seed)
        cases.append((f"storm_{seed}", solve(x, v, rng.choice((0.3, 0.5, 0.7)), 0.3)))
    # row 1 starts inside d_stick of row 0, closing or opening at up to
    # about the critical rate of such a gap
    for seed in range(20, 30):
        rng, x, v = storm(seed)
        e = unit(rng, x.shape[1])
        x[1] = x[0] + rng.uniform(0.0, 1.0) * d_stick * e
        v[1] = v[0] + rng.uniform(-3e-3, 3e-3) * e
        cases.append((f"contact_{seed}", solve(x, v, 0.5, 0.05, 1e-3)))
    # some rows copy another's position and velocity: clusters from the start
    for seed in range(30, 36):
        rng, x, v = storm(seed)
        for _ in range(rng.randint(1, len(x) // 2)):
            i, j = rng.sample(range(len(x)), 2)
            x[j], v[j] = x[i], v[i]
        cases.append((f"clusters_{seed}", solve(x, v, 0.5, 0.3)))
    # cap families on storms, and on pairs closing from unit separation
    # below, at and above the critical speed 4, whose stick time is 0.5
    for seed in range(36, 42):
        rng, x, v = storm(seed)
        if seed % 2:
            u = (3.0, 4.0, 4.5)[seed % 3]
            x, v = np.array([[-0.5], [0.5]]), np.array([[0.5 * u], [-0.5 * u]])
        cases.append((f"family_{seed}", family(x, v, 0.6 if seed % 2 else 0.2)))
    return cases


def _digest(runs) -> str:
    h = hashlib.sha256()
    for traj in runs:
        final = traj.final_state
        for a in (traj.t, traj.x, traj.v, traj.grid_mask, final.x, final.v, final.partition.labels()):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        for e in traj.events:
            floats = " ".join(float(f).hex() for f in (e.t_event, e.rel_speed, e.min_dist))
            h.update(f"{e.kind} {e.group} {floats}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory that receives one folder per config")
    args = parser.parse_args(argv)
    root = Path(args.out_dir)
    failed = 0
    for name, command, text in CASES:
        t0 = time.perf_counter()
        code = run_command(parse_config(text, command, str(root / name)))
        print(f"{name:28s} {command:9s} exit {code}  {time.perf_counter() - t0:6.2f} s")
        failed += code != 0
    lines = []
    for name, command, text in INVALID:
        try:
            parse_config(text, command, str(root / "unused"))
            lines.append(f"{name}: accepted")
        except (ConfigError, ValidationError) as exc:
            lines.append(f"{name}: {type(exc).__name__} key={getattr(exc, 'key', None)!r} {exc}")
    (root / "errors.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    lines = []
    t0 = time.perf_counter()
    for name, solve in _hash_cases():
        try:
            digest = _digest(solve())
        except FlockError as exc:
            digest = f"{type(exc).__name__}: {exc}"
        lines.append(f"{name} {digest}")
    (root / "hashes.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"{len(lines)} hashed scenarios  {time.perf_counter() - t0:6.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
