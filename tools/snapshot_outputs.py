"""Write the CLI outputs of a fixed set of configs, for diffing two versions.

Usage::

    PYTHONPATH=src python3 tools/snapshot_outputs.py OUT_DIR

Runs ``simulate``, ``twobody``, ``converge`` and ``diagnose`` in-process
through the public ``parse_config``/``run_command`` on fixed configs and
writes each config's files to ``OUT_DIR/<name>/``.  ``flocksim`` is
imported from ``PYTHONPATH``, so another checkout (a clone of an older
commit, say) can be snapshotted with this same script and the two
snapshots compared with ``diff -r``.  The whole set runs in well under
30 seconds.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from flocksim.cli import parse_config, run_command

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


def _two_cluster(n: int, m: int, d: int, alpha: float, t_end: float, u=None) -> str:
    """Clusters of m and n-m coincident rows closing at speed u (by default
    the critical rate) from unit separation along a fixed direction."""
    raw = [1.0, 2.0, 3.0][:d]
    norm = math.sqrt(sum(c * c for c in raw))
    e = [c / norm for c in raw]
    if u is None:
        u = 2.0 / (1.0 - alpha)  # critical closing speed from unit separation
    xa, xb = [-0.5 * c for c in e], [0.5 * c for c in e]
    va, vb = [0.5 * u * c for c in e], [-0.5 * u * c for c in e]
    rows_x = [xa] * m + [xb] * (n - m)
    rows_v = [va] * m + [vb] * (n - m)
    lines = ["[scenario]", f"n = {n}", f"d = {d}", f"alpha = {alpha!r}"]
    lines += [f"x_{i} = " + " ".join(map(repr, r)) for i, r in enumerate(rows_x, 1)]
    lines += [f"v_{i} = " + " ".join(map(repr, r)) for i, r in enumerate(rows_v, 1)]
    lines += ["", "[solver]", f"t_end = {t_end!r}"]
    return "\n".join(lines) + "\n"


CASES = [
    # (name, command, config text)
    ("readme_pair", "simulate", README_PAIR),
    # the horizon falls inside the encounter: the probe's horizon exit
    ("unresolved_pair", "simulate", README_PAIR.replace("t_end = 0.7", "t_end = 0.4999")),
    ("storm_1d", "simulate", _generated(16, 1, 3, 5.0, 0.3)),
    ("swarm_2d", "simulate", _generated(48, 2, 3, 1.0, 0.2)),
    ("rebound_3d", "simulate", _two_cluster(2, 1, 3, 0.5, 0.7, u=5.0)),
    ("twobody_stick", "twobody", _twobody(1.0, -4.0)),
    ("twobody_collide", "twobody", _twobody(1.0, -5.0)),
    ("twobody_no_collision", "twobody", _twobody(1.0, -3.0)),
    ("twobody_cucker_smale", "twobody", _twobody(1.0, -1.0, "kernel = cucker_smale")),
    (
        "converge_2c",
        "converge",
        _two_cluster(6, 2, 2, 0.5, 0.6) + "\n[converge]\nn_list = 10 100 1000 10000 1000000\n",
    ),
    ("diagnose_2c", "diagnose", _two_cluster(6, 2, 3, 0.5, 0.6)),
    ("diagnose_2c_alpha_quarter", "diagnose", _two_cluster(6, 1, 2, 0.25, 1.8)),
    # 8 x 24 = 192 coincident pairs in one chase column and one diagnose event
    ("diagnose_2c_wide", "diagnose", _two_cluster(32, 8, 2, 0.5, 0.6)),
]


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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
