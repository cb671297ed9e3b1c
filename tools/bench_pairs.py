"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] --pairs K [--seed S]

``--workload`` repeats, and ``--workload all`` takes every workload of
``PARENT_DIR/BENCHMARK.json``; the workloads run one after the other, in
the order given.  For each workload, each pair runs ``python3
perfbench/run.py --workload W --seed S --seconds N --trace 0`` once in each
checkout, one after the other; even pairs start with the parent, odd pairs
with the change.  Both sides use their own
``perfbench/`` and ``src/``, so the two benchmark directories should be
identical.  The run length N, the end-to-end metrics, their better
direction and their bounds come from ``PARENT_DIR/BENCHMARK.json``.

For each workload it prints a table: per metric, both sides' median and
quartiles, the parent's quartile spread, how many pairs the change won
(ties count for neither) and a verdict:

* ``gain`` -- the change won at least nine tenths of the pairs and the
  medians differ, in the better direction, by more than the parent's
  quartile spread;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- neither, while the parent's own quartile spread is
  wider than the bound and not every change run beats every parent run;
* ``within bound`` -- otherwise.

Every run's metrics, ``correct`` flag and failure count follow as one JSON
line per workload.  A last line says whether any metric of any workload
was ``worse``.  The exit status is 1 if a run was incorrect or failed an
operation, else 0.  Standard library only; nothing under ``perfbench/`` is written
except that script's own output directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} failed in {root} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return wins, "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return wins, "worse"
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if p3 - p1 > bound * abs(pm) and not beats_all:
        return wins, "unresolved"
    return wins, "within bound"


def compare(dirs: dict, spec: dict, workload: str, pairs: int, seed: int) -> tuple[bool, bool]:
    """Run ``pairs`` alternating pairs of ``workload`` and print its table:
    (every run correct with 0 failed, some metric worse)."""
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            res = run_once(dirs[side], workload, seed, seconds)
            runs[side].append(res)
            print(f"{workload} pair {k + 1}/{pairs} {side:<6} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"op_s_p50={res['metrics'].get('op_s_p50', float('nan')):.4g}", flush=True)

    print(f"\n{workload} seed {seed}, {pairs} pairs of {seconds} s runs")
    print(f"{'metric':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          f"{'parent iqr':<11} {'wins':<7} verdict")
    worse = False
    for m in spec["end_to_end"]:
        name = m["name"]
        par = [r["metrics"][name] for r in runs["parent"]]
        chg = [r["metrics"][name] for r in runs["change"]]
        pq, cq = quartiles(par), quartiles(chg)
        wins, text = verdict(par, chg, m["better"], m["bound"])
        worse |= text == "worse"
        cols = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (pq, cq)]
        print(f"{name:<12} {cols[0]:<32} {cols[1]:<32} "
              f"{pq[2] - pq[0]:<11.3g} {f'{wins}/{pairs}':<7} {text}")
    ok = all(r["correct"] and r["failed"] == 0 for side in SIDES for r in runs[side])
    print(f"all runs correct with 0 failed: {ok}")
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "runs": runs}))
    return ok, worse


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir", type=Path)
    p.add_argument("change_dir", type=Path)
    p.add_argument("--workload", action="append", required=True,
                   help="a workload name, or all; repeat for several")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    spec = json.loads((args.parent_dir / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = []
    for name in args.workload:
        for w in known if name == "all" else [name]:
            if w not in known:
                p.error(f"unknown workload {w!r}; BENCHMARK.json lists {', '.join(known)}")
            if w not in workloads:
                workloads.append(w)
    dirs = dict(zip(SIDES, (args.parent_dir, args.change_dir)))
    ok, worse = True, []
    for w in workloads:
        w_ok, w_worse = compare(dirs, spec, w, args.pairs, args.seed)
        ok &= w_ok
        if w_worse:
            worse.append(w)
    print(f"\nany end-to-end metric worse: {'yes, on ' + ', '.join(worse) if worse else 'no'} "
          f"({len(workloads)} workloads)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
