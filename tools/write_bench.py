"""Run the benchmark on every workload and write its numbers to BENCH_<LABEL>.json.

Usage, from the root of a flocksim checkout::

    python3 tools/write_bench.py LABEL

For each workload in ``BENCHMARK.json``, at seeds 1 and 7, it runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace T``
with ``--trace 0`` and then ``--trace 1``, N being the benchmark's
``run_seconds``.  From each run's details file in ``perfbench/out/`` it
keeps:

* ``--trace 0``: the end-to-end metrics, the quartiles of the operation
  times at reference host speed, and the operation and failure counts;
* ``--trace 1``: the per-layer metrics and the counts that must repeat
  exactly between traced runs (``perfbench/spans.DETERMINISTIC``).

The file also records the git rev, whether ``src/`` differs from it, the
hash of ``src/flocksim`` that the benchmark computes, and the Python,
numpy and host of the runs, the host with its OpenBLAS core and numpy's
SIMD targets (``tools/host_arithmetic.py``).  ``BENCH_<LABEL>.json`` is
written at the root of the checkout.  Standard library and numpy only;
nothing under ``perfbench/`` is written except that script's own output
directory.  All sixteen runs take about ten minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from host_arithmetic import fingerprint

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7)
TRACES = (0, 1)


def run_details(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One benchmark run: its details file, with the result line's verdict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"write_bench: {' '.join(cmd)} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    details = json.loads(path.read_text())
    details["result"] = {k: result[k] for k in ("correct", "attempted", "failed")}
    return details


def summarize(timed: dict, traced: dict) -> dict:
    """The kept numbers of one workload and seed, from its two details files."""
    times = [op["s_ref"] for op in timed["operations"] if op["ok"]]
    quartiles = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    return {
        "end_to_end": {k: m["value"] for k, m in timed["metrics"].items()},
        "op_s_quartiles": quartiles,
        "timed_result": timed["result"],
        "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        "deterministic_counts": traced["counts"],
        "traced_result": traced["result"],
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results: dict[str, dict] = {}
    provenance = None
    for w in spec["workloads"]:
        name = w["name"]
        for seed in SEEDS:
            timed, traced = [run_details(name, seed, trace, seconds) for trace in TRACES]
            results.setdefault(name, {})[f"seed{seed}"] = summarize(timed, traced)
            provenance = provenance or timed["provenance"]
            print(f"{name} seed {seed}: op_s_p50={timed['metrics']['op_s_p50']['value']:.4g} s, "
                  f"rhs.main={traced['counts']['rhs.main']}", flush=True)

    out = {
        "label": args.label,
        "git_rev": _git("rev-parse", "HEAD") or None,
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": provenance["src_sha256"],
        "host": {**{k: provenance[k] for k in ("python", "numpy", "nproc", "machine")},
                 **fingerprint()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": results,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    ok = all(r[k]["correct"] and r[k]["failed"] == 0 for seeds in results.values()
             for r in seeds.values() for k in ("timed_result", "traced_result"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
