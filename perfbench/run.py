"""flocksim benchmark: one closed-loop client running CLI operations in-process.

Run from the root of a flocksim checkout::

    python3 perfbench/run.py --workload storm_1d --seed 1 --seconds 20 --trace 0

An operation is ``flocksim.cli.run_command`` on one parsed config,
followed by a check of the files it wrote (see ``workloads.py``).  The
client runs the next operation only when the previous one is done, with
no other threads, cycling through the workload's pool of seeded configs
until ``--seconds`` have passed and a schedule cycle is complete.

``--trace 0`` reports the end-to-end metrics with tracing off.  Its
times are wall times scaled to a reference host speed, which is sampled
before, during and after every operation (see ``hostspeed.py``); the
unscaled medians are printed beside them and every wall time is kept in
the details file.
``--trace 1`` runs a fixed number of operations three times (untraced,
traced, traced again), reports the per-layer split of the first traced
pass, fails loudly unless the two traced passes count exactly the same
work, and writes its spans to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name with its unit, plus the failure share and the stick-time
error, which are not in ``metrics`` because they can be zero, and the
unscaled wall times.  A details
file with the run's provenance and every operation goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Single-process, single-client benchmark: BLAS gets one thread (at most
# nproc), so library threads do not compete with the client on a small host.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter set-ups timed besides the run's own; they run between
# operations, spread over the measured window, so that setup_s sees the
# same host as the operations rather than the first few seconds of it.
SETUP_CHILDREN = 5
TAIL_BEYOND = 10


def _parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Capture:
    """Keeps the trajectories of the converge command's family solve: its
    output file has gaps only, and the stick times need the events."""

    def __init__(self, cli):
        self.cli = cli
        self.runs: list = []

    def __enter__(self):
        self._orig = orig = self.cli.run_family

        def run_family(*args, **kwargs):
            runs = orig(*args, **kwargs)
            self.runs[:] = runs
            return runs

        self.cli.run_family = run_family
        return self

    def __exit__(self, *exc):
        self.cli.run_family = self._orig


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs and checks operations of one workload, recording each."""

    def __init__(self, wl, workload, seed: int, cli, work: Path):
        self.wl = wl
        self.workload = workload
        self.cli = cli
        self.work = work
        self.reference = wl.load_reference(workload.name, seed)
        self.capture = Capture(cli)
        self.records: list[dict] = []

    def op(self, case, config, tracer=None, sampler=None) -> dict:
        """Runs and checks one operation.  With a ``hostspeed.Sampler`` the
        host's speed is sampled during it and the sampling is not timed."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.capture.runs.clear()
        with sampler or contextlib.nullcontext():
            t0 = perf_counter()
            try:
                rc = self.cli.run_command(config)
                error = None if rc == 0 else f"exit code {rc}"
            except Exception:
                error = "raised:\n" + traceback.format_exc()
            elapsed = perf_counter() - t0
        if sampler is not None:
            elapsed -= sampler.spent
        stick_err = None
        if error is None:
            ref = self.reference.get(case.slot)
            if ref is not None and ref["sha256"] != _text_sha(case.text):
                raise RuntimeError(f"stored reference for slot {case.slot} is for another config")
            try:
                res = self.workload.check(case, self.work, ref, self.capture.runs)
                error = None if res.ok else res.message
                stick_err = res.stick_err
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if tracer is not None and self.work.is_dir():
            tracer.counts["write.bytes"] += _dir_bytes(self.work)
        if error is not None:
            print(f"perfbench: {self.workload.name} slot {case.slot} FAILED: {error}",
                  file=sys.stderr)
        rec = dict(slot=case.slot, s=elapsed, ok=error is None, error=error,
                   work=case.sim_work, stick_err=stick_err)
        self.records.append(rec)
        return rec

    def warm_up(self) -> None:
        out = self.work.with_name(self.work.name + "-warmup")
        try:
            self.cli.run_command(self.cli.parse_config(self.wl.WARMUP_TEXT, self.workload.command,
                                                       str(out)))
        finally:
            shutil.rmtree(out, ignore_errors=True)


class SetupChild:
    """Times one set-up (import, parse, build) in a fresh interpreter."""

    def __init__(self, command: str, texts: list[str], work: Path):
        self.job = json.dumps({"src": str(SRC), "command": command, "texts": texts,
                               "out": str(work)})

    def __call__(self) -> float:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py")],
            input=self.job, capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND values above it;
    returns (value, percentile).  With 2 * TAIL_BEYOND values or fewer there
    is no such percentile above the median, and the median is returned."""
    s = sorted(values)
    n = len(s)
    rank = n - TAIL_BEYOND
    if rank <= n / 2:
        return statistics.median(s), 50.0
    return s[rank - 1], 100.0 * rank / n


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    h = hashlib.sha256()
    for f in sorted((SRC / "flocksim").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "src_sha256": h.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "machine": platform.machine(),
    }


def _print_table(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:<14.6g} {unit:<12} {notes.get(name, '')}")


def run_timed(args, wl, workload, cli, runner, cases, configs, setup_own) -> dict:
    import hostspeed

    runner.warm_up()
    child = SetupChild(workload.command, [c.text for c in cases], runner.work)
    sampler = hostspeed.Sampler()
    cal = hostspeed.probe()
    # the run's own set-up is over before numpy is there to probe with
    setup = [hostspeed.scaled(setup_own, [cal])]
    setup_wall = [setup_own]

    def timed_child():
        nonlocal cal
        wall = child()
        after = hostspeed.probe()
        setup.append(hostspeed.scaled(wall, [cal, after]))
        setup_wall.append(wall)
        cal = after

    child_s = 0.0
    with runner.capture:
        t_start = perf_counter()
        k = 0
        while True:
            elapsed = perf_counter() - t_start - child_s
            if len(setup) <= SETUP_CHILDREN and (
                    elapsed >= (len(setup) - 1) * args.seconds / SETUP_CHILDREN):
                t0 = perf_counter()
                timed_child()
                child_s += perf_counter() - t0
            rec = runner.op(cases[k % len(cases)], configs[k % len(cases)], sampler=sampler)
            after = hostspeed.probe()
            blocks = [cal, *sampler.samples, after]
            rec["s_ref"] = hostspeed.scaled(rec["s"], blocks)
            rec["block_s"] = statistics.fmean(blocks)
            rec["blocks"] = len(blocks)
            cal = after
            k += 1
            if k % workload.stratum == 0:
                # stop at the cycle boundary nearest to --seconds
                elapsed = perf_counter() - t_start - child_s
                if elapsed * (1.0 + 0.5 * workload.stratum / k) >= args.seconds:
                    break
        measured_s = perf_counter() - t_start - child_s
    while len(setup) <= SETUP_CHILDREN:  # short runs end before every set-up had its turn
        timed_child()
    recs = runner.records
    ok = [r for r in recs if r["ok"]]
    failed = len(recs) - len(ok)
    times = [r["s_ref"] for r in ok]
    walls = [r["s"] for r in ok]
    stick = [r["stick_err"] for r in ok if r["stick_err"] is not None]
    if times:
        p50 = statistics.median(times)
        tail, tail_pct = _tail(times)
        rate = sum(r["work"] for r in ok) / sum(times)
        wall_p50 = statistics.median(walls)
    else:
        p50 = tail = tail_pct = rate = wall_p50 = 0.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (p50, "s"),
        "op_s_tail": (tail, "s"),
        "sim_rate": (rate, "ptu/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed_frac = failed / len(recs)
    stick_err = max(stick) if stick else None
    _print_table(
        f"perfbench {workload.name} seed={args.seed} trace=0 measured={measured_s:.2f}s",
        {**metrics, "failed_frac": (failed_frac, "ratio"),
         "stick_time_err": (stick_err if stick else float("nan"), "t"),
         "setup_wall_s": (statistics.median(setup_wall), "s"),
         "op_wall_s_p50": (wall_p50, "s")},
        {"setup_s": f"median of {len(setup)} set-ups, at reference host speed",
         "op_s_p50": f"{len(times)} ops, at reference host speed",
         "op_s_tail": f"p{tail_pct:.1f} of {len(times)} ops",
         "sim_rate": "particle-time units per reference second of operation",
         "failed_frac": f"{failed} of {len(recs)} ops",
         "stick_time_err": f"max of {len(stick)} sticking checks, tolerance {wl.STICK_TIME_TOL:g}",
         "setup_wall_s": "median wall time, not scaled",
         "op_wall_s_p50": "median wall time, not scaled"},
    )
    details = {
        "tail_percentile": tail_pct, "tail_samples": len(times), "failed_frac": failed_frac,
        "stick_time_err": stick_err, "measured_s": measured_s, "setup_runs_s": setup,
        "setup_runs_wall_s": setup_wall, "ref_block_s": hostspeed.REF_BLOCK_S,
    }
    return dict(correct=failed == 0, attempted=len(recs), failed=failed,
                metrics=metrics, details=details)


def trace_ops(workload, seconds: int) -> int:
    """Operations per traced pass: whole schedule cycles, about a third of
    --seconds per pass, and a function of the arguments only so that two
    traced runs with the same arguments do the same work."""
    cycle_s = 3.0 * workload.nominal_op_s * workload.stratum
    return workload.stratum * max(1, round(seconds / cycle_s))


def run_traced(args, wl, workload, cli, runner, cases) -> dict:
    from spans import Tracer, per_layer

    def one_pass(tracer=None):
        t0 = perf_counter()
        configs = [cli.parse_config(c.text, workload.command, str(runner.work)) for c in cases]
        for config in configs:
            cli.build_system(config.scenario)
        with runner.capture:
            for case, config in zip(cases, configs):
                runner.op(case, config, tracer)
        return perf_counter() - t0

    runner.warm_up()
    wall_plain = one_pass()
    with Tracer() as traced:
        t_origin = perf_counter()
        wall_traced = one_pass(traced)
    with Tracer() as again:
        one_pass(again)
    counts, counts_again = traced.deterministic_counts(), again.deterministic_counts()
    repeat_ok = counts == counts_again
    if not repeat_ok:
        diff = {k: (counts[k], counts_again[k]) for k in counts if counts[k] != counts_again[k]}
        print(f"perfbench: DETERMINISM FAILURE: traced counts differ between passes: {diff}",
              file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    traced.save(OUT / f"spans-{workload.name}-seed{args.seed}.npz", t_origin)

    recs = runner.records
    ok = [r for r in recs if r["ok"]]
    failed = len(recs) - len(ok)
    stick = [r["stick_err"] for r in ok if r["stick_err"] is not None]
    metrics = per_layer(traced)
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    fits, hits = counts["stick_fit.calls"], counts["stick_fit.hits"]
    hit_frac = hits / fits if fits else None
    stick_err = max(stick) if stick else None
    # not metrics: undefined on passes without fits or without sticking
    printed_only = {
        "stick_fit.hit_frac": (float("nan") if hit_frac is None else hit_frac, "ratio"),
        "stick_time_err": (float("nan") if stick_err is None else stick_err, "t"),
    }
    _print_table(f"perfbench {workload.name} seed={args.seed} trace=1 ops/pass={len(cases)}",
                 {**metrics, **printed_only},
                 {"stick_fit.hit_frac": f"{hits} of {fits} fits accepted",
                  "stick_time_err": f"max of {len(stick)} sticking checks"})
    details = {"ops_per_pass": len(cases), "stick_fit_hit_frac": hit_frac,
               "stick_time_err": stick_err, "counts": counts, "counts_repeat": counts_again,
               "counts_repeat_ok": repeat_ok,
               "pass_wall_s": {"untraced": wall_plain, "traced": wall_traced}}
    return dict(correct=failed == 0 and repeat_ok, attempted=len(recs), failed=failed,
                metrics=metrics, details=details)


def main(argv=None) -> int:
    if not (SRC / "flocksim" / "__init__.py").is_file():
        print(f"perfbench: no flocksim sources at {SRC}; run from a flocksim checkout",
              file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    import workloads as wl

    args = _parse_args(argv, sorted(wl.WORKLOADS))
    workload = wl.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    n_cases = trace_ops(workload, args.seconds) if args.trace else workload.pool
    cases = [workload.make(args.seed, slot) for slot in range(n_cases)]

    # set-up: import the package, parse every config, build every system
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import flocksim.cli as cli

    configs = [cli.parse_config(c.text, workload.command, str(work)) for c in cases]
    for config in configs:
        cli.build_system(config.scenario)
    setup_own = perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "flocksim":
        print(f"perfbench: imported flocksim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(wl, workload, args.seed, cli, work)
    try:
        if args.trace:
            result = run_traced(args, wl, workload, cli, runner, cases)
        else:
            result = run_timed(args, wl, workload, cli, runner, cases, configs, setup_own)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(parents=True, exist_ok=True)
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": _provenance(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["details"],
        "operations": runner.records,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["details"].get("counts_repeat_ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
