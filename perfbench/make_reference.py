"""Regenerate ``reference.json``: the events of every pool config of the
default seed for the ``simulate`` workloads.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted; the benchmark fails an
operation at the default seed whose event kinds or groups differ from the
stored ones, or whose event times differ by more than
``workloads.REFERENCE_T_TOL``.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import flocksim.cli as cli  # noqa: E402
import workloads as wl  # noqa: E402
from run import _text_sha  # noqa: E402


def main() -> None:
    out = BENCH / "out" / "reference-work"
    data = {}
    for name in ("storm_1d", "swarm_2d"):
        workload = wl.WORKLOADS[name]
        data[name] = {}
        for slot in range(workload.pool):
            case = workload.make(wl.DEFAULT_SEED, slot)
            shutil.rmtree(out, ignore_errors=True)
            rc = cli.run_command(cli.parse_config(case.text, workload.command, str(out)))
            res = workload.check(case, out, None, [])
            if rc != 0 or not res.ok:
                raise SystemExit(f"{name} slot {slot}: exit {rc}, check: {res.message}")
            data[name][str(slot)] = {"sha256": _text_sha(case.text), "events": res.events}
            print(name, slot, len(res.events), "events", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    wl.REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
