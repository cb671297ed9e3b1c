"""One fresh-interpreter set-up for the benchmark's ``setup_s``.

Reads ``{"src": ..., "command": ..., "texts": [...]}`` on stdin, then times
importing ``flocksim``, parsing every config and building every system,
and prints the seconds.  Run by ``run.py``; not meant to be run by hand.
"""

import json
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import flocksim.cli as cli

    for text in job["texts"]:
        cli.build_system(cli.parse_config(text, job["command"], job["out"]).scenario)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
