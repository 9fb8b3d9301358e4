"""Traced stand-in for `python -m flick.cli`.

    python3 bench/bootstrap.py TRACE_FILE SPAWN_NS -- ARGS...

imports flick.cli, wraps the bindings in layers.py, calls flick.cli.main
with ARGS and writes the spans to TRACE_FILE before exiting with main's exit
code.  SPAWN_NS is time.monotonic_ns() in the parent just before it started
this process, so the time until main runs is the start-up cost.
"""

import json
import sys
import time

import flick.cli

import layers
from timing import Recorder


def main() -> int:
    trace_file, spawned_ns = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[4:]
    recorder = Recorder()
    absent = layers.install(recorder)
    cli_main = recorder.wrap(flick.cli.main, "cli.main")
    recorder.add("cli.startup", (time.monotonic_ns() - spawned_ns) / 1e9)
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump({"totals": recorder.summary(), "spans": recorder.dump()["spans"],
                       "absent": absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
