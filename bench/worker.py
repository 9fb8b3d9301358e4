"""One workload in one fresh process: set up, print `ready`, then run the op
list in whole rounds as a closed loop with one caller, checking each output
between ops, and print the raw result as one JSON line.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path

import layers
import workloads
from timing import Recorder

ROOT = Path(__file__).resolve().parents[1]


def _make(args: argparse.Namespace):
    if args.workload == "powersum":
        return workloads.PowerSum()
    if args.workload == "routes":
        return workloads.Routes()
    return workloads.Cli(ROOT, Path(args.scratch), bool(args.trace))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = _make(args)
    ops = workload.make_ops(random.Random(args.seed))
    recorder = Recorder()
    absent: dict[str, str] = {}
    if args.trace and workload.in_process:
        absent = layers.install(recorder)
    workload.setup(ops)
    if workload.in_process:
        import flick

        if ROOT / "src" not in Path(flick.__file__).resolve().parents:
            raise SystemExit(f"flick imported from {flick.__file__}, not from this checkout")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    errors: list[str] = []
    error = workload.preflight(random.Random(args.seed + 1))
    if error:
        errors.append(f"preflight: {error}")
    latencies: list[float] = []
    failures: dict[str, int] = {}
    timed = 0.0
    rounds = 0
    while rounds == 0 or (not args.trace and timed < args.seconds):
        workload.new_round()
        for index, op in enumerate(ops):
            ok, result, seconds = recorder.call(f"op.{op.kind}", lambda: workload.run(op))
            latencies.append(seconds)
            timed += seconds
            if not ok:
                reason = f"{op.kind}: {type(result).__name__}: {str(result)[:160]}"
                failures[reason] = failures.get(reason, 0) + 1
                continue
            try:
                error = workload.check(op, result, random.Random(args.seed * 1_000_003 + index))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"[:200]
            if error:
                errors.append(f"{op.kind} {op.args}: {error}"[:300])
            del result
        rounds += 1
    workload.new_round()  # removes the last round's cache directories

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    out = {
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "correct": not errors,
        "errors": errors[:20],
        "failures": failures,
        "latencies": latencies,
        "timed_s": timed,
        "rounds": rounds,
        "ops": [" ".join([op.kind, *map(str, op.args)]) for op in ops],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if args.trace:
        if workload.in_process:
            totals, spans = recorder.summary(), [recorder.dump()["spans"]]
        else:
            totals, spans, absent = workload.layer_totals, workload.spans, workload.absent
        out["per_layer"] = layers.metrics(totals, absent)
        Path(args.trace_out).write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "totals": totals,
                        "absent": absent, "spans": spans})
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
