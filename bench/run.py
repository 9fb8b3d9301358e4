"""The flick benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload powersum|cli|routes --seed N --seconds S --trace 0|1

Run from the root of a checkout: `flick` is imported from its src/.  With
--trace 0 the last line of standard output holds the end-to-end metrics,
with --trace 1 the per-layer metrics of one traced round.  Result and trace
files go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import cli_env

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = ("powersum", "cli", "routes")
SETUP_SAMPLES = 7
TAIL_PERCENTILE = 75  # the highest with ten samples beyond it in a 40-op round
DEADLINE_S = 170


def _worker_command(args: argparse.Namespace, scratch: Path, *extra: str) -> list[str]:
    return [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch), *extra,
    ]


def _setup_seconds(args: argparse.Namespace, scratch: Path, env: dict[str, str]) -> list[float]:
    """Process start until the first op could run, several times over.

    For powersum and routes that is a worker that sets up and stops; for cli
    it is a bare `flick --help`, the fixed cost of every invocation.
    """
    if args.workload == "cli":
        command = [sys.executable, "-m", "flick.cli", "--help"]
    else:
        command = _worker_command(args, scratch, "--setup-only")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=scratch, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if args.workload == "cli":
            ready = time.perf_counter() - start
        elif line.strip() != "ready":
            code = code or -1
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        samples.append(ready)
    return samples


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "flick" / "cli.py").is_file():
        print(f"error: no flick sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = out_dir / f"tmp-{tag}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = cli_env(ROOT)
    started = time.monotonic()
    try:
        setup = [] if args.trace else _setup_seconds(args, scratch, env)
        trace_out = out_dir / f"{tag}-spans.json"
        command = _worker_command(args, scratch, "--trace-out", str(trace_out))
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=scratch, text=True)
        try:
            stdout, _ = proc.communicate(timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("error: workload did not finish in time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    completed = raw["attempted"] - raw["failed"]
    if args.trace:
        metrics = raw.pop("per_layer")
    else:
        lat = raw["latencies"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": completed / raw["timed_s"], "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "op_tail_s": {"value": _percentile(lat, TAIL_PERCENTILE), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "setup_samples_s": setup, **{k: raw[k] for k in
              ("rounds", "ops", "timed_s", "failures", "errors", "latencies")}}
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    for line in raw["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    for reason, count in raw["failures"].items():
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print(f"{raw['rounds']} rounds of {len(raw['ops'])} ops, "
          f"{raw['timed_s']:.2f} s timed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
