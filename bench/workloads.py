"""The three workloads: how a seed becomes an op list, how the process warms
up, how one op runs and how its output is checked.

Every op list is a fixed set of strata (a kind of call and a base size);
the seed jitters the sizes a little inside each stratum, draws the actual
arguments and shuffles the order.  So seeds change the inputs while the
cost of a round stays comparable from seed to seed.  `flick` sees only the
generated arguments.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import checks
import layers

# An argument vector that fails every time: S_250(10^20) has 5018 digits and
# CPython refuses to print ints longer than 4300 digits by default.
KEPT_FAULT = ("powersum", "250", str(10**20))


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    pair: int = -1  # cli: cached triangle ops that share one cache directory


class OpFailed(Exception):
    """The program reported an error for this op."""


class Workload:
    """What worker.py drives: make_ops, setup, then per round new_round and
    run/check per op.  `preflight` checks state that set-up built."""

    in_process = True

    def new_round(self) -> None:
        pass

    def preflight(self, rng: random.Random) -> str | None:
        return None


def _jitter(rng: random.Random, base: int) -> int:
    # base or base - 2: parity changes the work (power_sum skips the zero
    # coefficients of odd m, half of them), so it stays that of the stratum.
    return base - 2 * rng.randint(0, 1)


def _digits(rng: random.Random, count: int) -> int:
    # Leading digit 5..9, so the bit length varies by one bit at most.
    return rng.randrange(5 * 10 ** (count - 1), 10**count)


# --- powersum ---------------------------------------------------------------

# (m, digits of n).  Every workload's strata fall into four cost classes
# (measured with warm tables): 14 cheap ops, then 12 of about one cost, where
# the median lands, then 8 of about one higher cost, where the 75th
# percentile lands, then 6 expensive ones.  So both quantiles measure a
# group of like ops rather than whichever op a seed puts at that rank.
POWERSUM_STRATA = [
    # cheap, 10-40 ms
    (80, 100), (100, 75), (100, 100), (120, 60), (120, 75), (140, 50), (140, 60),
    (160, 40), (160, 50), (180, 30), (180, 40), (200, 25), (260, 15), (300, 10),
    # median class, 45-70 ms
    (120, 100), (140, 90), (160, 60), (160, 65), (180, 55), (200, 50),
    (220, 40), (240, 40), (260, 35), (280, 25), (280, 35), (300, 25),
    # 75th-percentile class, 100-145 ms
    (160, 100), (180, 90), (220, 75), (240, 60), (260, 50), (280, 50), (300, 40), (300, 50),
    # expensive, 0.18-0.65 s
    (240, 75), (260, 75), (300, 75), (240, 100), (280, 90), (300, 100),
]


class PowerSum(Workload):
    """In-process power_sum(m, n) with the coefficient tables warm."""

    def make_ops(self, rng: random.Random) -> list[Op]:
        ops = [
            Op("power_sum", (_jitter(rng, m), _digits(rng, d)))
            for m, d in POWERSUM_STRATA
        ]
        rng.shuffle(ops)
        return ops

    def setup(self, ops: list[Op]) -> None:
        self.powersum = importlib.import_module("flick.powersum")
        coeff = self.powersum.triangle_entry_recurrence
        for m in sorted({op.args[0] for op in ops}):  # ascending keeps recursion shallow
            for k in range(1, m + 1):
                coeff(m, k)

    def run(self, op: Op) -> Any:
        return self.powersum.power_sum(*op.args).value

    def check(self, op: Op, result: Any, rng: random.Random) -> str | None:
        return checks.check_power_sum(*op.args, result)


# --- routes -----------------------------------------------------------------

# Sizes per kind, in the cost classes described above POWERSUM_STRATA:
#   cheap:  ogf 120, antidiagonal 360/480, extraction 90, todd_fd all,
#           todd_stirling 50/66/80, a008957_fd 80, a008957_stirling 60, fit 24
#   median: closed_form 56, ogf 140, antidiagonal 560/600, extraction
#           104/110, a008957_fd 96/100, a008957_stirling 70/76, fit 34/36
#   p75:    closed_form 70, ogf 170, extraction 130, todd_stirling 110,
#           a008957_fd 120, a008957_stirling 90, fit 42/44
#   costly: closed_form 80/90/100, ogf 200/220, extraction 140
ROUTES_STRATA = {
    "closed_form": [56, 70, 80, 90, 100],        # n
    "ogf": [120, 140, 170, 200, 220],            # order
    "antidiagonal": [360, 480, 560, 600],        # count
    "extraction": [90, 104, 110, 130, 140],      # rows
    "todd_fd": [60, 76, 90, 100],                # 8 x 8 block from (n0, n0)
    "todd_stirling": [50, 66, 80, 110],          # 8 x 8 block from (n0, n0)
    "a008957_fd": [80, 96, 100, 120],            # rows n0 .. n0 + 2, all k
    "a008957_stirling": [60, 70, 76, 90],        # rows n0 .. n0 + 2, all k
    "fit": [24, 34, 36, 42, 44],                 # m of column 2m + 1
}
BLOCK = 8


class Routes(Workload):
    """In-process non-default routes to each object, tables warm."""

    def make_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for kind, bases in ROUTES_STRATA.items():
            for base in bases:
                ops.append(Op(kind, (_jitter(rng, base),)))
        rng.shuffle(ops)
        return ops

    def setup(self, ops: list[Op]) -> None:
        names = ("series", "stirling", "todd", "transforms", "triangle")
        self.mod = {n: importlib.import_module(f"flick.{n}") for n in names}
        rows, cols, s2 = 1, 1, 1
        for op in ops:
            a = op.args
            if op.kind == "antidiagonal":
                rows, cols = max(rows, (a[0] + 1) // 2), max(cols, a[0])
            elif op.kind == "fit":
                rows, cols = max(rows, 4 * a[0] + 5), max(cols, 2 * a[0] + 1)
            elif op.kind == "todd_stirling":
                s2 = max(s2, 3 * (a[0] + BLOCK))
            elif op.kind == "a008957_stirling":
                s2 = max(s2, 2 * (a[0] + 2))
        self.mod["todd"].todd_recurrence(rows, cols)
        self.mod["stirling"].stirling2(s2, 0)
        self.s2_rows = s2

    def preflight(self, rng: random.Random) -> str | None:
        """Checks of the warm tables and of the paper's fits, outside any op."""
        stirling = self.mod["stirling"]
        sample = {}
        for _ in range(40):
            n = rng.randint(0, self.s2_rows)
            k = rng.randint(0, n)
            sample[(n, k)] = stirling.stirling2(n, k)
        fit = self.mod["todd"].fit_column_polynomial
        results = [checks.check_stirling2(sample)]
        for m in checks.PAPER_FITS:
            f = fit(m)
            results.append(checks.check_fit(m, list(f.u_numerator.coeffs), f.denominator))
        return next((r for r in results if r), None)

    def run(self, op: Op) -> Any:
        series, stirling, todd = self.mod["series"], self.mod["stirling"], self.mod["todd"]
        a = op.args
        if op.kind == "closed_form":
            return series.bell_closed_form(a[0])
        if op.kind == "ogf":
            return series.bell_ogf_coefficients(a[0])
        if op.kind == "antidiagonal":
            return self.mod["transforms"].antidiagonal_sums(a[0]).values
        if op.kind == "extraction":
            return self.mod["triangle"].triangle_rows(a[0], "extraction").rows
        if op.kind in ("todd_fd", "todd_stirling"):
            fn = todd.todd_finite_difference if op.kind == "todd_fd" else todd.todd_stirling
            return {
                (n, k): fn(n, k)
                for n in range(a[0], a[0] + BLOCK)
                for k in range(a[0], a[0] + BLOCK)
            }
        if op.kind in ("a008957_fd", "a008957_stirling"):
            fn = stirling.a008957_fd if op.kind == "a008957_fd" else stirling.a008957_stirling
            return {(n, k): fn(n, k) for n in range(a[0], a[0] + 3) for k in range(1, n + 1)}
        if op.kind == "fit":
            f = todd.fit_column_polynomial(a[0])
            return list(f.u_numerator.coeffs), f.denominator
        raise ValueError(op.kind)

    def check(self, op: Op, result: Any, rng: random.Random) -> str | None:
        a = op.args
        if op.kind == "closed_form":
            return checks.check_bell([result], first=a[0])
        if op.kind == "ogf":
            if len(result) != a[0] - 1:
                return f"ogf({a[0]}) gave {len(result)} terms"
            return checks.check_bell(result)
        if op.kind == "antidiagonal":
            if len(result) != a[0]:
                return f"antidiagonal({a[0]}) gave {len(result)} terms"
            return checks.check_bell(result)
        if op.kind == "extraction":
            if len(result) != a[0]:
                return f"extraction({a[0]}) gave {len(result)} rows"
            return checks.check_triangle_rows(result, rng)
        if op.kind in ("todd_fd", "todd_stirling"):
            return checks.check_todd(result)
        if op.kind in ("a008957_fd", "a008957_stirling"):
            return checks.check_a008957(result)
        if op.kind == "fit":
            return checks.check_fit(a[0], *result)
        raise ValueError(op.kind)


# --- cli ----------------------------------------------------------------------

# One op per entry and round, in the cost classes described above
# POWERSUM_STRATA (each op includes a fresh interpreter, about 0.1 s):
#   cheap:  row, col, todd, powersum 120, triangle 160, kernel 2, cached 200
#   median: powersum 200-380, the kept fault, bell 400/450, kernels 3/4,
#           triangle 240/260/280
#   p75:    powersum 420/450, kernels 5/6, bell 550, triangle 320, cached 300
#   costly: verify, kernel 8, triangle 580, cached 450
CLI_TRIANGLE = [(160, "csv"), (240, "table"), (260, "csv"), (280, "csv"), (320, "json"), (580, "csv")]
CLI_TRIANGLE_CACHED = [(200, "csv"), (300, "table"), (450, "json")]  # written, then read
CLI_BELL = [400, 450, 550]
CLI_KERNELS = [(2, 150), (3, 200), (4, 200), (5, 200), (6, 230), (8, 280)]
CLI_TODD = [(20, 40), (30, 50), (40, 60)]
CLI_ROW = [(15, 150), (30, 200), (45, 250)]
CLI_COL = [(9, 120), (15, 150), (21, 180)]
CLI_VERIFY = 2
# (M, digits of N) with (M + 1) * digits <= 4300, so S_M(N) prints in at most
# 4300 digits; M stays well below the cold recursion limit near M = 500.
CLI_POWERSUM = [(120, 30), (200, 20), (280, 14), (350, 11), (380, 10), (420, 10), (450, 9)]


class Cli(Workload):
    """One fresh `python -m flick.cli` process per op, one at a time."""

    in_process = False

    def __init__(self, root: Path, scratch: Path, trace: bool) -> None:
        self.root, self.scratch, self.trace = root, scratch, trace
        self.env = cli_env(root)
        self.round = 0
        self.layer_totals: dict[str, dict[str, float]] = {}
        self.spans: list[list[Any]] = []
        self.absent: dict[str, str] = {}

    def make_ops(self, rng: random.Random) -> list[Op]:
        units: list[list[Op]] = []
        for rows, fmt in CLI_TRIANGLE:
            units.append([Op("triangle", ("--rows", str(_jitter(rng, rows)), "--format", fmt))])
        for pair, (rows, fmt) in enumerate(CLI_TRIANGLE_CACHED):
            args = ("--rows", str(_jitter(rng, rows)), "--format", fmt)
            units.append([Op("triangle", args, pair), Op("triangle", args, pair)])
        for count in CLI_BELL:
            units.append([Op("bell", ("--count", str(_jitter(rng, count))))])
        for q, count in CLI_KERNELS:
            units.append([Op("bell", ("--kernels", str(q), "--count", str(_jitter(rng, count))))])
        for rows, cols in CLI_TODD:
            args = ("--rows", str(_jitter(rng, rows)), "--cols", str(_jitter(rng, cols)))
            units.append([Op("todd", args)])
        for n, count in CLI_ROW:
            units.append([Op("row", (str(_jitter(rng, n)), "--count", str(_jitter(rng, count))))])
        for k, count in CLI_COL:
            units.append([Op("col", (str(_jitter(rng, k)), "--count", str(_jitter(rng, count))))])
        units += [[Op("verify", ())] for _ in range(CLI_VERIFY)]
        for m, d in CLI_POWERSUM:
            units.append([Op("powersum", (str(_jitter(rng, m)), str(_digits(rng, d))))])
        units.append([Op("powersum", KEPT_FAULT[1:])])
        rng.shuffle(units)
        return [op for unit in units for op in unit]

    def setup(self, ops: list[Op]) -> None:
        # This process never imports flick, so it may parse outputs of any
        # length (a fixed KEPT_FAULT op prints more than 4300 digits).
        checks.lift_int_str_limit()

    def new_round(self) -> None:
        self.round += 1
        shutil.rmtree(self.scratch / "cache", ignore_errors=True)

    def run(self, op: Op) -> Any:
        env = dict(self.env)
        if op.pair >= 0:
            env["FLICK_CACHE_DIR"] = str(self.scratch / "cache" / f"r{self.round}-p{op.pair}")
        argv = [op.kind, *op.args]
        if self.trace:
            trace_file = self.scratch / "op-trace.json"
            command = [sys.executable, str(self.root / "bench" / "bootstrap.py"), str(trace_file)]
            command += [str(time.monotonic_ns()), "--", *argv]
        else:
            command = [sys.executable, "-m", "flick.cli", *argv]
        proc = subprocess.run(command, capture_output=True, env=env, cwd=self.scratch, timeout=120)
        if self.trace:
            self._collect(trace_file, len(proc.stdout))
        if proc.returncode != 0:
            last = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            raise OpFailed(f"exit {proc.returncode}: {last[0][:160]}")
        return proc.stdout.decode()

    def _collect(self, trace_file: Path, output_bytes: int) -> None:
        data = json.loads(trace_file.read_text())
        trace_file.unlink()
        data["totals"]["cli.output"] = {"calls": 1, "total_s": 0, "self_s": 0, "size": output_bytes}
        layers.merge(self.layer_totals, data["totals"])
        self.spans.append(data["spans"])
        self.absent.update(data["absent"])

    def check(self, op: Op, out: str, rng: random.Random) -> str | None:
        if op.kind == "triangle":
            rows_wanted, fmt = int(op.args[1]), op.args[3]
            rows = _parse_grid(out, fmt, "triangle")
            if len(rows) != rows_wanted:
                return f"triangle printed {len(rows)} rows, wanted {rows_wanted}"
            return checks.check_triangle_rows(rows, rng)
        if op.kind == "bell":
            values = _parse_list(out)
            if op.args[0] == "--kernels":
                q, count = int(op.args[1]), int(op.args[3])
                error = None if len(values) == count else f"{len(values)} kernel terms"
                return error or checks.check_kernel(q, values)
            if len(values) != int(op.args[1]):
                return f"bell printed {len(values)} terms"
            return checks.check_bell(values)
        if op.kind == "todd":
            rows, cols = int(op.args[1]), int(op.args[3])
            grid = _parse_grid(out, "table", "todd")
            if len(grid) != rows or any(len(r) != cols for r in grid):
                return "todd corner has the wrong shape"
            return checks.check_todd(checks.todd_grid(grid))
        if op.kind in ("row", "col"):
            index, count = int(op.args[0]), int(op.args[2])
            values = _parse_list(out)
            if len(values) != count:
                return f"{op.kind} printed {len(values)} values"
            if op.kind == "row":
                return checks.check_todd({(index, k): v for k, v in enumerate(values, 1)})
            return checks.check_todd({(n, index): v for n, v in enumerate(values, 1)})
        if op.kind == "verify":
            lines = out.strip().splitlines()
            passed = sum(line.startswith("PASS  ") for line in lines[:-1])
            if passed != len(lines) - 1 or lines[-1] != f"all {passed} checks passed":
                return "verify did not pass every check"
            return None
        if op.kind == "powersum":
            return checks.check_power_sum(int(op.args[0]), int(op.args[1]), int(out.strip()))
        raise ValueError(op.kind)


def _parse_list(out: str) -> list[int]:
    return [int(v) for v in out.strip().split(",")]


def _parse_grid(out: str, fmt: str, name: str) -> list[list[int]]:
    if fmt == "json":
        data = json.loads(out)
        if data.get("name") != name or data.get("offset") != 1:
            raise ValueError(f"unexpected json header {data.get('name')!r}")
        return [[int(v) for v in row] for row in data["values"]]
    sep = "," if fmt == "csv" else None
    return [[int(v) for v in line.split(sep)] for line in out.splitlines()]


def cli_env(root: Path) -> dict[str, str]:
    """The environment every flick process gets: this checkout's sources,
    no cache directory and CPython's default int-to-str limit."""
    drop = ("FLICK_CACHE_DIR", "PYTHONINTMAXSTRDIGITS", "PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(root / "src")
    return env
