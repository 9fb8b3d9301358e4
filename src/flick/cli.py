"""Command-line surface: compute, verify and export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an arithmetic fault such as an inexact division, a recursion limit, an
operating-system error, or running out of memory).  All numeric output is full
decimal, of any length, and every command is deterministic for fixed
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator

from .bfile import format_bfile
# Unused here: bench/layers.py times b-file parsing under this name.
from .bfile import parse_bfile  # noqa: F401
from .powersum import power_sum, power_sum_naive
from .series import expand_rational, row_gf_full, row_gf_odd
from .todd import fit_column_polynomial, todd_column, todd_row
from .transforms import kernel, row_sums
from .triangle import triangle_rows
from .verify import run_suite

__all__ = ["main"]

FORMATS = ("table", "csv", "json", "bfile")


class UsageError(Exception):
    """Bad argument values; reported on stderr with exit code 2."""


def _sequence_output(name: str, values: list[int], offset: int, fmt: str) -> str:
    if fmt in ("table", "csv"):
        return ",".join(str(v) for v in values)
    if fmt == "json":
        return json.dumps(
            {"name": name, "offset": offset, "values": [str(v) for v in values]}
        )
    if fmt == "bfile":
        return format_bfile(values, offset).rstrip("\n")
    raise UsageError(f"unknown format {fmt!r}")


def _grid_output(name: str, rows: list[list[int]], offset: int, fmt: str) -> str:
    if fmt == "table":
        widths: dict[int, int] = {}
        for row in rows:
            for i, v in enumerate(row):
                widths[i] = max(widths.get(i, 0), len(str(v)))
        lines = [
            "  ".join(str(v).rjust(widths[i]) for i, v in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines)
    if fmt == "csv":
        return "\n".join(",".join(str(v) for v in row) for row in rows)
    if fmt == "json":
        return json.dumps(
            {
                "name": name,
                "offset": offset,
                "values": [[str(v) for v in row] for row in rows],
            }
        )
    if fmt == "bfile":
        raise UsageError("bfile output applies only to one-dimensional sequences")
    raise UsageError(f"unknown format {fmt!r}")


@contextmanager
def _int_str_digits(limit: int) -> Iterator[None]:
    """Run the block under CPython's int/str conversion limit `limit` (0: none).

    Interpreters without the limit (before 3.10.7) run the block unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _require_positive(**named: int) -> None:
    for label, value in named.items():
        if value < 1:
            raise UsageError(f"{label} must be >= 1, got {value}")


def _cmd_triangle(args: argparse.Namespace) -> int:
    _require_positive(rows=args.rows)
    rows = triangle_rows(args.rows, method=args.method).rows
    print(_grid_output("triangle", rows, 1, args.format))
    return 0


def _cmd_todd(args: argparse.Namespace) -> int:
    _require_positive(rows=args.rows, cols=args.cols)
    rows = [todd_row(n, args.cols) for n in range(1, args.rows + 1)]
    print(_grid_output("todd", rows, 1, args.format))
    return 0


def _cmd_line(args: argparse.Namespace) -> int:
    # `row n` and `col k`: a prefix of one array row or column.
    index = getattr(args, args.axis)
    _require_positive(**{args.axis: index, "count": args.count})
    values = args.line(index, args.count)
    print(_sequence_output(f"{args.name}_{index}", values, 1, args.format))
    return 0


def _cmd_powersum(args: argparse.Namespace) -> int:
    _require_positive(m=args.m, n=args.n)
    result = power_sum(args.m, args.n)
    print(result.value)
    if args.check:
        if result.value == power_sum_naive(args.m, args.n):
            print("OK")
        else:
            print("ERROR")
            return 1
    return 0


def _cmd_bell(args: argparse.Namespace) -> int:
    _require_positive(count=args.count)
    if args.kernels is None:
        seq = row_sums(args.count)
        name = "bell"
    else:
        if args.kernels < 0:
            raise UsageError(f"--kernels must be >= 0, got {args.kernels}")
        seq = kernel(args.kernels, args.count)
        name = f"bell_kernel_{args.kernels}"
    print(_sequence_output(name, seq.values, seq.offset, args.format))
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    _require_positive(row=args.row, order=args.order)
    gf = row_gf_odd(args.row) if args.odd else row_gf_full(args.row)
    coeffs = expand_rational(gf, args.order)
    print(f"numerator: {gf.num.to_str('x')}")
    print(f"denominator: {gf.den.to_str('x')}")
    print("coefficients: " + ",".join(str(c) for c in coeffs))
    return 0


def _cmd_fitcol(args: argparse.Namespace) -> int:
    _require_positive(m=args.m)
    fit = fit_column_polynomial(args.m)
    print(f"column: {fit.column}")
    print(f"base: {fit.base.to_str('n')}")
    print(f"numerator: {fit.u_numerator.to_str('n')}")
    print(f"denominator: {fit.denominator}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite()
    failures = 0
    for name, result in results:
        if result:
            print(f"PASS  {name}")
        else:
            failures += 1
            print(f"FAIL  {name}: {result.counterexample}")
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flick",
        description=(
            "Exact generators and cross-checks for the flickering "
            "central factorial triangle, its companion array and integer-only "
            "power sums."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="print triangle rows")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument(
        "--method", choices=("extraction", "recurrence"), default="recurrence"
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("todd", help="print a corner of the array")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=_cmd_todd)

    p = sub.add_parser("row", help="print a prefix of an array row")
    p.add_argument("n", type=int)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=_cmd_line, axis="n", line=todd_row, name="todd_row")

    p = sub.add_parser("col", help="print a prefix of an array column")
    p.add_argument("k", type=int)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=_cmd_line, axis="k", line=todd_column, name="todd_column")

    p = sub.add_parser("powersum", help="sum of m-th powers 1..n, exactly")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true", help="also run the naive oracle")
    p.set_defaults(func=_cmd_powersum)

    p = sub.add_parser("bell", help="row-sum sequence, or a transform kernel")
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--kernels",
        type=int,
        default=None,
        metavar="Q",
        help="print the q-fold inverse binomial transform kernel instead",
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("gf", help="expand a row generating function")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--odd", action="store_true", help="odd-slot subsequence GF")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("fitcol", help="fit the closed form of odd column 2m+1")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_fitcol)

    p = sub.add_parser("verify", help="run the full property suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Results are printed in full however long they are; arguments were
        # parsed above under the default limit.
        with _int_str_digits(0):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RecursionError, OSError, MemoryError) as exc:
        print(f"error: internal: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
