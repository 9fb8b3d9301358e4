"""Command-line surface: compute, verify and export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (any exception a command raises).  All numeric output is full
decimal, of any length, and every command is deterministic for fixed
arguments.

The parser is the only gate: each integer's `type` checks its lower bound,
and grids (`triangle`, `todd`) offer no b-file, so a usage error exits 2
from argparse before any engine is imported.  Once the arguments parse, an
exception from the command prints one `error: internal: ...` line and exits
3.

Each command imports only the modules it runs, so a cold `flick` process
pays for no engine it does not use.  `_LIBRARY` is exactly what the traced
benchmark (`bench/layers.py`) wraps by (module, attribute) on this module:
those names are attributes here, loaded on first read (PEP 562), and the
handlers call them through `_this`, the module they run in (`__main__`
under `python -m`).  Every other library function is imported inside its
handler.  The trace wraps `power_sum`, `fit_column_polynomial` and
`expand_rational` in their own modules, so an attribute here would wrap them
twice.

The writers build every format from decimal strings made once per distinct
value of a row and its row before, and write JSON by joining them, so no
command loads `json`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from itertools import zip_longest
from typing import Callable, Iterable, Iterator

from . import _lazy_getattr

__all__ = ["main"]

FORMATS = ("table", "csv", "json", "bfile")
GRID_FORMATS = FORMATS[:-1]  # a b-file holds one sequence

# The names the traced benchmark wraps on this module, and the module that
# defines each.
_LIBRARY = {
    "format_bfile": "bfile",
    "parse_bfile": "bfile",  # unused here: the trace times b-file parsing under it
    "todd_column": "todd",
    "todd_row": "todd",
    "kernel": "transforms",
    "row_sums": "transforms",
    "triangle_rows": "triangle",
    "run_suite": "verify",
}

__getattr__ = _lazy_getattr(globals(), _LIBRARY)
_this = sys.modules[__name__]


def _json_record(name: str, offset: int, values: str) -> str:
    """What `json.dumps` prints for {"name": name, "offset": offset, "values":
    ...}, given `values` already as JSON.  Names and decimal strings hold no
    character that JSON escapes."""
    return f'{{"name": "{name}", "offset": {offset}, "values": {values}}}'


def _json_strings(cells: Iterable[str]) -> str:
    """A JSON array of the strings `cells`, spaced as `json.dumps` spaces it."""
    return "[" + ", ".join(map('"{}"'.format, cells)) + "]"


def _sequence_output(name: str, values: list[int], offset: int, fmt: str) -> str:
    if fmt in ("table", "csv"):
        return ",".join(map(str, values))
    if fmt == "json":
        return _json_record(name, offset, _json_strings(map(str, values)))
    # "bfile": the parser admits no format outside FORMATS.
    return _this.format_bfile(values, offset).rstrip("\n")


def _decimal_rows(rows: list[list[int]]) -> Iterator[list[str]]:
    """Each row as decimal strings.  A value is converted once and its string
    reused where it appears again in its row or in the row after, so the
    memo holds two rows: an even triangle row repeats the odd slots of the
    row before."""
    before: dict[int, str] = {}
    for row in rows:
        strings = dict.fromkeys(row)
        for value in strings:
            strings[value] = before.get(value) or str(value)
        yield list(map(strings.__getitem__, row))
        before = strings


def _rows_output(name: str, rows: list[list[int]], offset: int, fmt: str) -> str:
    if fmt == "table":
        cells = list(_decimal_rows(rows))
        columns = zip_longest(*cells, fillvalue="")
        widths = [max(map(len, column)) for column in columns]
        return "\n".join("  ".join(map(str.rjust, row, widths)) for row in cells)
    if fmt == "csv":
        return "\n".join(map(",".join, _decimal_rows(rows)))
    # "json": the parser admits no format outside GRID_FORMATS.
    values = ", ".join(map(_json_strings, _decimal_rows(rows)))
    return _json_record(name, offset, f"[{values}]")


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


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse `type` for integers >= `low`; named `int`, so that a
    non-integer reads "invalid int value" as with plain `int`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_POSITIVE = _int_at_least(1)


def _cmd_triangle(args: argparse.Namespace) -> int:
    rows = _this.triangle_rows(args.rows, method=args.method).rows
    print(_rows_output("triangle", rows, 1, args.format))
    return 0


def _cmd_todd(args: argparse.Namespace) -> int:
    from .todd import _columns

    # One walk of the corner's columns, transposed into its rows.
    rows = list(map(list, zip(*_columns([args.rows] * args.cols))))
    print(_rows_output("todd", rows, 1, args.format))
    return 0


def _cmd_line(args: argparse.Namespace) -> int:
    # `row n` and `col k`: a prefix of one array row or column, printed under
    # the name of the function that computes it.
    index = getattr(args, args.axis)
    values = getattr(_this, args.name)(index, args.count)
    print(_sequence_output(f"{args.name}_{index}", values, 1, args.format))
    return 0


# `powersum --check` adds the n powers up to this n and above it compares
# residues mod the 32 primes from 1009 to 1223, whose product exceeds 10^97:
# here the naive loop costs about what the residues cost (2-10 ms, m <= 300).
_NAIVE_CHECK_LIMIT = 10**4


def _cmd_powersum(args: argparse.Namespace) -> int:
    from .powersum import power_sum, power_sum_naive, power_sum_residue

    value = power_sum(args.m, args.n).value
    print(value)
    if not args.check:
        return 0
    if args.n <= _NAIVE_CHECK_LIMIT:
        ok, verdict = value == power_sum_naive(args.m, args.n), "OK"
    else:
        # Below 35^2, trial division by 2 .. 34 finds every prime.
        primes = [p for p in range(1009, 1224) if all(p % d for d in range(2, 35))]
        ok = all(value % p == power_sum_residue(args.m, args.n, p) for p in primes)
        verdict = f"OK (residues mod the {len(primes)} primes from 1009 to 1223)"
    print(verdict if ok else "ERROR")
    return 0 if ok else 1


def _cmd_bell(args: argparse.Namespace) -> int:
    if args.kernels is None:
        seq = _this.row_sums(args.count)
        name = "bell"
    else:
        seq = _this.kernel(args.kernels, args.count)
        name = f"bell_kernel_{args.kernels}"
    print(_sequence_output(name, seq.values, seq.offset, args.format))
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    from .series import expand_rational, row_gf_full, row_gf_odd

    num, den = row_gf_odd(args.row) if args.odd else row_gf_full(args.row)
    coeffs = expand_rational(num, den, args.order)
    print(f"numerator: {num.to_str('x')}")
    print(f"denominator: {den.to_str('x')}")
    print("coefficients: " + ",".join(str(c) for c in coeffs))
    return 0


def _cmd_fitcol(args: argparse.Namespace) -> int:
    from .todd import fit_column_polynomial

    fit = fit_column_polynomial(args.m)
    print(f"column: {fit.column}")
    print(f"base: {fit.base.to_str('n')}")
    print(f"numerator: {fit.u_numerator.to_str('n')}")
    print(f"denominator: {fit.denominator}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = _this.run_suite()
    failures = 0
    for name, counterexample in results:
        if counterexample is None:
            print(f"PASS  {name}")
        else:
            failures += 1
            print(f"FAIL  {name}: {counterexample}")
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
    p.add_argument("--rows", type=_POSITIVE, required=True)
    p.add_argument(
        "--method", choices=("extraction", "recurrence"), default="recurrence"
    )
    p.add_argument("--format", choices=GRID_FORMATS, default="table")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("todd", help="print a corner of the array")
    p.add_argument("--rows", type=_POSITIVE, required=True)
    p.add_argument("--cols", type=_POSITIVE, required=True)
    p.add_argument("--format", choices=GRID_FORMATS, default="table")
    p.set_defaults(func=_cmd_todd)

    for command, axis, name, line in (
        ("row", "n", "todd_row", "row"),
        ("col", "k", "todd_column", "column"),
    ):
        p = sub.add_parser(command, help=f"print a prefix of an array {line}")
        p.add_argument(axis, type=_POSITIVE)
        p.add_argument("--count", type=_POSITIVE, required=True)
        p.add_argument("--format", choices=FORMATS, default="table")
        p.set_defaults(func=_cmd_line, axis=axis, name=name)

    p = sub.add_parser("powersum", help="sum of m-th powers 1..n, exactly")
    p.add_argument("m", type=_POSITIVE)
    p.add_argument("n", type=_POSITIVE)
    p.add_argument("--check", action="store_true", help="also run the naive oracle")
    p.set_defaults(func=_cmd_powersum)

    p = sub.add_parser("bell", help="row-sum sequence, or a transform kernel")
    p.add_argument("--count", type=_POSITIVE, required=True)
    p.add_argument(
        "--kernels",
        type=_int_at_least(0),
        metavar="Q",
        help="print the q-fold inverse binomial transform kernel instead",
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("gf", help="expand a row generating function")
    p.add_argument("--row", type=_POSITIVE, required=True)
    p.add_argument("--order", type=_POSITIVE, required=True)
    p.add_argument("--odd", action="store_true", help="odd-slot subsequence GF")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("fitcol", help="fit the closed form of odd column 2m+1")
    p.add_argument("m", type=_POSITIVE)
    p.set_defaults(func=_cmd_fitcol)

    p = sub.add_parser("verify", help="run the full property suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # Integers of any length: arguments are parsed, and results printed, in full.
    with _int_str_digits(0):
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except Exception as exc:
            print(f"error: internal: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
