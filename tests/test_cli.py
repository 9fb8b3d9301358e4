from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber import faulhaber_sum
from flick.bfile import parse_bfile
from flick.cli import FORMATS, _int_str_digits, main
from flick.exact import InexactDivisionError, exact_div
from flick.verify import REFERENCE_BELL, REFERENCE_KERNELS, REFERENCE_TABLE


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_table(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--rows", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "1",
        "1,1",
        "1,0,1",
        "1,1,2,1",
        "1,0,5,0,1",
    ]
    # The default table right-aligns each column to its widest entry.
    code, out, _ = run_cli(capsys, "triangle", "--rows", "8")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "1  1  10   5   3   1",
        "1  0  21   0  14   0  1",
        "1  1  42  21  42  14  4  1",
    ]


def test_triangle_methods_identical_output(capsys):
    code, by_extraction, _ = run_cli(
        capsys, "triangle", "--rows", "40", "--method", "extraction"
    )
    assert code == 0
    code, by_recurrence, _ = run_cli(
        capsys, "triangle", "--rows", "40", "--method", "recurrence"
    )
    assert code == 0
    assert by_extraction == by_recurrence


def test_triangle_json_single_row(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--rows", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [["1"]]
    assert payload["offset"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["triangle", "--rows", "12"],
        ["triangle", "--rows", "12", "--method", "extraction"],
        ["todd", "--rows", "6", "--cols", "9"],
        ["row", "4", "--count", "9"],
        ["col", "5", "--count", "9"],
        ["bell", "--count", "12"],
        ["bell", "--kernels", "3", "--count", "12"],
    ],
    ids=["triangle", "triangle-extraction", "todd", "row", "col", "bell", "kernels"],
)
def test_json_output_is_what_json_dumps_prints(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


def _plain_grid(rows: list[list[int]], fmt: str) -> str:
    """A grid rendered with one str() per entry: csv, or the table, each
    column right-aligned to its widest entry and joined by two spaces."""
    cells = [[str(v) for v in row] for row in rows]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells)
    widths: dict[int, int] = {}
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths.get(i, 0), len(cell))
    return "".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) + "\n"
        for row in cells
    )


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_grids_print_as_plain_str_renderings(capsys, fmt):
    # Each value is converted once and its string reused in the next row;
    # every row count from 1 to 12 pins that memo and the column widths.
    from flick.todd import todd_row
    from flick.triangle import triangle_rows

    for method in ("recurrence", "extraction"):
        rows = triangle_rows(12, method=method).rows
        for count in range(1, 13):
            argv = ["--rows", str(count), "--method", method, "--format", fmt]
            code, out, _ = run_cli(capsys, "triangle", *argv)
            assert code == 0
            assert out == _plain_grid(rows[:count], fmt)
    corner = [todd_row(n, 11) for n in range(1, 8)]
    argv = ["--rows", "7", "--cols", "11", "--format", fmt]
    assert run_cli(capsys, "todd", *argv) == (0, _plain_grid(corner, fmt), "")


def usage_error(capsys, *argv: str) -> str:
    """The parser's error line for `argv`, which must exit 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, *_, error = captured.err.splitlines()
    assert usage.startswith(f"usage: flick {argv[0]} ")
    return error


def test_triangle_bfile_is_usage_error(capsys):
    # A b-file holds one sequence: grids offer only table, csv and json.
    for argv in (["triangle", "--rows", "3"], ["todd", "--rows", "3", "--cols", "3"]):
        error = usage_error(capsys, *argv, "--format", "bfile")
        assert error.startswith(
            f"flick {argv[0]}: error: argument --format: invalid choice: 'bfile'"
        )


def test_todd_matches_reference_corner(capsys):
    code, out, _ = run_cli(capsys, "todd", "--rows", "5", "--cols", "8", "--format", "csv")
    assert code == 0
    rows = [[int(v) for v in line.split(",")] for line in out.splitlines()]
    assert rows == REFERENCE_TABLE


def test_row_and_col(capsys):
    code, out, _ = run_cli(capsys, "col", "3", "--count", "5")
    assert code == 0
    assert out.strip() == "1,5,14,30,55"
    code, out, _ = run_cli(capsys, "row", "1", "--count", "4")
    assert code == 0
    assert out.strip() == "1,1,1,1"


def test_powersum_check_ok(capsys):
    code, out, _ = run_cli(capsys, "powersum", "3", "4", "--check")
    assert code == 0
    assert out.splitlines() == ["100", "OK"]


def test_powersum_plain(capsys):
    code, out, _ = run_cli(capsys, "powersum", "1", "1")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "powersum", "10", "100", "--check")
    assert code == 0
    assert out.splitlines()[1] == "OK"


def test_powersum_prints_results_over_4300_digits(capsys):
    limit = sys.get_int_max_str_digits()
    n = 10**20
    code, out, _ = run_cli(capsys, "powersum", "250", str(n))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted inside main only
    digits = out.strip()
    assert len(digits) == 5018
    # Read back in two pieces so that no conversion exceeds the default limit.
    head, tail = digits[:-4000], digits[-4000:]
    assert int(head) * 10**4000 + int(tail) == faulhaber_sum(250, n)


def test_powersum_parses_arguments_over_4300_digits(capsys):
    n = 10**4399 + 7
    code, out, _ = run_cli(capsys, "powersum", "3", "1" + "0" * 4398 + "7")
    assert code == 0
    with _int_str_digits(0):
        assert int(out) == (n * (n + 1) // 2) ** 2


def test_bell_sequence(monkeypatch, capsys):
    code, out, _ = run_cli(capsys, "bell", "--count", "10")
    assert code == 0
    assert out.strip() == ",".join(map(str, REFERENCE_BELL))
    # The smallest count that row_sums takes.
    assert run_cli(capsys, "bell", "--count", "1") == (0, "1\n", "")
    # An interpreter without the int/str digit limit (before 3.10.7).
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run_cli(capsys, "bell", "--count", "5") == (0, "1,2,2,5,7\n", "")


def test_bell_kernel(capsys):
    code, out, _ = run_cli(capsys, "bell", "--kernels", "4", "--count", "7")
    assert code == 0
    assert out.strip() == ",".join(map(str, REFERENCE_KERNELS[4]))
    # Count 2: the leading one and one Bell term, 1 and 1 - 3 * 1.
    assert run_cli(capsys, "bell", "--kernels", "3", "--count", "2") == (0, "1,-2\n", "")


def test_bell_bfile_offsets(capsys):
    code, out, _ = run_cli(capsys, "bell", "--count", "4", "--format", "bfile")
    assert code == 0
    assert parse_bfile(out) == (1, REFERENCE_BELL[:4])
    code, out, _ = run_cli(
        capsys, "bell", "--kernels", "2", "--count", "4", "--format", "bfile"
    )
    assert code == 0
    assert parse_bfile(out) == (0, REFERENCE_KERNELS[2][:4])


def test_gf_full_and_odd(capsys):
    code, out, _ = run_cli(capsys, "gf", "--row", "3", "--order", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "numerator: x + 3*x^2"
    assert lines[2] == "coefficients: 0,1,3,14,42,147,441,1408,4224"
    code, out, _ = run_cli(capsys, "gf", "--row", "2", "--order", "5", "--odd")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "denominator: 1 - 5*x + 4*x^2"
    assert lines[2] == "coefficients: 0,1,5,21,85"


def test_fitcol(capsys):
    code, out, _ = run_cli(capsys, "fitcol", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "column: 5"
    assert lines[2] == "numerator: -1 + 5*n"
    assert lines[3] == "denominator: 360"


def test_verify_reports_a_failed_check_and_exits_1(monkeypatch, capsys):
    import flick.verify

    checks = list(flick.verify._CHECKS)
    name, _ = checks[3]
    checks[3] = (name, lambda: iter([(4, 2, 5, 0)]))
    monkeypatch.setattr(flick.verify, "_CHECKS", checks)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == f"FAIL  {name}: (4, 2, 5, 0)"
    assert sum(line.startswith("PASS  ") for line in lines) == len(checks) - 1
    assert lines[-1] == f"1 of {len(checks)} checks failed"


def _raise_value_error():
    raise ValueError("need 1 <= k <= n, got n=3, k=4")


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    import flick.verify

    faults = [
        (lambda: exact_div(7, 2), "('raised', 'InexactDivisionError', '7 is not divisible by 2')"),
        # Not an arithmetic fault: still this check's failure, not a usage error.
        (_raise_value_error, "('raised', 'ValueError', 'need 1 <= k <= n, got n=3, k=4')"),
    ]
    for fault, raised in faults:
        checks = list(flick.verify._CHECKS)
        name, _ = checks[12]
        checks[12] = (name, fault)
        monkeypatch.setattr(flick.verify, "_CHECKS", checks)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert len(checks) == 33
        assert sum(line.startswith("PASS  ") for line in lines) == 32
        assert lines[12] == f"FAIL  {name}: {raised}"
        assert lines[-1] == "1 of 33 checks failed"


def test_verify_has_no_bound_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--max-n", "5"])
    assert excinfo.value.code == 2


def test_powersum_check_mismatch_exits_1(monkeypatch, capsys):
    import flick.powersum

    monkeypatch.setattr(flick.powersum, "power_sum_naive", lambda m, n: 0)
    code, out, _ = run_cli(capsys, "powersum", "5", "10", "--check")
    assert code == 1
    assert out.splitlines() == [str(faulhaber_sum(5, 10)), "ERROR"]


_RESIDUES_OK = "OK (residues mod the 32 primes from 1009 to 1223)"


def test_powersum_check_compares_residues_above_ten_thousand(monkeypatch, capsys):
    # Up to n = 10^4 the check adds the n powers; above it, which the naive
    # loop would take hours to reach at n = 10^20, it compares residues.
    import flick.powersum

    naive = []
    monkeypatch.setattr(flick.powersum, "power_sum_naive", lambda m, n: naive.append(n))
    for n in (10**4 + 1, 10**20):
        code, out, _ = run_cli(capsys, "powersum", "5", str(n), "--check")
        assert (code, out.splitlines()) == (0, [str(faulhaber_sum(5, n)), _RESIDUES_OK])
    assert naive == []


def test_powersum_residue_check_mismatch_exits_1(monkeypatch, capsys):
    # The error is the product of every prime below 1223, so that only the
    # last of the 32 residues can catch it.
    import flick.powersum

    error = math.prod(p for p in range(1009, 1223) if all(p % d for d in range(2, 35)))
    power_sum = flick.powersum.power_sum
    monkeypatch.setattr(
        flick.powersum,
        "power_sum",
        lambda m, n: power_sum(m, n)._replace(value=power_sum(m, n).value + error),
    )
    code, out, _ = run_cli(capsys, "powersum", "5", str(10**20), "--check")
    assert code == 1
    assert out.splitlines() == [str(faulhaber_sum(5, 10**20) + error), "ERROR"]


def test_deterministic_output(capsys):
    first = run_cli(capsys, "bell", "--count", "15", "--format", "json")
    second = run_cli(capsys, "bell", "--count", "15", "--format", "json")
    assert first == second
    first = run_cli(capsys, "triangle", "--rows", "12", "--format", "table")
    second = run_cli(capsys, "triangle", "--rows", "12", "--format", "table")
    assert first == second


def test_usage_errors_exit_2(capsys):
    cases = [
        (["triangle", "--rows", "0"], "--rows: must be >= 1, got 0"),
        (["triangle", "--rows", "x"], "--rows: invalid int value: 'x'"),
        (["todd", "--rows", "2", "--cols", "-1"], "--cols: must be >= 1, got -1"),
        (["powersum", "0", "4"], "m: must be >= 1, got 0"),
        (["col", "3", "--count", "0"], "--count: must be >= 1, got 0"),
        (["bell", "--kernels", "-1"], "--kernels: must be >= 0, got -1"),
        (["gf", "--row", "2", "--order", "0"], "--order: must be >= 1, got 0"),
        (["fitcol", "0"], "m: must be >= 1, got 0"),
    ]
    for argv, message in cases:
        error = usage_error(capsys, *argv)
        assert error == f"flick {argv[0]}: error: argument {message}"


def test_argparse_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bell", "--count", "3", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    import flick.cli

    cases = [
        (InexactDivisionError("7 is not divisible by 2"), "7 is not divisible by 2"),
        # Raised, not provoked by allocating; its message is empty.
        (MemoryError(), "MemoryError"),
        # Any exception is a fault once the arguments parse, not a usage error
        # (exit 2) nor a failed verification (exit 1).
        (ValueError("need n >= 1"), "need n >= 1"),
        (TypeError("unsupported operand"), "unsupported operand"),
        (KeyError("row"), "'row'"),
    ]
    for exc, message in cases:

        def fault(count, exc=exc):
            raise exc

        monkeypatch.setattr(flick.cli, "row_sums", fault)
        code, out, err = run_cli(capsys, "bell", "--count", "5")
        assert code == 3
        assert out == ""
        assert err == f"error: internal: {message}\n"


# Argument vectors for every subcommand but `verify`, at bounded sizes: rows
# and counts <= 40, m <= 60, n <= 10^6, fitcol m <= 4.  Values just below the
# valid range, a non-integer, a missing option and a b-file grid are usage
# errors, which argparse rejects with SystemExit(2); every vector it accepts
# must run.
def _ints(high: int) -> st.SearchStrategy[str]:
    # -2 stands for a value that is not an integer.
    return st.integers(-2, high).map(lambda v: "x" if v == -2 else str(v))


def _option(flag: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    return st.one_of(values.map(lambda value: [flag, value]), st.just([]))


def _flag(flag: str) -> st.SearchStrategy[list[str]]:
    return st.sampled_from([[], [flag]])


_FORMAT = _option("--format", st.sampled_from(FORMATS + ("yaml",)))
_COUNT = _option("--count", _ints(40))
_POWERSUM = st.one_of(
    st.tuples(_ints(60), _ints(10**6)).map(list),
    # --check runs the naive loop, linear in n, so its n stays small.
    st.tuples(_ints(60), _ints(10**4), st.just("--check")).map(list),
)
_ARGV = st.one_of(
    st.tuples(
        st.just(["triangle"]),
        _option("--rows", _ints(40)),
        _option("--method", st.sampled_from(["extraction", "recurrence", "x"])),
        _FORMAT,
    ),
    st.tuples(
        st.just(["todd"]),
        _option("--rows", _ints(40)),
        _option("--cols", _ints(40)),
        _FORMAT,
    ),
    st.tuples(st.just(["row"]), _ints(40).map(lambda n: [n]), _COUNT, _FORMAT),
    st.tuples(st.just(["col"]), _ints(40).map(lambda k: [k]), _COUNT, _FORMAT),
    st.tuples(st.just(["powersum"]), _POWERSUM),
    st.tuples(st.just(["bell"]), _COUNT, _option("--kernels", _ints(40)), _FORMAT),
    st.tuples(
        st.just(["gf"]),
        _option("--row", _ints(40)),
        _option("--order", _ints(40)),
        _flag("--odd"),
    ),
    st.tuples(st.just(["fitcol"]), _ints(4).map(lambda m: [m])),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV)
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the vector
            assert exc.code == 2, (argv, err.getvalue())
            return
    assert code == 0, (argv, code, err.getvalue())
    assert out.getvalue() and not err.getvalue(), argv
