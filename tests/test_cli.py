from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber import faulhaber_sum
from flick.bfile import parse_bfile
from flick.cli import FORMATS, main
from flick.exact import CheckResult, InexactDivisionError, exact_div
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


def test_triangle_bfile_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "triangle", "--rows", "3", "--format", "bfile")
    assert code == 2
    assert "one-dimensional" in err


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
    assert sys.get_int_max_str_digits() == limit  # lifted for output only
    digits = out.strip()
    assert len(digits) == 5018
    # Read back in two pieces so that no conversion exceeds the default limit.
    head, tail = digits[:-4000], digits[-4000:]
    assert int(head) * 10**4000 + int(tail) == faulhaber_sum(250, n)


def test_bell_sequence(capsys):
    code, out, _ = run_cli(capsys, "bell", "--count", "10")
    assert code == 0
    assert out.strip() == ",".join(map(str, REFERENCE_BELL))


def test_bell_kernel(capsys):
    code, out, _ = run_cli(capsys, "bell", "--kernels", "4", "--count", "7")
    assert code == 0
    assert out.strip() == ",".join(map(str, REFERENCE_KERNELS[4]))


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
    checks[3] = (name, lambda: CheckResult(False, (4, 2, 5, 0)))
    monkeypatch.setattr(flick.verify, "_CHECKS", checks)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == f"FAIL  {name}: (4, 2, 5, 0)"
    assert sum(line.startswith("PASS  ") for line in lines) == len(checks) - 1
    assert lines[-1] == f"1 of {len(checks)} checks failed"


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    import flick.verify

    checks = list(flick.verify._CHECKS)
    name, _ = checks[12]
    checks[12] = (name, lambda: exact_div(7, 2))
    monkeypatch.setattr(flick.verify, "_CHECKS", checks)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert len(checks) == 33
    assert sum(line.startswith("PASS  ") for line in lines) == 32
    assert lines[12] == (
        f"FAIL  {name}: ('raised', 'InexactDivisionError', '7 is not divisible by 2')"
    )
    assert lines[-1] == "1 of 33 checks failed"


def test_verify_has_no_bound_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--max-n", "5"])
    assert excinfo.value.code == 2


def test_powersum_check_mismatch_exits_1(monkeypatch, capsys):
    import flick.cli

    monkeypatch.setattr(flick.cli, "power_sum_naive", lambda m, n: 0)
    code, out, _ = run_cli(capsys, "powersum", "5", "10", "--check")
    assert code == 1
    assert out.splitlines() == [str(faulhaber_sum(5, 10)), "ERROR"]


def test_deterministic_output(capsys):
    first = run_cli(capsys, "bell", "--count", "15", "--format", "json")
    second = run_cli(capsys, "bell", "--count", "15", "--format", "json")
    assert first == second
    first = run_cli(capsys, "triangle", "--rows", "12", "--format", "table")
    second = run_cli(capsys, "triangle", "--rows", "12", "--format", "table")
    assert first == second


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "triangle", "--rows", "0")
    assert code == 2
    assert "rows" in err
    code, _, _ = run_cli(capsys, "powersum", "0", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "bell", "--kernels", "-1", "--count", "3")
    assert code == 2


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
# valid range, a non-integer and a missing option exercise both usage-error
# paths (exit 2 from `main`, SystemExit(2) from argparse).
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
    # Exit 1 means a failed verification, which no input may cause here.
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert out.getvalue() and not err.getvalue(), argv
    else:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
