from __future__ import annotations

import json
import sys

import pytest

from faulhaber import faulhaber_sum
from flick.bfile import parse_bfile
from flick.cli import main
from flick.exact import InexactDivisionError
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


def test_verify_small_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "12")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


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
