"""Acceptance gate: one test per exit criterion, exact equality throughout.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`);
criteria with a stated wall-clock budget enforce it with perf_counter.  A
criterion that `flick verify` covers runs the named checks of `flick.verify`
at their full bounds, so the reference data and the checks have one copy.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from flick.cli import main as cli_main
from flick.powersum import power_sum, power_sum_naive
from flick.triangle import triangle_rows
from flick.verify import (
    _CHECKS,
    PropertyReport,
    _check_a008957,
    _check_bell_prefix,
    _check_bell_routes,
    _check_closed_forms,
    _check_fit_exact,
    _check_fit_heldout,
    _check_gf_full,
    _check_gf_odd,
    _check_kernels,
    _check_oracle_grid,
    _check_reference_columns,
    _check_reference_rows,
    _check_todd_methods,
    _check_triangle_methods,
)

TRIANGLE_ROWS_1_TO_10 = [
    [1],
    [1, 1],
    [1, 0, 1],
    [1, 1, 2, 1],
    [1, 0, 5, 0, 1],
    [1, 1, 10, 5, 3, 1],
    [1, 0, 21, 0, 14, 0, 1],
    [1, 1, 42, 21, 42, 14, 4, 1],
    [1, 0, 85, 0, 147, 0, 30, 0, 1],
    [1, 1, 170, 85, 441, 147, 120, 30, 5, 1],
]


def _report(
    label: str, reports: Sequence[PropertyReport] = (), ok: bool = True
) -> None:
    failed = [f"{r.name}: {r.detail}" for r in reports if not r.ok]
    ok = ok and not failed
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, failed or label


def _run(*checks) -> list[PropertyReport]:
    # The full documented bounds, as `flick verify` runs them.
    return [check(None) for check in checks]


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    reports = _run(_check_reference_rows)
    elapsed = time.perf_counter() - start
    _report(
        f"criterion 1: 40-value array corner, exact, {elapsed:.3f}s < 1s",
        reports,
        elapsed < 1.0,
    )


def test_criterion_02_triangle_reproduction():
    ok = triangle_rows(10, method="extraction").rows == TRIANGLE_ROWS_1_TO_10
    ok = ok and triangle_rows(10, method="recurrence").rows == TRIANGLE_ROWS_1_TO_10
    _report("criterion 2: triangle rows 1-10, 55 values exact", ok=ok)


def test_criterion_03_method_agreement():
    start = time.perf_counter()
    reports = _run(_check_todd_methods, _check_triangle_methods)
    elapsed = time.perf_counter() - start
    _report(
        f"criterion 3: triple agreement on the array + dual on the triangle, "
        f"{elapsed:.3f}s < 30s",
        reports,
        elapsed < 30.0,
    )


def test_criterion_04_generating_functions():
    _report(
        "criterion 4: row generating functions for n = 1..6",
        _run(_check_gf_full, _check_gf_odd),
    )


def test_criterion_05_column_identifications():
    _report(
        "criterion 5: column prefixes k = 1..9 (incl. column 9 list)",
        _run(_check_reference_columns),
    )


def test_criterion_06_bell_quadruple_agreement():
    _report(
        "criterion 6: four routes to the Bell sequence agree on n = 1..20",
        _run(_check_bell_routes, _check_bell_prefix),
    )


def test_criterion_07_kernel_hierarchy():
    _report(
        "criterion 7: inverse-transform kernels for p = 1, 3, 5, 7, 9",
        _run(_check_kernels),
    )


def test_criterion_08_a008957_identities():
    _report(
        "criterion 8: both A008957 closed forms equal the triangle slice",
        _run(_check_a008957),
    )


def test_criterion_09_faulhaber_engine():
    start = time.perf_counter()
    reports = _run(_check_oracle_grid, _check_closed_forms)
    ok = True
    for m in range(1, 31):
        for n in list(range(1, 101)) + [10**3, 10**4]:
            # .terms runs the per-term exact divisions by k + 1 on access
            ok = ok and all(
                (coeff * basis) % (k + 1) == 0
                for k, coeff, basis in power_sum(m, n).terms
            )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(
        f"criterion 9: oracle grid m <= 30 + closed forms, {elapsed:.3f}s < 60s",
        reports,
        ok and elapsed < 60.0,
    )


def test_criterion_10_column_polynomial_fitting():
    _report(
        "criterion 10: column fits (1,6), (5n-1,360) and held-out refits",
        _run(_check_fit_exact, _check_fit_heldout),
    )


def test_criterion_11_property_suite(capsys):
    exit_code = cli_main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    with capsys.disabled():
        print()
        for line in lines:
            print(f"  {line}")
    ok = exit_code == 0 and len(lines) == len(_CHECKS) + 1
    ok = ok and all(line.startswith("PASS  ") for line in lines[:-1])
    _report("criterion 11: full property suite green, verify exits 0", ok=ok)


def test_note_bench_cost_independent_of_n():
    # Qualitative scaling demonstration: the basis method's cost does not
    # grow with n, the naive loop's does.
    start = time.perf_counter()
    value = power_sum(10, 10**6).value
    flick_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    naive_value = power_sum_naive(10, 2 * 10**5)
    naive_elapsed = time.perf_counter() - start
    ok = flick_elapsed < 0.25 and naive_elapsed > flick_elapsed
    ok = ok and value == sum(i**10 for i in range(1, 10**6 + 1))
    ok = ok and naive_value == power_sum(10, 2 * 10**5).value
    _report(
        f"note: m=10, n=10^6 in {flick_elapsed * 1000:.2f}ms vs naive "
        f"n=2*10^5 in {naive_elapsed * 1000:.2f}ms",
        ok=ok,
    )
