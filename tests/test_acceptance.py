"""Acceptance gate: one test per exit criterion, exact equality throughout.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`);
criteria with a stated wall-clock budget enforce it with perf_counter.
"""

from __future__ import annotations

import time

from flick.cli import main as cli_main
from flick.powersum import power_sum, power_sum_naive
from flick.series import (
    bell_closed_form,
    bell_ogf_coefficients,
    expand_rational,
    row_gf_full,
    row_gf_odd,
)
from flick.stirling import a008957_fd, a008957_stirling
from flick.todd import (
    fit_column_polynomial,
    todd_column,
    todd_finite_difference,
    todd_recurrence,
    todd_row,
    todd_stirling,
)
from flick.transforms import (
    antidiagonal_sums,
    bell_with_leading_one,
    binomial_transform,
    kernel,
    row_sums,
)
from flick.triangle import triangle_entry_recurrence, triangle_rows
from flick.verify import run_suite

TABLE_CORNER = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 2, 5, 10, 21, 42, 85, 170],
    [1, 3, 14, 42, 147, 441, 1408, 4224],
    [1, 4, 30, 120, 627, 2508, 11440, 45760],
    [1, 5, 55, 275, 2002, 10010, 61490, 307450],
]

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

COLUMN_PREFIXES = {
    1: [1, 1, 1, 1, 1],
    2: [1, 2, 3, 4, 5],
    3: [1, 5, 14, 30, 55],
    4: [1, 10, 42, 120, 275],
    5: [1, 21, 147, 627, 2002],
    6: [1, 42, 441, 2508, 10010],
    7: [1, 85, 1408, 11440, 61490],
    8: [1, 170, 4224, 45760, 307450],
    9: [1, 341, 13013, 196053, 1733303],
}

BELL_PREFIX = [1, 2, 2, 5, 7, 21, 37, 126, 264, 1001]

KERNEL_LISTS = {
    3: [1, -1, 2, -6, 21, -75, 269],
    5: [1, -3, 10, -38, 165, -797, 4125],
    7: [1, -5, 26, -142, 821, -5039, 32709],
    9: [1, -7, 50, -366, 2757, -21441, 172421],
}


def _report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    ok = all(
        todd_recurrence(n, k) == TABLE_CORNER[n - 1][k - 1]
        for n in range(1, 6)
        for k in range(1, 9)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(f"criterion 1: 40-value array corner, exact, {elapsed:.3f}s < 1s", ok)


def test_criterion_02_triangle_reproduction():
    ok = triangle_rows(10, method="extraction").rows == TRIANGLE_ROWS_1_TO_10
    ok = ok and triangle_rows(10, method="recurrence").rows == TRIANGLE_ROWS_1_TO_10
    _report("criterion 2: triangle rows 1-10, 55 values exact", ok)


def test_criterion_03_method_agreement():
    start = time.perf_counter()
    ok = all(
        todd_recurrence(n, k)
        == todd_finite_difference(n, k)
        == todd_stirling(n, k)
        for n in range(1, 9)
        for k in range(1, 11)
    )
    by_extraction = triangle_rows(60, method="extraction")
    by_recurrence = triangle_rows(60, method="recurrence")
    ok = ok and by_extraction.rows == by_recurrence.rows
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        f"criterion 3: triple agreement on the array + dual on the triangle, "
        f"{elapsed:.3f}s < 30s",
        ok,
    )


def test_criterion_04_generating_functions():
    ok = True
    for n in range(2, 6):
        full = expand_rational(row_gf_full(n), 21)
        ok = ok and full[0] == 0 and full[1:] == todd_row(n, 20)
        odd = expand_rational(row_gf_odd(n), 11)
        expected_odd = [todd_recurrence(n, 2 * k - 1) for k in range(1, 11)]
        ok = ok and odd[0] == 0 and odd[1:] == expected_odd
    _report("criterion 4: row generating functions for n = 2..5", ok)


def test_criterion_05_column_identifications():
    ok = all(todd_column(k, 5) == COLUMN_PREFIXES[k] for k in range(1, 10))
    _report("criterion 5: column prefixes k = 1..9 (incl. column 9 list)", ok)


def test_criterion_06_bell_quadruple_agreement():
    sums = row_sums(20)
    diag = antidiagonal_sums(20)
    ogf = bell_ogf_coefficients(21)
    closed = [bell_closed_form(n) for n in range(1, 21)]
    ok = sums.values == diag.values == ogf == closed
    ok = ok and sums.values[:10] == BELL_PREFIX
    _report("criterion 6: four routes to the Bell sequence agree on n = 1..20", ok)


def test_criterion_07_kernel_hierarchy():
    ok = True
    reference = bell_with_leading_one(7)
    for p, expected in KERNEL_LISTS.items():
        seq = kernel(p - 1, 7)
        ok = ok and seq.values == expected
        back = seq
        for _ in range(p - 1):
            back = binomial_transform(back)
        ok = ok and back == reference
    _report("criterion 7: inverse-transform kernels for p = 3, 5, 7, 9", ok)


def test_criterion_08_a008957_identities():
    ok = all(
        a008957_fd(n, k)
        == a008957_stirling(n, k)
        == triangle_entry_recurrence(2 * n - 1, 2 * n - 2 * k + 1)
        for n in range(1, 16)
        for k in range(1, n + 1)
    )
    _report("criterion 8: both A008957 closed forms equal the triangle slice", ok)


def test_criterion_09_faulhaber_engine():
    start = time.perf_counter()
    ok = True
    for m in range(1, 31):
        for n in list(range(1, 101)) + [10**3, 10**4]:
            result = power_sum(m, n)  # raises if the division by lcm(1..m+1) is inexact
            ok = ok and result.value == power_sum_naive(m, n)
            # .terms runs the per-term exact divisions by k + 1 on access
            ok = ok and all(
                (coeff * basis) % (k + 1) == 0 for k, coeff, basis in result.terms
            )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    for n in range(1, 201):
        ok = ok and power_sum(1, n).value * 2 == n * (n + 1)
        ok = ok and power_sum(2, n).value * 6 == n * (n + 1) * (2 * n + 1)
        ok = ok and power_sum(3, n).value * 4 == (n * (n + 1)) ** 2
    _report(
        f"criterion 9: oracle grid m <= 30 + closed forms, {elapsed:.3f}s < 60s", ok
    )


def test_criterion_10_column_polynomial_fitting():
    fit1 = fit_column_polynomial(1)
    fit2 = fit_column_polynomial(2)
    ok = list(fit1.u_numerator.coeffs) == [1] and fit1.denominator == 6
    ok = ok and list(fit2.u_numerator.coeffs) == [-1, 5] and fit2.denominator == 360
    for m in range(1, 6):
        fit = fit_column_polynomial(m)
        fresh = 4 * m + 6
        ok = ok and all(
            fit.todd_value(n) == todd_recurrence(n, 2 * m + 1)
            for n in range(fresh, fresh + 20)
        )
    _report("criterion 10: column fits (1,6), (5n-1,360) and held-out refits", ok)


def test_criterion_11_property_suite(capsys):
    reports = run_suite()
    ok = all(r.ok for r in reports)
    exit_code = cli_main(["verify"])
    capsys.readouterr()  # swallow the CLI's own pass/fail matrix
    ok = ok and exit_code == 0
    with capsys.disabled():
        print()
        for r in reports:
            print(f"  {'PASS' if r.ok else 'FAIL'}  {r.name}")
    _report("criterion 11: full property suite green, verify exits 0", ok)


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
        ok,
    )
