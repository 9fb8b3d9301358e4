"""Acceptance gate: one test per exit criterion, exact equality throughout.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`);
criteria with a stated wall-clock budget enforce it with perf_counter.  A
criterion that `flick verify` covers looks its checks up by name in the table
`flick.verify._CHECKS`, so the reference data and the checks have one copy.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from flick.cli import main as cli_main
from flick.powersum import power_sum, power_sum_naive
from flick.triangle import triangle_rows
from flick.verify import _CHECKS, _first_counterexample

# Rows 1..10 of the triangle, read by criterion 2.
ROWS_1_TO_10 = [
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
    label: str, results: Sequence[tuple[str, tuple | None]] = (), ok: bool = True
) -> None:
    failed = [f"{name}: {c}" for name, c in results if c is not None]
    ok = ok and not failed
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, failed or label


def _run(*names: str) -> list[tuple[str, tuple | None]]:
    # The named checks of `flick verify`, looked up in its table.
    checks = dict(_CHECKS)
    return [(name, _first_counterexample(checks[name])) for name in names]


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    results = _run("todd: rows 1-5 x columns 1-8 match the reference corner")
    elapsed = time.perf_counter() - start
    _report(
        f"criterion 1: 40-value array corner, exact, {elapsed:.3f}s < 1s",
        results,
        elapsed < 1.0,
    )


def test_criterion_02_triangle_reproduction():
    ok = triangle_rows(10, method="extraction").rows == ROWS_1_TO_10
    ok = ok and triangle_rows(10, method="recurrence").rows == ROWS_1_TO_10
    _report("criterion 2: triangle rows 1-10, 55 values exact", ok=ok)


def test_criterion_03_method_agreement():
    start = time.perf_counter()
    results = _run(
        "todd: recurrence == finite difference == stirling sum",
        "triangle: extraction == recurrence",
    )
    elapsed = time.perf_counter() - start
    _report(
        f"criterion 3: triple agreement on the array + dual on the triangle, "
        f"{elapsed:.3f}s < 30s",
        results,
        elapsed < 30.0,
    )


def test_criterion_04_generating_functions():
    _report(
        "criterion 4: row generating functions for n = 1..6",
        _run(
            "genfunc: full-row series match todd rows",
            "genfunc: odd-slot series match odd todd columns",
        ),
    )


def test_criterion_05_column_identifications():
    _report(
        "criterion 5: column prefixes k = 1..9 (incl. column 9 list)",
        _run("todd: columns 1-9 match the reference prefixes"),
    )


def test_criterion_06_bell_quadruple_agreement():
    _report(
        "criterion 6: four routes to the Bell sequence agree on n = 1..20",
        _run(
            "bell: row sums == anti-diagonals == OGF == closed form",
            "bell: first ten terms match the reference list",
        ),
    )


def test_criterion_07_kernel_hierarchy():
    _report(
        "criterion 7: inverse-transform kernels for p = 1, 3, 5, 7, 9",
        _run("transforms: kernels match references and transform back"),
    )


def test_criterion_08_a008957_identities():
    _report(
        "criterion 8: both A008957 closed forms equal the triangle slice",
        _run("a008957: both closed forms equal the triangle slice"),
    )


def test_criterion_09_faulhaber_engine():
    start = time.perf_counter()
    results = _run(
        "powersum: basis method equals the naive oracle",
        "powersum: classical closed forms for m = 1, 2, 3",
    )
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
        results,
        ok and elapsed < 60.0,
    )


def test_criterion_10_column_polynomial_fitting():
    _report(
        "criterion 10: column fits (1,6), (5n-1,360) and held-out refits",
        _run(
            "columns: fitted (P_1, D_1) = (1, 6) and (P_2, D_2) = (5n-1, 360)",
            "columns: fit reproduces 20 held-out values for m <= 5",
        ),
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


def test_note_power_sum_outpaces_naive_loop():
    # Qualitative scaling demonstration: the basis method's cost grows with
    # the digit count of n, the naive loop's with n itself.
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
