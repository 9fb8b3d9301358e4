from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flick.exact import InexactDivisionError, _StepTable, exact_div
from flick.stirling import _next_s2_row
from flick.triangle import (
    _next_row,
    triangle_entry_recurrence,
    triangle_row_extraction,
    triangle_rows,
)


def brute_force_row(n: int) -> list[int]:
    # Independent oracle: k-fold differencing written as the alternating
    # binomial sum, evaluated at the central offsets directly.
    row = []
    for k in range(1, n + 1):
        # forward difference of order k starting at j0 puts its "center"
        # at j0 + k/2; pick j0 so the center is -1/2 (odd k) or 0 (even k)
        j0 = (-1 - k) // 2 if k % 2 else -k // 2
        value = sum(
            (-1) ** (k - i) * math.comb(k, i) * (j0 + i) ** n for i in range(k + 1)
        )
        quotient, remainder = divmod(abs(value), math.factorial(k))
        assert remainder == 0, (n, k)
        row.append(quotient)
    return row


def test_exact_div():
    assert exact_div(84, 6) == 14
    with pytest.raises(InexactDivisionError):
        exact_div(85, 6)


def test_extraction_rejects_row_zero():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        triangle_row_extraction(0)


def test_extraction_of_row_six():
    assert triangle_row_extraction(6) == [1, 1, 10, 5, 3, 1]


def test_extraction_matches_brute_force_oracle():
    # Up to 40 rows, levels of both length parities occur many times, so the
    # mirrored entry appended before an even-length level is exercised.
    for n in range(1, 41):
        assert triangle_row_extraction(n) == brute_force_row(n)


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 300))
@example(n=1)
@example(n=2)
@example(n=3)
@example(n=17)
@example(n=42)
@example(n=60)
@example(n=298)  # adjacent even and odd rows: the narrow window
@example(n=299)  # j = -ceil(n/2) .. ceil(n/2) differs in parity
def test_extraction_matches_the_recurrence(n):
    expected = [triangle_entry_recurrence(n, k) for k in range(1, n + 1)]
    assert triangle_row_extraction(n) == expected


def test_recurrence_entries():
    assert triangle_entry_recurrence(5, 3) == 5
    assert triangle_entry_recurrence(8, 5) == 42
    for n in (1, 2, 9, 24, 61):
        assert triangle_entry_recurrence(n, n) == 1
        assert triangle_entry_recurrence(n, 1) == 1


def test_recurrence_out_of_range_is_zero():
    assert triangle_entry_recurrence(5, 0) == 0
    assert triangle_entry_recurrence(5, 6) == 0
    assert triangle_entry_recurrence(3, -1) == 0
    assert triangle_entry_recurrence(0, 1) == 0
    assert triangle_entry_recurrence(-3, 1) == 0
    assert triangle_entry_recurrence(0, 0) == 0


def _race_to_extend(step, targets: list[int], expected: list[list[int]]) -> None:
    table = _StepTable(step)
    start = threading.Barrier(len(targets))
    errors: list[Exception] = []

    def reader(i: int) -> None:
        try:
            start.wait(timeout=30)
            assert table.row(i) == expected[i]
        except Exception as exc:  # surfaced on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert [table.row(i) for i in range(len(expected))] == expected


def test_row_table_under_concurrent_extension():
    # Threads released together race to extend a fresh table; a row appended
    # twice or out of order would misalign every later row.  Both step
    # functions the package builds tables from are raced: triangle rows and
    # Stirling rows, each against a sequential fill.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in (_next_row, _next_s2_row):
            expected = [step([])]
            while len(expected) < 200:
                expected.append(step(expected[-1]))
            for _ in range(10):
                _race_to_extend(step, [199, 149, 6, 89, 199, 59, 0, 179], expected)
    finally:
        sys.setswitchinterval(interval)


def test_row_table_rejects_negative_index():
    table = _StepTable(_next_row)
    table.row(5)
    for bad in (-1, -6):
        with pytest.raises(ValueError):
            table.row(bad)


def test_rows_tiny():
    assert triangle_rows(2, method="extraction").rows == [[1], [1, 1]]
    assert triangle_rows(2, method="recurrence").rows == [[1], [1, 1]]
    assert len(triangle_rows(6)) == 6


def test_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        triangle_rows(0)
    with pytest.raises(ValueError):
        triangle_rows(5, method="divination")
