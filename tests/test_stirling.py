from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flick.stirling import (
    _odd_slot_difference,
    _odd_slot_stirling,
    a008957_fd,
    a008957_stirling,
    stirling2,
)
from flick.triangle import triangle_entry_recurrence


def test_stirling2_boundaries():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    for n in range(1, 12):
        assert stirling2(n, n) == 1
        assert stirling2(n, 0) == 0
        assert stirling2(n, n + 3) == 0


def test_stirling2_rejects_negative():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -2)


def test_a008957_fd_small_values():
    assert a008957_fd(2, 1) == 1  # = T(3, 3)
    assert a008957_fd(3, 2) == 5  # = T(5, 3)
    for n in range(1, 10):
        assert a008957_fd(n, n) == 1


def test_a008957_stirling_small_values():
    assert a008957_stirling(2, 1) == 1
    assert a008957_stirling(4, 2) == 14  # = T(7, 5)
    assert a008957_stirling(3, 3) == 1


def test_a008957_rejects_out_of_range():
    with pytest.raises(ValueError):
        a008957_fd(3, 0)
    with pytest.raises(ValueError):
        a008957_fd(3, 4)
    with pytest.raises(ValueError):
        a008957_stirling(0, 0)


def _a008957_routes_agree(n, k):
    by_fd = a008957_fd(n, k)
    assert by_fd == a008957_stirling(n, k), (n, k)
    assert by_fd == triangle_entry_recurrence(2 * n - 1, 2 * n - 2 * k + 1), (n, k)


# Rows 1..40 and one row past them; `verify` stops at row 15.
_A008957_ROWS = [*range(1, 41), 60]


def test_a008957_row_reads_agree_row_by_row():
    for n in _A008957_ROWS:
        for k in range(1, n + 1):
            _a008957_routes_agree(n, k)


def test_a008957_row_reads_agree_interleaved():
    # k outer, n inner: every read switches the row that a008957_fd keeps.
    for k in range(1, max(_A008957_ROWS) + 1):
        for n in _A008957_ROWS:
            if k <= n:
                _a008957_routes_agree(n, k)


def test_a008957_out_of_range_raises_before_any_extraction(monkeypatch):
    import flick.triangle

    def extraction(n):
        raise AssertionError(f"extracted row {n}")

    monkeypatch.setattr(flick.triangle, "triangle_row_extraction", extraction)
    for n, k in [(3, 0), (3, 4), (0, 0), (-2, -1)]:
        with pytest.raises(ValueError):
            a008957_fd(n, k)


# (power, order) with odd order <= power.
odd_slots = st.integers(1, 400).flatmap(
    lambda power: st.tuples(
        st.just(power), st.integers(0, (power - 1) // 2).map(lambda h: 2 * h + 1)
    )
)


@settings(max_examples=60, deadline=None, database=None)
@given(slot=odd_slots)
@example(slot=(1, 1))
@example(slot=(2, 1))  # order 1: the shift is 0, only 0^0 survives
@example(slot=(400, 1))
@example(slot=(7, 7))  # order = power: a single Stirling term
@example(slot=(399, 399))
@example(slot=(400, 399))
def test_odd_slot_kernels_match_the_recurrence(slot):
    power, order = slot
    by_difference = _odd_slot_difference(power, order)
    assert by_difference == _odd_slot_stirling(power, order)
    assert by_difference == triangle_entry_recurrence(power, order)


def test_odd_slot_difference_matches_its_defining_sum():
    # The docstring sum, term by term over i = 0 .. order, with no folding.
    for power in range(1, 41):
        for order in range(1, power + 1, 2):
            total = sum(
                (-1) ** (order - i) * math.comb(order, i) * (i - order // 2) ** power
                for i in range(order + 1)
            )
            quotient, remainder = divmod(total, math.factorial(order))
            assert remainder == 0, (power, order)
            assert _odd_slot_difference(power, order) == quotient, (power, order)
