"""The identity checks of `flick verify` read their inputs from `flick.verify`
itself, so a fault planted there is reported as the check's first
counterexample; and every check defined there is in the suite."""

from __future__ import annotations

import pytest

import flick.powersum
import flick.triangle
import flick.verify
from flick.exact import exact_div
from flick.verify import _CHECKS, _first_counterexample, run_suite


def _off_by_one_at(fn, cell):
    return lambda *args: fn(*args) + (args == cell)


@pytest.mark.parametrize(
    "check, binding, cell, counterexample",
    [
        # (m, n, expanded, n^m): 3^2 = fallshift(3, 1) + fallshift(3, 2) = 3 + 6.
        ("_check_power_expansion", "fallshift", (3, 2), (2, 3, 10, 9)),
        # (k, j, lhs, rhs): I_3(3) - I_3(2) = 24 - 6 = 3 * fallshift(3, 2).
        ("_check_lemma", "fallshift", (3, 2), (2, 3, 18, 21)),
        # (k, n, sum, I_3(3)): 3 * sum of fallshift(j, 2), j = 1..3, is 3 * (0 + 2 + 6).
        ("_check_telescoping", "integral_basis", (3, 3), (2, 3, 24, 25)),
        # (m, k, todd, tri): Todd(2, 3) = T(5, 3) = 5.
        ("_check_subgrid", "todd_recurrence", (2, 3), (2, 3, 6, 5)),
        # (n, m, lhs, rhs): Todd(2, 3) - Todd(1, 3) = 5 - 1 = 2^2 * Todd(2, 1).
        ("_check_transition", "todd_recurrence", (2, 3), (2, 1, 5, 4)),
    ],
    ids=["power-expansion", "lemma", "telescoping", "subgrid", "transition"],
)
def test_identity_check_reports_its_first_counterexample(
    monkeypatch, check, binding, cell, counterexample
):
    fn = getattr(flick.verify, binding)
    monkeypatch.setattr(flick.verify, binding, _off_by_one_at(fn, cell))
    assert _first_counterexample(getattr(flick.verify, check)) == counterexample


def test_oracle_grid_reports_an_off_by_one_power_sum(monkeypatch):
    # The check reads `power_sum` from `flick.powersum` at each call.  Its
    # cases (m, n, got, want) run over n for each m, so m = 1 passes whole
    # first; S_2(3) = 1 + 4 + 9 = 14.
    power_sum = flick.powersum.power_sum

    def off_by_one(m, n):
        result = power_sum(m, n)
        return result._replace(value=result.value + ((m, n) == (2, 3)))

    monkeypatch.setattr(flick.powersum, "power_sum", off_by_one)
    assert _first_counterexample(flick.verify._check_oracle_grid) == (2, 3, 15, 14)


@pytest.mark.parametrize(
    "fault, counterexample",
    [
        (lambda v: v + 1, ("step", 5, [1, 0, 5, 0, 1], [1, 0, 6, 0, 1])),
        (lambda v: -v, ("sign", 5, [3], [])),
    ],
    ids=["step", "sign"],
)
def test_triangle_step_check_reports_a_fault_in_the_fill(
    monkeypatch, fault, counterexample
):
    # The check steps each filled row by the paper's recurrence, by which
    # T(5, 3) = ((3 + 1) / 2) * T(4, 3) + (2 / 2) * T(4, 1) = 2 * 2 + 1, and
    # first reads each row's signs.  The fault is planted at T(5, 3).
    next_row = flick.triangle._next_row

    def faulted(prev):
        row = next_row(prev)
        if len(row) == 5:
            row[2] = fault(row[2])
        return row

    monkeypatch.setattr(flick.triangle, "_next_row", faulted)
    check = flick.verify._check_triangle_integrality
    assert _first_counterexample(check) == counterexample


def test_collapse_check_reports_a_fault_in_the_extraction_rows(monkeypatch):
    # The recurrence rows hold the collapse by construction, so a fault planted
    # at T(6, 4) = T(5, 3) = 5 is found in the extraction rows.
    extract = flick.triangle.triangle_row_extraction

    def faulted(n):
        row = extract(n)
        if n == 6:
            row[3] += 1
        return row

    monkeypatch.setattr(flick.triangle, "triangle_row_extraction", faulted)
    assert _first_counterexample(flick.verify._check_collapse) == (
        "extraction",
        6,
        [1, 6, 1],
        [1, 5, 1],
    )


def test_every_check_is_in_the_suite_once_under_a_unique_name():
    # A `_check_*` generator that lost its decorator would never run.
    defined = {
        fn for name, fn in vars(flick.verify).items() if name.startswith("_check_")
    }
    registered = [check for _, check in _CHECKS]
    assert len(registered) == len(set(registered))
    assert set(registered) == defined
    names = [name for name, _ in _CHECKS]
    assert len(set(names)) == len(names)
    assert [name for name, _ in run_suite()] == names


def test_a_check_that_raises_after_passing_cases_fails_with_the_exception():
    def check():
        yield 1, 1, 1
        yield 2, exact_div(7, 2), 3

    assert _first_counterexample(check) == (
        "raised",
        "InexactDivisionError",
        "7 is not divisible by 2",
    )


def test_a_check_that_raises_a_value_error_fails_with_the_exception():
    # Any exception, not only an arithmetic fault, fails the check alone.
    def check():
        yield 1, 1, 1
        raise ValueError("need 1 <= k <= n, got n=3, k=4")

    assert _first_counterexample(check) == (
        "raised",
        "ValueError",
        "need 1 <= k <= n, got n=3, k=4",
    )
