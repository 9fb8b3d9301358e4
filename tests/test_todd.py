from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flick.todd
from flick.series import PolyZ
from flick.todd import (
    ColumnFactorization,
    _newton_polynomial,
    base_poly,
    fit_column_polynomial,
    todd_antidiagonal,
    todd_column,
    todd_finite_difference,
    todd_recurrence,
    todd_row,
    todd_stirling,
)
from flick.triangle import triangle_entry_recurrence
from flick.verify import REFERENCE_COLUMNS


@functools.cache
def recurrence_oracle(n: int, k: int) -> int:
    # The two-term rule written directly, no grid; cached only for speed.
    if n == 1 or k == 1:
        return 1
    left = recurrence_oracle(n, k - 1)
    if k % 2 == 1:
        return n * left + recurrence_oracle(n - 1, k)
    return n * left


def test_recurrence_spot_values():
    assert todd_recurrence(2, 5) == 21
    assert todd_recurrence(3, 7) == 1408
    assert todd_recurrence(5, 8) == 307450


def test_grid_matches_plain_recurrence():
    for n in range(1, 7):
        for k in range(1, 9):
            assert todd_recurrence(n, k) == recurrence_oracle(n, k)


def test_finite_difference_small():
    assert todd_finite_difference(1, 1) == 1
    # n=2, k=1: the four-term alternating sum is 6, over 3!
    raw = sum(
        (-1) ** (3 - i) * math.comb(3, i) * (i - 1) ** 3 for i in range(4)
    )
    assert raw == 6
    assert todd_finite_difference(2, 1) == 1
    assert todd_finite_difference(3, 3) == 14


def test_stirling_form_small():
    assert todd_stirling(1, 2) == 1  # only the j = 2n+k-2 term survives at n=1
    assert todd_stirling(2, 2) == 2
    assert todd_stirling(4, 4) == 120


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 60), k=st.integers(1, 60))
def test_three_methods_agree_on_random_cells(n, k):
    assert todd_recurrence(n, k) == todd_finite_difference(n, k) == todd_stirling(n, k)


def test_rows_and_columns():
    assert todd_column(1, 12) == [1] * 12
    for k, expected in REFERENCE_COLUMNS.items():
        assert todd_column(k, 5) == expected


def test_input_validation():
    for bad in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            todd_recurrence(*bad)
        with pytest.raises(ValueError):
            todd_finite_difference(*bad)
        with pytest.raises(ValueError):
            todd_stirling(*bad)
    with pytest.raises(ValueError):
        todd_row(1, 0)
    with pytest.raises(ValueError):
        todd_column(0, 5)


_READS = st.one_of(
    st.tuples(st.just("entry"), st.integers(1, 12), st.integers(1, 24)),
    st.tuples(st.just("row"), st.integers(1, 12), st.integers(1, 24)),
    st.tuples(st.just("column"), st.integers(1, 24), st.integers(1, 12)),
    st.tuples(st.just("antidiagonal"), st.integers(1, 24), st.just(0)),
)


@settings(max_examples=60, deadline=None, database=None)
@given(reads=st.lists(_READS, min_size=1, max_size=8), bad=st.integers(-3, 0))
def test_grid_lazy_extension(reads, bad):
    # A fresh grid per example: any order of reads gives the oracle's values,
    # and the grid is the smallest rectangle holding every cell read so far.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("flick.todd._ROWS", [])
        rows = cols = 0
        for kind, a, b in reads:
            if kind == "entry":
                got, cells = [todd_recurrence(a, b)], [(a, b)]
            elif kind == "row":
                got, cells = todd_row(a, b), [(a, k) for k in range(1, b + 1)]
            elif kind == "column":
                got, cells = todd_column(a, b), [(n, a) for n in range(1, b + 1)]
            else:
                got = todd_antidiagonal(a)
                cells = [(m, a + 2 - 2 * m) for m in range(1, (a + 1) // 2 + 1)]
            assert got == [recurrence_oracle(n, k) for n, k in cells]
            rows = max(rows, *(n for n, _ in cells))
            cols = max(cols, *(k for _, k in cells))
            assert [len(row) for row in flick.todd._ROWS] == [cols] * rows
        # Warm, so that a wrapped negative index would reach a filled row or column.
        for read, args in (
            (todd_recurrence, (bad, 1)),
            (todd_recurrence, (1, bad)),
            (todd_row, (bad, 3)),
            (todd_row, (2, bad)),
            (todd_column, (bad, 3)),
            (todd_column, (2, bad)),
            (todd_antidiagonal, (bad,)),
        ):
            with pytest.raises(ValueError):
                read(*args)


def test_grid_rejects_out_of_range_lines():
    # Warm, so that a wrapped negative index would reach a filled row or column.
    todd_recurrence(6, 6)
    for line, count in ((0, 4), (-1, 3), (2, -1)):
        with pytest.raises(ValueError):
            todd_row(line, count)
        with pytest.raises(ValueError):
            todd_column(line, count)


def test_grid_antidiagonal_reads_the_grade_line():
    # A fresh grid, so that each grade has to extend it first.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("flick.todd._ROWS", [])
        for grade in range(1, 41):
            assert todd_antidiagonal(grade) == [
                todd_recurrence(m, grade + 2 - 2 * m) for m in range(1, (grade + 1) // 2 + 1)
            ]
    for grade in (0, -3):
        with pytest.raises(ValueError):
            todd_antidiagonal(grade)


def test_subgrid_identity():
    assert todd_recurrence(2, 1) == triangle_entry_recurrence(3, 3) == 1
    assert todd_recurrence(2, 6) == triangle_entry_recurrence(8, 3) == 42


def test_column_transition_rule():
    assert todd_recurrence(2, 3) - todd_recurrence(1, 3) == 4 == 4 * todd_recurrence(2, 1)
    assert todd_recurrence(5, 3) - todd_recurrence(4, 3) == 25
    assert todd_recurrence(3, 5) - todd_recurrence(2, 5) == 126 == 9 * todd_recurrence(3, 3)


def test_base_poly():
    assert list(base_poly(0).coeffs) == [0, 1]  # just n
    poly1 = base_poly(1)
    assert list(poly1.coeffs) == [0, 1, 3, 2]  # n(n+1)(2n+1) = n + 3n^2 + 2n^3
    assert poly1(3) == 84
    assert todd_recurrence(3, 3) == 14 == 84 // 6
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        base_poly(-1)


def test_fit_column_m1_and_m2():
    fit1 = fit_column_polynomial(1)
    assert list(fit1.u_numerator.coeffs) == [1]
    assert fit1.denominator == 6
    fit2 = fit_column_polynomial(2)
    assert list(fit2.u_numerator.coeffs) == [-1, 5]  # 5n - 1
    assert fit2.denominator == 360
    # consistency on a fresh point: T_2(4) * P_2(4) / D_2 = 11880 * 19 / 360
    assert fit2.base(4) == 11880
    assert fit2.base(4) * fit2.u_numerator(4) // 360 == 627
    assert fit2.todd_value(4) == 627


def test_fit_refits_held_out_points():
    # m = 44 (column 89) is the largest fit the routes benchmark runs.
    for m in [*range(1, 6), 44]:
        fit = fit_column_polynomial(m)
        assert isinstance(fit, ColumnFactorization)
        assert fit.column == 2 * m + 1
        assert fit.denominator > 0
        content = math.gcd(*(abs(c) for c in fit.u_numerator.coeffs))
        assert math.gcd(content, fit.denominator) == 1
        fresh = 4 * m + 6  # fitting sampled n = 1 .. 4m+5ish; go beyond
        for n in range(fresh, fresh + 20):
            assert fit.todd_value(n) == todd_recurrence(n, 2 * m + 1)


def test_fit_rejects_bad_m():
    with pytest.raises(ValueError):
        fit_column_polynomial(0)


def test_fit_degree_cap_failure_is_loud(monkeypatch):
    # A column whose ratio is no polynomial must fail at the cap 4m rather
    # than return a bogus fit.
    monkeypatch.setattr("flick.todd.todd_recurrence", lambda n, k: 2**n)
    with pytest.raises(ArithmeticError, match="not polynomial of degree <= 16$"):
        fit_column_polynomial(4)
    # The cap is exact: a ratio of degree 4m fits, one of degree 4m + 1 does not.
    base = base_poly(4)
    monkeypatch.setattr("flick.todd.todd_recurrence", lambda n, k: base(n) * n**16)
    fit = fit_column_polynomial(4)
    assert (list(fit.u_numerator.coeffs), fit.denominator) == ([0] * 16 + [1], 1)
    monkeypatch.setattr("flick.todd.todd_recurrence", lambda n, k: base(n) * n**17)
    with pytest.raises(ArithmeticError, match="not polynomial of degree <= 16$"):
        fit_column_polynomial(4)


def test_fit_rejects_an_interpolant_that_misses_a_sample(monkeypatch):
    nodes = []

    def shift_constant(leads):
        return _newton_polynomial(leads) + PolyZ([1])

    def bend_beyond_nodes(leads):
        # Add (n - 1)(n - 2)...: zero on every interpolation node, so only
        # the samples past them can expose it.
        nodes.append(len(leads))
        bend = PolyZ([1])
        for i in range(1, len(leads) + 1):
            bend = bend * PolyZ([-i, 1])
        return _newton_polynomial(leads) + bend

    monkeypatch.setattr("flick.todd._newton_polynomial", shift_constant)
    with pytest.raises(ArithmeticError, match="interpolant misses sample at n=1$"):
        fit_column_polynomial(3)
    monkeypatch.setattr("flick.todd._newton_polynomial", bend_beyond_nodes)
    with pytest.raises(ArithmeticError, match="interpolant misses sample at n=") as err:
        fit_column_polynomial(3)
    assert str(err.value).endswith(f"n={nodes[0] + 1}")
