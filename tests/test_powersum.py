from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flick
from faulhaber import faulhaber_sum
from flick.powersum import (
    bench_power_sum,
    expand_power_check,
    fallshift,
    integral_basis,
    lemma_difference_check,
    power_sum,
    power_sum_naive,
)


class TestBases:
    def test_fallshift_small_orders(self):
        for n in range(-6, 7):
            assert fallshift(n, 1) == n
            assert fallshift(n, 2) == n * (n - 1)
            assert fallshift(n, 3) == n * (n - 1) * (n + 1)
            assert fallshift(n, 4) == n * (n - 1) * (n + 1) * (n - 2)

    def test_fallshift_spot(self):
        assert fallshift(3, 4) == 1 * 2 * 3 * 4

    def test_integral_basis_small_orders(self):
        for n in range(-6, 7):
            assert integral_basis(n, 1) == n
            assert integral_basis(n, 2) == n * (n + 1)
            assert integral_basis(n, 3) == n * (n + 1) * (n - 1)
            assert integral_basis(n, 4) == n * (n + 1) * (n - 1) * (n + 2)
            assert integral_basis(n, 5) == n * (n + 1) * (n - 1) * (n + 2) * (n - 2)

    def test_integral_basis_vanishes_at_zero(self):
        for k in range(1, 13):
            assert integral_basis(0, k) == 0

    def test_integral_basis_spot(self):
        assert integral_basis(3, 5) == 120

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            fallshift(5, 0)
        with pytest.raises(ValueError):
            integral_basis(5, 0)

    def test_divisibility_by_factorial(self):
        # product of k+1 consecutive integers is divisible by (k+1)!
        for k in range(1, 16):
            fact = math.factorial(k + 1)
            for n in range(-50, 51):
                assert integral_basis(n, k + 1) % fact == 0


class TestExpansion:
    def test_cube_at_five_by_hand(self):
        # row (1, 0, 1): 5 + (4*5*6) = 125
        assert fallshift(5, 1) + fallshift(5, 3) == 125

    def test_expand_power_check(self):
        assert expand_power_check(1, range(-10, 11))
        assert expand_power_check(3, [5])
        result = expand_power_check(25, range(-10, 11))
        assert result
        assert result.counterexample is None

    def test_all_rows_to_25(self):
        for m in range(1, 26):
            assert expand_power_check(m, range(-10, 11))

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            expand_power_check(0, [1])


class TestDifferenceLemma:
    def test_hand_values(self):
        assert integral_basis(4, 2) - integral_basis(3, 2) == 8 == 2 * fallshift(4, 1)
        assert integral_basis(1, 3) - integral_basis(0, 3) == 0 == 3 * fallshift(1, 2)

    def test_full_range(self):
        for k in range(1, 13):
            assert lemma_difference_check(k, range(-20, 21))

    def test_telescoping(self):
        for k in range(1, 11):
            for n in range(1, 51):
                total = sum(
                    integral_basis(j, k + 1) - integral_basis(j - 1, k + 1)
                    for j in range(1, n + 1)
                )
                assert total == integral_basis(n, k + 1)


class TestPowerSum:
    def test_cubes_are_squared_triangles(self):
        result = power_sum(3, 4)
        assert result.value == 100 == (4 * 5 // 2) ** 2

    def test_squares_by_hand(self):
        assert power_sum(2, 3).value == 14

    def test_against_inline_loop_oracle(self):
        total = 0
        for i in range(1, 101):
            total += i**10
        assert power_sum(10, 100).value == total

    def test_naive_oracle(self):
        assert power_sum_naive(1, 10) == 55
        assert power_sum_naive(3, 4) == 1 + 8 + 27 + 64

    def test_agreement_grid(self):
        for m in range(1, 16):
            for n in list(range(1, 41)) + [1000]:
                assert power_sum(m, n).value == power_sum_naive(m, n)

    def test_closed_forms(self):
        for n in range(1, 201):
            assert power_sum(1, n).value == n * (n + 1) // 2
            assert power_sum(2, n).value == n * (n + 1) * (2 * n + 1) // 6
            assert power_sum(3, n).value == (n * (n + 1) // 2) ** 2

    def test_term_breakdown(self):
        result = power_sum(6, 9)
        # zero coefficients are skipped entirely
        assert [k for k, _, _ in result.terms] == [1, 2, 3, 4, 5, 6]
        rebuilt = 0
        for k, coeff, basis in result.terms:
            assert coeff != 0
            assert basis == integral_basis(9, k + 1)
            product = coeff * basis
            assert product % (k + 1) == 0
            rebuilt += product // (k + 1)
        assert rebuilt == result.value

    def test_incremental_bases_match_the_direct_product(self):
        n = 10**30
        result = power_sum(60, n)
        assert [k for k, _, _ in result.terms] == list(range(1, 61))
        for k, _, basis in result.terms:
            assert basis == integral_basis(n, k + 1)

    @settings(max_examples=60, deadline=None, database=None)
    @given(m=st.integers(1, 400), n=st.integers(1, 10**100))
    def test_matches_faulhaber(self, m, n):
        assert power_sum(m, n).value == faulhaber_sum(m, n)

    def test_cold_cli_past_the_old_recursion_limit(self):
        # A fresh process has no table rows; m = 1500 once overflowed the
        # Python stack in the recursive coefficient lookup.
        env = dict(os.environ, PYTHONPATH=str(Path(flick.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "flick.cli", "powersum", "1500", "10"],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == faulhaber_sum(1500, 10)

    def test_odd_row_skips_even_slots(self):
        assert [k for k, _, _ in power_sum(7, 5).terms] == [1, 3, 5, 7]

    def test_huge_n_stays_cheap(self):
        n = 10**40
        result = power_sum(2, n)
        assert result.value == n * (n + 1) * (2 * n + 1) // 6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            power_sum(0, 5)
        with pytest.raises(ValueError):
            power_sum(5, 0)
        with pytest.raises(ValueError):
            power_sum_naive(0, 5)
        with pytest.raises(ValueError):
            power_sum_naive(5, 0)


class TestBench:
    def test_report_shape(self):
        report = bench_power_sum(5, 2000, reps=3)
        assert report.value == power_sum_naive(5, 2000)
        assert report.reps == 3
        assert report.precompute_seconds >= 0.0
        assert report.flick_median_seconds > 0.0
        assert report.naive_median_seconds > 0.0

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            bench_power_sum(2, 10, reps=0)
