from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flick
import flick.powersum
from faulhaber import faulhaber_sum
from flick.exact import InexactDivisionError
from flick.powersum import (
    PowerSumResult,
    fallshift,
    integral_basis,
    power_sum,
    power_sum_naive,
    power_sum_residue,
)
from flick.triangle import triangle_entry_recurrence


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


class TestExpansion:
    def test_cube_at_five_by_hand(self):
        # row (1, 0, 1): 5 + (4*5*6) = 125
        assert fallshift(5, 1) + fallshift(5, 3) == 125


class TestDifferenceLemma:
    def test_hand_values(self):
        assert integral_basis(4, 2) - integral_basis(3, 2) == 8 == 2 * fallshift(4, 1)
        assert integral_basis(1, 3) - integral_basis(0, 3) == 0 == 3 * fallshift(1, 2)


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

    @pytest.mark.parametrize("split_bits", [0, None], ids=["split", "default"])
    def test_every_m_across_three_leaves_matches_the_naive_loop(
        self, monkeypatch, split_bits
    ):
        # These n are far below the split threshold, so "split" lowers it to 0:
        # then m = 33 is the first to split, and each leaf edge is crossed.
        if split_bits is not None:
            monkeypatch.setattr(flick.powersum, "_SPLIT_BITS", split_bits)
        for m in range(1, 3 * flick.powersum._LEAF + 1):
            for n in (1, 2, 3, 17, 1000):
                assert power_sum(m, n).value == power_sum_naive(m, n), (m, n)

    # m * bits(n) runs from 1 to about 213 000, so both sides of the split
    # threshold (20 000) are drawn, at odd and even m alike.
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        m=st.integers(1, 320),
        n=st.integers(1, 200).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    )
    def test_split_and_one_pass_match_faulhaber(self, m, n):
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

    # n by digit count first, so long n are drawn as often as short ones.
    @settings(max_examples=25, deadline=None, database=None)
    @given(
        m=st.integers(1, 600),
        n=st.integers(1, 200).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    )
    def test_value_equals_the_terms_and_faulhaber(self, m, n):
        result = power_sum(m, n)
        rebuilt = sum(coeff * basis // (k + 1) for k, coeff, basis in result.terms)
        assert result.value == rebuilt == faulhaber_sum(m, n)

    def test_first_three_rows_term_by_term(self):
        for n in (1, 2, 9, 10**30):
            i2, i3, i4 = (integral_basis(n, j) for j in (2, 3, 4))
            assert power_sum(1, n).terms == [(1, 1, i2)]
            assert power_sum(2, n).terms == [(1, 1, i2), (2, 1, i3)]
            assert power_sum(3, n).terms == [(1, 1, i2), (3, 1, i4)]
            assert power_sum(1, n).value == i2 // 2
            assert power_sum(2, n).value == i2 // 2 + i3 // 3
            assert power_sum(3, n).value == i2 // 2 + i4 // 4

    def test_adjacent_odd_and_even_rows_at_n_one(self):
        # At n = 1 every factor n - k/2 with k >= 2 is zero or negative, so
        # I_{k+1}(1) = 0 for k >= 2 and only the k = 1 term survives.
        for m in (40, 41, 298, 299, 300, 301):
            result = power_sum(m, 1)
            assert result.value == 1
            assert result.terms[0] == (1, 1, 2)
            assert all(basis == 0 for _, _, basis in result.terms[1:])
            assert [k for k, _, _ in result.terms] == (
                list(range(1, m + 1, 2)) if m % 2 else list(range(1, m + 1))
            )

    def test_terms_match_the_forward_loop(self):
        # The tuples of the forward loop over integral_basis(n, k + 1), and the
        # SHA-256 of repr((m, n, value, terms)) over the grid, recorded from
        # the earlier engine that built every term on the value path.
        digest = hashlib.sha256()
        for m in range(1, 61):
            for n in (9, 10**30):
                result = power_sum(m, n)
                expected = [
                    (k, triangle_entry_recurrence(m, k), integral_basis(n, k + 1))
                    for k in range(1, m + 1)
                    if triangle_entry_recurrence(m, k)
                ]
                assert result.terms == expected
                digest.update(repr((m, n, result.value, result.terms)).encode())
        assert digest.hexdigest() == (
            "ed4faf64eea714e6f52c452e0c428cad0b1e38a798729edde49f968827089978"
        )

    def test_a_remainder_raises(self, monkeypatch):
        # With every factor n + 1 the "bases" are no longer runs of consecutive
        # integers, so the final division by lcm(1..m+1) leaves a remainder,
        # and so does the k = 3 term of the breakdown.
        monkeypatch.setattr(
            flick.powersum, "_basis_factors", lambda n, m: [n + 1] * (m + 1)
        )
        with pytest.raises(InexactDivisionError):
            power_sum(3, 2)
        with pytest.raises(InexactDivisionError):
            PowerSumResult(m=3, n=2, value=9).terms

    def test_odd_row_skips_even_slots(self):
        assert [k for k, _, _ in power_sum(7, 5).terms] == [1, 3, 5, 7]

    def test_huge_n_stays_cheap(self):
        n = 10**40
        result = power_sum(2, n)
        assert result.value == n * (n + 1) * (2 * n + 1) // 6

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 300),
        p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 101]),
    )
    def test_residue_matches_the_naive_sum(self, m, n, p):
        # n up to 300 spans several whole blocks 1..p for every p drawn, and
        # (p - 1) divides m for some m at each p but 101.
        assert power_sum_residue(m, n, p) == power_sum_naive(m, n) % p

    def test_residue_at_huge_n(self):
        n = 10**40 + 3
        for p in (2, 3, 1009, 1223):
            assert power_sum_residue(2, n, p) == n * (n + 1) * (2 * n + 1) // 6 % p
            assert power_sum_residue(1008, n, p) == faulhaber_sum(1008, n) % p

    def test_input_validation(self):
        with pytest.raises(ValueError):
            power_sum_residue(0, 5, 7)
        with pytest.raises(ValueError):
            power_sum_residue(5, 0, 7)
        with pytest.raises(ValueError):
            power_sum(0, 5)
        with pytest.raises(ValueError):
            power_sum(5, 0)
        with pytest.raises(ValueError):
            power_sum_naive(0, 5)
        with pytest.raises(ValueError):
            power_sum_naive(5, 0)
