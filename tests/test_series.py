from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flick.series import (
    PolyZ,
    SeriesQ,
    bell_closed_form,
    bell_ogf_coefficients,
    expand_rational,
    row_gf_full,
    row_gf_odd,
)
from flick.transforms import row_sums
from flick.verify import REFERENCE_BELL

BELL_300 = row_sums(300).values


def poly_product_oracle(*factors: list[int]) -> list[int]:
    # Schoolbook convolution, written independently of PolyZ.__mul__.
    out = [1]
    for factor in factors:
        new = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                new[i + j] += a * b
        out = new
    return out


class TestPolyZ:
    def test_trimming(self):
        assert PolyZ([1, 2, 0, 0]).coeffs == (1, 2)
        assert PolyZ([0, 0]).coeffs == ()
        assert PolyZ([0, 1]).coeffs == (0, 1)
        assert not PolyZ([0])
        assert PolyZ([3])

    def test_arithmetic(self):
        a = PolyZ([1, 2])
        b = PolyZ([3, 0, 4])
        assert (a + b).coeffs == (4, 2, 4)
        assert (a * b).coeffs == tuple(poly_product_oracle([1, 2], [3, 0, 4]))
        assert (a + PolyZ([-1, -2])).coeffs == ()
        assert a(10) == 21

    def test_to_str(self):
        assert PolyZ([]).to_str() == "0"
        assert PolyZ([1, -5, 4]).to_str() == "1 - 5*x + 4*x^2"
        assert PolyZ([-1, 5]).to_str("n") == "-1 + 5*n"
        assert PolyZ([0, 1]).to_str() == "x"
        assert PolyZ([0, 0, -3]).to_str() == "-3*x^2"

    def test_immutable(self):
        a = PolyZ([1, 2])
        with pytest.raises(AttributeError):
            a.coeffs = (9,)
        assert a.coeffs == (1, 2)


class TestExpandRational:
    def test_geometric(self):
        assert expand_rational(PolyZ([1]), PolyZ([1, -1]), 4) == [1, 1, 1, 1]

    def test_row2_odd_slots(self):
        # x / ((1-x)(1-4x))
        den = PolyZ(poly_product_oracle([1, -1], [1, -4]))
        assert den.coeffs == (1, -5, 4)
        assert expand_rational(PolyZ([0, 1]), den, 5) == [0, 1, 5, 21, 85]

    def test_row2_full(self):
        # x(1+2x) / ((1-x^2)(1-4x^2))
        den = PolyZ(poly_product_oracle([1, 0, -1], [1, 0, -4]))
        expected = [0, 1, 2, 5, 10, 21, 42, 85, 170]
        assert expand_rational(PolyZ([0, 1, 2]), den, 9) == expected

    def test_constant_term_minus_one(self):
        # 1/(x - 1) = -1 - x - x^2 - ...
        assert expand_rational(PolyZ([1]), PolyZ([-1, 1]), 5) == [-1] * 5
        # (1 + 2x + 3x^2) / (-1 + 3x - x^2): the coefficients c satisfy
        # -c_i + 3 c_(i-1) - c_(i-2) = num_i.
        num, den = PolyZ([1, 2, 3]), PolyZ([-1, 3, -1])
        coeffs = expand_rational(num, den, 8)
        assert coeffs == [-1, -5, -17, -46, -121, -317, -830, -2173]
        product = (PolyZ(coeffs) * den).coeffs
        assert product[:8] == (1, 2, 3, 0, 0, 0, 0, 0)

    def test_order_zero(self):
        assert expand_rational(PolyZ([1]), PolyZ([1, -1]), 0) == []

    def test_pole_at_origin_rejected(self):
        for den in (PolyZ([0, 1]), PolyZ([])):
            with pytest.raises(ValueError, match="must be \\+-1, got 0"):
                expand_rational(PolyZ([1]), den, 4)

    def test_non_unit_constant_rejected(self):
        with pytest.raises(ValueError, match="must be \\+-1, got 2"):
            expand_rational(PolyZ([1]), PolyZ([2, 1]), 4)


class TestRowGeneratingFunctions:
    def test_odd_gf_denominators(self):
        num, den = row_gf_odd(2)
        assert (num.coeffs, den.coeffs) == ((0, 1), (1, -5, 4))

    def test_full_gf_numerator(self):
        num, _ = row_gf_full(3)
        assert num.coeffs == (0, 1, 3)  # x + 3x^2

    def test_odd_gf_row1_is_geometric(self):
        assert expand_rational(*row_gf_odd(1), 6) == [0, 1, 1, 1, 1, 1]

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            row_gf_odd(0)
        with pytest.raises(ValueError):
            row_gf_full(0)


class TestBellOgf:
    def test_hand_expansion_prefix(self):
        # k=1 term: (x + 2x^2)/(1-x^2); k=2 term: (x^3 + 3x^4)/((1-x^2)(1-4x^2));
        # through x^4 that sums to x + 2x^2 + 2x^3 + 5x^4.
        assert bell_ogf_coefficients(5) == [1, 2, 2, 5]

    def test_first_coefficient(self):
        assert bell_ogf_coefficients(2) == [1]

    def test_reference_prefix(self):
        assert bell_ogf_coefficients(11) == REFERENCE_BELL

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            bell_ogf_coefficients(0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_random_orders_match_row_sums(self, order):
        assert bell_ogf_coefficients(order) == BELL_300[: order - 1]

    def test_order_601_matches_row_sums(self):
        # Size guard: only a quadratic route finishes this within the suite's time.
        assert bell_ogf_coefficients(601) == row_sums(600).values


class TestBellClosedForm:
    def test_hand_values(self):
        # 2! * [x^1] cosh(2s) = 2 * 1/2; adding s*sinh(2s) doubles it at n=2
        assert bell_closed_form(1) == 1
        assert bell_closed_form(2) == 2

    def test_reference_prefix(self):
        assert [bell_closed_form(n) for n in range(1, 11)] == REFERENCE_BELL

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            bell_closed_form(0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_random_terms_match_row_sums(self, n):
        assert bell_closed_form(n) == BELL_300[n - 1]

    def test_term_600_matches_row_sums(self):
        # Size guard: only a quadratic route finishes this within the suite's time.
        assert bell_closed_form(600) == row_sums(600).values[-1]


class TestSeriesQ:
    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            SeriesQ([Fraction(1)], order=2)

    def test_truncation_to_min_order(self):
        f = SeriesQ([Fraction(1), Fraction(2), Fraction(3)], 3)
        g = SeriesQ([Fraction(1), Fraction(1)], 2)
        assert (f * g).order == 2
        assert (f * g).coeffs == [Fraction(1), Fraction(3)]
        assert all(type(c) is Fraction for c in (f * g).coeffs)

    def test_one_is_the_unit_at_every_order(self):
        # Order 0 is the empty series: `one` sets no constant term there.
        assert SeriesQ.one(0) == SeriesQ([], 0)
        assert SeriesQ.one(3).coeffs == [Fraction(1), Fraction(0), Fraction(0)]
        assert all(type(c) is Fraction for c in SeriesQ.one(3).coeffs)
        f = SeriesQ([Fraction(1, 2), Fraction(-3), Fraction(2, 5)], 3)
        assert f * SeriesQ.one(3) == f
