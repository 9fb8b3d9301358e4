from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flick import transforms
from flick.transforms import (
    IntSeq,
    antidiagonal_sums,
    bell_with_leading_one,
    binomial_transform,
    inverse_binomial_transform,
    kernel,
    row_sums,
)
from flick.triangle import triangle_row_extraction, triangle_rows
from flick.verify import REFERENCE_BELL, REFERENCE_KERNELS


def test_row_sums_against_extraction():
    # Sum rows produced by the other generation method.
    sums = row_sums(12)
    assert sums.offset == 1
    for n in range(1, 13):
        assert sums.values[n - 1] == sum(triangle_row_extraction(n))


def test_row_sums_equal_sums_of_triangle_rows():
    assert row_sums(300).values == [sum(row) for row in triangle_rows(300).rows]


def test_row_sums_prefix():
    assert row_sums(6).values == REFERENCE_BELL[:6]
    assert row_sums(8).values[7] == REFERENCE_BELL[7]
    assert row_sums(10).values == REFERENCE_BELL


def test_antidiagonal_sums_prefix():
    seq = antidiagonal_sums(10)
    assert seq.offset == 1
    assert seq.values == REFERENCE_BELL
    assert antidiagonal_sums(1).values == [1]


def test_antidiagonal_equals_row_sums():
    assert antidiagonal_sums(40) == row_sums(40)


def test_antidiagonal_sums_one_grade_sum_per_term(monkeypatch):
    # Even terms reuse the grade-(n-1) sum of the step before.
    grades = []
    grade_sum = transforms._grade_sum
    monkeypatch.setattr(
        transforms,
        "_grade_sum",
        lambda grid, grade: grades.append(grade) or grade_sum(grid, grade),
    )
    assert antidiagonal_sums(40) == row_sums(40)
    assert grades == list(range(1, 41))


def test_count_validation():
    for fn in (row_sums, antidiagonal_sums, bell_with_leading_one):
        with pytest.raises(ValueError):
            fn(0)


def test_binomial_transform_of_ones_is_powers_of_two():
    ones = IntSeq([1] * 10, offset=0)
    assert binomial_transform(ones).values == [2**n for n in range(10)]


def test_inverse_round_trip_random():
    rng = random.Random(36969)
    for _ in range(20):
        seq = IntSeq([rng.randint(-99, 99) for _ in range(12)], offset=0)
        assert inverse_binomial_transform(binomial_transform(seq)) == seq
        assert binomial_transform(inverse_binomial_transform(seq)) == seq


def test_double_inverse_of_bell_prefix():
    start = IntSeq(REFERENCE_KERNELS[0], offset=0)
    once = inverse_binomial_transform(start)
    twice = inverse_binomial_transform(once)
    assert twice.values == REFERENCE_KERNELS[2]


def test_bell_with_leading_one():
    seq = bell_with_leading_one(8)
    assert seq.offset == 0
    assert seq.values == [1] + REFERENCE_BELL[:7]
    assert bell_with_leading_one(1).values == [1]


def test_kernels_match_references():
    for q, expected in REFERENCE_KERNELS.items():
        seq = kernel(q, 7)
        assert seq.values == expected
        assert seq.offset == 0


def test_kernels_transform_back():
    reference = bell_with_leading_one(12)
    for q in (2, 4, 6, 8):
        seq = kernel(q, 12)
        for _ in range(q):
            seq = binomial_transform(seq)
        assert seq == reference


def test_kernel_equals_iterated_inverse_transforms():
    seq = bell_with_leading_one(40)
    for q in range(0, 9):
        assert kernel(q, 40) == seq
        seq = inverse_binomial_transform(seq)


@settings(max_examples=30, deadline=None, database=None)
@given(q=st.integers(0, 16), count=st.integers(1, 30))
def test_kernel_equals_iterated_inverse_transforms_at_random(q, count):
    seq = bell_with_leading_one(count)
    for _ in range(q):
        seq = inverse_binomial_transform(seq)
    assert kernel(q, count) == seq


def test_kernel_sign_alternation():
    for q in (2, 4, 6, 8):
        values = kernel(q, 12).values
        assert values[0] > 0
        for i in range(1, 12):
            assert values[i] != 0
            assert (values[i] > 0) == (i % 2 == 0)


def test_kernel_rejects_negative_order():
    with pytest.raises(ValueError):
        kernel(-1, 5)


def test_intseq_compares_with_plain_lists():
    assert IntSeq([1, 2, 3], offset=1) == [1, 2, 3]
    assert list(IntSeq([4, 5], offset=0)) == [4, 5]
    assert len(IntSeq([4, 5], offset=0)) == 2
    # A non-iterable is simply unequal.
    assert (IntSeq([1]) == 1) is False
    assert IntSeq([1]) != 1
