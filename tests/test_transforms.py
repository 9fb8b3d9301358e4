from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flick.todd
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
from flick.verify import REFERENCE_BELL


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


def test_antidiagonal_sums_walk_the_staircase_once(monkeypatch):
    # Every count, odd and even, so that the staircase's last columns, one
    # entry high, are read at both parities.  Each call is one walk, over
    # the heights (count - c) // 2 + 1 of columns c = 1 .. count.
    walks = []
    columns = flick.todd._columns

    def recorded(heights):
        walks.append(list(heights))
        return columns(walks[-1])

    monkeypatch.setattr(flick.todd, "_columns", recorded)
    for count in range(1, 61):
        assert antidiagonal_sums(count) == row_sums(count)
        assert walks == [[(count - c) // 2 + 1 for c in range(1, count + 1)]]
        walks.clear()


def test_count_validation():
    for fn in (row_sums, antidiagonal_sums, bell_with_leading_one):
        with pytest.raises(ValueError):
            fn(0)


def test_binomial_transform_of_ones_is_powers_of_two():
    ones = IntSeq([1] * 10, offset=0)
    assert binomial_transform(ones).values == [2**n for n in range(10)]


def test_bell_with_leading_one():
    seq = bell_with_leading_one(8)
    assert seq.offset == 0
    assert seq.values == [1] + REFERENCE_BELL[:7]
    assert bell_with_leading_one(1).values == [1]


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


def test_kernel_rejects_negative_order():
    with pytest.raises(ValueError):
        kernel(-1, 5)


def test_intseq_equality_is_values_and_offset():
    seq = IntSeq([1, 2, 3], offset=1)
    assert seq == IntSeq([1, 2, 3], offset=1)
    assert seq != IntSeq([1, 2, 3], offset=0)
    assert seq != [1, 2, 3]


def test_intseq_needs_its_offset():
    with pytest.raises(TypeError):
        IntSeq([1, 2, 3])
