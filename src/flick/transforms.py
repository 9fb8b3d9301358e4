"""Row sums of the triangle (the flickering Bell sequence A395022), the
anti-diagonal route to the same numbers over one walk of the Todd array's
columns, and the binomial-transform kernel hierarchy sitting underneath it.

The forward transform, its inverse and the q-fold inverse `kernel` are one
binomial sum, sum_{i=0..n} C(n, i) c^(n-i) a_i, at c = 1, -1 and -q, read
off the left edge of a difference table: each row maps a_i to a_(i+1) + c a_i,
so row n starts with the n-th sum.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .triangle import _next_row

__all__ = [
    "IntSeq",
    "row_sums",
    "antidiagonal_sums",
    "binomial_transform",
    "inverse_binomial_transform",
    "bell_with_leading_one",
    "kernel",
]


class IntSeq(NamedTuple):
    """A finite integer sequence plus the index of its first element."""

    values: list[int]
    offset: int


def row_sums(count: int) -> IntSeq:
    """a(n) = sum_k T(n, k) for n = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # Only the running row is kept.  Each row sum is one odd-slot sum: odd
    # rows are zero at even k, and an even row's even slots are the odd slots
    # of the row before.
    sums = []
    row: list[int] = []
    previous = 0  # the odd-slot sum of row n - 1
    for n in range(1, count + 1):
        row = _next_row(row)
        odd = sum(row[0::2])
        sums.append(odd + previous if n % 2 == 0 else odd)
        previous = odd
    return IntSeq(sums, offset=1)


def antidiagonal_sums(count: int) -> IntSeq:
    """a(n) recomputed from anti-diagonals of the Todd array.

    Grading the array by source power (entry (m, c) is a normalized central
    difference of j^(2m+c-2)), the odd-order path values for power n lie on
    the grade-n anti-diagonal; for even n the path's even-order values
    collapse onto the grade-(n-1) anti-diagonal.  Their sum equals the
    triangle row sum, computed here without touching the triangle.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # Imported here so that the row-sum and kernel routes load no Todd walk.
    from .todd import _columns

    # Column c meets grades c, c + 2, ..., so grades up to `count` read the
    # staircase of heights (count - c) // 2 + 1, which never increase.
    grades = [0] * (count + 1)  # grades[g]: the sum of the grade-g line
    heights = ((count - c) // 2 + 1 for c in range(1, count + 1))
    for c, column in enumerate(_columns(heights), start=1):
        grades[c::2] = map(add, grades[c::2], column)
    # a(n) is the grade-n sum, plus the grade-(n-1) sum for even n.
    grades[2::2] = map(add, grades[2::2], grades[1::2])
    return IntSeq(grades[1:], offset=1)


def _binomial_sum(values: list[int], c: int) -> list[int]:
    """[sum_{i=0..n} C(n, i) c^(n-i) values[i] for n in range(len(values))]:
    the left edge of the table whose rows each map a_i to a_(i+1) + c a_i."""
    out, row = [], values
    while row:
        out.append(row[0])
        row = [b + c * a for a, b in zip(row, row[1:])]
    return out


def binomial_transform(g: IntSeq) -> IntSeq:
    """a_n = sum_{i=0..n} C(n, i) g_i (indices relative to the offset)."""
    return IntSeq(_binomial_sum(g.values, 1), offset=g.offset)


def inverse_binomial_transform(a: IntSeq) -> IntSeq:
    """g_n = sum_{i=0..n} (-1)^(n-i) C(n, i) a_i; exact inverse of the transform."""
    return IntSeq(_binomial_sum(a.values, -1), offset=a.offset)


def bell_with_leading_one(count: int) -> IntSeq:
    """The Bell sequence with an extra 1 prepended at index 0: 1, 1, 2, 2, 5, ..."""
    if count < 1:
        raise ValueError("count must be >= 1")
    values = [1]
    if count > 1:
        values += row_sums(count - 1).values
    return IntSeq(values, offset=0)


def kernel(q: int, count: int) -> IntSeq:
    """q-fold inverse binomial transform of the leading-one Bell sequence.

    kernel(0) is the sequence itself; applying the forward transform q times
    to kernel(q) recovers it exactly.  The q passes collapse into one binomial
    sum at c = -q.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    return IntSeq(_binomial_sum(bell_with_leading_one(count).values, -q), offset=0)
