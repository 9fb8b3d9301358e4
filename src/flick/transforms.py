"""Row sums of the triangle (the flickering Bell sequence A395022), the
anti-diagonal route to the same numbers, and the binomial-transform kernel
hierarchy sitting underneath it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class IntSeq:
    """A finite integer sequence plus the index of its first element."""

    values: list[int]
    offset: int = 0

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntSeq):
            return self.values == other.values and self.offset == other.offset
        try:
            items = list(other)
        except TypeError:  # not iterable
            return NotImplemented
        return self.values == items


def row_sums(count: int) -> IntSeq:
    """a(n) = sum_k T(n, k) for n = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # Only the running row is kept: each row sum needs just the row before it.
    sums = []
    row: list[int] = []
    for _ in range(count):
        row = _next_row(row)
        sums.append(sum(row))
    return IntSeq(sums, offset=1)


def _grade_sum(grid, grade: int) -> int:
    # Sum of Todd(m, c) over the grade line 2m + c - 2 = grade: exactly the
    # selection-path values extracted from the difference table of j^grade.
    return sum(grid.antidiagonal(grade))


def antidiagonal_sums(count: int) -> IntSeq:
    """a(n) recomputed from anti-diagonals of the Todd grid.

    Grading the grid by source power (entry (m, c) is a normalized central
    difference of j^(2m+c-2)), the odd-order path values for power n lie on
    the grade-n anti-diagonal; for even n the path's even-order values
    collapse onto the grade-(n-1) anti-diagonal.  Their sum equals the
    triangle row sum, computed here without touching the triangle.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # Imported here so that the row-sum and kernel routes load no Todd grid.
    from .todd import _GRID

    values = []
    previous = 0  # the grade-(n-1) sum, carried over from the step before
    for n in range(1, count + 1):
        grade = _grade_sum(_GRID, n)
        values.append(grade + previous if n % 2 == 0 else grade)
        previous = grade
    return IntSeq(values, offset=1)


def binomial_transform(g: IntSeq) -> IntSeq:
    """a_n = sum_{i=0..n} C(n, i) g_i (indices relative to the offset)."""
    values = [
        sum(math.comb(n, i) * g.values[i] for i in range(n + 1))
        for n in range(len(g.values))
    ]
    return IntSeq(values, offset=g.offset)


def inverse_binomial_transform(a: IntSeq) -> IntSeq:
    """g_n = sum_{i=0..n} (-1)^(n-i) C(n, i) a_i; exact inverse of the transform."""
    values = [
        sum(
            (math.comb(n, i) * a.values[i] if (n - i) % 2 == 0
             else -math.comb(n, i) * a.values[i])
            for i in range(n + 1)
        )
        for n in range(len(a.values))
    ]
    return IntSeq(values, offset=a.offset)


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
    to kernel(q) recovers it exactly.  The q passes collapse into one:
    g_n = sum_{i=0..n} C(n, i) (-q)^(n-i) a_i.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    a = bell_with_leading_one(count).values
    powers = [1]
    for _ in range(1, count):
        powers.append(-q * powers[-1])
    values = []
    binom = [1]  # row n of Pascal's triangle
    for n in range(count):
        values.append(sum(binom[i] * powers[n - i] * a[i] for i in range(n + 1)))
        binom = [1] + [binom[i - 1] + binom[i] for i in range(1, n + 1)] + [1]
    return IntSeq(values, offset=0)
