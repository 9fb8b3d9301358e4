"""The flickering triangle T(n, k) (OEIS A395021), by two independent routes.

Route one reads the triangle straight out of finite differences: take
f(j) = j^n on a symmetric window, difference it k times, pick the central slot
(which flickers between a half-integer and an integer offset with the parity
of k) and normalize by k!.  Because j^n is even or odd, level k of the
table is symmetric up to the sign (-1)^(n+k), so only its left half, centre
included, is ever computed.

Route two never takes a difference.  It is an autonomous recurrence driven by
the parities of n and k:

    even k, odd n:   T(n, k) = 0
    even k, even n:  T(n, k) = (2 / k) * T(n, k - 1)
    odd k,  even n:  T(n, k) = ((k + 1) / 2) * T(n - 1, k)
    odd k,  odd n:   T(n, k) = ((k + 1) / 2) * T(n - 1, k)
                                + (2 / (k - 1)) * T(n - 1, k - 2)

with boundaries T(n, 1) = T(n, n) = 1.  The two divisions cancel.  For even
n and even k, T(n, k) = (2 / k) * (k / 2) * T(n - 1, k - 1) = T(n - 1, k - 1);
for odd n and odd k, the term (2 / (k - 1)) * T(n - 1, k - 2) is that same
collapse on the even row n - 1, so it equals T(n - 1, k - 1).  The code fills
the division-free form

    even n:  T(n, 2j + 1) = (j + 1) * T(n - 1, 2j + 1)
             T(n, 2j + 2) = T(n - 1, 2j + 1)
    odd n:   T(n, 2j + 1) = (j + 1) * T(n - 1, 2j + 1) + T(n - 1, 2j)

with T(n - 1, k) = 0 outside 1 <= k <= n - 1: one product per odd slot, one
sum per odd slot on odd rows, and an even row's even slots copied from the
odd slots of the row before.  The recurrence as first written, divisions and
all, has one executable copy: the `verify` check "triangle: recurrence
divisions exact, entries nonnegative" steps each filled row by it.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .exact import _StepTable, exact_div

__all__ = [
    "FlickerTriangle",
    "triangle_row_extraction",
    "triangle_entry_recurrence",
    "triangle_rows",
]


class FlickerTriangle(NamedTuple):
    """Rows 1..count of the triangle; rows[n-1][k-1] is T(n, k)."""

    rows: list[list[int]]

    def __len__(self) -> int:
        # The row count, not the tuple's one field; so `_make` and `_replace`,
        # which check the field count with len(), refuse any other count.
        return len(self.rows)


def triangle_row_extraction(n: int) -> list[int]:
    """Row n of the triangle by central extraction: |central diff| / k!.

    For odd k the central slot sits at the half-integer offset of the
    (even-length) difference row, for even k at the integer offset of the
    (odd-length) row.  On any symmetric window that slot of level k covers
    j = -floor(k/2) .. ceil(k/2), so the narrowest window
    j = -ceil(n/2) .. ceil(n/2) yields every slot up to k = n.  It is
    differenced one level at a time, and only the current level is kept.

    Each level is symmetric, because j^n is even or odd:
    D^k f(-j-k) = (-1)^(n+k) D^k f(j) for f(j) = j^n.  So only the left half
    of a level is kept, up to and including its centre, and the central slot
    is the last entry kept.  Level k - 1 has even length when k is even;
    before it is differenced, the mirror image of its last entry, with the
    sign (-1)^(n+k-1) = (-1)^(n+1), is appended.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    half = (n + 1) // 2
    level = [j**n for j in range(-half, 1)]
    row = []
    factorial = 1
    for k in range(1, n + 1):
        if k % 2 == 0:
            level.append(level[-1] if n % 2 else -level[-1])
        level = list(map(operator.sub, level[1:], level))
        factorial *= k
        row.append(exact_div(abs(level[-1]), factorial))
    return row


def _next_row(prev: list[int]) -> list[int]:
    """Row n = len(prev) + 1 from row n - 1 (row 1 from the empty row), by
    the division-free form of the recurrence in the module docstring.

    The zero padding of the odd-row sum supplies the boundaries
    T(n, 1) = T(n, n) = 1; only row 1 has no row before it to pad.
    """
    n = len(prev) + 1
    if n == 1:
        return [1]
    odd = prev[0::2]  # T(n - 1, 1), T(n - 1, 3), ...
    row = [0] * n
    if n % 2 == 0:
        row[0::2] = map(operator.mul, range(1, n // 2 + 1), odd)
        row[1::2] = odd
    else:
        scaled = map(operator.mul, range(1, n // 2 + 2), odd + [0])
        row[0::2] = map(operator.add, scaled, [0] + prev[1::2])
    return row


# Row i of the table is row n = i + 1 of the triangle.
_TABLE = _StepTable(_next_row)


def triangle_entry_recurrence(n: int, k: int) -> int:
    """T(n, k) via the parity-split recurrence; 0 outside 1 <= k <= n.

    Reads row n of a shared in-process table, filling rows up to n on first
    use, so the cost of a first read of row n is that of the whole fill.
    """
    if not 1 <= k <= n:
        return 0
    return _TABLE.row(n - 1)[k - 1]


def triangle_rows(count: int, method: str = "recurrence") -> FlickerTriangle:
    """Rows 1..count, method "extraction" or "recurrence"."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if method == "extraction":
        rows = [triangle_row_extraction(n) for n in range(1, count + 1)]
    elif method == "recurrence":
        rows = []
        for _ in range(count):
            rows.append(_next_row(rows[-1] if rows else []))
    else:
        raise ValueError(f"unknown method {method!r}")
    return FlickerTriangle(rows=rows)
