"""The companion array Todd(n, k) (OEIS A394582) and its column polynomials.

Three independent ways to the same numbers:

  * a two-term recurrence whose step rule flickers with the parity of k,
  * a normalized central finite difference of the power j^(2n+k-2),
  * a binomial sum against Stirling numbers of the second kind.

The last two are index maps, power 2n+k-2 and order 2n-1, over the odd-slot
kernels of `flick.stirling`, which they share with A008957.  They import
those kernels on first call, and the column fit imports `flick.series` on
first call, so reading the grid alone (`flick todd`, `row`, `col`) loads
neither module.

The array is the odd-column sub-grid of the flickering triangle,
Todd(m, k) = T(2m + k - 2, 2m - 1), and its odd columns factor as
Todd(n, 2m+1) = T_m(n) * P_m(n) / D_m with an explicit base polynomial T_m
and a fitted integer polynomial P_m over a constant denominator D_m.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, NamedTuple

from .exact import exact_div

if TYPE_CHECKING:
    from .series import PolyZ

__all__ = [
    "ColumnFactorization",
    "todd_recurrence",
    "todd_finite_difference",
    "todd_stirling",
    "todd_row",
    "todd_column",
    "todd_antidiagonal",
    "base_poly",
    "fit_column_polynomial",
]


# _ROWS[n - 1] holds Todd(n, 1), Todd(n, 2), ...; filled by `_grid` only.
_ROWS: list[list[int]] = []
_LOCK = threading.Lock()


def _grid(rows: int, cols: int) -> list[list[int]]:
    """The filled rows of Todd, at least `rows` (>= 1) of them, each at least
    `cols` long.

    The rectangle grows left to right, top to bottom: each entry needs only
    its left neighbour and the one above, with Todd(0, k) = 0, so growth is
    O(rows * cols) with no recursion.  Growth is serialized by a lock.  Rows
    only lengthen, an upper row before a lower one, so the last row is never
    longer than any other, and reads of filled entries are safe meanwhile.
    """
    if rows > len(_ROWS) or cols > len(_ROWS[-1]):
        with _LOCK:
            cols = max(cols, len(_ROWS[0]) if _ROWS else 0)
            above = [0] * cols
            for n in range(1, max(rows, len(_ROWS)) + 1):
                if n > len(_ROWS):
                    _ROWS.append([1])
                row = _ROWS[n - 1]
                for k in range(len(row) + 1, cols + 1):
                    if k % 2 == 1:
                        row.append(n * row[-1] + above[k - 1])
                    else:
                        row.append(n * row[-1])
                above = row
    return _ROWS


def todd_recurrence(n: int, k: int) -> int:
    """Todd(n, k) by the flickering recurrence (shared lazily-grown grid)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    return _grid(n, k)[n - 1][k - 1]


def todd_finite_difference(n: int, k: int) -> int:
    """Todd(n, k) = T(2n+k-2, 2n-1): the centred (2n-1)-th difference of
    j^(2n+k-2) over (2n-1)!."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    from .stirling import _odd_slot_difference

    return _odd_slot_difference(2 * n + k - 2, 2 * n - 1)


def todd_stirling(n: int, k: int) -> int:
    """Todd(n, k) = T(2n+k-2, 2n-1) as
    sum_j C(2n+k-2, j) (1-n)^(2n+k-2-j) S2(j, 2n-1)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    from .stirling import _odd_slot_stirling

    return _odd_slot_stirling(2 * n + k - 2, 2 * n - 1)


def todd_row(n: int, count: int) -> list[int]:
    """First `count` entries of row n."""
    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    return _grid(n, count)[n - 1][:count]


def todd_column(k: int, count: int) -> list[int]:
    """First `count` entries of column k."""
    if k < 1 or count < 1:
        raise ValueError("need k >= 1 and count >= 1")
    return [row[k - 1] for row in _grid(count, k)[:count]]


def todd_antidiagonal(grade: int) -> list[int]:
    """Todd(m, grade + 2 - 2m) for m = 1 .. (grade + 1) // 2: the entries
    whose source power 2m + c - 2 is `grade`."""
    if grade < 1:
        raise ValueError(f"need grade >= 1, got {grade}")
    rows = _grid((grade + 1) // 2, grade)[: (grade + 1) // 2]
    return [row[grade + 1 - 2 * m] for m, row in enumerate(rows, start=1)]


def base_poly(m: int) -> PolyZ:
    """Base polynomial T_m(n) = prod_{i=0..m} (n+i) * prod_{j=1..m} (2n+2j-1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    from .series import PolyZ

    poly = PolyZ([1])
    for i in range(m + 1):
        poly = poly * PolyZ([i, 1])
    for j in range(1, m + 1):
        poly = poly * PolyZ([2 * j - 1, 2])
    return poly


class ColumnFactorization(NamedTuple):
    """Todd(n, 2m+1) = base(n) * numerator(n) / denominator, exactly.

    denominator > 0 and gcd(content(numerator), denominator) = 1.
    """

    m: int
    base: PolyZ
    u_numerator: PolyZ
    denominator: int

    @property
    def column(self) -> int:
        return 2 * self.m + 1

    def todd_value(self, n: int) -> int:
        return exact_div(self.base(n) * self.u_numerator(n), self.denominator)


def _newton_polynomial(leads: list[int]) -> PolyZ:
    """d! * sum_j leads[j] * C(n-1, j) for d = len(leads) - 1, by Horner's
    rule over the integer terms (d!/j!) * (n-1)(n-2)...(n-j)."""
    from .series import PolyZ

    poly, weight = PolyZ([]), 1  # weight = d!/j!
    for j in range(len(leads) - 1, -1, -1):
        poly = poly * PolyZ([-(j + 1), 1]) + PolyZ([leads[j] * weight])
        weight *= j
    return poly


def fit_column_polynomial(m: int) -> ColumnFactorization:
    """Recover (P_m, D_m) with Todd(n, 2m+1) = T_m(n) * P_m(n) / D_m, in integers.

    Samples U(n) = Todd(n, 2m+1) / T_m(n) at n = 1 .. 4m+5 over one common
    denominator and differences them once: the first level that vanishes gives
    the degree, and the first entry of each level before it is a Newton
    coefficient.  Raises if no level up to 4m+1 vanishes (U is not a
    polynomial of degree <= 4m) or if the reduced (P, D) misses any sample.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    from .series import PolyZ

    base, column, cap = base_poly(m), 2 * m + 1, 4 * m

    # U(n) = num / den in lowest terms; T_m(n) > 0 for every n >= 1.
    samples = []
    for n in range(1, cap + 6):
        todd, denom = todd_recurrence(n, column), base(n)
        shared = math.gcd(todd, denom)
        samples.append((n, todd // shared, denom // shared))
    scale = math.lcm(*(den for _, _, den in samples))

    level = [num * (scale // den) for _, num, den in samples]
    leads = []
    while any(level):
        if len(leads) > cap:
            raise ArithmeticError(
                f"column {column} ratio is not polynomial of degree <= {cap}"
            )
        leads.append(level[0])
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]

    numerator = _newton_polynomial(leads)
    denominator = scale * math.factorial(len(leads) - 1)
    shared = math.gcd(*numerator.coeffs, denominator)
    numerator = PolyZ([c // shared for c in numerator.coeffs])
    denominator //= shared
    # Every sample, not just the first degree + 1, must satisfy
    # P(n) / D = U(n); checked cross-multiplied in integers.
    for n, num, den in samples:
        if numerator(n) * den != denominator * num:
            raise ArithmeticError(f"interpolant misses sample at n={n}")
    return ColumnFactorization(
        m=m, base=base, u_numerator=numerator, denominator=denominator
    )
