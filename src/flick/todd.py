"""The companion array Todd(n, k) (OEIS A394582) and its column polynomials.

Three independent ways to the same numbers:

  * a two-term recurrence whose step rule flickers with the parity of k,
  * a normalized central finite difference of the power j^(2n+k-2),
  * a binomial sum against Stirling numbers of the second kind.

Every entry, row, column and corner of the recurrence is an index map over
one walk of its columns, so the module keeps no state.  The other two ways
are index maps, power 2n+k-2 and order 2n-1, over the odd-slot kernels of
`flick.stirling`, shared with A008957.  Those kernels, and `flick.series`
for the column fit, are imported on first call, so `flick todd`, `row` and
`col` load neither module.

The array is the odd-column sub-grid of the flickering triangle,
Todd(m, k) = T(2m + k - 2, 2m - 1), and its odd columns factor as
Todd(n, 2m+1) = T_m(n) * P_m(n) / D_m with an explicit base polynomial T_m
and a fitted integer polynomial P_m over a constant denominator D_m.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

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
    "base_poly",
    "fit_column_polynomial",
]


def _columns(heights: Iterable[int]) -> Iterator[list[int]]:
    """Column k of Todd, [Todd(1, k), ..., Todd(h, k)], for k = 1, 2, ... and
    each height h of `heights`, which must be >= 1 and never increase.

    Todd(n, k) = n * Todd(n, k-1) + [k odd] * Todd(n-1, k), with Todd(0, k)
    = 0, so an even column is n times the one before, and an odd column the
    running sum of n times the one before.  Only the current column is kept.
    """
    column: Iterable[int] = chain([1], repeat(0))  # Todd(n, 0) = [n = 1]
    for k, height in enumerate(heights, start=1):
        scaled = map(mul, range(1, height + 1), column)
        column = list(accumulate(scaled) if k % 2 else scaled)
        yield column


def todd_recurrence(n: int, k: int) -> int:
    """Todd(n, k) by the flickering recurrence: column k walked n long."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    return todd_column(k, n)[-1]


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
    return [column[-1] for column in _columns(repeat(n, count))]


def todd_column(k: int, count: int) -> list[int]:
    """First `count` entries of column k."""
    if k < 1 or count < 1:
        raise ValueError("need k >= 1 and count >= 1")
    for column in _columns(repeat(count, k)):
        pass
    return column


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
    for n, todd in enumerate(todd_column(column, cap + 5), start=1):
        denom = base(n)
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
