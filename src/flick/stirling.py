"""Stirling numbers of the second kind, the two odd-slot kernels, and A008957.

Every odd-column entry of the flickering triangle, T(power, order) with order
odd, has two closed forms that need no triangle recurrence: the order-th
difference of j^power centred at the half-integer offset, divided exactly by
order!, and a binomial sum against Stirling numbers.  Both start their window
at the shift -(order - 1)/2, so the difference only meets the bases
-(order - 1)/2 .. (order + 1)/2, and the binomial sum needs only the terms
j = order .. power, since S2(j, order) vanishes for j < order.
`_odd_slot_difference` and `_odd_slot_stirling` are the only copies of the
two; the closed forms here and in `flick.todd` are index maps over them.

A008957(n, k) -- the central factorial numbers of the second kind laid out as
a triangle -- coincides with the flickering triangle along odd rows and
columns: A008957(n, k) = T(2n-1, 2n-2k+1).
"""

from __future__ import annotations

import math

from .exact import _StepTable, exact_div

__all__ = ["stirling2", "a008957_fd", "a008957_stirling"]


def _next_s2_row(prev: list[int]) -> list[int]:
    """Row m = len(prev) of S2 from row m - 1 (row 0 is [1])."""
    m = len(prev)
    row = [0] * (m + 1)
    row[m] = 1
    for j in range(1, m):
        row[j] = j * prev[j] + prev[j - 1]
    return row


_TABLE = _StepTable(_next_s2_row)


def stirling2(n: int, k: int) -> int:
    """S2(n, k): partitions of an n-set into k nonempty blocks; 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n, k >= 0")
    if k > n:
        return 0
    return _TABLE.row(n)[k]


def _odd_slot_difference(power: int, order: int) -> int:
    """T(power, order) for odd order, as the centred difference
    sum_i (-1)^(order-i) C(order, i) (i + shift)^power over order!,
    with shift = -(order - 1)/2; each |i + shift|^power is raised once."""
    half = order // 2
    weights = [0] * (half + 2)
    binom = 1
    for i in range(order + 1):
        base = i - half
        # (-a)^power = (-1)^power a^power
        negative = (order - i + (power if base < 0 else 0)) % 2 == 1
        weights[abs(base)] += -binom if negative else binom
        binom = binom * (order - i) // (i + 1)
    total = sum(w * a**power for a, w in enumerate(weights))
    return exact_div(total, math.factorial(order))


def _odd_slot_stirling(power: int, order: int) -> int:
    """T(power, order) for odd order, as the binomial sum
    sum_j C(power, j) shift^(power-j) S2(j, order),
    with shift = -(order - 1)/2 and 0^0 = 1 at order 1, by Horner's rule in
    the shift over j = order .. power (at order 1 it keeps j = power alone)."""
    shift = -(order // 2)
    binom = math.comb(power, order)
    total = 0
    for j in range(order, power + 1):
        total = total * shift + binom * stirling2(j, order)
        binom = binom * (power - j) // (j + 1)
    return total


def a008957_fd(n: int, k: int) -> int:
    """A008957(n, k) = T(2n-1, 2n-2k+1) as a normalized finite difference
    of j^(2n-1)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return _odd_slot_difference(2 * n - 1, 2 * n - 2 * k + 1)


def a008957_stirling(n: int, k: int) -> int:
    """A008957(n, k) = T(2n-1, 2n-2k+1) as a binomial sum against Stirling numbers."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return _odd_slot_stirling(2 * n - 1, 2 * n - 2 * k + 1)
