"""Stirling numbers of the second kind, the two odd-slot kernels, and A008957.

Every odd-column entry of the flickering triangle, T(power, order) with order
odd, has two closed forms that need no triangle recurrence: the order-th
difference of j^power centred at the half-integer offset, divided exactly by
order!, and a binomial sum against Stirling numbers.  Both start their window
at the shift -(order - 1)/2, so the difference only meets the bases
-(order - 1)/2 .. (order + 1)/2, and the binomial sum needs only the terms
j = order .. power, since S2(j, order) vanishes for j < order.
The difference folds base -a onto base a with the sign (-1)^power, so it
needs only the binomials C(order, i) for i >= order // 2, raises only the odd
bases to the power and gets each even base 2b as (b^power) << power.
`_odd_slot_difference` and `_odd_slot_stirling` are the only copies of the
two.  The Todd closed forms in `flick.todd`, which read single entries, and
`a008957_stirling` are index maps over them.

A008957(n, k) -- the central factorial numbers of the second kind laid out as
a triangle -- coincides with the flickering triangle along odd rows and
columns: A008957(n, k) = T(2n-1, 2n-2k+1).  So row n of A008957 is the odd
half of row 2n-1 of T, and `a008957_fd` is an index map over
`flick.triangle.triangle_row_extraction`: one difference table of j^(2n-1)
gives the whole row in O(n^2) big-integer subtractions, where one difference
kernel call per entry would make O(n^2) big-integer products for the row.  A
single entry read cold costs that same whole extraction.
"""

from __future__ import annotations

import functools
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
    """T(power, order) for odd order <= power, as the centred difference
    sum_i (-1)^(order-i) C(order, i) (i - half)^power over order!,
    with half = order // 2.

    The bases run over -half .. half + 1.  Base -a and base a carry the same
    sign, (-1)^(half+1-a), and C(order, half - a) = C(order, half + a + 1),
    so a^power has the weight C(order, half + a) + (-1)^power C(order, half + a + 1)
    and only the binomials C(order, i) for i = half .. order are built.
    Base 0 drops out, since power >= 1.  Only odd bases are raised to the
    power: an even base 2b gives (b^power) << power.
    """
    half = order // 2
    binoms = [math.comb(order, half)]  # binoms[a] = C(order, half + a)
    for i in range(half, order):
        binoms.append(binoms[-1] * (order - i) // (i + 1))
    binoms.append(0)
    odd_power = power % 2 == 1
    powers = [0]  # powers[a] = a^power
    total = 0
    for a in range(1, half + 2):
        raised = powers[a >> 1] << power if a % 2 == 0 else a**power
        powers.append(raised)
        weight = binoms[a] - binoms[a + 1] if odd_power else binoms[a] + binoms[a + 1]
        total += -weight * raised if (half + 1 - a) % 2 else weight * raised
    return exact_div(total, math.factorial(order))


def _odd_slot_stirling(power: int, order: int) -> int:
    """T(power, order) for odd order, as the binomial sum
    sum_j C(power, j) shift^(power-j) S2(j, order),
    with shift = -(order - 1)/2 and 0^0 = 1 at order 1, by Horner's rule in
    the shift over j = order .. power (at order 1 it keeps j = power alone).
    S2(j, order) is read from the stored rows, filled through row power once."""
    shift = -(order // 2)
    binom = math.comb(power, order)
    _TABLE.row(power)
    rows = _TABLE._rows  # rows are only appended: read-only here
    total = 0
    for j in range(order, power + 1):
        total = total * shift + binom * rows[j][order]
        binom = binom * (power - j) // (j + 1)
    return total


@functools.lru_cache(maxsize=1)
def _extracted_row(power: int) -> list[int]:
    """Row `power` of T by central extraction; the last row read is kept."""
    # Imported here so that the commands that never read A008957 (`flick
    # todd` among them) do not load the triangle module.
    from .triangle import triangle_row_extraction

    return triangle_row_extraction(power)


def a008957_fd(n: int, k: int) -> int:
    """A008957(n, k) = T(2n-1, 2n-2k+1) as a normalized finite difference
    of j^(2n-1): slot 2n-2k+1 of `triangle_row_extraction(2n-1)`.

    The row is extracted whole and kept until a different row is read, so
    the n entries of row n share one difference table, O(n^2) big-integer
    subtractions for the row.  The trade: a single entry read cold costs that
    whole extraction too, where one `_odd_slot_difference` call costs O(n)
    terms.  On a 2-vCPU VM (Python 3.11) the full row 120 takes 2.8 ms
    against 15.6 ms by one kernel call per entry, but the entry (120, 60)
    alone takes 2.9 ms against 0.11 ms, and (400, 200) 94 ms against 2.0 ms.
    Callers that read single entries use the kernel, as `flick.todd` does.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return _extracted_row(2 * n - 1)[2 * n - 2 * k]


def a008957_stirling(n: int, k: int) -> int:
    """A008957(n, k) = T(2n-1, 2n-2k+1) as a binomial sum against Stirling numbers."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return _odd_slot_stirling(2 * n - 1, 2 * n - 2 * k + 1)
