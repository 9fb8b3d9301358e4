"""Integer-only power sums through the flickering basis.

Powers expand over products of consecutive integers centered near n:

    n^m = sum_k T(m, k) * fallshift(n, k)

and summing that expansion telescopes into

    S_m(n) = 1^m + ... + n^m = sum_k T(m, k) / (k+1) * integral_basis(n, k+1).

integral_basis(n, k+1) is a product of k+1 consecutive integers, hence
divisible by (k+1)!, so every term of the sum is an integer -- no Bernoulli
fractions anywhere.

Each I_{k+1}(n) is I_k(n) times one more factor, so the sum nests by
Horner's rule once every term is scaled by L = lcm(1, ..., m+1), followed by
one exact division by L; no coefficient is ever multiplied by a basis
product.  The nest's value grows to about m * digits(n) digits.  Evaluated
as one pass on one accumulator, it costs O(m) small-by-big multiplies, so
quadratic time in the size of the result.  Above a threshold in m times the
bit length of n it is split in halves instead, as a product tree (binary
splitting), whose large multiplies pair operands of equal size and so use
Karatsuba's method: m = 300 at a 1000-digit n takes about a third of the
one-pass time.  The cost grows with the digit count of n as well as with m.
The coefficients are row m of the triangle, filled once per process by
O(m^2) bigint steps and kept for later calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import exact_div
# power_sum does not call triangle_entry_recurrence.  The import stays: the
# powersum workload's set-up (bench/workloads.py, PowerSum.setup) calls it
# through this module, and the traced run (bench/layers.py) binds its
# `triangle.coeff` span here, as it binds `powersum.basis` to integral_basis.
from .triangle import _TABLE, triangle_entry_recurrence  # noqa: F401

__all__ = [
    "fallshift",
    "integral_basis",
    "PowerSumResult",
    "power_sum",
    "power_sum_naive",
    "power_sum_residue",
]


def _window_product(start: int, k: int) -> int:
    """Product of the k consecutive integers start, start + 1, ..., start + k - 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.prod(range(start, start + k))


def fallshift(n: int, k: int) -> int:
    """Product of k consecutive integers starting at n - floor(k/2).

    The factor set grows outward from n as {n, n-1, n+1, n-2, ...}.
    """
    return _window_product(n - k // 2, k)


def integral_basis(n: int, k: int) -> int:
    """Product of k consecutive integers starting at n - floor((k-1)/2).

    The factor set grows outward from n as {n, n+1, n-1, n+2, ...}; always
    contains n, so the whole family vanishes at n = 0.
    """
    return _window_product(n - (k - 1) // 2, k)


def _basis_factors(n: int, m: int) -> list[int]:
    """g_0, ..., g_m with I_{k+1}(n) = I_k(n) * g_k (I_0 = 1, so g_0 = n): the
    next factor outward from n, the top one n + (k+1)/2 for odd k and the
    bottom one n - k/2 for even k."""
    return [n + (k + 1) // 2 if k % 2 else n - k // 2 for k in range(m + 1)]


class PowerSumResult(NamedTuple):
    """S_m(n) along with the per-term breakdown (k, T(m,k), I_{k+1}(n))."""

    m: int
    n: int
    value: int

    @property
    def terms(self) -> list[tuple[int, int, int]]:
        """(k, T(m, k), I_{k+1}(n)) for every nonzero T(m, k), k ascending.

        Rebuilt on each access by the forward loop; every term T(m, k) *
        I_{k+1}(n) goes through exact_div by k + 1, so it raises unless each
        term of the sum is an integer.
        """
        terms: list[tuple[int, int, int]] = []
        basis = self.n  # I_1(n)
        factors = _basis_factors(self.n, self.m)
        for k, coeff in enumerate(_TABLE.row(self.m - 1), start=1):
            basis *= factors[k]
            if coeff:
                exact_div(coeff * basis, k + 1)
                terms.append((k, coeff, basis))
        return terms


def power_sum(m: int, n: int) -> PowerSumResult:
    """S_m(n) = sum over k of T(m, k) * I_{k+1}(n) / (k+1), by Horner's rule.

    With g_k = I_{k+1}(n) / I_k(n), L = lcm(1, ..., m+1) and the integers
    a_k = T(m, k) * L / (k+1),

        L * S_m(n) = n * g_1 * (a_1 + g_2 * (a_2 + ... + g_m * a_m)).

    Below _SPLIT_BITS (m times the bit length of n) the nest is evaluated
    from the inside out on one accumulator.  Above it the same nest is split
    in halves down to leaves of _LEAF terms, so its large products pair
    operands of equal size; the value is the same integer either way.  A
    zero a_k only folds g_k into the next multiply, so odd m, whose even
    slots are zero, makes one pass over the accumulator per two factors.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    row = _TABLE.row(m - 1)
    scale = math.lcm(*range(1, m + 2))
    factors = _basis_factors(n, m)
    if m * n.bit_length() < _SPLIT_BITS:
        nest, _ = _horner(row, scale, factors, 1, m, False)
    else:
        nest, _ = _split(row, scale, factors, 1, m, False)
    return PowerSumResult(m=m, n=n, value=exact_div(nest * (n * factors[1]), scale))


# Leaf size and split threshold, measured as the one-pass time over the split
# time, in-process with warm coefficients (best of 5 or more runs, 2-vCPU VM,
# Python 3.11.7).  At m = 300, leaves of 16 to 32 terms were within 3 % of
# the best leaf at 25 and 100 digits of n (32: 1.09x and 1.55x); 8 won at
# 1000 and 3000 digits (3.1x and 3.4x against 2.8x and 3.1x for 32) but not
# at 25 (0.99x).  Below the threshold splitting does not pay: for even m,
# 0.92x at m * bits(n) = 15 000 (m = 300, 15 digits) and 1.08x to 1.15x from
# 20 000 on (m = 200 at 30 digits, 160 at 40, 80 at 100); odd m, whose one
# pass is cheaper, breaks even near 25 000 (0.98x at m = 299, 25 digits).
_LEAF = 32
_SPLIT_BITS = 20_000


def _horner(
    row: list[int], scale: int, factors: list[int], lo: int, hi: int, with_product: bool
) -> tuple[int, int]:
    """(V, Q) with V = a_lo + g_{lo+1} * (a_{lo+1} + ... + g_hi * a_hi) by one
    pass, where a_k = row[k-1] * scale / (k+1), and Q = g_{lo+1} * ... *
    g_{hi+1} if with_product, else 0."""
    acc = 0
    pending = 1  # product of the factors g_k since the last nonzero coefficient
    for k in range(hi, lo, -1):
        coeff = row[k - 1]
        if coeff:
            acc = acc * pending + coeff * (scale // (k + 1))
            pending = 1
        pending *= factors[k]
    nest = acc * pending + row[lo - 1] * (scale // (lo + 1))
    return nest, math.prod(factors[lo + 1 : hi + 2]) if with_product else 0


def _split(
    row: list[int], scale: int, factors: list[int], lo: int, hi: int, with_product: bool
) -> tuple[int, int]:
    """`_horner`'s (V, Q) over [lo, hi] by halves: V = V_1 + Q_1 * V_2 and
    Q = Q_1 * Q_2.  Q is formed only where a caller needs it, never on the
    right spine of the tree."""
    if hi - lo < _LEAF:
        return _horner(row, scale, factors, lo, hi, with_product)
    mid = (lo + hi) // 2
    left, left_product = _split(row, scale, factors, lo, mid, True)
    right, right_product = _split(row, scale, factors, mid + 1, hi, with_product)
    product = left_product * right_product if with_product else 0
    return left + left_product * right, product


def power_sum_naive(m: int, n: int) -> int:
    """The oracle: literally 1^m + 2^m + ... + n^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(i**m for i in range(1, n + 1))


def power_sum_residue(m: int, n: int, p: int) -> int:
    """S_m(n) mod the prime p from at most p - 1 powers mod p: a second route
    at any n, reading no triangle, basis or oracle.

    By Fermat, 1^m + ... + (p-1)^m = -[(p-1) divides m] and p^m = 0 (mod p),
    so with n = q*p + r, S_m(n) = -q * [(p-1) divides m] + 1^m + ... + r^m.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    q, r = divmod(n, p)
    blocks = -q if m % (p - 1) == 0 else 0
    return (blocks + sum(pow(i, m, p) for i in range(1, r + 1))) % p
