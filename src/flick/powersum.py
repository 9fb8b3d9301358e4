"""Integer-only power sums through the flickering basis.

Powers expand over products of consecutive integers centered near n:

    n^m = sum_k T(m, k) * fallshift(n, k)

and summing that expansion telescopes into

    S_m(n) = 1^m + ... + n^m = sum_k T(m, k) / (k+1) * integral_basis(n, k+1).

integral_basis(n, k+1) is a product of k+1 consecutive integers, hence
divisible by (k+1)!, so every term of the sum is an integer -- no Bernoulli
fractions anywhere.

Each I_{k+1}(n) is I_k(n) times one more factor, so the sum nests by
Horner's rule once every term is scaled by L = lcm(1, ..., m+1).  An
evaluation then costs O(m) small-by-big multiplies on one accumulator that
grows to about m * digits(n) digits, followed by one exact division by L; it
never multiplies a coefficient by a basis product.  The cost therefore grows
with the digit count of n as well as with m.  The coefficients are row m of
the triangle, filled once per process by O(m^2) bigint steps and kept for
later calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import exact_div
# triangle_entry_recurrence is unused here: the traced benchmark
# (bench/layers.py) binds its `triangle.coeff` span to this import.
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


def _basis_factor(n: int, k: int) -> int:
    """The factor with I_{k+1}(n) = I_k(n) * factor: the next one outward from
    n, the top one n + (k+1)/2 for odd k and the bottom one n - k/2 for even k."""
    return n + (k + 1) // 2 if k % 2 else n - k // 2


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
        for k, coeff in enumerate(_TABLE.row(self.m - 1), start=1):
            basis *= _basis_factor(self.n, k)
            if coeff:
                exact_div(coeff * basis, k + 1)
                terms.append((k, coeff, basis))
        return terms


def power_sum(m: int, n: int) -> PowerSumResult:
    """S_m(n) = sum over k of T(m, k) * I_{k+1}(n) / (k+1), by Horner's rule.

    With g_k = I_{k+1}(n) / I_k(n), L = lcm(1, ..., m+1) and the integers
    a_k = T(m, k) * L / (k+1),

        L * S_m(n) = n * g_1 * (a_1 + g_2 * (a_2 + ... + g_m * a_m)),

    evaluated from the inside out on one accumulator.  A zero a_k only folds
    g_k into the next multiply, so odd m, whose even slots are zero, makes
    one pass over the accumulator per two factors.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    row = _TABLE.row(m - 1)
    scale = math.lcm(*range(1, m + 2))
    acc = 0
    pending = 1  # product of the factors g_k since the last nonzero coefficient
    for k in range(m, 0, -1):
        coeff = row[k - 1]
        if coeff:
            acc = acc * pending + coeff * (scale // (k + 1))
            pending = 1
        pending *= _basis_factor(n, k)
    return PowerSumResult(m=m, n=n, value=exact_div(acc * (n * pending), scale))


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
