"""Faulhaber's formula with exact Bernoulli numbers: the classical route to
S_m(n) = 1^m + ... + n^m, the one the flickering basis avoids.  It shares no
code with flick, so the tests use it as an independent oracle at any n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _tangent_numbers(count: int) -> list[int]:
    # t[j] = tan^(2j-1)(0) = 1, 2, 16, 272, ... for j = 1..count, by the
    # integer-only in-place scheme of Brent and Harvey (2011), Algorithm 1.
    t = [0, 1] + [0] * max(count - 1, 0)
    for j in range(2, count + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[: count + 1]


@lru_cache(maxsize=None)
def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """B_0 .. B_m with B_1 = +1/2, the sign that makes Faulhaber's sum S_m(n)."""
    b = [Fraction(0)] * (m + 1)
    b[0] = Fraction(1)
    if m >= 1:
        b[1] = Fraction(1, 2)
    tangent = _tangent_numbers(m // 2)
    for k in range(1, m // 2 + 1):
        sign = 1 if k % 2 else -1
        b[2 * k] = Fraction(sign * 2 * k * tangent[k], 4**k * (4**k - 1))
    return tuple(b)


@lru_cache(maxsize=None)
def _scaled_coefficients(m: int) -> tuple[list[int], int]:
    # S_m(n) = sum_j C(m+1, j) B_j n^(m+1-j) / (m+1), over one common
    # denominator so that evaluation stays in integers.
    terms = [math.comb(m + 1, j) * b for j, b in enumerate(bernoulli_numbers(m))]
    common = math.lcm(*(t.denominator for t in terms))
    return [t.numerator * (common // t.denominator) for t in terms], common * (m + 1)


def faulhaber_sum(m: int, n: int) -> int:
    """1^m + ... + n^m by Faulhaber's formula (m >= 1, n >= 0)."""
    coefficients, denominator = _scaled_coefficients(m)
    acc = 0
    for c in coefficients:  # Horner in n, highest power first
        acc = acc * n + c
    q, r = divmod(acc * n, denominator)
    assert r == 0, f"Faulhaber's sum for m={m} is not an integer at n={n}"
    return q
