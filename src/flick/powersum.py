"""Integer-only power sums through the flickering basis.

Powers expand over products of consecutive integers centered near n:

    n^m = sum_k T(m, k) * fallshift(n, k)

and summing that expansion telescopes into

    S_m(n) = 1^m + ... + n^m = sum_k T(m, k) / (k+1) * integral_basis(n, k+1).

integral_basis(n, k+1) is a product of k+1 consecutive integers, hence
divisible by (k+1)!, so every term of the sum is an integer -- no Bernoulli
fractions anywhere.

Each I_{k+1}(n) is I_k(n) times one more factor, so an evaluation costs O(m)
small-by-big multiplies on a product that grows to about m * digits(n)
digits, plus O(m) coefficient products T(m, k) * I_{k+1}(n), each divided
exactly by k+1.  The cost therefore grows with the digit count of n as well
as with m.  The coefficients are row m of the triangle, filled once per
process by O(m^2) bigint steps and kept for later calls.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Iterable

from .exact import CheckResult, exact_div
from .triangle import triangle_entry_recurrence

__all__ = [
    "fallshift",
    "integral_basis",
    "expand_power_check",
    "lemma_difference_check",
    "PowerSumResult",
    "power_sum",
    "power_sum_naive",
    "BenchReport",
    "bench_power_sum",
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


def expand_power_check(m: int, n_range: Iterable[int]) -> CheckResult:
    """Verify n^m = sum_k T(m, k) * fallshift(n, k) over the given n values."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = [triangle_entry_recurrence(m, k) for k in range(1, m + 1)]
    for n in n_range:
        expanded = sum(
            c * fallshift(n, k) for k, c in enumerate(coeffs, start=1) if c
        )
        if expanded != n**m:
            return CheckResult(False, (m, n, expanded, n**m))
    return CheckResult(True)


def lemma_difference_check(k: int, j_range: Iterable[int]) -> CheckResult:
    """Verify I_{k+1}(j) - I_{k+1}(j-1) = (k+1) * fallshift(j, k) over j_range."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for j in j_range:
        lhs = integral_basis(j, k + 1) - integral_basis(j - 1, k + 1)
        rhs = (k + 1) * fallshift(j, k)
        if lhs != rhs:
            return CheckResult(False, (k, j, lhs, rhs))
    return CheckResult(True)


@dataclass(frozen=True)
class PowerSumResult:
    """S_m(n) along with the per-term breakdown (k, T(m,k), I_{k+1}(n))."""

    m: int
    n: int
    value: int
    terms: list[tuple[int, int, int]]


def power_sum(m: int, n: int) -> PowerSumResult:
    """S_m(n) = sum over k of T(m, k) * I_{k+1}(n) / (k+1), each term exact."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    terms: list[tuple[int, int, int]] = []
    basis = n  # I_1(n)
    for k in range(1, m + 1):
        # I_{k+1}(n) = I_k(n) times the next factor outward from n: the top
        # one, n + (k+1)/2, for odd k and the bottom one, n - k/2, for even k.
        basis *= n + (k + 1) // 2 if k % 2 else n - k // 2
        coeff = triangle_entry_recurrence(m, k)
        if coeff == 0:
            continue
        total += exact_div(coeff * basis, k + 1)
        terms.append((k, coeff, basis))
    return PowerSumResult(m=m, n=n, value=total, terms=terms)


def power_sum_naive(m: int, n: int) -> int:
    """The oracle: literally 1^m + 2^m + ... + n^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(i**m for i in range(1, n + 1))


@dataclass(frozen=True)
class BenchReport:
    m: int
    n: int
    reps: int
    value: int
    precompute_seconds: float
    flick_median_seconds: float
    naive_median_seconds: float


def bench_power_sum(m: int, n: int, reps: int) -> BenchReport:
    """Median wall-clock of the basis method vs the naive loop over `reps` runs.

    The triangle-row precompute is timed once, separately, so the medians
    compare pure evaluation cost.  Runs are sequential to keep timings honest.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    t0 = time.perf_counter()
    triangle_entry_recurrence(m, 1)  # fills the coefficient rows up to m
    precompute = time.perf_counter() - t0

    flick_times = []
    value = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        value = power_sum(m, n).value
        flick_times.append(time.perf_counter() - t0)

    naive_times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        check = power_sum_naive(m, n)
        naive_times.append(time.perf_counter() - t0)
        if check != value:
            raise ArithmeticError(
                f"basis and naive methods disagree at m={m}, n={n}"
            )

    return BenchReport(
        m=m,
        n=n,
        reps=reps,
        value=value,
        precompute_seconds=precompute,
        flick_median_seconds=statistics.median(flick_times),
        naive_median_seconds=statistics.median(naive_times),
    )
