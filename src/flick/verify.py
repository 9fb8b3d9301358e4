"""The full cross-check suite: every structural identity the package claims,
each runnable standalone and reported as one pass/fail line by the CLI.

Reference prefixes (the array corner, the named column prefixes, the Bell
prefix, the transform kernels) are frozen here as data, and this is their only
copy: the tests import them from here.  Everything else is checked by
recomputation along an independent route.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bfile import format_bfile, parse_bfile
from .powersum import (
    expand_power_check,
    integral_basis,
    lemma_difference_check,
    power_sum,
    power_sum_naive,
)
from .series import (
    SeriesQ,
    bell_closed_form,
    bell_ogf_coefficients,
    expand_rational,
    row_gf_full,
    row_gf_odd,
)
from .stirling import a008957_fd, a008957_stirling, stirling2
from .todd import (
    column_transition_check,
    fit_column_polynomial,
    subgrid_check,
    todd_column,
    todd_finite_difference,
    todd_recurrence,
    todd_row,
    todd_stirling,
)
from .transforms import (
    IntSeq,
    antidiagonal_sums,
    bell_with_leading_one,
    binomial_transform,
    inverse_binomial_transform,
    kernel,
    row_sums,
)
from .triangle import build_diff_table, triangle_entry_recurrence, triangle_rows

__all__ = [
    "PropertyReport",
    "run_suite",
    "REFERENCE_TABLE",
    "REFERENCE_COLUMNS",
    "REFERENCE_BELL",
    "REFERENCE_KERNELS",
]

# Todd(n, k) for n = 1..5, k = 1..8.
REFERENCE_TABLE = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 2, 5, 10, 21, 42, 85, 170],
    [1, 3, 14, 42, 147, 441, 1408, 4224],
    [1, 4, 30, 120, 627, 2508, 11440, 45760],
    [1, 5, 55, 275, 2002, 10010, 61490, 307450],
]

# First five entries of columns k = 1..9.
REFERENCE_COLUMNS = {
    1: [1, 1, 1, 1, 1],
    2: [1, 2, 3, 4, 5],
    3: [1, 5, 14, 30, 55],
    4: [1, 10, 42, 120, 275],
    5: [1, 21, 147, 627, 2002],
    6: [1, 42, 441, 2508, 10010],
    7: [1, 85, 1408, 11440, 61490],
    8: [1, 170, 4224, 45760, 307450],
    9: [1, 341, 13013, 196053, 1733303],
}

REFERENCE_BELL = [1, 2, 2, 5, 7, 21, 37, 126, 264, 1001]

# Kernel of the q-fold inverse binomial transform, first seven terms.
REFERENCE_KERNELS = {
    0: [1, 1, 2, 2, 5, 7, 21],
    2: [1, -1, 2, -6, 21, -75, 269],
    4: [1, -3, 10, -38, 165, -797, 4125],
    6: [1, -5, 26, -142, 821, -5039, 32709],
    8: [1, -7, 50, -366, 2757, -21441, 172421],
}


@dataclass(frozen=True)
class PropertyReport:
    name: str
    ok: bool
    detail: str = ""


def _bound(default: int, max_n: int | None) -> int:
    if max_n is None:
        return default
    return max(1, min(default, max_n))


def _fail(name: str, detail: str) -> PropertyReport:
    return PropertyReport(name=name, ok=False, detail=detail)


def _ok(name: str) -> PropertyReport:
    return PropertyReport(name=name, ok=True)


def _check_triangle_methods(max_n: int | None) -> PropertyReport:
    name = "triangle: extraction == recurrence"
    limit = _bound(60, max_n)
    by_extraction = triangle_rows(limit, method="extraction")
    by_recurrence = triangle_rows(limit, method="recurrence")
    for n in range(1, limit + 1):
        if by_extraction.row(n) != by_recurrence.row(n):
            return _fail(name, f"row {n} differs")
    return _ok(name)


def _check_triangle_integrality(max_n: int | None) -> PropertyReport:
    name = "triangle: recurrence divisions exact, entries nonnegative"
    limit = _bound(200, max_n)
    try:
        triangle = triangle_rows(limit, method="recurrence")
    except ArithmeticError as exc:
        return _fail(name, str(exc))
    for n in range(1, limit + 1):
        for value in triangle.row(n):
            if value < 0:
                return _fail(name, f"negative entry in row {n}")
    return _ok(name)


def _check_zero_pattern(max_n: int | None) -> PropertyReport:
    name = "triangle: zeros exactly at even k, odd n, 1 < k < n"
    limit = _bound(200, max_n)
    triangle = triangle_rows(limit, method="recurrence")
    for n in range(1, limit + 1):
        row = triangle.row(n)
        for k in range(1, n + 1):
            expected_zero = k % 2 == 0 and n % 2 == 1 and 1 < k < n
            if (row[k - 1] == 0) != expected_zero:
                return _fail(name, f"pattern broken at ({n}, {k})")
    return _ok(name)


def _check_collapse(max_n: int | None) -> PropertyReport:
    name = "triangle: T(n, k) = T(n-1, k-1) for even n, even k"
    limit = _bound(200, max_n)
    triangle = triangle_rows(limit, method="recurrence")
    for n in range(4, limit + 1, 2):
        for k in range(2, n, 2):
            if 1 < k < n and triangle.entry(n, k) != triangle.entry(n - 1, k - 1):
                return _fail(name, f"collapse fails at ({n}, {k})")
    return _ok(name)


def _check_power_expansion(max_n: int | None) -> PropertyReport:
    name = "triangle: n^m expands over the fallshift basis"
    limit = _bound(25, max_n)
    for m in range(1, limit + 1):
        result = expand_power_check(m, range(-10, 11))
        if not result:
            return _fail(name, f"counterexample {result.counterexample}")
    return _ok(name)


def _check_diff_table(max_n: int | None) -> PropertyReport:
    name = "difference table: level lengths and recurrence"
    limit = _bound(20, max_n)
    for power in range(1, limit + 1):
        table = build_diff_table(power)
        if table.levels[0] != table.values:
            return _fail(name, f"level 0 mismatch at power {power}")
        for k in range(1, power + 1):
            level, prev = table.levels[k], table.levels[k - 1]
            if len(level) != len(table.values) - k:
                return _fail(name, f"level {k} length at power {power}")
            if any(level[i] != prev[i + 1] - prev[i] for i in range(len(level))):
                return _fail(name, f"level {k} values at power {power}")
    return _ok(name)


def _check_todd_methods(max_n: int | None) -> PropertyReport:
    name = "todd: recurrence == finite difference == stirling sum"
    limit = _bound(8, max_n)
    for n in range(1, limit + 1):
        for k in range(1, 11):
            r = todd_recurrence(n, k)
            fd = todd_finite_difference(n, k)
            st = todd_stirling(n, k)
            if not r == fd == st:
                return _fail(name, f"({n}, {k}): {r}, {fd}, {st}")
    return _ok(name)


def _check_subgrid(max_n: int | None) -> PropertyReport:
    name = "todd: sub-grid of the triangle at odd columns"
    result = subgrid_check(_bound(8, max_n), 10)
    if not result:
        return _fail(name, f"counterexample {result.counterexample}")
    return _ok(name)


def _check_transition(max_n: int | None) -> PropertyReport:
    name = "todd: column transition Todd(n,2m+1) - Todd(n-1,2m+1) = n^2 Todd(n,2m-1)"
    result = column_transition_check(_bound(30, max_n), 6)
    if not result:
        return _fail(name, f"counterexample {result.counterexample}")
    return _ok(name)


def _check_reference_rows(max_n: int | None) -> PropertyReport:
    name = "todd: rows 1-5 x columns 1-8 match the reference corner"
    for n, expected in enumerate(REFERENCE_TABLE, start=1):
        if todd_row(n, 8) != expected:
            return _fail(name, f"row {n} differs")
    return _ok(name)


def _check_reference_columns(max_n: int | None) -> PropertyReport:
    name = "todd: columns 1-9 match the reference prefixes"
    for k, expected in REFERENCE_COLUMNS.items():
        if todd_column(k, 5) != expected:
            return _fail(name, f"column {k} differs")
    return _ok(name)


def _check_fit_exact(max_n: int | None) -> PropertyReport:
    name = "columns: fitted (P_1, D_1) = (1, 6) and (P_2, D_2) = (5n-1, 360)"
    fit1 = fit_column_polynomial(1)
    if list(fit1.u_numerator.coeffs) != [1] or fit1.denominator != 6:
        return _fail(name, f"m=1 gave {fit1.u_numerator.coeffs}/{fit1.denominator}")
    fit2 = fit_column_polynomial(2)
    if list(fit2.u_numerator.coeffs) != [-1, 5] or fit2.denominator != 360:
        return _fail(name, f"m=2 gave {fit2.u_numerator.coeffs}/{fit2.denominator}")
    return _ok(name)


def _check_fit_heldout(max_n: int | None) -> PropertyReport:
    name = "columns: fit reproduces 20 held-out values for m <= 5"
    for m in range(1, _bound(5, max_n) + 1):
        fit = fit_column_polynomial(m)
        fresh_start = 4 * m + 6
        for n in range(fresh_start, fresh_start + 20):
            if fit.todd_value(n) != todd_recurrence(n, 2 * m + 1):
                return _fail(name, f"m={m} misses at n={n}")
    return _ok(name)


def _check_fit_residual(max_n: int | None) -> PropertyReport:
    name = "columns: factorizations satisfy the transition recurrence"
    # Seed with column 1 (all ones); each fitted column must then satisfy
    # fit_m(n) - fit_m(n-1) = n^2 * fit_{m-1}(n).
    prev_value: Callable[[int], int] = lambda n: 1
    for m in range(1, _bound(5, max_n) + 1):
        fit = fit_column_polynomial(m)
        for n in range(2, 12):
            lhs = fit.todd_value(n) - fit.todd_value(n - 1)
            rhs = n * n * prev_value(n)
            if lhs != rhs:
                return _fail(name, f"residual fails at m={m}, n={n}")
        prev_value = fit.todd_value
    return _ok(name)


def _check_gf_full(max_n: int | None) -> PropertyReport:
    name = "genfunc: full-row series match todd rows"
    for n in range(1, _bound(6, max_n) + 1):
        coeffs = expand_rational(row_gf_full(n), 21)
        if coeffs[0] != 0 or coeffs[1:] != todd_row(n, 20):
            return _fail(name, f"row {n} differs")
    return _ok(name)


def _check_gf_odd(max_n: int | None) -> PropertyReport:
    name = "genfunc: odd-slot series match odd todd columns"
    for n in range(1, _bound(6, max_n) + 1):
        coeffs = expand_rational(row_gf_odd(n), 11)
        expected = [todd_recurrence(n, 2 * k - 1) for k in range(1, 11)]
        if coeffs[0] != 0 or coeffs[1:] != expected:
            return _fail(name, f"row {n} differs")
    return _ok(name)


def _check_bell_routes(max_n: int | None) -> PropertyReport:
    name = "bell: row sums == anti-diagonals == OGF == closed form"
    limit = _bound(20, max_n)
    ogf_limit = _bound(24, max_n)
    sums = row_sums(ogf_limit)
    if antidiagonal_sums(ogf_limit) != sums:
        return _fail(name, "anti-diagonal route differs")
    if bell_ogf_coefficients(ogf_limit + 1) != sums.values:
        return _fail(name, "OGF route differs")
    for n in range(1, limit + 1):
        if bell_closed_form(n) != sums.values[n - 1]:
            return _fail(name, f"closed form differs at n={n}")
    return _ok(name)


def _check_bell_prefix(max_n: int | None) -> PropertyReport:
    name = "bell: first ten terms match the reference list"
    if row_sums(10).values != REFERENCE_BELL:
        return _fail(name, f"got {row_sums(10).values}")
    return _ok(name)


def _check_binomial_inverse(max_n: int | None) -> PropertyReport:
    name = "transforms: inverse(transform) is the identity"
    rng = random.Random(395021)
    limit = _bound(30, max_n)
    for length in range(1, limit + 1):
        seq = IntSeq([rng.randint(-50, 50) for _ in range(length)], offset=0)
        if inverse_binomial_transform(binomial_transform(seq)) != seq:
            return _fail(name, f"round trip fails at length {length}")
        if binomial_transform(inverse_binomial_transform(seq)) != seq:
            return _fail(name, f"reverse round trip fails at length {length}")
    return _ok(name)


def _check_kernels(max_n: int | None) -> PropertyReport:
    name = "transforms: kernels match references and transform back"
    for q, expected in REFERENCE_KERNELS.items():
        got = kernel(q, 7)
        if got.values != expected:
            return _fail(name, f"kernel q={q} gave {got.values}")
    reference = bell_with_leading_one(12)
    for q in (2, 4, 6, 8):
        iterated = reference
        for _ in range(q):
            iterated = inverse_binomial_transform(iterated)
        seq = kernel(q, 12)
        if seq != iterated:
            return _fail(name, f"kernel q={q} differs from {q} inverse transforms")
        for _ in range(q):
            seq = binomial_transform(seq)
        if seq != reference:
            return _fail(name, f"forward transform^{q} misses at q={q}")
    return _ok(name)


def _check_kernel_signs(max_n: int | None) -> PropertyReport:
    name = "transforms: kernels alternate in sign from index 1 (q >= 2)"
    for q in (2, 4, 6, 8):
        values = kernel(q, 12).values
        for i in range(1, 12):
            if values[i] == 0 or (values[i] > 0) != (i % 2 == 0):
                return _fail(name, f"q={q} breaks at index {i}")
    return _ok(name)


def _partition_block_counts(n: int) -> dict[int, int]:
    # Count set partitions of {1..n} by number of blocks via restricted
    # growth strings; independent of the triangular recurrence.
    counts: dict[int, int] = {}

    def extend(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            counts[used] = counts.get(used, 0) + 1
            return
        for block in range(used + 1):
            prefix.append(block)
            extend(prefix, max(used, block + 1))
            prefix.pop()

    extend([], 0)
    return counts


def _check_stirling_oracle(max_n: int | None) -> PropertyReport:
    name = "stirling2: matches brute-force set-partition counts"
    for n in range(1, _bound(8, max_n) + 1):
        counts = _partition_block_counts(n)
        for k in range(0, n + 1):
            if stirling2(n, k) != counts.get(k, 0):
                return _fail(name, f"S2({n}, {k}) differs")
    return _ok(name)


def _check_a008957(max_n: int | None) -> PropertyReport:
    name = "a008957: both closed forms equal the triangle slice"
    limit = _bound(15, max_n)
    for n in range(1, limit + 1):
        for k in range(1, n + 1):
            fd = a008957_fd(n, k)
            st = a008957_stirling(n, k)
            tri = triangle_entry_recurrence(2 * n - 1, 2 * n - 2 * k + 1)
            if not fd == st == tri:
                return _fail(name, f"({n}, {k}): {fd}, {st}, {tri}")
            if fd <= 0:
                return _fail(name, f"non-positive value at ({n}, {k})")
    return _ok(name)


def _check_divisibility(max_n: int | None) -> PropertyReport:
    name = "powersum: (k+1)! divides the integral basis"
    limit = _bound(15, max_n)
    for k in range(1, limit + 1):
        fact = math.factorial(k + 1)
        for n in range(-50, 51):
            if integral_basis(n, k + 1) % fact:
                return _fail(name, f"fails at n={n}, k={k}")
    return _ok(name)


def _check_oracle_grid(max_n: int | None) -> PropertyReport:
    name = "powersum: basis method equals the naive oracle"
    m_limit = _bound(30, max_n)
    n_values = list(range(1, _bound(100, max_n) + 1))
    for big in (10**3, 10**4):
        if max_n is None or max_n >= big:
            n_values.append(big)
    for m in range(1, m_limit + 1):
        for n in n_values:
            if power_sum(m, n).value != power_sum_naive(m, n):
                return _fail(name, f"differs at m={m}, n={n}")
    return _ok(name)


def _check_closed_forms(max_n: int | None) -> PropertyReport:
    name = "powersum: classical closed forms for m = 1, 2, 3"
    limit = _bound(200, max_n)
    for n in range(1, limit + 1):
        if power_sum(1, n).value * 2 != n * (n + 1):
            return _fail(name, f"m=1 fails at n={n}")
        if power_sum(2, n).value * 6 != n * (n + 1) * (2 * n + 1):
            return _fail(name, f"m=2 fails at n={n}")
        if power_sum(3, n).value * 4 != (n * (n + 1)) ** 2:
            return _fail(name, f"m=3 fails at n={n}")
    return _ok(name)


def _check_telescoping(max_n: int | None) -> PropertyReport:
    name = "powersum: basis differences telescope to the endpoint"
    limit = _bound(50, max_n)
    for k in range(1, 11):
        for n in range(1, limit + 1):
            total = sum(
                integral_basis(j, k + 1) - integral_basis(j - 1, k + 1)
                for j in range(1, n + 1)
            )
            if total != integral_basis(n, k + 1):
                return _fail(name, f"fails at k={k}, n={n}")
    return _ok(name)


def _check_lemma(max_n: int | None) -> PropertyReport:
    name = "powersum: difference lemma for the flickering basis"
    for k in range(1, _bound(12, max_n) + 1):
        result = lemma_difference_check(k, range(-20, 21))
        if not result:
            return _fail(name, f"counterexample {result.counterexample}")
    return _ok(name)


def _random_series(rng: random.Random, order: int) -> SeriesQ:
    coeffs = [
        Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)
    ]
    return SeriesQ(coeffs, order)


def _check_series_algebra(max_n: int | None) -> PropertyReport:
    name = "series: product is associative and has a unit (mod truncation)"
    rng = random.Random(394582)
    for _ in range(40):
        order = rng.randint(1, 8)
        f = _random_series(rng, order)
        g = _random_series(rng, order)
        h = _random_series(rng, order)
        if (f * g) * h != f * (g * h):
            return _fail(name, "associativity fails")
        if f * SeriesQ.one(order) != f:
            return _fail(name, "unit fails")
    return _ok(name)


def _check_bfile_roundtrip(max_n: int | None) -> PropertyReport:
    name = "bfile: format/parse round trip"
    cases = [
        (row_sums(12).values, 1),
        (kernel(4, 9).values, 0),
        (todd_column(9, 5), 1),
    ]
    for values, offset in cases:
        if parse_bfile(format_bfile(values, offset)) != (offset, values):
            return _fail(name, f"round trip fails at offset {offset}")
    return _ok(name)


_CHECKS: list[Callable[[int | None], PropertyReport]] = [
    _check_triangle_methods,
    _check_triangle_integrality,
    _check_zero_pattern,
    _check_collapse,
    _check_power_expansion,
    _check_diff_table,
    _check_todd_methods,
    _check_subgrid,
    _check_transition,
    _check_reference_rows,
    _check_reference_columns,
    _check_fit_exact,
    _check_fit_heldout,
    _check_fit_residual,
    _check_gf_full,
    _check_gf_odd,
    _check_bell_routes,
    _check_bell_prefix,
    _check_binomial_inverse,
    _check_kernels,
    _check_kernel_signs,
    _check_stirling_oracle,
    _check_a008957,
    _check_divisibility,
    _check_oracle_grid,
    _check_closed_forms,
    _check_telescoping,
    _check_lemma,
    _check_series_algebra,
    _check_bfile_roundtrip,
]


def run_suite(max_n: int | None = None) -> list[PropertyReport]:
    """Run every property check; max_n caps the per-check bounds when given."""
    return [check(max_n) for check in _CHECKS]
