"""The full cross-check suite: every structural identity the package claims,
each a named check in `_CHECKS`, reported as one pass/fail line by the CLI.

Every check runs at fixed bounds and returns a `CheckResult`; a failed one
carries the first counterexample as a tuple of indices and values, led by a
short label where the check can fail in more than one way.  A check that
raises `ArithmeticError` fails as ("raised", exception class, message).

Reference prefixes (the array corner, the named column prefixes, the Bell
prefix, the transform kernels) are frozen here as data, and this is their only
copy: the tests import them from here.  Everything else is checked by
recomputation along an independent route.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Callable, Iterator

# `power_sum` is read from its module at each call: the traced benchmark
# (bench/layers.py) wraps it there, possibly after this module is imported.
from . import powersum
from .bfile import format_bfile, parse_bfile
from .exact import CheckResult, exact_div
from .powersum import (
    expand_power_check,
    integral_basis,
    lemma_difference_check,
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

Check = Callable[[], CheckResult]


def _cases(generate: Callable[[], Iterator[tuple]]) -> Check:
    """Turn a generator of cases (..., got, want) into a check.

    The check passes unless some case has got != want; the first such case is
    its counterexample.  Cases are drawn lazily, so it stops there.
    """

    @functools.wraps(generate)
    def check() -> CheckResult:
        for case in generate():
            if case[-2] != case[-1]:
                return CheckResult(False, case)
        return CheckResult(True)

    return check


@_cases
def _check_triangle_methods():
    by_extraction = triangle_rows(60, method="extraction")
    by_recurrence = triangle_rows(60, method="recurrence")
    for n in range(1, 61):
        yield n, by_extraction.row(n), by_recurrence.row(n)


def _check_triangle_integrality() -> CheckResult:
    triangle = triangle_rows(200, method="recurrence")
    for n in range(1, 201):
        for k, value in enumerate(triangle.row(n), start=1):
            if value < 0:
                return CheckResult(False, ("negative", n, k, value))
    return CheckResult(True)


@_cases
def _check_zero_pattern():
    # Case (n, k, T(n, k) == 0, whether T(n, k) should be 0).
    triangle = triangle_rows(200, method="recurrence")
    for n in range(1, 201):
        for k, value in enumerate(triangle.row(n), start=1):
            yield n, k, value == 0, k % 2 == 0 and n % 2 == 1 and 1 < k < n


@_cases
def _check_collapse():
    triangle = triangle_rows(200, method="recurrence")
    for n in range(4, 201, 2):
        for k in range(2, n, 2):
            yield n, k, triangle.entry(n, k), triangle.entry(n - 1, k - 1)


def _check_power_expansion() -> CheckResult:
    for m in range(1, 26):
        result = expand_power_check(m, range(-10, 11))
        if not result:
            return result
    return CheckResult(True)


@_cases
def _check_diff_table():
    for power in range(1, 21):
        table = build_diff_table(power)
        yield "level 0", power, table.levels[0], table.values
        for k in range(1, power + 1):
            level, prev = table.levels[k], table.levels[k - 1]
            yield "length", power, k, len(level), len(table.values) - k
            for i, value in enumerate(level):
                yield "value", power, k, i, value, prev[i + 1] - prev[i]


@_cases
def _check_todd_methods():
    for n in range(1, 9):
        for k in range(1, 11):
            r = todd_recurrence(n, k)
            yield "finite difference", n, k, todd_finite_difference(n, k), r
            yield "stirling sum", n, k, todd_stirling(n, k), r


def _check_subgrid() -> CheckResult:
    return subgrid_check(8, 10)


def _check_transition() -> CheckResult:
    return column_transition_check(30, 6)


@_cases
def _check_reference_rows():
    for n, expected in enumerate(REFERENCE_TABLE, start=1):
        yield n, todd_row(n, 8), expected


@_cases
def _check_reference_columns():
    for k, expected in REFERENCE_COLUMNS.items():
        yield k, todd_column(k, 5), expected


@_cases
def _check_fit_exact():
    for m, expected in ((1, ([1], 6)), (2, ([-1, 5], 360))):
        fit = fit_column_polynomial(m)
        yield m, (list(fit.u_numerator.coeffs), fit.denominator), expected


@_cases
def _check_fit_heldout():
    # 20 values of each column past the samples its fit was made from.
    for m in range(1, 6):
        fit = fit_column_polynomial(m)
        for n in range(4 * m + 6, 4 * m + 26):
            yield m, n, fit.todd_value(n), todd_recurrence(n, 2 * m + 1)


@_cases
def _check_fit_residual():
    # Seed with column 1 (all ones); each fitted column must then satisfy
    # fit_m(n) - fit_m(n-1) = n^2 * fit_{m-1}(n).
    prev_value: Callable[[int], int] = lambda n: 1
    for m in range(1, 6):
        fit = fit_column_polynomial(m)
        for n in range(2, 12):
            lhs = fit.todd_value(n) - fit.todd_value(n - 1)
            yield m, n, lhs, n * n * prev_value(n)
        prev_value = fit.todd_value


@_cases
def _check_gf_full():
    for n in range(1, 7):
        yield n, expand_rational(row_gf_full(n), 21), [0] + todd_row(n, 20)


@_cases
def _check_gf_odd():
    for n in range(1, 7):
        expected = [0] + [todd_recurrence(n, 2 * k - 1) for k in range(1, 11)]
        yield n, expand_rational(row_gf_odd(n), 11), expected


@_cases
def _check_bell_routes():
    sums = row_sums(24)
    yield "anti-diagonals", antidiagonal_sums(24), sums
    yield "ogf", bell_ogf_coefficients(25), sums.values
    for n in range(1, 21):
        yield "closed form", n, bell_closed_form(n), sums.values[n - 1]


@_cases
def _check_bell_prefix():
    yield row_sums(10).values, REFERENCE_BELL


@_cases
def _check_binomial_inverse():
    rng = random.Random(395021)
    for length in range(1, 31):
        seq = IntSeq([rng.randint(-50, 50) for _ in range(length)], offset=0)
        there_and_back = inverse_binomial_transform(binomial_transform(seq))
        yield "inverse", length, there_and_back, seq
        back_and_there = binomial_transform(inverse_binomial_transform(seq))
        yield "forward", length, back_and_there, seq


@_cases
def _check_kernels():
    for q, expected in REFERENCE_KERNELS.items():
        yield "reference", q, kernel(q, 7).values, expected
    reference = bell_with_leading_one(12)
    for q in (2, 4, 6, 8):
        iterated = reference
        for _ in range(q):
            iterated = inverse_binomial_transform(iterated)
        seq = kernel(q, 12)
        yield "inverse", q, seq, iterated
        for _ in range(q):
            seq = binomial_transform(seq)
        yield "forward", q, seq, reference


@_cases
def _check_kernel_signs():
    # Case (q, i, sign of the kernel's term i, (-1)^i).
    for q in (2, 4, 6, 8):
        values = kernel(q, 12).values
        for i in range(1, 12):
            yield q, i, (values[i] > 0) - (values[i] < 0), (-1) ** i


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


@_cases
def _check_stirling_oracle():
    for n in range(1, 9):
        counts = _partition_block_counts(n)
        for k in range(0, n + 1):
            yield n, k, stirling2(n, k), counts.get(k, 0)


@_cases
def _check_a008957():
    for n in range(1, 16):
        for k in range(1, n + 1):
            fd = a008957_fd(n, k)
            tri = triangle_entry_recurrence(2 * n - 1, 2 * n - 2 * k + 1)
            yield "finite difference", n, k, fd, tri
            yield "stirling sum", n, k, a008957_stirling(n, k), tri
            yield "positive", n, k, fd > 0, True


@_cases
def _check_divisibility():
    # Case (n, k, I_{k+1}(n) mod (k+1)!, 0).
    for k in range(1, 16):
        fact = math.factorial(k + 1)
        for n in range(-50, 51):
            yield n, k, integral_basis(n, k + 1) % fact, 0


@_cases
def _check_oracle_grid():
    for m in range(1, 31):
        for n in [*range(1, 101), 10**3, 10**4]:
            yield m, n, powersum.power_sum(m, n).value, power_sum_naive(m, n)


@_cases
def _check_closed_forms():
    # Case (m, n, c * S_m(n), the classical closed form times c).
    for n in range(1, 201):
        yield 1, n, powersum.power_sum(1, n).value * 2, n * (n + 1)
        yield 2, n, powersum.power_sum(2, n).value * 6, n * (n + 1) * (2 * n + 1)
        yield 3, n, powersum.power_sum(3, n).value * 4, (n * (n + 1)) ** 2


@_cases
def _check_telescoping():
    for k in range(1, 11):
        for n in range(1, 51):
            total = sum(
                integral_basis(j, k + 1) - integral_basis(j - 1, k + 1)
                for j in range(1, n + 1)
            )
            yield k, n, total, integral_basis(n, k + 1)


def _check_lemma() -> CheckResult:
    for k in range(1, 13):
        result = lemma_difference_check(k, range(-20, 21))
        if not result:
            return result
    return CheckResult(True)


def _random_series(rng: random.Random, order: int) -> SeriesQ:
    coeffs = [
        Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)
    ]
    return SeriesQ(coeffs, order)


@_cases
def _check_series_algebra():
    rng = random.Random(394582)
    for trial in range(40):
        order = rng.randint(1, 8)
        f = _random_series(rng, order)
        g = _random_series(rng, order)
        h = _random_series(rng, order)
        yield "associativity", trial, (f * g) * h, f * (g * h)
        yield "unit", trial, f * SeriesQ.one(order), f


@_cases
def _check_bfile_roundtrip():
    cases = [
        (row_sums(12).values, 1),
        (kernel(4, 9).values, 0),
        (todd_column(9, 5), 1),
    ]
    for values, offset in cases:
        yield offset, parse_bfile(format_bfile(values, offset)), (offset, values)


@_cases
def _check_todd_row_2():
    # Todd row 2 is A000975, floor(2^(k+1) / 3).
    for k, value in enumerate(todd_row(2, 60), start=1):
        yield k, value, 2 ** (k + 1) // 3


@_cases
def _check_todd_row_3():
    # Slot 2j+1 is h_j(1, 4, 9), the coefficient of x^j in
    # 1/((1-x)(1-4x)(1-9x)) (A002451), here by partial fractions.
    row = todd_row(3, 60)
    for j in range(30):
        h = exact_div(243 * 9**j - 128 * 4**j + 5, 120)
        yield "odd", 2 * j + 1, row[2 * j], h
        yield "even", 2 * j + 2, row[2 * j + 1], 3 * row[2 * j]


@_cases
def _check_a036969():
    triangle = triangle_rows(79, method="recurrence")
    row = [1]  # row n of A036969, A(n, k) for k = 1..n
    for n in range(1, 41):
        yield n, triangle.row(2 * n - 1)[::2], row
        # A(n+1, k) = A(n, k-1) + k^2 A(n, k), with A(n, 0) = A(n, n+1) = 0.
        padded = [0, *row, 0]
        row = [padded[k - 1] + k * k * padded[k] for k in range(1, n + 2)]


# The suite in the order `flick verify` reports it.
_CHECKS: list[tuple[str, Check]] = [
    ("triangle: extraction == recurrence", _check_triangle_methods),
    (
        "triangle: recurrence divisions exact, entries nonnegative",
        _check_triangle_integrality,
    ),
    ("triangle: zeros exactly at even k, odd n, 1 < k < n", _check_zero_pattern),
    ("triangle: T(n, k) = T(n-1, k-1) for even n, even k", _check_collapse),
    ("triangle: n^m expands over the fallshift basis", _check_power_expansion),
    ("difference table: level lengths and recurrence", _check_diff_table),
    ("todd: recurrence == finite difference == stirling sum", _check_todd_methods),
    ("todd: sub-grid of the triangle at odd columns", _check_subgrid),
    (
        "todd: column transition Todd(n,2m+1) - Todd(n-1,2m+1) = n^2 Todd(n,2m-1)",
        _check_transition,
    ),
    (
        "todd: rows 1-5 x columns 1-8 match the reference corner",
        _check_reference_rows,
    ),
    ("todd: columns 1-9 match the reference prefixes", _check_reference_columns),
    (
        "columns: fitted (P_1, D_1) = (1, 6) and (P_2, D_2) = (5n-1, 360)",
        _check_fit_exact,
    ),
    ("columns: fit reproduces 20 held-out values for m <= 5", _check_fit_heldout),
    ("columns: factorizations satisfy the transition recurrence", _check_fit_residual),
    ("genfunc: full-row series match todd rows", _check_gf_full),
    ("genfunc: odd-slot series match odd todd columns", _check_gf_odd),
    ("bell: row sums == anti-diagonals == OGF == closed form", _check_bell_routes),
    ("bell: first ten terms match the reference list", _check_bell_prefix),
    ("transforms: inverse(transform) is the identity", _check_binomial_inverse),
    ("transforms: kernels match references and transform back", _check_kernels),
    (
        "transforms: kernels alternate in sign from index 1 (q >= 2)",
        _check_kernel_signs,
    ),
    ("stirling2: matches brute-force set-partition counts", _check_stirling_oracle),
    ("a008957: both closed forms equal the triangle slice", _check_a008957),
    ("powersum: (k+1)! divides the integral basis", _check_divisibility),
    ("powersum: basis method equals the naive oracle", _check_oracle_grid),
    ("powersum: classical closed forms for m = 1, 2, 3", _check_closed_forms),
    ("powersum: basis differences telescope to the endpoint", _check_telescoping),
    ("powersum: difference lemma for the flickering basis", _check_lemma),
    (
        "series: product is associative and has a unit (mod truncation)",
        _check_series_algebra,
    ),
    ("bfile: format/parse round trip", _check_bfile_roundtrip),
    ("todd: row 2 is A000975, floor(2^(k+1)/3)", _check_todd_row_2),
    (
        "todd: row 3 odd slots are A002451, each even slot 3x the odd before it",
        _check_todd_row_3,
    ),
    ("triangle: odd slots of row 2n-1 are row n of A036969", _check_a036969),
]


def _run(check: Check) -> CheckResult:
    # An inexact division or any other arithmetic fault fails this check
    # alone; the rest of the suite still runs and reports.
    try:
        return check()
    except ArithmeticError as exc:
        return CheckResult(False, ("raised", type(exc).__name__, str(exc)))


def run_suite() -> list[tuple[str, CheckResult]]:
    """Run every check of `_CHECKS` in order; return (name, result) pairs."""
    return [(name, _run(check)) for name, check in _CHECKS]
