"""The full cross-check suite: every structural identity the package claims,
each a named check in `_CHECKS`, reported as one pass/fail line by the CLI.

A check is a generator of cases (..., got, want) at fixed bounds, added to the
suite by `@_check(name)`.  It fails at its first case with got != want, and
that case, a tuple of indices and values led by a short label where the check
can fail in more than one way, is its counterexample.  A check that raises
any `Exception` fails as ("raised", exception class, message); the rest of
the suite still runs, and `flick verify` exits 1.

Reference prefixes (the array corner, the named column prefixes, the Bell
prefix, the transform kernels) are frozen here as data, and this is their only
copy: the tests import them from here.  Everything else is checked by
recomputation along an independent route.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator

# `power_sum` is read from its module at each call: the traced benchmark
# (bench/layers.py) wraps it there, possibly after this module is imported.
from . import powersum
from .bfile import format_bfile, parse_bfile
from .exact import exact_div
from .powersum import fallshift, integral_basis, power_sum_residue
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
    fit_column_polynomial,
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
from .triangle import triangle_entry_recurrence, triangle_rows

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

# First five entries of columns k = 1..9: those of the corner above, and
# column 9.
REFERENCE_COLUMNS = {
    **{k: list(column) for k, column in enumerate(zip(*REFERENCE_TABLE), start=1)},
    9: [1, 341, 13013, 196053, 1733303],
}

REFERENCE_BELL = [1, 2, 2, 5, 7, 21, 37, 126, 264, 1001]

# Kernel of the q-fold inverse binomial transform, first seven terms.
REFERENCE_KERNELS = {
    0: [1] + REFERENCE_BELL[:6],
    2: [1, -1, 2, -6, 21, -75, 269],
    4: [1, -3, 10, -38, 165, -797, 4125],
    6: [1, -5, 26, -142, 821, -5039, 32709],
    8: [1, -7, 50, -366, 2757, -21441, 172421],
}


# The suite in the order `flick verify` reports it: `@_check(name)` appends
# each check here as it is defined.
_CHECKS: list[tuple[str, Callable[[], Iterator[tuple]]]] = []


def _check(name: str):
    """Add a generator of cases (..., got, want) to the suite under `name`."""

    def register(generate: Callable[[], Iterator[tuple]]):
        _CHECKS.append((name, generate))
        return generate

    return register


@_check("triangle: extraction == recurrence")
def _check_triangle_methods():
    by_extraction = triangle_rows(60, method="extraction")
    by_recurrence = triangle_rows(60, method="recurrence")
    for n in range(1, 61):
        yield n, by_extraction.rows[n - 1], by_recurrence.rows[n - 1]


def _paper_step(prev: list[int]) -> list[int]:
    """Row n from row n - 1 by the recurrence as the paper writes it, with
    its factors 2 / k and 2 / (k - 1) as exact divisions.  The fill uses the
    division-free form (see `flick.triangle`); this is the one copy of the
    paper's form."""
    n = len(prev) + 1
    odd_n = n % 2 == 1
    row = [1] * n
    for k in range(2, n):
        if k % 2 == 0:
            value = 0 if odd_n else exact_div(2 * row[k - 2], k)
        else:
            value = (k + 1) // 2 * prev[k - 1]
            if odd_n:
                value += exact_div(2 * prev[k - 3], k - 1)
        row[k - 1] = value
    return row


@_check("triangle: recurrence divisions exact, entries nonnegative")
def _check_triangle_integrality():
    # Cases ("sign", n, the k with T(n, k) < 0, []) and ("step", n, row n - 1
    # stepped by the paper's recurrence, row n); a division that leaves a
    # remainder raises, and fails the check as ("raised", ...).
    rows = triangle_rows(200, method="recurrence").rows
    prev: list[int] = []
    for n, row in enumerate(rows, start=1):
        yield "sign", n, [k for k, value in enumerate(row, start=1) if value < 0], []
        yield "step", n, _paper_step(prev), row
        prev = row


@_check("triangle: zeros exactly at even k, odd n, 1 < k < n")
def _check_zero_pattern():
    # Case (n, [k with T(n, k) = 0], [the k where T(n, k) should be 0]).
    rows = triangle_rows(200, method="recurrence").rows
    for n, row in enumerate(rows, start=1):
        zeros = [k for k, value in enumerate(row, start=1) if value == 0]
        yield n, zeros, list(range(2, n, 2)) if n % 2 else []


@_check("triangle: T(n, k) = T(n-1, k-1) for even n, even k")
def _check_collapse():
    # Case (method, even n, [T(n, 2), T(n, 4), ..., T(n, n)], [T(n-1, 1),
    # T(n-1, 3), ..., T(n-1, n-1)]).  The recurrence fill copies these slots,
    # so its rows hold the identity by construction; the extraction rows,
    # which do not, are the test of it.
    for method, count in (("recurrence", 200), ("extraction", 60)):
        rows = triangle_rows(count, method=method).rows
        for n in range(2, count + 1, 2):
            yield method, n, rows[n - 1][1::2], rows[n - 2][0::2]


@_check("triangle: n^m expands over the fallshift basis")
def _check_power_expansion():
    for m in range(1, 26):
        coeffs = [triangle_entry_recurrence(m, k) for k in range(1, m + 1)]
        for n in range(-10, 11):
            expanded = sum(
                c * fallshift(n, k) for k, c in enumerate(coeffs, start=1) if c
            )
            yield m, n, expanded, n**m


@_check("todd: recurrence == finite difference == stirling sum")
def _check_todd_methods():
    for n in range(1, 9):
        for k in range(1, 11):
            r = todd_recurrence(n, k)
            yield "finite difference", n, k, todd_finite_difference(n, k), r
            yield "stirling sum", n, k, todd_stirling(n, k), r


@_check("todd: sub-grid of the triangle at odd columns")
def _check_subgrid():
    columns = [todd_column(k, 8) for k in range(1, 11)]
    for m in range(1, 9):
        for k, column in enumerate(columns, start=1):
            tri = triangle_entry_recurrence(2 * m + k - 2, 2 * m - 1)
            yield m, k, column[m - 1], tri


@_check("todd: column transition Todd(n,2m+1) - Todd(n-1,2m+1) = n^2 Todd(n,2m-1)")
def _check_transition():
    # odd[i] is column 2i + 1, rows 1-30.
    odd = [todd_column(k, 30) for k in range(1, 14, 2)]
    for m in range(1, 7):
        for n in range(2, 31):
            lhs = odd[m][n - 1] - odd[m][n - 2]
            yield n, m, lhs, n * n * odd[m - 1][n - 1]


@_check("todd: rows 1-5 x columns 1-8 match the reference corner")
def _check_reference_rows():
    for n, expected in enumerate(REFERENCE_TABLE, start=1):
        yield n, todd_row(n, 8), expected


@_check("todd: columns 1-9 match the reference prefixes")
def _check_reference_columns():
    for k, expected in REFERENCE_COLUMNS.items():
        yield k, todd_column(k, 5), expected


@_check("columns: fitted (P_1, D_1) = (1, 6) and (P_2, D_2) = (5n-1, 360)")
def _check_fit_exact():
    for m, expected in ((1, ([1], 6)), (2, ([-1, 5], 360))):
        fit = fit_column_polynomial(m)
        yield m, (list(fit.u_numerator.coeffs), fit.denominator), expected


@_check("columns: fit reproduces 20 held-out values for m <= 5")
def _check_fit_heldout():
    # 20 values of each column past the samples its fit was made from.
    for m in range(1, 6):
        fit = fit_column_polynomial(m)
        column = todd_column(2 * m + 1, 4 * m + 25)
        for n in range(4 * m + 6, 4 * m + 26):
            yield m, n, fit.todd_value(n), column[n - 1]


@_check("columns: factorizations satisfy the transition recurrence")
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


@_check("genfunc: full-row series match todd rows")
def _check_gf_full():
    for n in range(1, 7):
        yield n, expand_rational(*row_gf_full(n), 21), [0] + todd_row(n, 20)


@_check("genfunc: odd-slot series match odd todd columns")
def _check_gf_odd():
    columns = [todd_column(2 * k - 1, 6) for k in range(1, 11)]
    for n in range(1, 7):
        expected = [0] + [column[n - 1] for column in columns]
        yield n, expand_rational(*row_gf_odd(n), 11), expected


@_check("bell: row sums == anti-diagonals == OGF == closed form")
def _check_bell_routes():
    sums = row_sums(24)
    yield "anti-diagonals", antidiagonal_sums(24), sums
    yield "ogf", bell_ogf_coefficients(25), sums.values
    for n in range(1, 21):
        yield "closed form", n, bell_closed_form(n), sums.values[n - 1]


@_check("bell: first ten terms match the reference list")
def _check_bell_prefix():
    yield row_sums(10).values, REFERENCE_BELL


@_check("transforms: inverse(transform) is the identity")
def _check_binomial_inverse():
    rng = random.Random(395021)
    for length in range(1, 31):
        seq = IntSeq([rng.randint(-50, 50) for _ in range(length)], offset=0)
        there_and_back = inverse_binomial_transform(binomial_transform(seq))
        yield "inverse", length, there_and_back, seq
        back_and_there = binomial_transform(inverse_binomial_transform(seq))
        yield "forward", length, back_and_there, seq


@_check("transforms: kernels match references and transform back")
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


@_check("transforms: kernels alternate in sign from index 1 (q >= 2)")
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


@_check("stirling2: matches brute-force set-partition counts")
def _check_stirling_oracle():
    for n in range(1, 9):
        counts = _partition_block_counts(n)
        for k in range(0, n + 1):
            yield n, k, stirling2(n, k), counts.get(k, 0)


@_check("a008957: both closed forms equal the triangle slice")
def _check_a008957():
    for n in range(1, 16):
        for k in range(1, n + 1):
            fd = a008957_fd(n, k)
            tri = triangle_entry_recurrence(2 * n - 1, 2 * n - 2 * k + 1)
            yield "finite difference", n, k, fd, tri
            yield "stirling sum", n, k, a008957_stirling(n, k), tri
            yield "positive", n, k, fd > 0, True


@_check("powersum: (k+1)! divides the integral basis")
def _check_divisibility():
    # Case (n, k, I_{k+1}(n) mod (k+1)!, 0).
    for k in range(1, 16):
        fact = math.factorial(k + 1)
        for n in range(-50, 51):
            yield n, k, integral_basis(n, k + 1) % fact, 0


@_check("powersum: basis method equals the naive oracle")
def _check_naive_oracle():
    # Want is the literal sum 1^m + ... + n^m, read from the prefix sums of
    # one list of powers per m, each power i^m made from i^(m-1) * i.
    grid = [*range(1, 101), 10**3, 10**4]
    powers = [1] * (grid[-1] + 1)  # powers[i] = i^(m-1), from m = 1
    for m in range(1, 31):
        powers = [p * i for i, p in enumerate(powers)]  # powers[0] = 0^m = 0
        sums = list(accumulate(powers))
        for n in grid:
            yield m, n, powersum.power_sum(m, n).value, sums[n]


@_check("powersum: classical closed forms for m = 1, 2, 3")
def _check_closed_forms():
    # Case (m, n, c * S_m(n), the classical closed form times c).
    for n in range(1, 201):
        yield 1, n, powersum.power_sum(1, n).value * 2, n * (n + 1)
        yield 2, n, powersum.power_sum(2, n).value * 6, n * (n + 1) * (2 * n + 1)
        yield 3, n, powersum.power_sum(3, n).value * 4, (n * (n + 1)) ** 2


@_check("powersum: basis differences telescope to the endpoint")
def _check_telescoping():
    # The difference lemma below, summed over j = 1..n: the step to the power-sum
    # formula.  Summed differences of I itself would telescope for any I.
    for k in range(1, 11):
        for n in range(1, 51):
            total = sum((k + 1) * fallshift(j, k) for j in range(1, n + 1))
            yield k, n, total, integral_basis(n, k + 1)


@_check("powersum: difference lemma for the flickering basis")
def _check_lemma():
    for k in range(1, 13):
        for j in range(-20, 21):
            lhs = integral_basis(j, k + 1) - integral_basis(j - 1, k + 1)
            yield k, j, lhs, (k + 1) * fallshift(j, k)


@_check("powersum: residues mod p equal the sum mod p for n > 10^30")
def _check_residues():
    # Case (m, n, p, residue route, power_sum mod p).  (p - 1) divides some m
    # for every p but 101 and 1009, and 10^31 leaves no remainder mod 2 and 5.
    # The m past 12 reach power_sum's split nest (m * bits(n) >= 20 000): at
    # n = 3^400 (634 bits) m = 31 is below that threshold, and 32 | 33 and
    # 64 | 65 straddle the leaf size, 32 terms; at the other n, m = 150 is
    # below the threshold and 301 above it.  A split multiplies its right
    # half by a product of 16 or more consecutive integers, which every p up
    # to 13 divides, so a fault there leaves those residues alone; these
    # cases add 1009, which divides none of n - m/2, ..., n + m/2 here.
    primes = (2, 3, 5, 7, 11, 13, 101)
    small = (10**31, 10**31 + 1, 3**70)
    cases = [(m, n, primes) for m in range(1, 13) for n in small]
    split = [(m, 3**400) for m in (31, 32, 33, 34, 63, 64, 65, 66)]
    split += [(m, n) for m in (97, 150, 301) for n in small]
    cases += [(m, n, primes + (1009,)) for m, n in split]
    for m, n, case_primes in cases:
        value = powersum.power_sum(m, n).value
        for p in case_primes:
            yield m, n, p, power_sum_residue(m, n, p), value % p


def _random_series(rng: random.Random, order: int) -> SeriesQ:
    coeffs = [
        Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)
    ]
    return SeriesQ(coeffs, order)


@_check("series: product is associative and has a unit (mod truncation)")
def _check_series_algebra():
    rng = random.Random(394582)
    for trial in range(40):
        order = rng.randint(1, 8)
        f = _random_series(rng, order)
        g = _random_series(rng, order)
        h = _random_series(rng, order)
        yield "associativity", trial, (f * g) * h, f * (g * h)
        yield "unit", trial, f * SeriesQ.one(order), f


@_check("bfile: format/parse round trip")
def _check_bfile_roundtrip():
    cases = [
        (row_sums(12).values, 1),
        (kernel(4, 9).values, 0),
        (todd_column(9, 5), 1),
    ]
    for values, offset in cases:
        yield offset, parse_bfile(format_bfile(values, offset)), (offset, values)


@_check("todd: row 2 is A000975, floor(2^(k+1)/3)")
def _check_todd_row_2():
    for k, value in enumerate(todd_row(2, 60), start=1):
        yield k, value, 2 ** (k + 1) // 3


@_check("todd: row 3 odd slots are A002451, each even slot 3x the odd before it")
def _check_todd_row_3():
    # Slot 2j+1 is h_j(1, 4, 9), the coefficient of x^j in
    # 1/((1-x)(1-4x)(1-9x)) (A002451), here by partial fractions.
    row = todd_row(3, 60)
    for j in range(30):
        h = exact_div(243 * 9**j - 128 * 4**j + 5, 120)
        yield "odd", 2 * j + 1, row[2 * j], h
        yield "even", 2 * j + 2, row[2 * j + 1], 3 * row[2 * j]


@_check("triangle: odd slots of row 2n-1 are row n of A036969")
def _check_a036969():
    rows = triangle_rows(79, method="recurrence").rows
    row = [1]  # row n of A036969, A(n, k) for k = 1..n
    for n in range(1, 41):
        yield n, rows[2 * n - 2][::2], row
        # A(n+1, k) = A(n, k-1) + k^2 A(n, k), with A(n, 0) = A(n, n+1) = 0.
        padded = [0, *row, 0]
        row = [padded[k - 1] + k * k * padded[k] for k in range(1, n + 2)]


def _first_counterexample(check: Callable[[], Iterator[tuple]]) -> tuple | None:
    """The first case (..., got, want) of `check` with got != want, or None.

    Cases are drawn lazily, so the check stops there.  An exception raised
    while drawing or comparing the cases (an inexact division, a `ValueError`
    from an engine) fails this check alone, as ("raised", exception class,
    message); the rest of the suite still runs and reports.
    """
    try:
        for case in check():
            if case[-2] != case[-1]:
                return case
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return None


def run_suite() -> list[tuple[str, tuple | None]]:
    """Run every check of `_CHECKS` in order.

    Returns (name, counterexample or None) pairs.
    """
    return [(name, _first_counterexample(check)) for name, check in _CHECKS]
