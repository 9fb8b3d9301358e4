"""Independent checks for the outputs of `flick`.

Nothing here imports `flick`.  Every reference value is recomputed by a
route the package does not use:

  * triangle entries by the explicit central-difference sum
        T(n, k) = |sum_j (-1)^j C(k, j) (c - j)^n| / k!,  c = ceil(k / 2);
  * whole triangle rows by properties every row must have: boundary entries
    1, zeros exactly at even k with odd n, and the parity recurrence between
    consecutive rows;
  * Todd values through Todd(m, k) = T(2m + k - 2, 2m - 1), each T by the
    explicit sum above;
  * S2 by the explicit alternating sum;
  * the flickering Bell sequence (A395022) from the row-sum generating
    function, with its coefficients built from complete homogeneous sums
    h_r(1^2, ..., k^2) by their own recurrence;
  * kernels by checking that the q-fold forward binomial transform returns
    the leading-one Bell sequence;
  * fitted columns by held-out values and the paper's (1, 6), (5n - 1, 360);
  * power sums by Faulhaber's formula with exact Bernoulli numbers, which is
    the route the paper avoids.

Each `check_*` function returns None when the output is right and a short
description of the first mismatch otherwise.  Reference values are cached:
a workload repeats the same ops every round, and each output is still
compared in full.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import lru_cache

# (P_m numerator coefficients ascending, D_m) as printed in the paper.
PAPER_FITS = {1: ([1], 6), 2: ([-1, 5], 360)}


def lift_int_str_limit() -> None:
    """Allow int <-> str conversion of any length in this process.

    Only for a process that never runs `flick` itself: the package must keep
    CPython's default limit so that its 4300-digit fault stays visible.
    """
    if "flick" in sys.modules:
        raise RuntimeError("refusing to lift the int-to-str limit next to flick")
    sys.set_int_max_str_digits(0)


# --- triangle A395021 -----------------------------------------------------


@lru_cache(maxsize=1 << 16)
def triangle_entry(n: int, k: int) -> int:
    """T(n, k) by the explicit central-difference sum; 0 outside 1 <= k <= n."""
    if not 1 <= k <= n:
        return 0
    c = (k + 1) // 2
    total = 0
    for j in range(k + 1):
        term = math.comb(k, j) * (c - j) ** n
        total += -term if j % 2 else term
    q, r = divmod(abs(total), math.factorial(k))
    if r:
        raise ArithmeticError(f"central difference of ({n}, {k}) not divisible by {k}!")
    return q


def _row_error(n: int, row: list[int], prev: list[int] | None) -> str | None:
    if len(row) != n:
        return f"row {n} has {len(row)} entries"
    if row[0] != 1 or row[-1] != 1:
        return f"row {n} boundary is not 1"
    for k in range(2, n):
        value = row[k - 1]
        if (value == 0) != (k % 2 == 0 and n % 2 == 1):
            return f"zero pattern broken at ({n}, {k})"
        if prev is None:
            continue
        if k % 2 == 0:
            # even k, even n:  k T(n, k) = 2 T(n, k-1)
            ok = n % 2 == 1 or k * value == 2 * row[k - 2]
        elif n % 2 == 0:
            # odd k, even n:  2 T(n, k) = (k+1) T(n-1, k)
            ok = 2 * value == (k + 1) * prev[k - 1]
        else:
            # odd k, odd n:  2(k-1) T(n, k) = (k+1)(k-1) T(n-1, k) + 4 T(n-1, k-2)
            ok = 2 * (k - 1) * value == (k + 1) * (k - 1) * prev[k - 1] + 4 * prev[k - 3]
        if not ok:
            return f"parity recurrence broken at ({n}, {k})"
    return None


def check_triangle_rows(rows: list[list[int]], rng: random.Random, samples: int = 24) -> str | None:
    """Rows 1..len(rows): structural properties on every row, plus `samples`
    entries drawn by `rng` against the explicit central-difference sum."""
    prev = None
    for n, row in enumerate(rows, start=1):
        error = _row_error(n, row, prev)
        if error:
            return error
        prev = row
    for _ in range(samples if rows else 0):
        n = rng.randint(1, len(rows))
        k = rng.randint(1, n)
        if rows[n - 1][k - 1] != triangle_entry(n, k):
            return f"T({n}, {k}) differs from the central-difference sum"
    return None


# --- Todd array A394582 and A008957 ----------------------------------------


def todd_entry(m: int, k: int) -> int:
    """Todd(m, k) = T(2m + k - 2, 2m - 1)."""
    return triangle_entry(2 * m + k - 2, 2 * m - 1)


def check_todd(values: dict[tuple[int, int], int]) -> str | None:
    """Every (m, k) -> value pair against the triangle identity."""
    for (m, k), value in values.items():
        if value != todd_entry(m, k):
            return f"Todd({m}, {k}) differs"
    return None


def todd_grid(rows: list[list[int]]) -> dict[tuple[int, int], int]:
    """Index a printed corner (rows from 1, columns from 1) as (m, k) -> value."""
    return {(m, k): v for m, row in enumerate(rows, 1) for k, v in enumerate(row, 1)}


def check_a008957(values: dict[tuple[int, int], int]) -> str | None:
    """A008957(n, k) = T(2n - 1, 2n - 2k + 1) for every given pair."""
    for (n, k), value in values.items():
        if value != triangle_entry(2 * n - 1, 2 * n - 2 * k + 1):
            return f"A008957({n}, {k}) differs"
    return None


def stirling2(n: int, k: int) -> int:
    """S2(n, k) = (1/k!) sum_j (-1)^(k-j) C(k, j) j^n."""
    if k < 0 or n < 0:
        raise ValueError("need n, k >= 0")
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    return total // math.factorial(k)


def check_stirling2(values: dict[tuple[int, int], int]) -> str | None:
    for (n, k), value in values.items():
        if value != stirling2(n, k):
            return f"S2({n}, {k}) differs"
    return None


# --- Bell sequence A395022 and kernels -------------------------------------


@lru_cache(maxsize=16)
def bell_sequence(count: int) -> tuple[int, ...]:
    """a(1..count) from the row-sum generating function

        sum_k (x^(2k-1) + (k+1) x^(2k)) / prod_{j<=k} (1 - j^2 x^2),

    whose x^(2r) coefficient in 1/prod(...) is H(k, r) = h_r(1^2, ..., k^2),
    filled by H(k, r) = H(k-1, r) + k^2 H(k, r-1).  So a(2s-1) is the sum of
    H(k, s-k) and a(2s) the sum of (k+1) H(k, s-k) over k = 1..s.
    """
    top = (count + 1) // 2
    values = [0] * (2 * top + 1)
    h = [1] + [0] * top  # H(0, r)
    for k in range(1, top + 1):
        square = k * k
        for r in range(1, top - k + 1):
            h[r] += square * h[r - 1]
        for r in range(top - k + 1):
            s = k + r
            values[2 * s - 1] += h[r]
            values[2 * s] += (k + 1) * h[r]
    return tuple(values[1 : count + 1])


def check_bell(values: list[int], first: int = 1) -> str | None:
    """values[i] must be a(first + i)."""
    expected = bell_sequence(first + len(values) - 1)[first - 1 :]
    for i, (got, want) in enumerate(zip(values, expected)):
        if got != want:
            return f"a({first + i}) differs"
    return None


def check_kernel(q: int, values: list[int]) -> str | None:
    """kernel(q) lists g_0, g_1, ...; its q-fold forward binomial transform
    sum_i C(n, i) q^(n-i) g_i must be 1, a(1), a(2), ..."""
    if not values:
        return "empty kernel"
    expected = (1, *bell_sequence(len(values) - 1))
    for n in range(len(values)):
        got = sum(math.comb(n, i) * q ** (n - i) * values[i] for i in range(n + 1))
        if got != expected[n]:
            return f"kernel {q}: forward transform misses at index {n}"
    return None


# --- column fits ------------------------------------------------------------


def base_value(m: int, n: int) -> int:
    """T_m(n) = prod_{i=0..m} (n+i) * prod_{j=1..m} (2n+2j-1)."""
    return math.prod(n + i for i in range(m + 1)) * math.prod(
        2 * n + 2 * j - 1 for j in range(1, m + 1)
    )


def check_fit(m: int, numerator: list[int], denominator: int, heldout: int = 4) -> str | None:
    """Todd(n, 2m+1) = T_m(n) P_m(n) / D_m at `heldout` values past the ones a
    fit samples, and the paper's printed (P_m, D_m) where it gives one."""
    if m in PAPER_FITS and (list(numerator), denominator) != PAPER_FITS[m]:
        return f"m={m}: fit differs from the paper"
    if denominator < 1 or math.gcd(math.gcd(*numerator), denominator) != 1:
        return f"m={m}: denominator {denominator} not in lowest terms"
    first = 4 * m + 6
    for n in range(first, first + heldout):
        p = sum(c * n**i for i, c in enumerate(numerator))
        q, r = divmod(base_value(m, n) * p, denominator)
        if r or q != todd_entry(n, 2 * m + 1):
            return f"m={m}: held-out value at n={n} differs"
    return None


# --- power sums ---------------------------------------------------------------


def tangent_numbers(count: int) -> list[int]:
    """T_1..T_count (1, 2, 16, 272, ...) in integers (Knuth and Buckholtz, 1967)."""
    t = [0] * (count + 1)
    if count >= 1:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_plus(m: int) -> list[Fraction]:
    """B_0..B_m with B_1 = +1/2; B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    b = [Fraction(0)] * (m + 1)
    b[0] = Fraction(1)
    if m >= 1:
        b[1] = Fraction(1, 2)
    for k, t in enumerate(tangent_numbers(m // 2), start=1):
        b[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))
    return b


@lru_cache(maxsize=None)
def _faulhaber(m: int) -> tuple[tuple[int, ...], int]:
    # S_m(n) = (1/(m+1)) sum_j C(m+1, j) B_j n^(m+1-j), over one common
    # denominator so evaluation is Horner's rule in integers.
    terms = [math.comb(m + 1, j) * b for j, b in enumerate(bernoulli_plus(m))]
    common = math.lcm(*(t.denominator for t in terms))
    return tuple(int(t * common) for t in terms), common * (m + 1)


@lru_cache(maxsize=64)
def power_sum(m: int, n: int) -> int:
    """1^m + ... + n^m by Faulhaber's formula."""
    coeffs, denominator = _faulhaber(m)
    acc = 0
    for c in coeffs:
        acc = acc * n + c
    q, r = divmod(acc * n, denominator)
    if r:
        raise ArithmeticError(f"Faulhaber sum for m={m} is not an integer")
    return q


def check_power_sum(m: int, n: int, value: int) -> str | None:
    if value != power_sum(m, n):
        return f"S_{m}(n) differs from Faulhaber's formula"
    return None
