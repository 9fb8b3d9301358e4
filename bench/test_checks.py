"""Tests of the benchmark's independent checks.

Each check must accept values published in OEIS or in the paper and reject
the same values with one entry altered.  Run with

    python3 -m pytest bench/test_checks.py -q
"""

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

# A395021, rows 1..6 (paper, and the package README's quickstart).
TRIANGLE = [[1], [1, 1], [1, 0, 1], [1, 1, 2, 1], [1, 0, 5, 0, 1], [1, 1, 10, 5, 3, 1]]
# A394582, the corner n = 1..5, k = 1..8.
TODD = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 2, 5, 10, 21, 42, 85, 170],
    [1, 3, 14, 42, 147, 441, 1408, 4224],
    [1, 4, 30, 120, 627, 2508, 11440, 45760],
    [1, 5, 55, 275, 2002, 10010, 61490, 307450],
]
# A395022.
BELL = [1, 2, 2, 5, 7, 21, 37, 126, 264, 1001]
# Kernels of the q-fold inverse binomial transform (paper).
KERNELS = {
    2: [1, -1, 2, -6, 21, -75, 269],
    4: [1, -3, 10, -38, 165, -797, 4125],
    8: [1, -7, 50, -366, 2757, -21441, 172421],
}
# A008957 rows 1..5.
A008957 = [[1], [1, 1], [1, 5, 1], [1, 14, 21, 1], [1, 30, 147, 85, 1]]
# A048993: S2(n, k) for n = 5 and n = 10 at k = 3.
STIRLING2 = {(5, 1): 1, (5, 2): 15, (5, 3): 25, (5, 4): 10, (5, 5): 1, (10, 3): 9330}
# Jakob Bernoulli's S_10(1000), plus classical small cases.
POWER_SUMS = {(10, 1000): 91409924241424243424241924242500, (1, 100): 5050, (2, 10): 385, (3, 10): 3025}


def _altered(value):
    return value + 1


def test_triangle_rows_accept_and_reject():
    assert checks.check_triangle_rows(TRIANGLE, random.Random(1)) is None
    for n, k in [(4, 3), (6, 3), (6, 4), (5, 3), (6, 6)]:
        bad = [list(row) for row in TRIANGLE]
        bad[n - 1][k - 1] = _altered(bad[n - 1][k - 1])
        assert checks.check_triangle_rows(bad, random.Random(1)) is not None


def test_triangle_entry_matches_published_rows():
    for n, row in enumerate(TRIANGLE, start=1):
        assert [checks.triangle_entry(n, k) for k in range(1, n + 1)] == row


def test_triangle_sample_catches_a_consistent_but_wrong_triangle():
    # Rows that keep every structural property but start from a wrong row 1
    # are caught only by the sampled central-difference sums.
    bad = [[2]]
    assert checks.check_triangle_rows(bad, random.Random(0), samples=1) is not None


def test_todd_accept_and_reject():
    grid = checks.todd_grid(TODD)
    assert checks.check_todd(grid) is None
    grid[(4, 5)] = _altered(grid[(4, 5)])
    assert checks.check_todd(grid) is not None


def test_a008957_accept_and_reject():
    values = {(n, k): v for n, row in enumerate(A008957, 1) for k, v in enumerate(row, 1)}
    assert checks.check_a008957(values) is None
    values[(5, 3)] = _altered(values[(5, 3)])
    assert checks.check_a008957(values) is not None


def test_stirling2_accept_and_reject():
    assert checks.check_stirling2(STIRLING2) is None
    assert checks.check_stirling2({**STIRLING2, (10, 3): 9331}) is not None


def test_bell_accept_and_reject():
    assert list(checks.bell_sequence(len(BELL))) == BELL
    assert checks.check_bell(BELL) is None
    assert checks.check_bell(BELL[4:], first=5) is None
    for i in range(len(BELL)):
        bad = list(BELL)
        bad[i] = _altered(bad[i])
        assert checks.check_bell(bad) is not None


def test_bell_agrees_with_row_sums_of_explicit_entries():
    rows = [[checks.triangle_entry(n, k) for k in range(1, n + 1)] for n in range(1, 41)]
    assert list(checks.bell_sequence(40)) == [sum(row) for row in rows]


def test_kernels_accept_and_reject():
    for q, values in KERNELS.items():
        assert checks.check_kernel(q, values) is None
        bad = list(values)
        bad[3] = _altered(bad[3])
        assert checks.check_kernel(q, bad) is not None
    assert checks.check_kernel(0, [1] + BELL) is None


def test_fit_accepts_paper_values_and_rejects_others():
    assert checks.check_fit(1, [1], 6) is None
    assert checks.check_fit(2, [-1, 5], 360) is None
    assert checks.check_fit(2, [-1, 6], 360) is not None
    assert checks.check_fit(1, [1], 7) is not None


def _interpolated_fit(m):
    # P_m / D_m through Lagrange interpolation of Todd(n, 2m+1) / T_m(n) at
    # n = 1..2m+1 (the ratio has degree m - 1), done here with Fractions.
    points = range(1, 2 * m + 2)
    ys = [Fraction(checks.todd_entry(n, 2 * m + 1), checks.base_value(m, n)) for n in points]
    coeffs = [Fraction(0)] * len(ys)
    for i, (xi, yi) in enumerate(zip(points, ys)):
        basis = [Fraction(1)]
        scale = Fraction(1)
        for j, xj in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                scale *= xi - xj
        for d, c in enumerate(basis):
            coeffs[d] += yi * c / scale
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    denominator = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * denominator) for c in coeffs], denominator


def test_fit_held_out_values():
    numerator, denominator = _interpolated_fit(3)
    assert checks.check_fit(3, numerator, denominator) is None
    bad = list(numerator)
    bad[0] = _altered(bad[0])
    assert checks.check_fit(3, bad, denominator) is not None
    assert checks.check_fit(3, [1], 6) is not None


def test_power_sums_accept_and_reject():
    for (m, n), value in POWER_SUMS.items():
        assert checks.check_power_sum(m, n, value) is None
        assert checks.check_power_sum(m, n, _altered(value)) is not None


def test_power_sum_matches_naive_loop():
    for m in (1, 2, 7, 20, 41):
        for n in (1, 2, 17, 100):
            assert checks.power_sum(m, n) == sum(i**m for i in range(1, n + 1))


def test_bernoulli_numbers():
    b = checks.bernoulli_plus(12)
    assert b[:5] == [1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    assert b[12] == Fraction(-691, 2730)


def test_limit_is_lifted_only_without_flick():
    code = (
        "import sys; sys.path.insert(0, {!r}); import checks; "
        "sys.modules['flick'] = object(); checks.lift_int_str_limit()"
    ).format(str(Path(checks.__file__).parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0 and "refusing" in proc.stderr


@pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (3, 4)])
def test_triangle_entry_outside_range_is_zero(n, k):
    assert checks.triangle_entry(n, k) == 0
