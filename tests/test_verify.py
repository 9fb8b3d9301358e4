"""The identity checks of `flick verify` read their inputs from `flick.verify`
itself, so a fault planted there is reported as the check's first
counterexample; and every check defined there is in the suite."""

from __future__ import annotations

import pytest

import flick.powersum
import flick.triangle
import flick.verify
from flick.exact import exact_div
from flick.series import PolyZ
from flick.transforms import IntSeq
from flick.triangle import FlickerTriangle
from flick.verify import (
    _CHECKS,
    REFERENCE_BELL,
    REFERENCE_KERNELS,
    REFERENCE_TABLE,
    _first_counterexample,
    run_suite,
)


def _planted_at(fn, cell, fault):
    """`fn` with `fault` applied to its result when its positional arguments
    are `cell`."""

    def planted(*args, **kwargs):
        result = fn(*args, **kwargs)
        return fault(result) if args == cell else result

    return planted


def _bump(values, i):
    """A copy of `values` with values[i] one larger."""
    return [*values[:i], values[i] + 1, *values[i + 1 :]]


# Row 2 of Todd, A000975 (floor(2^(k+1) / 3)), and its odd slots
# (4^k - 1) / 3, each led by the series' constant term 0.
_ROW_2 = [0] + [2 ** (k + 1) // 3 for k in range(1, 21)]
_ODD_2 = [0] + [(4**k - 1) // 3 for k in range(1, 11)]


def _bump_row(n, i):
    """A fault for a `FlickerTriangle`: T(n, i + 1) one larger."""
    return lambda t: FlickerTriangle(
        [_bump(row, i) if len(row) == n else row for row in t.rows]
    )


def _bump_values(i):
    """A fault for an `IntSeq`: its term i one larger."""
    return lambda seq: IntSeq(_bump(seq.values, i), seq.offset)


@pytest.mark.parametrize(
    "check, binding, cell, counterexample",
    [
        # (m, n, expanded, n^m): 3^2 = fallshift(3, 1) + fallshift(3, 2) = 3 + 6.
        ("_check_power_expansion", "fallshift", (3, 2), (2, 3, 10, 9)),
        # (k, j, lhs, rhs): I_3(3) - I_3(2) = 24 - 6 = 3 * fallshift(3, 2).
        ("_check_lemma", "fallshift", (3, 2), (2, 3, 18, 21)),
        # (k, n, sum, I_3(3)): 3 * sum of fallshift(j, 2), j = 1..3, is 3 * (0 + 2 + 6).
        ("_check_telescoping", "integral_basis", (3, 3), (2, 3, 24, 25)),
        # (route, n, k, todd, recurrence): Todd(2, 3) = 5.
        (
            "_check_todd_methods",
            "todd_finite_difference",
            (2, 3),
            ("finite difference", 2, 3, 6, 5),
        ),
        # (route, n, k, a008957, tri): A008957(3, 2) = T(5, 3) = 5.
        ("_check_a008957", "a008957_stirling", (3, 2), ("stirling sum", 3, 2, 6, 5)),
        # (n, k, S2, partitions): {1..4} has 7 partitions into 2 blocks.
        ("_check_stirling_oracle", "stirling2", (4, 2), (4, 2, 8, 7)),
        # (route, n, closed form, row sum): a(3) = 1 + 0 + 1.
        ("_check_bell_routes", "bell_closed_form", (3,), ("closed form", 3, 3, 2)),
        # (n, k, I_2(n) mod 2!, 0): the cases run over n for k = 1 first.
        ("_check_divisibility", "integral_basis", (3, 2), (3, 1, 1, 0)),
        # (m, n, p, residue, S_m(n) mod p): S_1(10^31) = 10^31 (10^31 + 1) / 2
        # is even.
        ("_check_residues", "power_sum_residue", (1, 10**31, 2), (1, 10**31, 2, 1, 0)),
    ],
    ids=[
        "power-expansion",
        "lemma",
        "telescoping",
        "todd-methods",
        "a008957",
        "stirling-oracle",
        "bell-routes",
        "divisibility",
        "residues",
    ],
)
def test_identity_check_reports_its_first_counterexample(
    monkeypatch, check, binding, cell, counterexample
):
    fn = getattr(flick.verify, binding)
    monkeypatch.setattr(flick.verify, binding, _planted_at(fn, cell, lambda v: v + 1))
    assert _first_counterexample(getattr(flick.verify, check)) == counterexample


@pytest.mark.parametrize(
    "check, binding, cell, fault, counterexample",
    [
        # (k, Todd(2, k), floor(2^(k+1) / 3)): Todd(2, 5) = 21.
        ("_check_todd_row_2", "todd_row", (2, 60), lambda r: _bump(r, 4), (5, 22, 21)),
        # (slot, Todd(3, slot), h_1(1, 4, 9) = 1 + 4 + 9).
        (
            "_check_todd_row_3",
            "todd_row",
            (3, 60),
            lambda r: _bump(r, 2),
            ("odd", 3, 15, 14),
        ),
        # (m, k, todd, tri): Todd(2, 3) = T(5, 3) = 5, read from column 3.
        ("_check_subgrid", "todd_column", (3, 8), lambda c: _bump(c, 1), (2, 3, 6, 5)),
        # (n, m, lhs, rhs): Todd(2, 3) - Todd(1, 3) = 5 - 1 = 2^2 * Todd(2, 1).
        ("_check_transition", "todd_column", (3, 30), lambda c: _bump(c, 1), (2, 1, 5, 4)),
        # (m, n, fit, todd): the first held-out value of column 3 is Todd(10, 3)
        # = 1^2 + ... + 10^2.
        (
            "_check_fit_heldout",
            "todd_column",
            (3, 29),
            lambda c: _bump(c, 9),
            (1, 10, 385, 386),
        ),
        # (n, series, odd slots of row n): the odd slots of row 2 are
        # (4^k - 1) / 3, and Todd(2, 3) = 5.
        (
            "_check_gf_odd",
            "todd_column",
            (3, 6),
            lambda c: _bump(c, 1),
            (2, _ODD_2, _bump(_ODD_2, 2)),
        ),
        # (n, row n, the reference row): Todd(2, 3) = 5.
        (
            "_check_reference_rows",
            "todd_row",
            (2, 8),
            lambda r: _bump(r, 2),
            (2, [1, 2, 6, *REFERENCE_TABLE[1][3:]], REFERENCE_TABLE[1]),
        ),
        # (k, column k, the reference prefix): Todd(2, 3) = 5.
        (
            "_check_reference_columns",
            "todd_column",
            (3, 5),
            lambda c: _bump(c, 1),
            (3, [1, 6, 14, 30, 55], [1, 5, 14, 30, 55]),
        ),
        # (n, odd slots of row 2n - 1, row n of A036969): T(5, 3) = 5.
        ("_check_a036969", "triangle_rows", (79,), _bump_row(5, 2), (3, [1, 6, 1], [1, 5, 1])),
        # (n, the k with T(n, k) = 0, the k where it should be): T(5, 2) = 0.
        ("_check_zero_pattern", "triangle_rows", (200,), _bump_row(5, 1), (5, [4], [2, 4])),
        # (q, i, sign of term i, (-1)^i): term 1 of kernel 2 is -1.
        ("_check_kernel_signs", "kernel", (2, 12), _bump_values(1), (2, 1, 0, -1)),
        # (route, q, kernel q, the reference): term 2 of kernel 4 is 10.
        (
            "_check_kernels",
            "kernel",
            (4, 7),
            _bump_values(2),
            ("reference", 4, _bump(REFERENCE_KERNELS[4], 2), REFERENCE_KERNELS[4]),
        ),
        # (m, (P_m, D_m), the paper's): D_2 = 360.
        (
            "_check_fit_exact",
            "fit_column_polynomial",
            (2,),
            lambda fit: fit._replace(denominator=720),
            (2, ([-1, 5], 720), ([-1, 5], 360)),
        ),
        # (m, n, fit(n) - fit(n - 1), n^2 * fit of the column before): adding
        # D_2 to P_2 adds T_2(n) = n(n+1)(n+2)(2n+1)(2n+3) to column 5, so
        # at n = 2 the difference is 21 + 840 - (1 + 90), against 4 * Todd(2, 3).
        (
            "_check_fit_residual",
            "fit_column_polynomial",
            (2,),
            lambda fit: fit._replace(
                u_numerator=fit.u_numerator + PolyZ([fit.denominator])
            ),
            (2, 2, 770, 20),
        ),
        # (n, series, [0] + row n): Todd(2, 5) = 21.
        (
            "_check_gf_full",
            "todd_row",
            (2, 20),
            lambda r: _bump(r, 4),
            (2, _ROW_2, _bump(_ROW_2, 5)),
        ),
        # (row sums, the reference): a(4) = 5.
        (
            "_check_bell_prefix",
            "row_sums",
            (10,),
            _bump_values(3),
            (_bump(REFERENCE_BELL, 3), REFERENCE_BELL),
        ),
    ],
    ids=[
        "subgrid",
        "transition",
        "fit-heldout",
        "genfunc-odd",
        "a000975",
        "a002451",
        "reference-rows",
        "reference-columns",
        "a036969",
        "zero-pattern",
        "kernel-signs",
        "kernels",
        "fit-exact",
        "fit-residual",
        "genfunc-full",
        "bell-prefix",
    ],
)
def test_sequence_check_reports_its_first_counterexample(
    monkeypatch, check, binding, cell, fault, counterexample
):
    fn = getattr(flick.verify, binding)
    monkeypatch.setattr(flick.verify, binding, _planted_at(fn, cell, fault))
    assert _first_counterexample(getattr(flick.verify, check)) == counterexample


def _plant_off_by_one_power_sum(monkeypatch, cell):
    # The power-sum checks read `power_sum` from `flick.powersum` at each call.
    planted = _planted_at(
        flick.powersum.power_sum, cell, lambda r: r._replace(value=r.value + 1)
    )
    monkeypatch.setattr(flick.powersum, "power_sum", planted)


def test_oracle_grid_reports_an_off_by_one_power_sum(monkeypatch):
    # Cases (m, n, got, want) run over n for each m, so m = 1 passes whole
    # first; S_2(3) = 1 + 4 + 9 = 14.
    _plant_off_by_one_power_sum(monkeypatch, (2, 3))
    assert _first_counterexample(flick.verify._check_naive_oracle) == (2, 3, 15, 14)


def test_closed_forms_report_an_off_by_one_power_sum(monkeypatch):
    # Cases (m, n, c * S_m(n), closed form) run over m for each n; 6 * S_2(3)
    # = 3 * 4 * 7.
    _plant_off_by_one_power_sum(monkeypatch, (2, 3))
    assert _first_counterexample(flick.verify._check_closed_forms) == (2, 3, 90, 84)


def test_residue_check_reports_a_fault_in_the_split_nest(monkeypatch):
    # Every product Q_1 that a half of power_sum's split nest hands up to its
    # combine step is one too large.  Below the split threshold and at one
    # leaf no Q is formed, so the first case hit is m = 33 at n = 3^400, the
    # first split into two leaves; there S_33(n) mod 2 counts the odd
    # i <= n, (n + 1) / 2, which is odd since 3^400 = 1 (mod 4).
    split = flick.powersum._split

    def faulted(row, scale, factors, lo, hi, with_product):
        value, product = split(row, scale, factors, lo, hi, with_product)
        return value, product + 1 if with_product else product

    monkeypatch.setattr(flick.powersum, "_split", faulted)
    check = flick.verify._check_residues
    assert _first_counterexample(check) == (33, 3**400, 2, 1, 0)


@pytest.mark.parametrize(
    "fault, counterexample",
    [
        (lambda v: v + 1, ("step", 5, [1, 0, 5, 0, 1], [1, 0, 6, 0, 1])),
        (lambda v: -v, ("sign", 5, [3], [])),
    ],
    ids=["step", "sign"],
)
def test_triangle_step_check_reports_a_fault_in_the_fill(
    monkeypatch, fault, counterexample
):
    # The check steps each filled row by the paper's recurrence, by which
    # T(5, 3) = ((3 + 1) / 2) * T(4, 3) + (2 / 2) * T(4, 1) = 2 * 2 + 1, and
    # first reads each row's signs.  The fault is planted at T(5, 3).
    next_row = flick.triangle._next_row

    def faulted(prev):
        row = next_row(prev)
        if len(row) == 5:
            row[2] = fault(row[2])
        return row

    monkeypatch.setattr(flick.triangle, "_next_row", faulted)
    check = flick.verify._check_triangle_integrality
    assert _first_counterexample(check) == counterexample


def test_collapse_check_reports_a_fault_in_the_extraction_rows(monkeypatch):
    # The recurrence rows hold the collapse by construction, so a fault planted
    # at T(6, 4) = T(5, 3) = 5 is found in the extraction rows.
    extract = flick.triangle.triangle_row_extraction

    def faulted(n):
        row = extract(n)
        if n == 6:
            row[3] += 1
        return row

    monkeypatch.setattr(flick.triangle, "triangle_row_extraction", faulted)
    assert _first_counterexample(flick.verify._check_collapse) == (
        "extraction",
        6,
        [1, 6, 1],
        [1, 5, 1],
    )


def test_method_check_reports_a_fault_in_the_extraction_rows(monkeypatch):
    # The check reads both methods through one `triangle_rows`, so the fault
    # goes in the extraction it calls: T(5, 3) = 5.
    extract = flick.triangle.triangle_row_extraction

    def faulted(n):
        row = extract(n)
        if n == 5:
            row[2] += 1
        return row

    monkeypatch.setattr(flick.triangle, "triangle_row_extraction", faulted)
    assert _first_counterexample(flick.verify._check_triangle_methods) == (
        5,
        [1, 0, 6, 0, 1],
        [1, 0, 5, 0, 1],
    )


def test_binomial_inverse_check_reports_a_forward_transform(monkeypatch):
    # An "inverse" with the sign of the forward transform.  The check's
    # random sequences (seed 395021) are [-35], which any such pair returns
    # unchanged, then [-7, 28], which goes to [-7, -7 - 7 + 28].
    monkeypatch.setattr(
        flick.verify, "inverse_binomial_transform", flick.verify.binomial_transform
    )
    assert _first_counterexample(flick.verify._check_binomial_inverse) == (
        "inverse",
        2,
        IntSeq([-7, 14], 0),
        IntSeq([-7, 28], 0),
    )


def test_bfile_check_reports_a_shifted_offset(monkeypatch):
    # (offset, what parse_bfile read back, what was written): the first case
    # is the Bell sequence from offset 1.
    write = flick.verify.format_bfile
    monkeypatch.setattr(
        flick.verify, "format_bfile", lambda values, offset: write(values, offset + 1)
    )
    values = flick.verify.row_sums(12).values
    assert values[:10] == REFERENCE_BELL
    assert _first_counterexample(flick.verify._check_bfile_roundtrip) == (
        1,
        (2, values),
        (1, values),
    )


def test_every_check_is_in_the_suite_once_under_a_unique_name():
    # A `_check_*` generator that lost its decorator would never run.
    defined = {
        fn for name, fn in vars(flick.verify).items() if name.startswith("_check_")
    }
    registered = [check for _, check in _CHECKS]
    assert len(registered) == len(set(registered))
    assert set(registered) == defined
    names = [name for name, _ in _CHECKS]
    assert len(set(names)) == len(names)
    assert [name for name, _ in run_suite()] == names


def test_a_check_that_raises_after_passing_cases_fails_with_the_exception():
    def check():
        yield 1, 1, 1
        yield 2, exact_div(7, 2), 3

    assert _first_counterexample(check) == (
        "raised",
        "InexactDivisionError",
        "7 is not divisible by 2",
    )


def test_a_check_that_raises_a_value_error_fails_with_the_exception():
    # Any exception, not only an arithmetic fault, fails the check alone.
    def check():
        yield 1, 1, 1
        raise ValueError("need 1 <= k <= n, got n=3, k=4")

    assert _first_counterexample(check) == (
        "raised",
        "ValueError",
        "need 1 <= k <= n, got n=3, k=4",
    )
