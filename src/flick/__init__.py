"""Exact-arithmetic toolkit for the flickering central factorial triangle
(A395021), its companion array (A394582) and integer-only power sums.

Every route computes in plain Python integers (`Fraction` is left only in
the truncated series type `flick.series.SeriesQ`, which no route uses);
identities come with independent computation routes and the `verify` suite
cross-checks them all.  The package re-exports the names the demos and the README use;
every other name is imported from its submodule.
"""

from .powersum import fallshift, integral_basis, power_sum, power_sum_naive
from .series import bell_closed_form, bell_ogf_coefficients
from .todd import (
    base_poly,
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
    antidiagonal_sums,
    bell_with_leading_one,
    binomial_transform,
    kernel,
    row_sums,
)
from .triangle import build_diff_table, triangle_entry_recurrence, triangle_rows

__version__ = "0.1.0"

__all__ = [
    "antidiagonal_sums",
    "base_poly",
    "bell_closed_form",
    "bell_ogf_coefficients",
    "bell_with_leading_one",
    "binomial_transform",
    "build_diff_table",
    "column_transition_check",
    "fallshift",
    "fit_column_polynomial",
    "integral_basis",
    "kernel",
    "power_sum",
    "power_sum_naive",
    "row_sums",
    "subgrid_check",
    "todd_column",
    "todd_finite_difference",
    "todd_recurrence",
    "todd_row",
    "todd_stirling",
    "triangle_entry_recurrence",
    "triangle_rows",
]
