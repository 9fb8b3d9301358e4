#!/usr/bin/env python3
"""The companion array Todd(n, k) (OEIS A394582): three formulas, the rows
and columns it threads through the OEIS, and the closed-form factorization
of its odd columns.
"""

from flick import (
    base_poly,
    fit_column_polynomial,
    todd_column,
    todd_finite_difference,
    todd_recurrence,
    todd_row,
    todd_stirling,
    triangle_entry_recurrence,
)

print("The array corner, by the flickering recurrence:")
for n in range(1, 6):
    print("  " + "  ".join(str(v).rjust(6) for v in todd_row(n, 8)))

print()
print("Same numbers from the finite-difference and Stirling-sum formulas:")
for n, k in ((2, 5), (3, 7), (5, 8)):
    r = todd_recurrence(n, k)
    fd = todd_finite_difference(n, k)
    st = todd_stirling(n, k)
    print(f"  ({n},{k}): recurrence {r}, finite difference {fd}, stirling {st}")

print()
print("Rows and columns are familiar sequences:")
print(f"  row 2 (alternating bit counts):      {todd_row(2, 8)}")
print(f"  column 3 (square pyramidal numbers): {todd_column(3, 8)}")
print(f"  column 9:                            {todd_column(9, 5)}")

print()
print("The array is the odd-column slice of the triangle:")
subgrid = all(
    todd_recurrence(m, k) == triangle_entry_recurrence(2 * m + k - 2, 2 * m - 1)
    for m in range(1, 9)
    for k in range(1, 11)
)
print(f"  Todd(m, k) == T(2m+k-2, 2m-1) on an 8 x 10 corner: {subgrid}")

print()
print("Column-to-column transition (discrete integration against n^2):")
transition = all(
    todd_recurrence(n, 2 * m + 1) - todd_recurrence(n - 1, 2 * m + 1)
    == n * n * todd_recurrence(n, 2 * m - 1)
    for m in range(1, 7)
    for n in range(2, 31)
)
print(f"  Todd(n,2m+1) - Todd(n-1,2m+1) == n^2 Todd(n,2m-1): {transition}")

print()
print("Odd columns factor over an explicit base polynomial:")
for m in range(1, 5):
    fit = fit_column_polynomial(m)
    print(f"  column {fit.column}: base {base_poly(m).to_str('n')}")
    print(f"            times ({fit.u_numerator.to_str('n')}) / {fit.denominator}")
print()
print("Spot check at n = 4, column 5: base * numerator / denominator =")
fit = fit_column_polynomial(2)
print(f"  {fit.base(4)} * {fit.u_numerator(4)} / {fit.denominator} = {fit.todd_value(4)}"
      f" (array says {todd_recurrence(4, 5)})")
