#!/usr/bin/env python3
"""A tour of the flickering triangle T(n, k) (OEIS A395021).

Builds the triangle two independent ways -- central extraction from finite
difference tables, and the autonomous parity recurrence -- then shows the
structure that makes it tick: the zero pattern, the collapse identity, and
the expansion of plain powers over the fallshift basis.
"""

from flick import fallshift, triangle_entry_recurrence, triangle_rows

print("The difference pyramid of f(j) = j^6 on j = -8..8, central column:")
level = [j**6 for j in range(-8, 9)]
for k in range(0, 7):
    print(f"  order {k}: length {len(level):2d}, central slot {level[len(level) // 2]}")
    level = [b - a for a, b in zip(level, level[1:])]

print()
print("Dividing |central slot| by k! row by row gives the triangle:")
triangle = triangle_rows(12, method="extraction")
for n, row in enumerate(triangle.rows, start=1):
    print(f"  n={n:2d}: " + ", ".join(str(v) for v in row))

print()
print("The recurrence route agrees entrywise:")
again = triangle_rows(12, method="recurrence")
print(f"  extraction == recurrence for 12 rows: {triangle.rows == again.rows}")

print()
print("Zeros sit exactly at even k in odd rows (strictly inside the row):")
for n in (7, 9, 11):
    row = triangle.rows[n - 1]
    zero_slots = [k for k in range(1, n + 1) if row[k - 1] == 0]
    print(f"  row {n}: zero columns {zero_slots}")

print()
print("In even rows, even columns are copies from the row above:")
for n, k in ((8, 4), (10, 6), (12, 8)):
    here = triangle_entry_recurrence(n, k)
    above = triangle_entry_recurrence(n - 1, k - 1)
    print(f"  T({n},{k}) = {here} = T({n-1},{k-1}) = {above}")

print()
print("Triangle rows are the change-of-basis from powers to shifted factorials:")
print("  n^m = sum_k T(m, k) * fallshift(n, k), e.g. m = 5 at n = 3:")
coeffs = [triangle_entry_recurrence(5, k) for k in range(1, 6)]
pieces = [f"{c} * {fallshift(3, k)}" for k, c in enumerate(coeffs, start=1) if c]
print(f"  3^5 = {' + '.join(pieces)} = {sum(c * fallshift(3, k) for k, c in enumerate(coeffs, start=1))}")
