#!/usr/bin/env python3
"""Power sums without Bernoulli numbers: S_m(n) = 1^m + ... + n^m evaluated
as an integer combination of products of consecutive integers, with cost
that grows with the number of digits of n rather than with n.
"""

import time

from flick import integral_basis, power_sum, power_sum_naive

print("The basis: products of k consecutive integers straddling n,")
print("  I_1(n) = n,  I_2(n) = n(n+1),  I_3(n) = (n-1)n(n+1), ...")
print(f"  I_4(5) = {integral_basis(5, 4)}   I_5(3) = {integral_basis(3, 5)}")

print()
print("S_3(4) term by term (triangle row 3 is 1, 0, 1):")
result = power_sum(3, 4)
for k, coeff, basis in result.terms:
    print(f"  k={k}: {coeff} * I_{k + 1}(4) / {k + 1} = {coeff} * {basis} / {k + 1} = {coeff * basis // (k + 1)}")
print(f"  total: {result.value}  (and 1 + 8 + 27 + 64 = {power_sum_naive(3, 4)})")

print()
print("Every division is exact: I_{k+1}(n) is a run of k+1 consecutive")
print("integers, so (k+1)! divides it before the coefficient even helps.")

print()
print("The classical closed forms drop out:")
for m, label in ((1, "n(n+1)/2"), (2, "n(n+1)(2n+1)/6"), (3, "(n(n+1)/2)^2")):
    values = [power_sum(m, n).value for n in range(1, 9)]
    print(f"  m={m}: {values}   ({label})")

print()
print("Cost follows the digits of n -- the naive loop follows n itself:")
power_sum(10, 1)  # fills triangle row 10, so the timings below are evaluation only
t0 = time.perf_counter()
basis_value = power_sum(10, 10**5).value
basis_elapsed = time.perf_counter() - t0
t0 = time.perf_counter()
naive_value = power_sum_naive(10, 10**5)
naive_elapsed = time.perf_counter() - t0
assert basis_value == naive_value
print(f"  m=10, n=10^5: basis {basis_elapsed * 1e6:8.1f} us"
      f"   naive {naive_elapsed * 1e6:12.1f} us")
t0 = time.perf_counter()
value = power_sum(10, 10**50).value
elapsed = time.perf_counter() - t0
print(f"  m=10, n=10^50: basis {elapsed * 1e6:8.1f} us   (naive: not in this lifetime)")
print(f"  the value has {len(str(value))} digits and starts {str(value)[:40]}...")
power_sum(300, 1)  # fills triangle row 300
t0 = time.perf_counter()
value = power_sum(300, 7 * 10**999).value  # m * bits(n) is past the split threshold
print(f"  m=300, a 1000-digit n: basis {time.perf_counter() - t0:8.3f} s"
      f"   (the value has {value.bit_length()} bits)")
