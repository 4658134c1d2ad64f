#!/usr/bin/env python3
"""Cross-check the exact route against the unit-circle integral route.

p(n), the probability that two independent uniform random permutations of
n letters have the same number of cycles, is computed two ways:

  1. exact big-integer arithmetic: p(n) = sum_k c(n,k)^2 / (n!)^2,
  2. quadrature of |g(e^{i theta})|^2 / (n!)^2 over the circle, where g is
     the rising factorial whose coefficients are the c(n,k).

These agree to quadrature tolerance for *every* n - the integral is an
identity, not an asymptotic - which makes the pair a stringent mutual
test: the first route exercises big-int combinatorics, the second special
functions and adaptive integration.
"""

import math
import sys
from decimal import Decimal, localcontext

from cyclecollide import p_quadrature_result, stirling_rows

# f(n) runs to thousands of digits; lift the int-to-str guard to show it
sys.set_int_max_str_digits(1_000_000)


def twenty_digits(prob):
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(prob.numerator) / Decimal(prob.denominator))


ns = [1, 2, 3, 5, 10, 30, 100, 300, 1000, 1024, 1025, 5000]

print(f"{'n':>6}  {'p exact (20 digits)':>24}  {'p quadrature':>22}  "
      f"{'|diff|':>9}  {'err est':>9}")
print("-" * 80)
f_digits = {}
for row in stirling_rows(ns):  # one upward walk serves every n
    n = row.n
    exact = row.collision_probability()
    f_digits[n] = len(str(row.square_sum()))
    quad = p_quadrature_result(n)
    diff = abs(quad.value - exact.approx)
    print(f"{n:>6}  {twenty_digits(exact):>24}  {quad.value:>22.17f}  "
          f"{diff:>9.1e}  {quad.abs_error_estimate:>9.1e}")

print()
print("size of the exact computation:")
for n in [10, 100, 1000, 5000]:
    print(f"  f({n}) has {f_digits[n]} digits "
          f"(denominator (n!)^2 has {len(str(math.factorial(n)**2))})")
print()
print("above n = 1024 the quadrature switches from the O(n) product "
      "integrand to the O(1) Gamma-ratio form; the match is unaffected.")
