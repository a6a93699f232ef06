#!/usr/bin/env python3
"""Exact divisor sieves and the partial divisor function.

d_k(n) counts ordered factorizations of n into k parts; the partial variant
d_k(n, A) only admits divisors q <= n^A.  Everything below is exact integer
arithmetic: the cutoff test q <= n^A is decided by comparing q^b with n^a
for A = a/b, never by floating point.
"""

from fractions import Fraction

from divcorr import RationalExponent, dk_partial, dk_prime_power, factorize, sieve_dk

# A table of d_2 = number-of-divisors on [1, 10^5].
table = sieve_dk(2, 1, 10**5)
print("d(12) =", table.dk(12), "          divisors of 12: 1,2,3,4,6,12")
print("d(2^10) =", table.dk(1024), "       prime power: alpha + 1")
print("91 =", factorize(91).factors, "   factored by trial division")

# Partial divisor function: only divisors up to n^A count, with d_{k-1} weights.
half = RationalExponent(1, 2)
print("\nd_2(12, 1/2) =", dk_partial(12, 2, half),
      "   (divisors <= sqrt(12): 1, 2, 3)")
print("d_3(12, 1/2) =", dk_partial(12, 3, half),
      "   (weights d_2: 1 + 2 + 2)")

# The boundary is included exactly: 4 <= 16^(1/2) admits q = 4.
print("d_2(16, 1/2) =", dk_partial(16, 2, half),
      "   (1, 2, 4 all admitted; 4^2 <= 16)")

# At A = 1 the full convolution identity is recovered.
one = RationalExponent(1, 1)
for n in (12, 360, 5040):
    fi = factorize(n)
    d4 = 1
    for _, e in fi.factors:
        d4 *= dk_prime_power(4, e)
    assert dk_partial(n, 4, one) == d4
print("\nA = 1 recovers d_k(n) exactly (checked n = 12, 360, 5040, k = 4)")

# On prime powers the ratio d_k(p^a, A)/d_k(p^a) approaches A^(k-1):
# d_k(p^a, A) = d_k(p^floor(aA)) exactly.
print("\nprime-power ratios d_3(2^a, 1/2) / d_3(2^a)  ->  (1/2)^2 = 0.25:")
for alpha in (8, 16, 32):
    num = dk_partial(2**alpha, 3, half)
    den = dk_prime_power(3, alpha)
    print(f"  alpha = {alpha:3d}: {num}/{den} = {num/den:.4f}")

# Mean behaviour: sum of d_2(n, 1/2) is half the sum of d_2(n), up to an
# exact square-count correction.
import numpy as np

from divcorr import divisor_count_array, partial_divisor_array

x = 10**5
full = divisor_count_array(x, 2)
part = partial_divisor_array(x, 2, half)
diff = int(part[1:].sum()) - Fraction(1, 2) * int(full[1:].sum())
print(f"\nsum d_2(n,1/2) - (1/2) sum d_2(n) = {diff} = floor(sqrt(x))/2 "
      f"(x = {x}, sqrt = {int(np.sqrt(x))})")
