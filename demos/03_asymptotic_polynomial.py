#!/usr/bin/env python3
"""The full asymptotic polynomial of a partially-truncated divisor sum.

The sum of d_k(n+h) d_l(n, A) over n <= x equals x P(log x) up to a
power-saving error.  P has degree k+l-2 and its coefficients assemble from
two ledgers: the b-entries (completed Dirichlet series residue) and the
A-dependent a-entries (partial-range boundary).  Both consume the mixed
partials of sum_q varphi(q, s) q^(-w) at (s, w) = (1, 0), carried by
truncated-jet arithmetic.

For k = l = 2, A = 1/2, divisor symmetry doubles P into the classical
degree-2 expansion of sum d(n+h) d(n), whose coefficients have closed
forms in gamma, the reciprocal-zeta constants, and sigma moments of h.
That closed-form route is the consistency gate."""

import mpmath as mp

from divcorr import coefficient_context, estermann_coefficients, main_polynomial

mp.mp.dps = 40

ctx = coefficient_context(1, 2, 2, source="euler")
poly = main_polynomial("1/2", ctx)
print("P(L) for (h, k, l, A) = (1, 2, 2, 1/2):")
for d in range(poly.degree, -1, -1):
    print(f"  L^{d}: {mp.nstr(poly.coeffs[d], 20)}")
print("in proven range (A < theta_k):", poly.in_proven_range)

print("\nper-coefficient provenance (which ledger fed what):")
for d, contribs in enumerate(poly.provenance):
    parts = []
    for t in contribs:
        if t[0] == "b":
            parts.append(f"b[{t[1]},{t[2]}] -> {mp.nstr(t[3], 8)}")
        else:
            parts.append(f"a[{t[1]}] -> {mp.nstr(t[2], 8)}")
    print(f"  L^{d}: " + ";  ".join(parts))

# Two-route check of the classical degree-2 coefficients for shifts 1..8.
print("\nclassical closed forms vs ledger assembly (max |diff| per shift):")
for h in range(1, 9):
    chk = estermann_coefficients(coefficient_context(h, 2, 2, source="euler"))
    print(f"  h = {h}: [x log^2 x] = {mp.nstr(chk.assembled[0], 14)},  "
          f"max diff = {mp.nstr(chk.max_diff, 3)}")

# The same polynomial pins down the mean of the correlation numerically:
# evaluate P at a few scales.
print("\nx * P(log x) predictions for (1, 2, 2, 1/2):")
for x in (10**4, 10**6, 10**8):
    print(f"  x = 1e{len(str(x))-1}: {mp.nstr(x * poly(mp.log(x)), 12)}")
