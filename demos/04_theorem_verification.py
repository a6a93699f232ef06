#!/usr/bin/env python3
"""Brute force against predictions, decade by decade.

Three comparisons, all with exact-integer left-hand sides:
  1. the full correlation sum of d_2(n+1) d_2(n, 1/2) against x P(log x);
  2. progression sums of d_k(n, 1/2) against the exact main term;
  3. the doubly-partial correlation against its leading constant
     (log-slow convergence makes this a trend check, not a limit check).
"""

import mpmath as mp

from divcorr import (
    ap_main_term,
    brute_ap_sweep,
    brute_correlation_decades,
    coefficient_context,
    correlation_leading,
    main_polynomial,
)
from divcorr.oracle import ComparisonReport

mp.mp.dps = 40

print("1) correlation vs full polynomial, (h, k, l, A) = (1, 2, 2, 1/2)")
poly = main_polynomial("1/2", coefficient_context(1, 2, 2, source="euler"))
rep = ComparisonReport(title="demo", meta={"mode": "theorem-2.3-style"})
xs = [10**3, 10**4, 10**5, 10**6]
[sums] = brute_correlation_decades([1], 2, 2, [1], ["1/2"], xs).values()
for r in sums:
    rep.add(r.x, r.value, mp.mpf(r.x) * poly(mp.log(r.x)))
for row in rep.rows:
    print(f"   x = {row['x']:>8}: observed {row['observed']:>12}  "
          f"ratio = {mp.nstr(row['ratio'], 10)}")

print("\n2) progression sums vs exact main term, x = 10^5, A = 1/2")
for (k, q, h) in ((2, 7, 3), (3, 5, 2)):
    [obs] = brute_ap_sweep(k, "1/2", [(q, h)], [10**5])[q, h]
    pred = ap_main_term(10**5, q, h, k, "1/2").value
    print(f"   k={k} q={q} h={h}: observed {obs}, main term "
          f"{mp.nstr(pred, 10)}, ratio {mp.nstr(obs / pred, 8)}")

print("\n3) doubly-partial correlation vs leading constant, A = 2/3, B = 1/4")
print("   (the normalized ratio drifts toward 1 like 1/log x; one pass per (k, l))")
for (k, l) in ((2, 2), (3, 2)):
    sweep = brute_correlation_decades([1, 2], k, l, ["2/3"], ["1/4"], [10**4, 10**5, 10**6])
    for (h, _, _), rows in sweep.items():
        lead = correlation_leading(h, k, l, "2/3", "1/4")
        ratios = [mp.nstr(mp.mpf(r.value) / (r.x * mp.log(r.x) ** (k + l - 2) * lead), 6)
                  for r in rows]
        print(f"   k={k} l={l} h={h}: ratios across decades {ratios}")

print("\nCSV schema used by the command-line reports:")
print("\n".join(rep.to_csv().splitlines()[:4]))
