"""Independent oracles: exact brute-force sums and numeric residue pipelines.

Everything on the brute side is an exact integer: correlation sums of
(partial) divisor functions, arithmetic-progression sums, and the
exact-rational mean of d_k(n,A)/d_k(n).  Partial divisor values are built
by a divisor-scan that decides every boundary q <= n^A through integer
root thresholds, never floating point.

The residue side re-derives the polynomial coefficients from the
Perron-style pipeline: the order-(k-1) Taylor coefficient of
(s-1)^k zeta^k(s) * (truncated Dirichlet data) * x^s / s at s = 1, with the
inner divisor sums replaced by their residue main terms.  It shares the
analytic steps with the coefficient ledgers but none of the combinatorial
reindexing, which is exactly what it is meant to arbitrate.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from numbers import Integral

import mpmath as mp
import numpy as np

from .arith import RationalExponent, divisor_count_array, introot_ceil
from .asympt import CoefficientContext, _falling, coefficient_context
from .errors import ResourceBudgetError
from .euler import _mpf_frac, phi_of, varphi_table
from .jets import PowerJet
from .zeta_series import zeta_power_coeffs

MAX_BRUTE_X = 10**8

_CHUNK = 1 << 16

_INT64_MAX = 2**63 - 1


def _abs_max(arr: np.ndarray) -> int:
    """Largest |entry| of an int64 array as a Python int (0 when empty)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _chunk_len(arr: np.ndarray, cap: int) -> int:
    """Most entries of arr (at most cap) whose int64 sum cannot wrap."""
    return max(1, min(cap, _INT64_MAX // max(_abs_max(arr), 1)))


def _exact_sum(arr: np.ndarray) -> int:
    """Exact integer sum of an int64 array: int64 sums over chunks short
    enough not to wrap, promoted to Python ints."""
    step = _chunk_len(arr, _CHUNK)
    return sum(int(arr[start : start + step].sum(dtype=np.int64))
               for start in range(0, arr.size, step))


def _checked_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left * right in int64; ResourceBudgetError where a product could wrap."""
    bound = _abs_max(left) * _abs_max(right)
    if bound > _INT64_MAX:
        raise ResourceBudgetError(
            f"products up to {bound} exceed int64; brute sums need smaller x")
    return left * right


def _group_sums(keys: np.ndarray, weights: np.ndarray) -> dict[int, int]:
    """Exact sum of the weights for each key (keys small nonnegative ints).

    int64 scatter-adds over chunks short enough not to wrap, promoted to
    Python ints; keys whose weights sum to 0 are left out.
    """
    totals: dict[int, int] = {}
    if not keys.size:
        return totals
    size = int(keys.max()) + 1
    step = _chunk_len(weights, weights.size)
    for start in range(0, weights.size, step):
        acc = np.zeros(size, dtype=np.int64)
        np.add.at(acc, keys[start : start + step], weights[start : start + step])
        for key in np.flatnonzero(acc).tolist():
            totals[key] = totals.get(key, 0) + int(acc[key])
    return {key: s for key, s in totals.items() if s}


def partial_divisor_array(x: int, k: int, A) -> np.ndarray:
    """d_k(n, A) for 0 <= n <= x as exact int64 (index 0 unused).

    A = 1 is d_k(n) itself, from the sieve.  Otherwise scans divisors q and
    adds d_{k-1}(q) to every multiple n >= q with q^b <= n^a; the first
    admitted multiple comes from an exact integer root, and admission is
    monotone in n along each stride.
    """
    if x < 1 or k < 1:
        raise ValueError("partial_divisor_array requires x >= 1, k >= 1")
    if x > MAX_BRUTE_X:
        raise ResourceBudgetError(f"x={x} over brute budget {MAX_BRUTE_X}")
    A = RationalExponent.parse(A)
    if A.a == A.b:
        return divisor_count_array(x, k)
    out = np.zeros(x + 1, dtype=np.int64)
    if A.a == 0 or k == 1:
        out[1:] = 1
        return out
    qmax = A.divisor_cutoff(x)
    dkm1 = divisor_count_array(qmax, k - 1)
    for q in range(1, qmax + 1):
        n0 = max(q, A.first_n_admitting(q))
        first = q * ((n0 + q - 1) // q)
        if first <= x:
            out[first::q] += int(dkm1[q])
    return out


@dataclass
class CorrelationResult:
    """Exact correlation sum over n <= x of d_k(n+h, A) d_l(n, B)."""

    h: int
    k: int
    l: int
    A: RationalExponent
    B: RationalExponent
    x: int
    value: int
    wall_time: float = 0.0


def brute_correlation(h: int, k: int, l: int, A, B, x: int) -> CorrelationResult:
    """Exact sum over n <= x of d_k(n+h, A) d_l(n, B)."""
    return brute_correlation_decades(h, k, l, A, B, [x])[0]


def brute_correlation_decades(h: int, k: int, l: int, A, B, xs: list[int],
                              left: np.ndarray | None = None,
                              right: np.ndarray | None = None) -> list[CorrelationResult]:
    """Exact correlation sums at several cutoffs from one pass at max(xs).

    `left` and `right` may hold d_k(n, A) and d_l(n, B) for 0 <= n <= N, as
    partial_divisor_array gives them, with N >= max(xs) + h and N >= max(xs);
    they are read instead of being sieved again.
    """
    A = RationalExponent.parse(A)
    B = RationalExponent.parse(B)
    xs = sorted(xs)
    xmax = xs[-1]
    t0 = time.perf_counter()
    if left is None:
        left = partial_divisor_array(xmax + h, k, A)
    if right is None:
        right = partial_divisor_array(xmax, l, B)
    if len(left) <= xmax + h or len(right) <= xmax:
        raise ValueError("precomputed arrays must reach max(xs) + h and max(xs)")
    prod = _checked_product(left[h + 1 : xmax + h + 1], right[1 : xmax + 1])
    out = []
    prev_x = 0
    running = 0
    for x in xs:
        running += _exact_sum(prod[prev_x:x])
        out.append(CorrelationResult(h=h, k=k, l=l, A=A, B=B, x=x, value=running,
                                     wall_time=time.perf_counter() - t0))
        prev_x = x
    return out


def brute_ap_sum(x: int, q: int, h: int, k: int, A,
                 partial: np.ndarray | None = None) -> int:
    """Exact sum of d_k(n, A) over n <= x with n = h (mod q)."""
    if q < 1:
        raise ValueError("brute_ap_sum requires q >= 1")
    arr = partial if partial is not None else partial_divisor_array(x, k, A)
    start = h % q
    if start == 0:
        start = q
    return _exact_sum(arr[start::q])


@dataclass
class DistributionResult:
    """Mean and histogram of d_k(n,A)/d_k(n), plus mean-value comparison data."""

    k: int
    A: RationalExponent
    x: int
    mean: Fraction
    histogram: list  # (bin_lo, bin_hi, count)
    sum_partial: int
    sum_full: int

    @property
    def mean_float(self) -> float:
        return float(self.mean)

    def scaling_residual(self) -> Fraction:
        """|sum d_k(n,A) - A^(k-1) sum d_k(n)|, exact."""
        Af = self.A.as_fraction()
        return abs(Fraction(self.sum_partial) - Af ** (self.k - 1) * self.sum_full)


def empirical_distribution(k: int, A, x, bins: int = 20):
    """Exact-rational mean of d_k(n,A)/d_k(n) over n <= x, with histogram.

    x is one cutoff (one result) or a sequence of cutoffs (one result per
    entry, in the given order).  Both arrays are sieved once, at the largest
    cutoff; each cutoff's sums, ratio sum and histogram continue from the
    previous one's over the n between them.  The ratio sum is grouped by the
    value of d_k(n) with exact integer numerators, so the mean is an exact
    rational.
    """
    A = RationalExponent.parse(A)
    cuts = sorted({x} if isinstance(x, Integral) else set(x))
    if cuts[0] < 1:
        raise ValueError("empirical_distribution requires every x >= 1")
    full = divisor_count_array(cuts[-1], k)
    part = partial_divisor_array(cuts[-1], k, A)
    counts = np.zeros(bins, dtype=np.int64)
    ratio_sum = Fraction(0)
    sum_partial = sum_full = 0
    results = {}
    prev = 0
    for cut in cuts:
        f, p = full[prev + 1 : cut + 1], part[prev + 1 : cut + 1]
        ratio_sum += sum((Fraction(s, v) for v, s in _group_sums(f, p).items()), Fraction(0))
        seg_counts, edges = np.histogram(p / f, bins=bins, range=(0.0, 1.0000001))
        counts += seg_counts
        sum_partial += _exact_sum(p)
        sum_full += _exact_sum(f)
        histogram = [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                     for i in range(bins)]
        results[cut] = DistributionResult(
            k=k, A=A, x=cut, mean=ratio_sum / cut, histogram=histogram,
            sum_partial=sum_partial, sum_full=sum_full,
        )
        prev = cut
    if isinstance(x, Integral):
        return results[x]
    return [results[c] for c in x]


# ---------------------------------------------------------------------------
# residue pipelines
# ---------------------------------------------------------------------------


def _lampoly_mul(P: list, Q: list, deg: int) -> list:
    """Multiply polynomials in lambda whose coefficients are PowerJets."""
    out = [None] * (deg + 1)
    for i, a in enumerate(P):
        if a is None:
            continue
        for j, b in enumerate(Q):
            if b is None or i + j > deg:
                continue
            prod = a * b
            out[i + j] = prod if out[i + j] is None else out[i + j] + prod
    return out


@dataclass
class ResidueRoutes:
    """Per-log-power coefficients from the residue pipeline at truncation Q.

    primary[d] targets sum_{m+n=d} A^n b_{m,n} / (m! n!); secondary[d]
    targets a_{A,d} / d!.  Both consume the same truncated partials as the
    ledger route, so agreement is a pure check of the combinatorial
    assembly.
    """

    h: int
    k: int
    l: int
    A: RationalExponent
    Q: int
    primary: list
    secondary: list


def residue_polynomial_routes(h: int, k: int, l: int, A, Q: int,
                              ctx: CoefficientContext | None = None) -> ResidueRoutes:
    A = RationalExponent.parse(A)
    if ctx is None:
        ctx = coefficient_context(h, k, l, source="dirichlet", Q=Q, mode="mp")
    D = ctx.partials
    a_l1 = ctx.a_l1
    c_k = ctx.c_k
    Af = A.mpf()
    lam_deg = k + l - 2
    tord = k - 1

    # primary: [t^(k-1)] of  t^k zeta^k(1+t) * Zhat(t, lam) * e^(lam t) / (1+t)
    a_k = zeta_power_coeffs(k, tord)
    zk = PowerJet([a_k[r] / mp.factorial(r) for r in range(tord + 1)])
    inv1pt = PowerJet([mp.mpf((-1) ** r) for r in range(tord + 1)])
    zhat = [None] * (lam_deg + 1)
    for n in range(l):
        col = [mp.mpf(0)] * (tord + 1)
        for i in range(tord + 1):
            acc = mp.mpf(0)
            for j in range(l - n):
                acc += a_l1[l - 1 - n - j] / mp.factorial(l - 1 - n - j) * D[i, j]
            col[i] = acc * Af**n / mp.factorial(n)
        zhat[n] = PowerJet(col)
    explam = [None] * (lam_deg + 1)
    for d in range(lam_deg + 1):
        col = [mp.mpf(0)] * (tord + 1)
        if d <= tord:
            col[d] = 1 / mp.factorial(d)
        explam[d] = PowerJet(col)
    base = zk * inv1pt
    m1 = _lampoly_mul([base], zhat, lam_deg)
    total = _lampoly_mul(m1, explam, lam_deg)
    primary = [
        (total[d][tord] if total[d] is not None else mp.mpf(0))
        for d in range(lam_deg + 1)
    ]

    # secondary: (1/i!) d^i W / x assembled from the residue main terms of
    # the inner divisor sums, then contracted against c_{k-1-i}(k).  The
    # index bookkeeping here (log powers of the truncation parameter kept
    # separate, A-powers absorbed per term) deliberately differs from the
    # ledger's log-x collection, so agreement is a nontrivial check.
    sec = [mp.mpf(0)] * (lam_deg + 1)
    if l >= 2:
        for i in range(k):
            for j in range(i + 1):
                pref_ij = -c_k[k - 1 - i] * comb(i, j) / mp.factorial(i)
                for m in range(j + 1):
                    pref_m = pref_ij * comb(j, m)
                    for r in range(l + m - 1):
                        for u in range(r + 1):
                            word = j - m + r - u
                            base = (
                                pref_m
                                * Af**u
                                / (mp.factorial(u) * mp.factorial(r - u))
                                * mp.factorial(i - j)
                                * mp.factorial(word)
                                * D[i - j, word]
                            )
                            if base == 0:
                                continue
                            for v in range(l + m - 2 - r + 1):
                                fall = _falling(v - l + 1, m)
                                if fall == 0:
                                    continue
                                sec[u] += (
                                    base
                                    * (-Af) ** (l + m - 1 - j - v - r)
                                    * a_l1[v]
                                    * _mpf_frac(fall)
                                    / mp.factorial(v)
                                )
    secondary = [-sec[d] for d in range(k + l - 2)]
    return ResidueRoutes(h=int(h), k=k, l=l, A=A, Q=Q,
                         primary=primary, secondary=secondary)


def phi_partial_sum_jet(h: int, k: int, l: int, Q: int, order_s: int) -> PowerJet:
    """sum_{q<=Q} phi(s, q) as a jet in t = s-1, via the varphi convolution.

    phi(s,q) = sum_{d|q} varphi(d,s) d_{l-1}(q/d)/(q/d), so the partial sum
    is sum_{d<=Q} varphi(d,s) * H_{l-1}(Q/d) with H the weighted divisor sum.
    """
    table = varphi_table(h, k, l, Q, order_s, mode="mp")
    dl1 = divisor_count_array(Q, l - 1) if l >= 2 else None
    # H[m] = sum_{q<=m} d_{l-1}(q)/q as mpf, computed once by prefix sums
    acc = mp.mpf(0)
    H = [mp.mpf(0)] * (Q + 1)
    for q in range(1, Q + 1):
        w = (int(dl1[q]) if l >= 2 else (1 if q == 1 else 0))
        if w:
            acc += mp.mpf(w) / q
        H[q] = acc
    weights = [H[Q // d] for d in range(1, Q + 1)]
    return PowerJet([mp.fdot(table.coefficient_array(r)[1:], weights)
                     for r in range(order_s + 1)])


def direct_secondary_value(h: int, k: int, l: int, A, Q: int, logx,
                           delta_zero_when_integer: bool = True,
                           order_s: int | None = None) -> mp.mpf:
    """Numeric secondary term via explicit boundary weights (diagnostic).

    Evaluates [t^(k-1)] of t^k zeta^k(1+t)/(1+t) * sum_{q<=Q} phi(q,1+t)
    T_q^(1+t) with T_q = q^(1/A) + h - delta(q), delta(q) = 0 when q^(1/A)
    is an integer (or the opposite convention).  Carries the analytic
    approximation error of the pipeline, so comparisons are loose.
    """
    A = RationalExponent.parse(A)
    order_s = order_s if order_s is not None else k - 1
    a_k = zeta_power_coeffs(k, order_s)
    zk = PowerJet([a_k[r] / mp.factorial(r) for r in range(order_s + 1)])
    inv1pt = PowerJet([mp.mpf((-1) ** r) for r in range(order_s + 1)])
    total = PowerJet.constant(0, order_s)
    for q in range(1, Q + 1):
        qb = q**A.b
        root = introot_ceil(qb, A.a)
        is_integer_power = root**A.a == qb
        q_pow = mp.mpf(root) if is_integer_power else mp.root(mp.mpf(qb), A.a)
        delta = (0 if is_integer_power else 1) if delta_zero_when_integer else (
            1 if is_integer_power else 0)
        T = q_pow + h - delta
        logT = mp.log(T)
        wjet = PowerJet([T * logT**r / mp.factorial(r) for r in range(order_s + 1)])
        total = total + phi_of(h, k, l, q, order_s) * wjet
    full = zk * inv1pt * total
    # [t^(k-1)] is the residue expression; it is the term subtracted from
    # the primary in the correlation formula
    return full[k - 1]


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    """Observed-vs-predicted rows with the fixed CSV schema."""

    title: str
    meta: dict
    rows: list = field(default_factory=list)

    def add(self, x: int, observed, predicted):
        observed_f = mp.mpf(observed)
        predicted_f = mp.mpf(predicted)
        ratio = observed_f / predicted_f if predicted_f != 0 else mp.inf
        abs_err = abs(observed_f - predicted_f)
        rel_err = abs_err / abs(predicted_f) if predicted_f != 0 else mp.inf
        self.rows.append({
            "x": x,
            "observed": observed,
            "predicted": predicted_f,
            "ratio": ratio,
            "abs_err": abs_err,
            "rel_err": rel_err,
        })

    def ratios(self) -> list:
        return [row["ratio"] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.meta):
            buf.write(f"# {key}: {self.meta[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "observed", "predicted", "ratio", "abs_err", "rel_err"])
        for row in self.rows:
            writer.writerow([
                row["x"],
                row["observed"],
                mp.nstr(row["predicted"], 17),
                mp.nstr(row["ratio"], 12),
                mp.nstr(row["abs_err"], 12),
                mp.nstr(row["rel_err"], 12),
            ])
        return buf.getvalue()
