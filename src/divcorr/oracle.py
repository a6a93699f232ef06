"""Independent oracles: exact brute-force sums.

Everything on the brute side is an exact integer: correlation sums of
(partial) divisor functions, arithmetic-progression sums, and the
exact-rational mean of d_k(n,A)/d_k(n).  One window kernel gives d_k(n, A)
on [lo, hi] for any A, a segmented sieve in the manner of Bays and Hudson
(BIT 17, 1977) that decides every boundary q <= n^A through integer root
thresholds, never floating point.  For k = 2 and A >= 1/2 it needs no
second kernel: pairing q with n/q makes d(n, A) the d(n) window less a
count of the small cofactors, (d(n) + [n is a square]) / 2 at A = 1/2.
Every sum streams window by window (SEGMENT_SIZE integers), carrying its
exact sums, grouped ratio numerators and histogram counts across windows
and cutoffs; streams that derive from one d_k window, the shifted left one
of a correlation included, share it.  Memory is O(window + x^A), not O(x).
MAX_BRUTE_X caps x: it bounds the time a brute sum takes, not its memory.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from numbers import Integral

import mpmath as mp
import numpy as np

from . import arith
from .arith import RationalExponent, _DkSieve, divisor_count_array, introot, introot_ceil
from .errors import ResourceBudgetError

# Largest x of a brute sum.  Memory no longer grows with x, so this bounds
# time: a correlation or distribution stream to 10^8 takes 11-15 s (2-core
# machine, 47-48 MB peak RSS), against 1.1-1.5 s to 10^7.
MAX_BRUTE_X = 10**8

_CHUNK = 1 << 16

# The distribution's ratios are binned this many at a time.
_RATIO_CHUNK = 1 << 14

# The histogram's range: its float edges sit up to 10^-7 above the grid
# i / bins.  A ratio p / f with (bins p) mod f, taken in 1..f, above
# bins f / _MARGIN clears that offset and float rounding alike.
_HIST_RANGE = (0.0, 1.0000001)
_MARGIN = 10**6

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


def _product_sum(left: np.ndarray, right: np.ndarray) -> int:
    """Exact sum of left * right, its products formed _CHUNK at a time and
    checked against int64 wrap."""
    return sum(_exact_sum(_checked_product(left[s : s + _CHUNK], right[s : s + _CHUNK]))
               for s in range(0, left.size, _CHUNK))


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


def _check_budget(x: int):
    """ResourceBudgetError for a brute sum to x past MAX_BRUTE_X."""
    if x > MAX_BRUTE_X:
        raise ResourceBudgetError(f"x={x} over brute budget {MAX_BRUTE_X}")


class _PartialSieve:
    """d_k(n, A) on windows [lo, hi] inside [0, top], as exact int64.

    At A = 1, and for k = 2 at A >= 1/2, the window derives from d_k(n),
    which the d_k window kernel, `_DkSieve`, gives; A = 1 is that window
    itself.  For k = 2 and A = a/b >= 1/2, each divisor q pairs with m = n/q,
    and q > n^A exactly when m^b < n^(b-a), so d(n, A) = d(n) - #{m | n :
    m^b < n^(b-a)}: at A = 1/2 that is (d(n) + [n is a square]) / 2, and
    above it the count runs over m < n^(1-A), fewer than the q <= n^A.
    Otherwise every q <= top^A (q = 1 alone when A = 0 or k = 1) adds
    d_{k-1}(q) to its multiples n >= first[q], the least n with q <= n^A.
    Both counts use `_add`: first is an exact integer root, taken once per q
    here, and admission is monotone in n along each stride.  In a window, q
    up to 1/64 of its width take strided adds; each larger q has at most 64
    multiples in it, so those q advance together, one vectorised int64
    `np.add.at` per multiple.  Memory is O(window + top^A).
    """

    def __init__(self, k: int, A, top: int):
        if top < 1 or k < 1:
            raise ValueError("d_k(n, A) windows require x >= 1, k >= 1")
        self.A = A = RationalExponent.parse(A)
        derives = k > 1 and (A.a == A.b or k == 2 and 2 * A.a >= A.b)
        self.sieve = _DkSieve(k, top) if derives else None
        self.first = None
        if self.sieve is None:
            qmax = 1 if k == 1 or A.a == 0 else A.divisor_cutoff(top)
            self.weight = divisor_count_array(qmax, k - 1)
            self.first = np.array([0, 1] + [A.first_n_admitting(q) for q in range(2, qmax + 1)],
                                  dtype=np.int64)
        elif A.b > 1 and A.b != 2 * A.a:
            # the m counted off, with the least n that admits each: m^b < n^c
            c = A.b - A.a
            mmax = introot(top**c - 1, A.b)
            self.weight = np.full(mmax + 1, -1, dtype=np.int64)
            self.first = np.array([0] + [introot(m**A.b, c) + 1 for m in range(1, mmax + 1)],
                                  dtype=np.int64)

    def __call__(self, lo: int, hi: int, out: np.ndarray,
                 full: np.ndarray | None = None) -> np.ndarray:
        """The window [lo, hi], written into `out` (hi - lo + 1 int64), or at
        A = 1 the d_k(n) window itself.  A caller that already holds the
        d_k(n) window of [lo, hi] passes it as `full`, and a window that
        derives from it is not sieved again."""
        if self.sieve is None:
            out.fill(0)
            self._add(lo, out)
            return out
        if full is None:
            full = self.sieve(lo, out)
        if self.first is not None:
            if out is not full:
                np.copyto(out, full)
            self._add(lo, out)
        elif self.A.b == 2:  # d(n) is odd exactly when n is a square
            np.right_shift(full, 1, out=out)
            roots = np.arange(introot_ceil(max(lo, 1), 2), isqrt(hi) + 1, dtype=np.int64)
            out[roots * roots - lo] += 1
        else:
            return full
        return out

    def _add(self, lo: int, out: np.ndarray):
        """Adds weight[q] to every multiple n >= first[q] of each q in the
        window at lo."""
        size = len(out)
        hi = lo + size - 1
        count = int(np.searchsorted(self.first, hi, side="right")) - 1  # q with first[q] <= hi
        small = min(count, size // 64)
        for q, n0, w in zip(range(1, small + 1), self.first[1 : small + 1].tolist(),
                            self.weight[1 : small + 1].tolist()):
            n0 = max(n0, lo)
            out[n0 + (-n0) % q - lo :: q] += w
        qs = np.arange(small + 1, count + 1, dtype=np.int64)
        pos = np.maximum(self.first[small + 1 : count + 1], lo)
        pos += (-pos) % qs - lo
        w = self.weight[small + 1 : count + 1]
        while True:
            live = pos < size
            if not live.any():
                return
            pos, qs, w = pos[live], qs[live], w[live]
            np.add.at(out, pos, w)
            pos += qs


def _spans(lo: int, hi: int):
    """Consecutive windows [s, e] of at most SEGMENT_SIZE integers covering [lo, hi]."""
    size = arith.SEGMENT_SIZE
    return ((s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size))


def _buffer(x: int, extra: int = 0) -> np.ndarray:
    """Room for one window of a stream over 1 <= n <= x, and `extra` more."""
    return np.empty(min(arith.SEGMENT_SIZE, x) + extra, dtype=np.int64)


def partial_divisor_array(x: int, k: int, A) -> np.ndarray:
    """d_k(n, A) for 0 <= n <= x as exact int64 (index 0 unused): the window
    kernel, written window by window."""
    _check_budget(x)
    window = _PartialSieve(k, A, x)
    out = np.empty(x + 1, dtype=np.int64)
    for lo, hi in _spans(0, x):
        window(lo, hi, out=out[lo : hi + 1])
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


def brute_correlation_decades(h: int, k: int, l: int, A, Bs: list,
                              xs: list[int]) -> list[list[CorrelationResult]]:
    """Exact sums over n <= x of d_k(n+h, A) d_l(n, B) for each B in Bs (one
    list per B, ascending in x) and each x in xs, from one stream to max(xs):
    each window of d_k(n+h, A) is sieved once for every B, the right streams
    that derive from d_l(n) share one d_l window, and each window's products
    are checked against int64 wrap and summed exactly into Python ints.
    When k = l, the left stream and a right one both derive from d_k, and h
    is under the window's width, one d_k window over [lo, hi + h] serves both
    sides: the left's is its slice shifted by h.  A negative h raises
    ValueError: its windows would reach n + h <= 0."""
    if h < 0:
        raise ValueError(f"brute correlation sums require h >= 0, not h={h}")
    A = RationalExponent.parse(A)
    Bs = [RationalExponent.parse(B) for B in Bs]
    xs = sorted(xs)
    _check_budget(xs[-1])
    left = _PartialSieve(k, A, xs[-1] + h)
    rights = [_PartialSieve(l, B, xs[-1]) for B in Bs]
    left_buf, right_buf = _buffer(xs[-1]), _buffer(xs[-1])
    d_l = next((right.sieve for right in rights if right.sieve is not None), None)
    shared = d_l is not None and k == l and left.sieve is not None and h < left_buf.size
    full_buf = _buffer(xs[-1], h if shared else 0)  # the d_l (shared: d_k) window
    running = [0] * len(Bs)
    out = [[] for _ in Bs]
    prev = 0
    for x in xs:
        for lo, hi in _spans(prev + 1, x):
            size = hi - lo + 1
            if shared:
                full = left.sieve(lo, full_buf[: size + h])
                lw, full = left(lo + h, hi + h, left_buf[:size], full=full[h:]), full[:size]
            else:
                lw = left(lo + h, hi + h, left_buf[:size])
                full = None if d_l is None else d_l(lo, full_buf[:size])
            for i, right in enumerate(rights):
                running[i] += _product_sum(lw, right(lo, hi, right_buf[:size], full=full))
        for i, B in enumerate(Bs):
            out[i].append(CorrelationResult(h=h, k=k, l=l, A=A, B=B, x=x, value=running[i]))
        prev = x
    return out


def brute_ap_sweep(k: int, A, classes, xs) -> dict:
    """Exact sums of d_k(n, A) over n <= x with n = h (mod q), for every
    residue class (q, h) in `classes` and every cutoff x in `xs`, from one
    stream of d_k(n, A) to max(xs) that carries an exact sum per class
    across windows and cutoffs.  Returns {(q, h): [the sum to x for x in xs]}."""
    running = dict.fromkeys(classes, 0)
    if any(q < 1 for q, _ in running):
        raise ValueError("brute_ap_sweep requires q >= 1")
    cuts = sorted(set(xs))
    _check_budget(cuts[-1])
    window, buf = _PartialSieve(k, A, cuts[-1]), _buffer(cuts[-1])
    at_cut = {}
    prev = 0
    for cut in cuts:
        for lo, hi in _spans(prev + 1, cut):
            values = window(lo, hi, buf[: hi - lo + 1])
            for q, h in running:
                running[q, h] += _exact_sum(values[(h - lo) % q :: q])
        at_cut[cut] = dict(running)
        prev = cut
    return {c: [at_cut[x][c] for x in xs] for c in running}


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

    def scaling_residual(self) -> Fraction:
        """|sum d_k(n,A) - A^(k-1) sum d_k(n)|, exact."""
        Af = self.A.as_fraction()
        return abs(Fraction(self.sum_partial) - Af ** (self.k - 1) * self.sum_full)


def _ratio_counts(p: np.ndarray, f: np.ndarray, bins: int) -> np.ndarray:
    """np.histogram(p / f, bins, _HIST_RANGE)'s counts for 1 <= p <= f, in
    integers: i = (bins p - 1) // f puts p / f in (i / bins, (i+1) / bins],
    which is np.histogram's bin [edge_i, edge_(i+1)) wherever p / f lies
    more than 1 / _MARGIN above i / bins (edge_i is at most 10^-7 above it,
    edge_(i+1) 10^-7 (i+1) / bins above p / f).  Every element is that far
    while bins f < _MARGIN; past it, the few nearer ones go to np.histogram."""
    counts = np.zeros(bins, dtype=np.int64)
    for c in range(0, f.size, _RATIO_CHUNK):
        pc, fc = p[c : c + _RATIO_CHUNK], f[c : c + _RATIO_CHUNK]
        scaled = bins * pc
        i = (scaled - 1) // fc
        if bins * int(fc.max()) >= _MARGIN:
            near = scaled - i * fc <= bins * fc // _MARGIN
            counts += np.histogram(pc[near] / fc[near], bins=bins, range=_HIST_RANGE)[0]
            i = i[~near]
        counts += np.bincount(i, minlength=bins)
    return counts


def empirical_distribution(k: int, A, x, bins: int = 20):
    """Exact-rational mean of d_k(n,A)/d_k(n) over n <= x, with histogram.

    x is one cutoff (one result) or a sequence of cutoffs (one result per
    entry, in the given order).  One pass streams d_k(n) window by window up
    to the largest cutoff, with d_k(n, A) derived from it where it can be
    (A = 1, or k = 2 and A >= 1/2) and sieved beside it otherwise, carrying
    the exact sums, the histogram counts and the ratio numerators across
    windows and cutoffs.  The ratio sum is grouped by the value of d_k(n)
    with exact integer numerators, so the mean is an exact rational; the
    histogram bins are integer comparisons equal to np.histogram's over
    _HIST_RANGE (_ratio_counts).
    """
    A = RationalExponent.parse(A)
    cuts = sorted({x} if isinstance(x, Integral) else set(x))
    if cuts[0] < 1:
        raise ValueError("empirical_distribution requires every x >= 1")
    _check_budget(cuts[-1])
    full_w, part_w = _PartialSieve(k, 1, cuts[-1]), _PartialSieve(k, A, cuts[-1])
    full_buf, part_buf = _buffer(cuts[-1]), _buffer(cuts[-1])
    edges = np.histogram_bin_edges(np.zeros(0), bins=bins, range=_HIST_RANGE).tolist()
    counts = np.zeros(bins, dtype=np.int64)
    numerators: dict[int, int] = {}  # d_k(n) -> sum of d_k(n, A) over those n
    sum_partial = sum_full = 0
    results = {}
    prev = 0
    for cut in cuts:
        for lo, hi in _spans(prev + 1, cut):
            f = full_w(lo, hi, full_buf[: hi - lo + 1])
            p = part_w(lo, hi, part_buf[: hi - lo + 1], full=f)
            for v, s in _group_sums(f, p).items():
                numerators[v] = numerators.get(v, 0) + s
            sum_partial += _exact_sum(p)
            sum_full += _exact_sum(f)
            counts += _ratio_counts(p, f, bins)
        ratio_sum = sum((Fraction(s, v) for v, s in numerators.items()), Fraction(0))
        histogram = [(edges[i], edges[i + 1], int(counts[i])) for i in range(bins)]
        results[cut] = DistributionResult(k, A, cut, ratio_sum / cut, histogram,
                                          sum_partial, sum_full)
        prev = cut
    if isinstance(x, Integral):
        return results[x]
    return [results[c] for c in x]


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
