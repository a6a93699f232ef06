"""Independent oracles: exact brute-force sums.

Everything on the brute side is an exact integer: correlation sums of
(partial) divisor functions, arithmetic-progression sums, and the
exact-rational mean of d_k(n,A)/d_k(n).  One window kernel gives d_k(n, A)
on [lo, hi] for any A, a segmented sieve in the manner of Bays and Hudson
(BIT 17, 1977) that decides every boundary q <= n^A through integer root
thresholds, never floating point.  Every sum streams window by window
(SEGMENT_SIZE integers), carrying its exact sums, grouped ratio numerators
and histogram counts across windows and cutoffs.  Memory is O(window +
x^A), not O(x).  MAX_BRUTE_X still caps x: it now bounds the time a brute
sum takes, not its memory.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral

import mpmath as mp
import numpy as np

from . import arith
from .arith import RationalExponent, _DkSieve, divisor_count_array
from .errors import ResourceBudgetError

# Largest x of a brute sum.  Memory no longer grows with x, so this bounds
# time: a correlation or distribution stream to 10^8 takes 11-15 s (2-core
# machine, 47-48 MB peak RSS), against 1.1-1.5 s to 10^7.
MAX_BRUTE_X = 10**8

_CHUNK = 1 << 16

# The distribution's float ratios are formed this many at a time.
_RATIO_CHUNK = 1 << 14

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


class _PartialSieve:
    """d_k(n, A) on windows [lo, hi] inside [0, top], as exact int64.

    A = 1 is the d_k window kernel, `_DkSieve` (k = 1 aside).  Otherwise every
    q <= top^A (q = 1 alone when A = 0 or k = 1) adds d_{k-1}(q) to its multiples
    n >= first[q], the least n with q <= n^A.  first is an exact integer root,
    taken once per q here, and admission is monotone in n along each stride.
    In a window, q up to 1/64 of its width take strided adds; each larger q
    has at most 64 multiples in it, so those q advance together, one
    vectorised int64 `np.add.at` per multiple.  Memory is O(window + top^A).
    """

    def __init__(self, k: int, A, top: int):
        if top < 1 or k < 1:
            raise ValueError("d_k(n, A) windows require x >= 1, k >= 1")
        if top > MAX_BRUTE_X:
            raise ResourceBudgetError(f"x={top} over brute budget {MAX_BRUTE_X}")
        A = RationalExponent.parse(A)
        self.sieve = None
        if A.a == A.b and k > 1:
            self.sieve = _DkSieve(k, top)
            return
        qmax = 1 if k == 1 or A.a == 0 else A.divisor_cutoff(top)
        self.weight = divisor_count_array(qmax, k - 1)
        self.first = np.array([0, 1] + [A.first_n_admitting(q) for q in range(2, qmax + 1)],
                              dtype=np.int64)

    def __call__(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """The window [lo, hi], written into `out` (hi - lo + 1 int64)."""
        size = hi - lo + 1
        if self.sieve is not None:
            return self.sieve(lo, out)
        out.fill(0)
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
                return out
            pos, qs, w = pos[live], qs[live], w[live]
            np.add.at(out, pos, w)
            pos += qs


def _spans(lo: int, hi: int):
    """Consecutive windows [s, e] of at most SEGMENT_SIZE integers covering [lo, hi]."""
    size = arith.SEGMENT_SIZE
    return ((s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size))


def _buffer(x: int) -> np.ndarray:
    """Room for one window of a stream over 1 <= n <= x."""
    return np.empty(min(arith.SEGMENT_SIZE, x), dtype=np.int64)


def _windows(k: int, A, top: int, buf: np.ndarray):
    """d_k(n, A) on [lo, hi] inside [0, top] by window: the window kernel
    written into the front of `buf`, which the next window overwrites."""
    kernel = _PartialSieve(k, A, top)
    return lambda lo, hi: kernel(lo, hi, out=buf[: hi - lo + 1])


def partial_divisor_array(x: int, k: int, A) -> np.ndarray:
    """d_k(n, A) for 0 <= n <= x as exact int64 (index 0 unused): the window
    kernel, written window by window."""
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
    each window of d_k(n+h, A) is sieved once for every B, and each window's
    products are checked against int64 wrap and summed exactly into Python
    ints.  A negative h raises ValueError: its windows would reach n + h <= 0."""
    if h < 0:
        raise ValueError(f"brute correlation sums require h >= 0, not h={h}")
    A = RationalExponent.parse(A)
    Bs = [RationalExponent.parse(B) for B in Bs]
    xs = sorted(xs)
    left = _windows(k, A, xs[-1] + h, _buffer(xs[-1]))
    right_buf = _buffer(xs[-1])  # each right window is summed before the next
    rights = [_windows(l, B, xs[-1], right_buf) for B in Bs]
    running = [0] * len(Bs)
    out = [[] for _ in Bs]
    prev = 0
    for x in xs:
        for lo, hi in _spans(prev + 1, x):
            lw = left(lo + h, hi + h)
            for i, right in enumerate(rights):
                running[i] += _product_sum(lw, right(lo, hi))
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
    window = _windows(k, A, cuts[-1], _buffer(cuts[-1]))
    at_cut = {}
    prev = 0
    for cut in cuts:
        for lo, hi in _spans(prev + 1, cut):
            values = window(lo, hi)
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


def empirical_distribution(k: int, A, x, bins: int = 20):
    """Exact-rational mean of d_k(n,A)/d_k(n) over n <= x, with histogram.

    x is one cutoff (one result) or a sequence of cutoffs (one result per
    entry, in the given order).  One pass streams both d_k(n) and d_k(n, A)
    window by window up to the largest cutoff, carrying the exact sums, the
    histogram counts and the ratio numerators across windows and cutoffs.
    The ratio sum is grouped by the value of d_k(n) with exact integer
    numerators, so the mean is an exact rational.
    """
    A = RationalExponent.parse(A)
    cuts = sorted({x} if isinstance(x, Integral) else set(x))
    if cuts[0] < 1:
        raise ValueError("empirical_distribution requires every x >= 1")
    full_w = _windows(k, RationalExponent(1, 1), cuts[-1], _buffer(cuts[-1]))
    part_w = full_w if A.a == A.b else _windows(k, A, cuts[-1], _buffer(cuts[-1]))
    hist_range = (0.0, 1.0000001)
    edges = np.histogram_bin_edges(np.zeros(0), bins=bins, range=hist_range).tolist()
    counts = np.zeros(bins, dtype=np.int64)
    numerators: dict[int, int] = {}  # d_k(n) -> sum of d_k(n, A) over those n
    sum_partial = sum_full = 0
    results = {}
    prev = 0
    for cut in cuts:
        for lo, hi in _spans(prev + 1, cut):
            f = full_w(lo, hi)
            p = f if part_w is full_w else part_w(lo, hi)
            for v, s in _group_sums(f, p).items():
                numerators[v] = numerators.get(v, 0) + s
            sum_partial += _exact_sum(p)
            sum_full += _exact_sum(f)
            for c in range(0, f.size, _RATIO_CHUNK):
                counts += np.histogram(p[c : c + _RATIO_CHUNK] / f[c : c + _RATIO_CHUNK],
                                       bins=bins, range=hist_range)[0]
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
