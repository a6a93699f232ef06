"""Independent oracles: exact brute-force sums.

Everything on the brute side is an exact integer: correlation sums of
(partial) divisor functions, arithmetic-progression sums, and the
exact-rational mean of d_k(n,A)/d_k(n).  One window kernel gives d_k(n, A)
on [lo, hi] for any A, a segmented sieve in the manner of Bays and Hudson
(BIT 17, 1977) that decides every boundary q <= n^A through integer root
thresholds, never floating point.  For k = 2 and A >= 1/2 it needs no
second kernel: pairing q with n/q makes d(n, A) the d(n) window less a
count of the small cofactors, (d(n) + [n is a square]) / 2 at A = 1/2.
One window loop streams every sum, window by window (SEGMENT_SIZE integers),
carrying its exact sums, ratio numerators and histogram counts across
windows and cutoffs; a correlation grid takes one pass for every h, A and
B, each window building each stream once.  Memory is O(window x streams +
x^A), not O(x).  MAX_BRUTE_X caps x: it bounds the time a brute sum takes.
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
            full = out
            out.fill(0)
        elif full is None:
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


def _drive(xs, start, snapshot) -> dict:
    """The window loop of every exact sum.  Checks the cutoffs xs (a non-empty
    list, every x >= 1, none past MAX_BRUTE_X), builds the stream's step(lo,
    hi) by start(top), top = max(xs), runs it over the windows of [1, top]
    and returns {x: snapshot(x)} for each distinct x, taken at x."""
    cuts = sorted(set(xs))
    if not cuts or cuts[0] < 1:
        raise ValueError(f"brute sums require a non-empty list of cutoffs x >= 1, not {xs}")
    if cuts[-1] > MAX_BRUTE_X:
        raise ResourceBudgetError(f"x={cuts[-1]} over brute budget {MAX_BRUTE_X}")
    step = start(cuts[-1])
    at, prev = {}, 0
    for cut in cuts:
        for lo, hi in _spans(prev + 1, cut):
            step(lo, hi)
        at[cut] = snapshot(cut)
        prev = cut
    return at


def partial_divisor_array(x: int, k: int, A) -> np.ndarray:
    """d_k(n, A) for 0 <= n <= x as exact int64 (index 0 holds 0): the window
    kernel, written window by window."""
    out = None

    def start(top):
        nonlocal out
        window, out = _PartialSieve(k, A, top), np.zeros(top + 1, dtype=np.int64)
        return lambda lo, hi: window(lo, hi, out[lo : hi + 1])

    return _drive([x], start, lambda cut: out)[x]


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


def brute_correlation_decades(hs, k: int, l: int, As, Bs, xs) -> dict:
    """Exact sums over n <= x of d_k(n+h, A) d_l(n, B) for every (h, A, B) in
    hs x As x Bs and x in xs, in one pass: {(h, A, B): [CorrelationResult
    for each x, ascending]}, A and B parsed.  The shifts fall in groups, the
    first at offset 0 and a further one at each shift a window's width or
    more past the last offset.  Each window builds every left stream once per
    group, over [lo + offset, hi + the group's largest h], for each h to read
    its slice, and every right stream once over [lo, hi].  Streams that derive
    from d_k(n) share a d_k window per group, and right ones that derive from
    d_l(n) a d_l window (k = l: the first group's d_k prefix, so later groups
    sieve into a second buffer).  Products are checked against int64 wrap.
    Memory is O(window x streams + x^A) for any h.  A negative h raises ValueError."""
    hs = sorted(set(hs))
    if hs and hs[0] < 0:
        raise ValueError(f"brute correlation sums require h >= 0, not h={hs[0]}")
    As = list(dict.fromkeys(map(RationalExponent.parse, As)))
    Bs = list(dict.fromkeys(map(RationalExponent.parse, Bs)))
    running = {(h, A, B): 0 for h in hs for A in As for B in Bs}

    def start(top):
        width = min(arith.SEGMENT_SIZE, top)
        groups = [(0, [])]  # (offset, the shifts under width past it)
        for h in hs:
            if h - groups[-1][0] >= width:
                groups.append((h, []))
            groups[-1][1].append(h)
        reach = top + max(hs, default=0)
        lefts = [(A, _PartialSieve(k, A, reach)) for A in As]
        rights = [(B, _PartialSieve(l, B, top), _buffer(top)) for B in Bs]
        d_k, d_l, l_buf = _DkSieve(k, reach), _DkSieve(l, top), _buffer(top)
        need_k = any(left.sieve for _, left in lefts)
        need_l = any(right.sieve for _, right, _ in rights)
        share = need_l and k == l
        first, rest, left_buf = (_buffer(top, width) for _ in range(3))

        def step(lo, hi):
            size = hi - lo + 1
            for off, shifts in groups:
                n = size + (shifts[-1] - off if shifts else 0)
                full = None
                if need_k or share and not off:
                    full = d_k(lo + off, (rest if off else first)[:n])
                if not off:
                    dl = full[:size] if share else d_l(lo, l_buf[:size]) if need_l else None
                    wins = [(B, right(lo, hi, buf[:size], full=dl)) for B, right, buf in rights]
                for A, left in lefts if shifts else ():
                    lw = left(lo + off, lo + off + n - 1, left_buf[:n], full=full)
                    for h in shifts:
                        for B, rw in wins:
                            running[h, A, B] += _product_sum(lw[h - off : h - off + size], rw)
        return step

    at = _drive(xs, start, lambda x: dict(running))
    return {(h, A, B): [CorrelationResult(h, k, l, A, B, x, at[x][h, A, B]) for x in sorted(xs)]
            for h, A, B in running}


def brute_ap_sweep(k: int, A, classes, xs) -> dict:
    """Exact sums of d_k(n, A) over n <= x with n = h (mod q), for every
    residue class (q, h) in `classes` and every cutoff x in `xs`, from one
    stream of d_k(n, A) to max(xs) that carries an exact sum per class
    across windows and cutoffs.  Returns {(q, h): [the sum to x for x in xs]}."""
    running = dict.fromkeys(classes, 0)
    if any(q < 1 for q, _ in running):
        raise ValueError("brute_ap_sweep requires q >= 1")

    def start(top):
        window, buf = _PartialSieve(k, A, top), _buffer(top)

        def step(lo, hi):
            values = window(lo, hi, buf[: hi - lo + 1])
            for q, h in running:
                running[q, h] += _exact_sum(values[(h - lo) % q :: q])
        return step

    at = _drive(xs, start, lambda x: dict(running))
    return {c: [at[x][c] for x in xs] for c in running}


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
    entry, in the given order), all from one stream of d_k(n), with d_k(n, A)
    derived from it where it can be (A = 1, or k = 2 and A >= 1/2) and sieved
    beside it otherwise.  The ratio sum is grouped by the value of d_k(n)
    with exact integer numerators, so the mean is an exact rational; the
    histogram bins are integer comparisons equal to np.histogram's over
    _HIST_RANGE (_ratio_counts)."""
    A = RationalExponent.parse(A)
    edges = np.histogram_bin_edges(np.zeros(0), bins=bins, range=_HIST_RANGE).tolist()
    counts = np.zeros(bins, dtype=np.int64)
    numerators: dict[int, int] = {}  # d_k(n) -> sum of d_k(n, A) over those n
    sum_partial = sum_full = 0

    def start(top):
        full_w, part_w = _PartialSieve(k, 1, top), _PartialSieve(k, A, top)
        full_buf, part_buf = _buffer(top), _buffer(top)

        def step(lo, hi):
            nonlocal sum_partial, sum_full
            f = full_w(lo, hi, full_buf[: hi - lo + 1])
            p = part_w(lo, hi, part_buf[: hi - lo + 1], full=f)
            for v, s in _group_sums(f, p).items():
                numerators[v] = numerators.get(v, 0) + s
            sum_partial += _exact_sum(p)
            sum_full += _exact_sum(f)
            counts[:] += _ratio_counts(p, f, bins)
        return step

    def snapshot(cut):
        ratio_sum = sum((Fraction(s, v) for v, s in numerators.items()), Fraction(0))
        histogram = [(edges[i], edges[i + 1], int(counts[i])) for i in range(bins)]
        return DistributionResult(k, A, cut, ratio_sum / cut, histogram, sum_partial, sum_full)

    at = _drive([x] if isinstance(x, Integral) else x, start, snapshot)
    return at[x] if isinstance(x, Integral) else [at[c] for c in x]


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
        obs, pred = mp.mpf(observed), mp.mpf(predicted)
        abs_err = abs(obs - pred)
        ratio, rel_err = (obs / pred, abs_err / abs(pred)) if pred != 0 else (mp.inf, mp.inf)
        self.rows.append({"x": x, "observed": observed, "predicted": pred, "ratio": ratio,
                          "abs_err": abs_err, "rel_err": rel_err})

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.meta):
            buf.write(f"# {key}: {self.meta[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "observed", "predicted", "ratio", "abs_err", "rel_err"])
        for row in self.rows:
            writer.writerow([row["x"], row["observed"], mp.nstr(row["predicted"], 17),
                             *(mp.nstr(row[c], 12) for c in ("ratio", "abs_err", "rel_err"))])
        return buf.getvalue()
