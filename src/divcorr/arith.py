"""Exact integer arithmetic for generalized divisor functions.

Everything in this module is exact: d_k(n) values are integers produced by
sieves or multiplicative evaluation, and the partial divisor function

    d_k(n, A) = sum of d_{k-1}(q) over divisors q | n with q <= n^A

decides the boundary test q <= n^A by the integer comparison q^b <= n^a
for A = a/b in lowest terms.  No floating point enters any membership test.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

import mpmath as mp
import numpy as np

from .errors import ResourceBudgetError

# Largest integer accepted by factorize(); trial division only, so callers
# stay in desk-scale ranges in practice.
FACTORIZE_BOUND = 2**63 - 1

# Soft cap on the cells of one sieved d_k range: a table (the size of its
# file and its time to sieve; it streams in O(window) memory) or a
# divisor_count_array (its int64 array).
MAX_TABLE_CELLS = 2 * 10**8

_TABLE_MAGIC = b"DKTB"
_TABLE_HEADER = "<4sIqqB"


def introot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, exactly."""
    if n < 0:
        raise ValueError("introot requires n >= 0")
    if k < 1:
        raise ValueError("introot requires k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def introot_ceil(n: int, k: int) -> int:
    """Smallest integer r with r^k >= n (n >= 0)."""
    r = introot(n, k)
    return r if r**k == n else r + 1


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its canonical prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be (prime, exponent>=1), primes increasing")
            prod *= p**e
            last = p
        if prod != self.value or self.value < 1:
            raise ValueError("factor list does not multiply to value")

    def divisors(self) -> list[int]:
        """All divisors, sorted ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)

    def divisors_factored(self) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """(divisor, factorization) pairs, unsorted."""
        out = [(1, ())]
        for p, e in self.factors:
            nxt = []
            for d, fac in out:
                nxt.append((d, fac))
                pe = 1
                for i in range(1, e + 1):
                    pe *= p
                    nxt.append((d * pe, fac + ((p, i),)))
            out = nxt
        return out


def factorize(n: int, bound: int = FACTORIZE_BOUND) -> FactoredInteger:
    """Canonical factorization by trial division (range-bounded by design)."""
    if not 1 <= n <= bound:
        raise ValueError(f"factorize: n={n} outside [1, {bound}]")
    m = n
    factors = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    step = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += step
        step = 6 - step
    if m > 1:
        factors.append((m, 1))
    return FactoredInteger(n, tuple(factors))


def dk_prime_power(k: int, alpha: int) -> int:
    """d_k(p^alpha) = C(alpha+k-1, k-1), independent of the prime p."""
    if k < 1 or alpha < 0:
        raise ValueError("dk_prime_power requires k >= 1, alpha >= 0")
    return comb(alpha + k - 1, k - 1)


def dk_of_factored(k: int, fi: FactoredInteger | tuple) -> int:
    """d_k(n) from a factorization, by multiplicativity."""
    factors = fi.factors if isinstance(fi, FactoredInteger) else fi
    out = 1
    for _, e in factors:
        out *= dk_prime_power(k, e)
    return out


@dataclass(frozen=True)
class RationalExponent:
    """A rational A = a/b in [0, 1]; the exponent in partial divisor cutoffs."""

    a: int
    b: int

    def __post_init__(self):
        if self.b <= 0 or self.a < 0 or self.a > self.b:
            raise ValueError("RationalExponent requires 0 <= a/b <= 1 with b > 0")
        if gcd(self.a, self.b) != 1:
            raise ValueError("RationalExponent requires gcd(a, b) = 1")

    @classmethod
    def parse(cls, text) -> "RationalExponent":
        """Accept 'a/b', an integer string, an int, or a Fraction."""
        if isinstance(text, RationalExponent):
            return text
        if isinstance(text, int):
            f = Fraction(text)
        elif isinstance(text, Fraction):
            f = text
        else:
            s = str(text).strip()
            if "/" in s:
                num, den = (int(x) for x in s.split("/"))
                if den == 0:
                    raise ValueError(f"RationalExponent {s!r} has a zero denominator")
                f = Fraction(num, den)
            else:
                f = Fraction(int(s))
        return cls(f.numerator, f.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.a, self.b)

    def __float__(self):
        return self.a / self.b

    def __str__(self):
        return f"{self.a}/{self.b}"

    def mpf(self) -> mp.mpf:
        return mp.mpf(self.a) / self.b

    def divisor_cutoff(self, n: int) -> int:
        """Largest integer T with T^b <= n^a; q <= n^A is exactly q <= T."""
        if self.a == 0:
            return 1
        if self.a == self.b:
            return n
        return introot(n**self.a, self.b)

    def first_n_admitting(self, q: int) -> int:
        """Smallest n with q <= n^A, i.e. n^a >= q^b (requires a > 0)."""
        if self.a == 0:
            raise ValueError("A = 0 admits only q = 1")
        return introot_ceil(q**self.b, self.a)


def spf_array(n: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..n (spf[1] = 1, spf[p] = p)."""
    if n < 1:
        raise ValueError("spf_array requires n >= 1")
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    unset = spf == 0
    spf[unset] = np.arange(n + 1, dtype=np.int64)[unset]
    spf[0] = 0
    if n >= 1:
        spf[1] = 1
    return spf


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n as an int64 array (simple boolean sieve)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.nonzero(is_p)[0].astype(np.int64)


def divisor_count_array(x: int, k: int) -> np.ndarray:
    """Array of d_k(n) for 0 <= n <= x (index 0 is 0), exact int64.

    k >= 2 comes from the segmented divide-out sieve, the same kernel as
    sieve_dk.
    """
    if x < 1 or k < 0:
        raise ValueError("divisor_count_array requires x >= 1, k >= 0")
    _budget_check(x + 1)
    if k >= 2:
        return _dk_values(k, 0, x)
    out = np.zeros(x + 1, dtype=np.int64)
    out[1 : None if k == 1 else 2] = 1  # d_1 = 1; d_0 is 1 at n = 1 only
    return out


def _budget_check(cells: int):
    if cells > MAX_TABLE_CELLS:
        raise ResourceBudgetError(
            f"table of {cells} cells exceeds budget of {MAX_TABLE_CELLS}"
        )


# Segment length of the sieve and window length of every exact stream: the
# working arrays of one segment stay in cache, and each segment pays one
# Python pass over the sieving primes.  Read when a sieve or stream starts;
# no result depends on it.
SEGMENT_SIZE = 1 << 18

# The factors 2^2, 3, 5, 7, 11 and 13 of n, and what they make of d_k(n),
# repeat with this period; the kernel copies them from one cached pattern.
_PRESIEVED = (2, 3, 5, 7, 11, 13)
_PERIOD = 4 * 3 * 5 * 7 * 11 * 13

# Primes above this have few multiples in a window, so they are sieved
# together, one vectorised scatter per window, not one strided pass each.
_LARGE_PRIME = 1024


@lru_cache(maxsize=None)
def _presieve_acc(dtype) -> np.ndarray:
    """For n mod _PERIOD, the part of n made of 2^min(v_2(n), 2) and of the
    odd primes up to 13."""
    acc = np.ones(_PERIOD, dtype=dtype)
    acc[::4] = 2
    for p in _PRESIEVED:
        acc[::p] *= p
    acc.flags.writeable = False
    return acc


@lru_cache(maxsize=None)
def _presieve_val(k: int) -> np.ndarray:
    """For n mod _PERIOD, the d_k factor of that part of n, in int32 while
    it fits (a copy into the int64 values casts it)."""
    binom = [dk_prime_power(k, a) for a in range(3)]
    val = np.ones(_PERIOD, dtype=np.int64)
    val[::2] = binom[1]
    val[::4] = binom[2]
    for p in _PRESIEVED[1:]:
        val[::p] *= k
    if binom[2] * k ** 5 < 2**31:
        val = val.astype(np.int32)
    val.flags.writeable = False
    return val


# The final acc < n test runs over blocks of this many integers, so that its
# index and mask stay small.
_BLOCK = 1 << 14


def _tile(out: np.ndarray, pattern: np.ndarray, phase: int):
    """out[i] = pattern[(phase + i) % len(pattern)], by slice copies."""
    n, period = len(out), len(pattern)
    head = min(n, period - phase)
    out[:head] = pattern[phase : phase + head]
    for s in range(head, n, period):
        out[s : s + period] = pattern[: n - s]


class _DkSieve:
    """The d_k window kernel: exact d_k(n) for lo <= n <= hi <= top, written
    into a caller's int64 array, with every working array allocated once.

    `acc` holds the part of n made of the primes sieved so far, and the
    values move from d_k(p^(j-1)) to d_k(p^j) by an exact int64 rescale
    when a multiple of p^j takes one more factor p.  The factors 4, 3, 5,
    7, 11 and 13 are copied from a periodic pattern; the other primes up to
    _LARGE_PRIME and every higher power take strided passes; the larger
    primes up to sqrt(hi) are one scatter (`np.multiply.at`) over all their
    multiples.  An n with acc < n then has one prime factor left, above
    sqrt(hi), worth a factor k.  Index n = 0, if in range, holds 0.
    `acc`, the block index and the scatter buffers are int32 when
    top < 2^31.  One kernel per stream or thread: windows reuse its arrays.
    """

    def __init__(self, k: int, top: int):
        self.k = k
        self.dtype = np.int32 if top < 2**31 else np.int64
        primes = primes_up_to(isqrt(top))
        self.small = primes[primes <= _LARGE_PRIME]
        self.large = primes[primes > _LARGE_PRIME]
        self.binom = [dk_prime_power(k, a) for a in range(top.bit_length() + 1)]
        self.acc_pattern, self.val_pattern = _presieve_acc(self.dtype), _presieve_val(k)
        self.idx = np.arange(_BLOCK, dtype=self.dtype)
        self.factor = np.empty(_BLOCK, dtype=np.min_scalar_type(k))
        self.width = 0

    def _reserve(self, width: int):
        """Working arrays for windows of up to `width` integers."""
        if width <= self.width:
            return
        self.width = width
        self.acc = np.empty(width, dtype=self.dtype)
        hits = int(np.sum(width // self.large + 1))  # large-prime multiples in a window
        self.step = np.empty(hits, dtype=self.dtype)
        self.pos = np.empty(hits, dtype=self.dtype)

    def __call__(self, lo: int, out: np.ndarray) -> np.ndarray:
        """d_k(n) for lo <= n < lo + len(out), written into out."""
        size = len(out)
        hi = lo + size - 1
        start = max(lo, 1)
        self._reserve(size)
        acc = self.acc[:size]
        _tile(acc, self.acc_pattern, lo % _PERIOD)
        _tile(out, self.val_pattern, lo % _PERIOD)
        root = isqrt(hi)
        small = self.small[: np.searchsorted(self.small, root, side="right")]
        for p in small[(-start) % small <= hi - start].tolist():
            q, j = (8, 3) if p == 2 else (p * p, 2) if p in _PRESIEVED else (p, 1)
            self._powers(out, acc, lo, start, p, q, j)
        large = self.large[: np.searchsorted(self.large, root, side="right")]
        if large.size:
            self._scatter(out, acc, lo, start, large)
        for s in range(0, size, _BLOCK):
            part, vals = acc[s : s + _BLOCK], out[s : s + _BLOCK]
            factor = self.factor[: len(part)]
            np.subtract(part, lo + s, out=part)
            np.less(part, self.idx[: len(part)], out=factor)  # acc < n, as 0 or 1
            factor *= self.k - 1
            factor += 1  # k where one prime above sqrt(hi) is left, else 1
            vals *= factor
        if lo == 0:
            out[0] = 0
        return out

    def _powers(self, out, acc, lo, start, p, q, j):
        """Strided passes over the multiples of q = p^j, p^(j+1), ... in the window."""
        size, hi, binom = len(out), lo + len(out) - 1, self.binom
        while q <= hi:
            off = start - lo + (-start) % q
            if off >= size:
                break
            acc[off::q] *= p
            step = out[off::q]
            if j > 1:
                step //= binom[j - 1]
            step *= binom[j]
            q *= p
            j += 1

    def _scatter(self, out, acc, lo, start, primes):
        """Every multiple of the primes in the window, in one pass; their
        squares, at most one multiple each in a window under 2^20, stride."""
        size = len(out)
        off = (-start) % primes + (start - lo)
        live = off < size
        primes, off = primes[live], off[live]
        if not primes.size:
            return
        counts = (size - 1 - off) // primes + 1
        ends = np.cumsum(counts)
        heads = ends - counts
        step, pos = self.step[: ends[-1]], self.pos[: ends[-1]]
        step.fill(0)
        step[heads] = np.diff(primes, prepend=0)
        np.add.accumulate(step, out=step)  # each prime, once per multiple
        np.copyto(pos, step)
        jumps = off.copy()
        jumps[1:] -= off[:-1] + (counts[:-1] - 1) * primes[:-1]  # from the last multiple before
        pos[heads] = jumps
        np.add.accumulate(pos, out=pos)  # the multiples' offsets
        np.multiply.at(acc, pos, step)
        np.multiply.at(out, pos, self.k)
        hi = lo + size - 1
        for p in primes[(-start) % (primes * primes) <= hi - start].tolist():
            self._powers(out, acc, lo, start, p, p * p, 2)


def _dk_windows(k: int, lo: int, hi: int, threads: int = 1, out: np.ndarray | None = None):
    """d_k(n) for lo <= n <= hi (lo >= 0), in order, one window of up to
    SEGMENT_SIZE integers at a time: slices of `out` when it is given, else
    views of a worker's buffer that hold until the next window is asked for.
    Up to `threads` windows are sieved at once, each by its worker's own
    kernel; the values are bit-identical for any segment size and thread count."""
    size = SEGMENT_SIZE
    starts = range(lo, hi + 1, size)
    workers = max(1, min(threads, len(starts)))
    kernels = [_DkSieve(k, hi) for _ in range(workers)]
    if out is None:
        bufs = [np.empty(min(size, hi - lo + 1), dtype=np.int64) for _ in range(workers)]

    def fill(j: int, s: int) -> np.ndarray:
        e = min(s + size, hi + 1)
        return kernels[j](s, bufs[j][: e - s] if out is None else out[s - lo : e - lo])

    if workers == 1:
        for s in starts:
            yield fill(0, s)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for b in range(0, len(starts), workers):
            yield from pool.map(fill, range(workers), starts[b : b + workers])


def _dk_values(k: int, lo: int, hi: int, threads: int = 1) -> np.ndarray:
    """d_k(n) for lo <= n <= hi (lo >= 0) in one int64 array, each window
    sieved in place."""
    out = np.empty(hi - lo + 1, dtype=np.int64)
    for _ in _dk_windows(k, lo, hi, threads, out):
        pass
    return out


@dataclass(eq=False)
class DivisorTable:
    """d_k(n) on [lo, hi].  A loaded table reads its file through a memory
    map.  A fresh one from sieve_dk holds no array: `dk(n)` factors n, and
    `values` sieves the whole range into one array and keeps it.  `dump`
    streams the sieve's windows to the file."""

    k: int
    lo: int
    hi: int
    threads: int = 1
    _values: np.ndarray | None = field(default=None, repr=False)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _dk_values(self.k, self.lo, self.hi, self.threads)
        return self._values

    def dk(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"n={n} outside table range [{self.lo}, {self.hi}]")
        if self._values is None:
            return dk_of_factored(self.k, factorize(n))
        return int(self._values[n - self.lo])

    def dump(self, path):
        """Binary dump: header (magic, k, lo, hi, element width), the values as
        little-endian int64, then the CRC-32 of those value bytes (4 bytes,
        little-endian).  Written window by window, with a running CRC, to a
        temporary name beside `path` and then renamed onto it, so a reader
        sees the old file or the whole new one, and a file once checked is
        never rewritten in place."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        crc = 0
        try:
            with open(tmp, "wb") as fh:
                fh.write(struct.pack(_TABLE_HEADER, _TABLE_MAGIC, self.k, self.lo, self.hi, 8))
                for window in _dk_windows(self.k, self.lo, self.hi, self.threads):
                    data = np.ascontiguousarray(window, dtype="<i8")
                    fh.write(data)
                    crc = zlib.crc32(data, crc)
                fh.write(struct.pack("<I", crc))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "DivisorTable":
        """A dumped table backed by a read-only memory map of the file;
        ValueError unless its header, size and checksum match.  The checksum
        is taken over chunked reads of the same open file that is mapped."""
        head_len = struct.calcsize(_TABLE_HEADER)
        with open(path, "rb") as fh:
            header = fh.read(head_len)
            if len(header) < head_len:
                raise ValueError(f"{path}: truncated header")
            magic, k, lo, hi, width = struct.unpack(_TABLE_HEADER, header)
            if magic != _TABLE_MAGIC:
                raise ValueError(f"{path}: not a divisor-table dump")
            if width != 8:
                raise ValueError(f"{path}: unsupported element width {width}")
            if not (k >= 1 and 1 <= lo <= hi):
                raise ValueError(f"{path}: bad header (k={k}, lo={lo}, hi={hi})")
            size = hi - lo + 1
            if os.fstat(fh.fileno()).st_size != head_len + 8 * size + 4:
                raise ValueError(f"{path}: file size does not match its header")
            chunk = memoryview(bytearray(8 * min(size, SEGMENT_SIZE)))
            crc, left = 0, 8 * size
            while left:
                got = fh.readinto(chunk[: min(left, len(chunk))])
                if not got:
                    raise ValueError(f"{path}: file size does not match its header")
                crc = zlib.crc32(chunk[:got], crc)
                left -= got
            if fh.read(4) != struct.pack("<I", crc):
                raise ValueError(f"{path}: checksum mismatch")
            values = np.memmap(fh, dtype="<i8", mode="r", offset=head_len, shape=(size,))
        return cls(k=k, lo=lo, hi=hi, _values=values)


def sieve_dk(k: int, lo: int, hi: int, threads: int = 1) -> DivisorTable:
    """A DivisorTable on [lo, hi] that holds no array yet: its values are
    sieved window by window when it is dumped or read.

    Segments are independent and written in order, so the values are
    bit-identical for any segment size and thread count.
    """
    if not 1 <= lo <= hi:
        raise ValueError("sieve_dk requires 1 <= lo <= hi")
    if k < 1:
        raise ValueError("sieve_dk requires k >= 1")
    _budget_check(hi - lo + 1)
    return DivisorTable(k=k, lo=lo, hi=hi, threads=threads)


def dk_partial(n: int, k: int, A: RationalExponent) -> int:
    """Partial divisor function d_k(n, A); exact rational boundary rule.

    The divisor bound is the largest integer T with T^b <= n^a, so the
    boundary q = n^A is included, matching the defining inequality.
    """
    if n < 1 or k < 1:
        raise ValueError("dk_partial requires n >= 1, k >= 1")
    A = RationalExponent.parse(A)
    if A.a == 0:
        return 1
    fi = factorize(n)
    cutoff = A.divisor_cutoff(n)
    total = 0
    for q, fac in fi.divisors_factored():
        if q <= cutoff:
            total += dk_of_factored(k - 1, fac) if k > 1 else (1 if q == 1 else 0)
    return total


def sigma_minus1_moments(h: int) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(sum 1/d, sum log(d)/d, sum log^2(d)/d) over divisors d | h.

    The zeroth moment is `sigma_minus1_exact(h)`, converted once.
    """
    if h < 1:
        raise ValueError("sigma_minus1_moments requires h >= 1")
    s0 = sigma_minus1_exact(h)
    s1 = mp.mpf(0)
    s2 = mp.mpf(0)
    for d in factorize(h).divisors():
        if d > 1:
            ld = mp.log(d)
            s1 += ld / d
            s2 += ld * ld / d
    return mp.mpf(s0.numerator) / s0.denominator, s1, s2


def sigma_minus1_exact(h: int) -> Fraction:
    """sum of 1/d over d | h, as an exact rational."""
    total = Fraction(0)
    for d in factorize(h).divisors():
        total += Fraction(1, d)
    return total
