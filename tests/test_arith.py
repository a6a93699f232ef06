"""Exact integer layer: factorization, sieves, partial divisor functions."""

import math
import os
import struct
import threading
import zlib
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divcorr import arith
from divcorr.arith import (
    SEGMENT_SIZE,
    DivisorTable,
    _dk_values,
    _DkSieve,
    FactoredInteger,
    RationalExponent,
    divisor_count_array,
    dk_of_factored,
    dk_partial,
    dk_prime_power,
    factorize,
    introot,
    introot_ceil,
    primes_up_to,
    sieve_dk,
    sigma_minus1_exact,
    sigma_minus1_moments,
    spf_array,
)
from divcorr.errors import ResourceBudgetError
from second_routes import strided_dk_segment


def brute_dk(n: int, k: int) -> int:
    """Ordered k-factorizations of n by direct recursion (test oracle)."""
    if k == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += brute_dk(n // d, k - 1)
    return total


def test_introot_exact():
    assert introot(0, 3) == 0
    assert introot(26, 3) == 2
    assert introot(27, 3) == 3
    assert introot(10**18, 2) == 10**9
    big = (3**41) ** 5
    assert introot(big, 5) == 3**41
    assert introot(big - 1, 5) == 3**41 - 1
    assert introot_ceil(big, 5) == 3**41
    assert introot_ceil(big + 1, 5) == 3**41 + 1


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(2**40).factors == ((2, 40),)
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10, bound=5)


def test_factored_integer_invariants():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # primes must increase
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # product mismatch
    fi = factorize(360)
    assert fi.divisors()[:6] == [1, 2, 3, 4, 5, 6]
    assert len(fi.divisors()) == 24


def test_dk_prime_power_examples():
    assert dk_prime_power(2, 3) == 4
    assert dk_prime_power(3, 2) == 6
    assert dk_prime_power(1, 5) == 1
    with pytest.raises(ValueError):
        dk_prime_power(0, 1)


def test_sieve_examples():
    t2 = sieve_dk(2, 1, 100)
    assert t2.dk(12) == 6
    t3 = sieve_dk(3, 1, 10)
    assert t3.dk(4) == 6
    t4 = sieve_dk(4, 1, 30)
    assert t4.dk(30) == brute_dk(30, 4) == 64


def test_sieve_against_brute_small():
    for k in (1, 2, 3, 5):
        table = sieve_dk(k, 1, 60)
        for n in range(1, 61):
            assert table.values[n - 1] == brute_dk(n, k), (k, n)


def test_divisor_count_array_matches_sieve():
    for k in (1, 2, 3, 4):
        arr = divisor_count_array(500, k)
        table = sieve_dk(k, 1, 500)
        assert np.array_equal(arr[1:], table.values)


def convolution_dk(x: int, k: int) -> np.ndarray:
    """d_k(n) for 0 <= n <= x by iterated Dirichlet convolution with 1.

    The reference route for the sieve: small q by strided adds, large q by
    vectorised scatter-adds over the quotient m = n // q.
    """
    if k == 0:
        out = np.zeros(x + 1, dtype=np.int64)
        out[1] = 1
        return out
    out = np.ones(x + 1, dtype=np.int64)
    out[0] = 0
    for _ in range(k - 1):
        prev = out
        out = np.zeros(x + 1, dtype=np.int64)
        q_split = min(x, max(math.isqrt(x), 1024))
        for q in range(1, q_split + 1):
            out[q::q] += prev[q]
        for m in range(1, x // q_split + 1):
            q_hi = x // m
            if q_hi <= q_split:
                break
            qs = np.arange(q_split + 1, q_hi + 1, dtype=np.int64)
            out[qs * m] += prev[q_split + 1 : q_hi + 1]
    return out


def test_divisor_count_array_matches_convolution():
    x = 10**4
    for k in range(6):
        assert np.array_equal(divisor_count_array(x, k), convolution_dk(x, k)), k


def test_sieve_segment_from_zero():
    """A window starting at 0 returns (it used to loop forever on rem[0] = 0)."""
    got = []
    worker = threading.Thread(target=lambda: got.append(_dk_values(2, 0, 20)), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "the window [0, 20] did not return"
    assert np.array_equal(got[0], convolution_dk(20, 2))
    for k in (1, 3, 4):
        assert _dk_values(k, 0, 1).tolist() == [0, 1]


@settings(max_examples=40, deadline=None)
@given(lo=st.one_of(st.integers(0, 10**4), st.integers(0, 10**9), st.integers(0, 10**12)),
       width=st.one_of(st.integers(1, 5000), st.integers(60061, 2**18)), k=st.integers(1, 6),
       size=st.sampled_from([1, 7, 4096, 2**18]), threads=st.sampled_from([1, 2]))
@example(lo=0, width=2**18, k=3, size=2**18, threads=1)
@example(lo=10**12 - 2**17, width=2**18, k=6, size=2**18, threads=2)
@example(lo=2**31 - 3 * 60060, width=4 * 60060, k=4, size=4096, threads=2)
def test_window_kernel_matches_the_strided_sieve(lo, width, k, size, threads):
    """The d_k window kernel (pre-sieve pattern, strided passes, one scatter
    for the primes above 1024) against the plain strided sieve, for windows
    past the pattern's period and the large-prime threshold, at any segment
    size and thread count; at most 64 segments a window."""
    width = min(width, 64 * size)
    hi = lo + width - 1
    want = strided_dk_segment(k, lo, hi, primes_up_to(math.isqrt(hi)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "SEGMENT_SIZE", size)
        assert np.array_equal(_dk_values(k, lo, hi, threads), want)


def test_window_kernel_reuse_matches_fresh_kernels():
    """One kernel over windows A, B, A, a wider one and a short last one
    gives what a fresh kernel gives for each: no window leaks into the next."""
    top = 10**9
    W = SEGMENT_SIZE
    windows = [(top - 9, 10), (top - W + 1, W), (12345, W), (top - W + 1, W),
               (0, 2 * W + 3), (10**8 + 1, 7)]
    kernel = _DkSieve(3, top)
    for lo, width in windows:
        got = kernel(lo, np.empty(width, dtype=np.int64)).copy()
        fresh = _DkSieve(3, top)(lo, np.empty(width, dtype=np.int64))
        assert np.array_equal(got, fresh), (lo, width)
        assert np.array_equal(got, strided_dk_segment(3, lo, lo + width - 1,
                                                      primes_up_to(math.isqrt(top)))), (lo, width)


@settings(max_examples=40, deadline=None)
@given(lo=st.one_of(st.integers(1, 10**5), st.integers(10**9, 10**12)),
       width=st.integers(1, 24), k=st.integers(1, 6),
       size=st.integers(1, 4096), threads=st.sampled_from([1, 2]))
def test_sieve_matches_factorization(lo, width, k, size, threads):
    """Values against trial division, any window."""
    hi = lo + width - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "SEGMENT_SIZE", size)
        table = sieve_dk(k, lo, hi, threads=threads)
        values = table.values
    for n in range(lo, hi + 1):
        want = dk_of_factored(k, factorize(n))
        assert values[n - lo] == want, n
        assert sieve_dk(k, lo, hi).dk(n) == want, n  # a table that holds no array


def test_dk_lookup_without_array_builds_no_sieve(monkeypatch):
    """dk(n) on a fresh sieve_dk table builds no _DkSieve, and equals the
    sieved value, the range's largest prime among the samples (d_3(n) = 3
    only at primes)."""
    lo, hi = 10**8, 10**8 + 3000
    values = sieve_dk(3, lo, hi).values
    largest_prime = lo + int(np.flatnonzero(values == 3)[-1])

    def no_sieve(*args):
        raise AssertionError("dk(n) built a sieve kernel")

    monkeypatch.setattr(arith, "_DkSieve", no_sieve)
    table = sieve_dk(3, lo, hi)
    for n in [*range(lo, hi + 1, 97), hi, largest_prime]:
        assert table.dk(n) == values[n - lo], n
    assert table._values is None


def test_segmented_sieve_matches_plain(monkeypatch):
    full = sieve_dk(3, 1, 5000)
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 700)
    seg = sieve_dk(3, 1, 5000)
    assert np.array_equal(full.values, seg.values)
    window = sieve_dk(3, 2001, 2500)
    assert np.array_equal(window.values, full.values[2000:2500])


def test_sieve_threads_bit_identical(monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 3000)
    one = sieve_dk(2, 1, 20000, threads=1)
    four = sieve_dk(2, 1, 20000, threads=4)
    assert np.array_equal(one.values, four.values)


def test_high_window_segment():
    """Segmented sieving far from the origin stays exact (spot check at 1e9)."""
    lo, hi = 10**9 - 50, 10**9 + 50
    t = sieve_dk(3, lo, hi)
    for n in (lo, lo + 17, 10**9, hi):
        assert t.dk(n) == dk_of_factored(3, factorize(n)), n
    assert t.dk(10**9) == 3025  # 2^9 * 5^9: C(11,2)^2


def test_sieve_budget():
    with pytest.raises(ResourceBudgetError):
        sieve_dk(2, 1, 10**9 + 1)


def test_sieve_budget_charges_the_values(monkeypatch):
    """A window of n cells sieves under a budget of n (its one array); a
    window of n + 1 cells does not."""
    monkeypatch.setattr(arith, "MAX_TABLE_CELLS", 1000)
    table = sieve_dk(3, 10**6, 10**6 + 999)
    assert len(table.values) == 1000
    with pytest.raises(ResourceBudgetError):
        sieve_dk(3, 10**6, 10**6 + 1000)


def test_dump_load_roundtrip(tmp_path):
    table = sieve_dk(3, 1, 1000)
    path = tmp_path / "t.divtab"
    table.dump(path)
    back = DivisorTable.load(path)
    assert back.k == 3 and back.lo == 1 and back.hi == 1000
    assert np.array_equal(back.values, table.values)
    # header is the documented little-endian layout
    raw = path.read_bytes()
    assert raw[:4] == b"DKTB"
    assert raw[24] == 8  # element width byte (after magic, k, lo, hi)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.divtab"
        bad.write_bytes(b"XXXX" + raw[4:])
        DivisorTable.load(bad)


def test_load_refuses_damaged_files(tmp_path):
    """A flipped value byte or a short file raises instead of loading."""
    table = sieve_dk(3, 1, 1000)
    path = tmp_path / "t.divtab"
    table.dump(path)
    raw = path.read_bytes()
    header = 4 + 4 + 8 + 8 + 1
    assert len(raw) == header + 8 * 1000 + 4  # values, then a CRC-32
    assert np.array_equal(DivisorTable.load(path).values, table.values)
    flipped = bytearray(raw)
    flipped[header + 8 * 11] ^= 0x01  # d_3(12) = 18 becomes 19
    bad = tmp_path / "flipped.divtab"
    bad.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match="checksum"):
        DivisorTable.load(bad)
    for cut in (3, header, header + 8 * 500, len(raw) - 1):
        short = tmp_path / f"short{cut}.divtab"
        short.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            DivisorTable.load(short)


def _materialized_dump(k: int, lo: int, hi: int) -> bytes:
    """The file as the whole-array layout writes it: header, every value,
    then the CRC-32 of the value bytes."""
    values = _dk_values(k, lo, hi).astype("<i8").tobytes()
    header = struct.pack("<4sIqqB", b"DKTB", k, lo, hi, 8)
    return header + values + struct.pack("<I", zlib.crc32(values))


@pytest.mark.parametrize("lo, hi, size", [(1, 1000, 4096), (1, 5000, 700),
                                          (10**9, 10**9 + 9999, 1024)])
def test_streamed_dump_matches_the_whole_array_layout(tmp_path, monkeypatch, lo, hi, size):
    """dump streams windows with a running CRC; its bytes are those of the
    whole array written at once, for one window and for many."""
    monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
    path = tmp_path / "t.divtab"
    sieve_dk(3, lo, hi).dump(path)
    assert path.read_bytes() == _materialized_dump(3, lo, hi)
    back = DivisorTable.load(path)
    again = tmp_path / "again.divtab"
    back.dump(again)  # a loaded table dumps the same bytes
    assert again.read_bytes() == path.read_bytes()


def test_dump_threads_write_identical_files(tmp_path, monkeypatch):
    """Two workers sieve windows in pairs (seven windows: the last pair is
    short) and write the same bytes as one."""
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 1000)
    one, two = tmp_path / "one.divtab", tmp_path / "two.divtab"
    sieve_dk(4, 10**6, 10**6 + 6499, threads=1).dump(one)
    sieve_dk(4, 10**6, 10**6 + 6499, threads=2).dump(two)
    assert one.read_bytes() == two.read_bytes()


def test_dump_leaves_no_temporary_file(tmp_path, monkeypatch):
    """A dump writes to a temporary name and renames it: a success leaves
    only the file, and a failure leaves the old file whole and no temporary."""
    path = tmp_path / "t.divtab"
    sieve_dk(3, 1, 5000).dump(path)
    assert os.listdir(tmp_path) == ["t.divtab"]
    good = path.read_bytes()

    def failing(*args, **kwargs):
        yield np.zeros(10, dtype=np.int64)
        raise OSError("disk full")

    monkeypatch.setattr(arith, "_dk_windows", failing)
    with pytest.raises(OSError, match="disk full"):
        sieve_dk(3, 1, 5000).dump(path)
    assert os.listdir(tmp_path) == ["t.divtab"]
    assert path.read_bytes() == good


def test_loaded_table_survives_a_rewrite(tmp_path):
    """load maps the checked file; a later dump to the same path replaces the
    name, never the mapped bytes, so the loaded values stay as checked."""
    path = tmp_path / "t.divtab"
    sieve_dk(3, 1, 1000).dump(path)
    loaded = DivisorTable.load(path)
    want = _dk_values(3, 1, 1000)
    sieve_dk(2, 1, 1000).dump(path)
    assert np.array_equal(loaded.values, want)
    assert loaded.dk(12) == 18
    assert DivisorTable.load(path).k == 2


def test_rational_exponent():
    A = RationalExponent.parse("2/3")
    assert (A.a, A.b) == (2, 3)
    assert str(A) == "2/3"
    with pytest.raises(ValueError):
        RationalExponent(2, 4)  # not reduced
    with pytest.raises(ValueError):
        RationalExponent(4, 3)  # above 1
    with pytest.raises(ValueError):
        RationalExponent.parse("5/4")
    with pytest.raises(ValueError, match="zero denominator"):
        RationalExponent.parse("1/0")
    # boundary is decided by q^b <= n^a, inclusively
    half = RationalExponent(1, 2)
    assert half.divisor_cutoff(16) == 4
    assert half.divisor_cutoff(15) == 3
    assert half.first_n_admitting(4) == 16


def test_dk_partial_examples():
    table = sieve_dk(2, 1, 1000)
    half = RationalExponent(1, 2)
    assert dk_partial(12, 2, half) == 3
    assert dk_partial(12, 3, half) == 5
    one = RationalExponent(1, 1)
    for n in (1, 12, 360, 997):
        assert dk_partial(n, 2, one) == table.dk(n)
    zero = RationalExponent(0, 1)
    assert dk_partial(720, 4, zero) == 1


def test_convolution_identity_exhaustive():
    """sum_{d|n} d_{k-1}(d) = d_k(n) for n <= 10^4, k <= 5 (spot k by value)."""
    N = 10**4
    for k in (2, 3, 5):
        dk = divisor_count_array(N, k)
        dkm1 = divisor_count_array(N, k - 1)
        conv = np.zeros(N + 1, dtype=np.int64)
        for q in range(1, N + 1):
            conv[q::q] += dkm1[q]
        assert np.array_equal(conv[1:], dk[1:]), k


def test_square_pairing_identity():
    """d_2(n) = 2 d_2(n, 1/2) - [n is a square] for n <= 10^4."""
    N = 10**4
    table = sieve_dk(2, 1, N)
    half = RationalExponent(1, 2)
    for n in range(1, N + 1):
        square = 1 if math.isqrt(n) ** 2 == n else 0
        assert table.dk(n) == 2 * dk_partial(n, 2, half) - square, n


def test_partial_monotone_in_A():
    grid = [RationalExponent.parse(s) for s in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1")]
    for n in (2, 36, 360, 1024, 1999):
        for k in (2, 3):
            vals = [dk_partial(n, k, A) for A in grid]
            assert vals == sorted(vals), (n, k, vals)


def test_multiplicativity_spot():
    table = sieve_dk(3, 1, 10**6)
    rng = np.random.default_rng(12345)
    pairs = 0
    while pairs < 200:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) == 1:
            assert table.dk(m * n) == table.dk(m) * table.dk(n)
            pairs += 1


def test_prime_power_limit():
    """d_k(p^a, A) = d_k(p^floor(aA)) and the ratio tends to A^(k-1)."""
    half = RationalExponent(1, 2)
    k = 3
    for alpha in range(1, 40):
        n = 2**alpha
        val = dk_partial(n, k, half)
        assert val == dk_prime_power(k, alpha // 2), alpha
        # exact closed form of the ratio: (m+1)(m+2) / ((a+1)(a+2)), m = floor(a/2)
        m = alpha // 2
        assert val * 2 == (m + 1) * (m + 2)
        if alpha >= 20:
            ratio = val / dk_prime_power(k, alpha)
            assert abs(ratio - 0.25) <= 3 / alpha, alpha


def test_prime_power_table_match():
    table = sieve_dk(4, 1, 3000)
    for p in (2, 3, 5, 7):
        alpha = 1
        while p**alpha <= 3000:
            assert table.dk(p**alpha) == dk_prime_power(4, alpha)
            alpha += 1


def test_sigma_moments():
    s0, s1, s2 = sigma_minus1_moments(1)
    assert s0 == 1 and s1 == 0 and s2 == 0
    s0, s1, s2 = sigma_minus1_moments(6)
    assert s0 == 2
    s0, s1, s2 = sigma_minus1_moments(2)
    assert s0 == mp.mpf(3) / 2
    assert abs(s1 - mp.log(2) / 2) < mp.mpf(10) ** -35
    assert abs(s2 - mp.log(2) ** 2 / 2) < mp.mpf(10) ** -35
    assert sigma_minus1_exact(12) == Fraction(28, 12)


def test_spf_array():
    spf = spf_array(100)
    assert spf[1] == 1 and spf[2] == 2 and spf[91] == 7 and spf[97] == 97


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_roundtrip(n):
    fi = factorize(n)
    prod = 1
    for p, e in fi.factors:
        prod *= p**e
    assert prod == n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=6))
def test_partial_divisor_definition(n, k, anum):
    """dk_partial equals the literal divisor scan with exact boundary."""
    A = RationalExponent.parse(Fraction(anum, 6))
    cutoff = A.divisor_cutoff(n)
    fi = factorize(n)
    expected = 0
    for q in fi.divisors():
        if q <= cutoff:
            expected += dk_of_factored(k - 1, factorize(q)) if k > 1 else (1 if q == 1 else 0)
    assert dk_partial(n, k, A) == expected
