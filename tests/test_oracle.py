"""Brute-force oracles and the residue pipeline cross-checks."""

import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcorr import arith, oracle
from divcorr.arith import (
    SEGMENT_SIZE,
    RationalExponent,
    divisor_count_array,
    dk_partial,
    introot,
    sieve_dk,
)
from divcorr.asympt import a_coefficient, coefficient_context, main_polynomial
from divcorr.errors import ResourceBudgetError
from divcorr.oracle import (
    _HIST_RANGE,
    ComparisonReport,
    _checked_product,
    _exact_sum,
    _group_sums,
    _PartialSieve,
    _ratio_counts,
    _spans,
    brute_ap_sweep,
    brute_correlation_decades,
    empirical_distribution,
    partial_divisor_array,
)
from second_routes import (
    direct_secondary_value,
    fixed_context,
    phi_of,
    phi_partial_sum_jet,
    residue_polynomial_routes,
)


E = RationalExponent.parse


def _one(h, k, l, A, B, xs):
    """The results of the one-point grid (h, A, B)."""
    [results] = brute_correlation_decades([h], k, l, [A], [B], xs).values()
    return results


def test_partial_divisor_array_matches_pointwise():
    x = 3000
    for Astr in ("0", "1/3", "1/2", "2/3", "1"):
        A = RationalExponent.parse(Astr)
        arr = partial_divisor_array(x, 3, A)
        for n in (1, 2, 36, 97, 1024, 2999, 3000):
            assert arr[n] == dk_partial(n, 3, A), (Astr, n)


def test_partial_divisor_array_full_is_dk():
    x = 5000
    for k in (1, 2, 4):
        arr = partial_divisor_array(x, k, RationalExponent(1, 1))
        want = divisor_count_array(x, k)
        assert np.array_equal(arr, want)


@settings(max_examples=40, deadline=None)
@given(lo=st.one_of(st.integers(1, 10**5), st.integers(1, 10**7)),
       width=st.integers(1, 5000), k=st.integers(1, 5),
       A=st.sampled_from(["0", "1/4", "1/3", "1/2", "2/3", "3/7", "1"]),
       size=st.integers(1, 4096))
def test_window_kernel_matches_pointwise(lo, width, k, A, size):
    """The window kernel on [lo, hi], window by window, against the divisor
    scan of dk_partial: on a spread of n and on every n = m^b, where q = m^a
    is exactly n^A; and against partial_divisor_array where that is cheap."""
    hi = lo + width - 1
    window = _PartialSieve(k, A, hi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "SEGMENT_SIZE", size)
        got = np.concatenate([window(s, e, np.empty(e - s + 1, dtype=np.int64))
                              for s, e in _spans(lo, hi)])
    assert got.dtype == np.int64 and got.size == width
    E = RationalExponent.parse(A)
    ns = set(range(lo, hi + 1, max(1, width // 60))) | {hi}
    if 0 < E.a < E.b:
        ns |= {m**E.b for m in range(introot(lo - 1, E.b) + 1, introot(hi, E.b) + 1)}
    for n in sorted(ns):
        assert got[n - lo] == dk_partial(n, k, E), (n, k, A)
    if hi <= 2 * 10**5:
        assert np.array_equal(got, partial_divisor_array(hi, k, A)[lo:])


def _full_scan(x: int, k: int, A) -> np.ndarray:
    """d_k(n, A) for n <= x by one divisor scan over the whole array: each q
    adds d_{k-1}(q) to every multiple n >= q with q^b <= n^a."""
    A = RationalExponent.parse(A)
    out = np.zeros(x + 1, dtype=np.int64)
    dkm1 = divisor_count_array(x, k - 1)
    for q in range(1, x + 1):
        for n in range(q, x + 1, q):
            if q**A.b <= n**A.a:
                out[n] += dkm1[q]
    return out


def test_partial_divisor_array_matches_a_full_scan():
    """Every entry, for windows of 1, 7, 4096 and 2^18 integers."""
    for k, A in ((2, "1/2"), (3, "2/3"), (4, "3/7"), (3, "1/4"), (2, "1"), (3, "0")):
        want = _full_scan(3000, k, A)
        for size in (1, 7, 4096, 2**18):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(arith, "SEGMENT_SIZE", size)
                assert np.array_equal(partial_divisor_array(3000, k, A), want), (k, A, size)


def test_k2_complement_matches_pointwise():
    """d(n, A) for A >= 1/2 from the d(n) window, (d + squares) / 2 at 1/2 and
    d less the m^b < n^(b-a) count above it, against the divisor scan of
    dk_partial on windows that start at, end at and straddle perfect squares,
    and around the b-th powers where the strict test is an equality; also
    when the caller hands in the d(n) window."""
    for A in ("1/2", "3/5", "2/3", "3/4"):
        E = RationalExponent.parse(A)
        windows = [(r * r + a, r * r + b) for r in (3, 31, 1000, 4097)
                   for a, b in ((0, 40), (-40, 0), (-9, 9))]
        windows += [(r**E.b - 6, r**E.b + 6) for r in (2, 3, 7, 31) if r**E.b < 10**9]
        for lo, hi in windows:
            lo = max(lo, 1)
            window = _PartialSieve(2, A, hi)
            got = window(lo, hi, np.empty(hi - lo + 1, dtype=np.int64))
            want = [dk_partial(n, 2, E) for n in range(lo, hi + 1)]
            assert got.tolist() == want, (A, lo, hi)
            full = sieve_dk(2, lo, hi).values
            handed = window(lo, hi, np.empty(hi - lo + 1, dtype=np.int64), full=full)
            assert handed.tolist() == want, (A, lo, hi)
            assert np.array_equal(full, sieve_dk(2, lo, hi).values)  # left as it was


def test_shared_window_correlations_match_the_arrays():
    """Correlation sums against products of partial_divisor_array slices: with
    one d_k window shared by both sides (k = l, both derived, h under the
    window), for h = 0, 1, 12 and h past a 64-wide window, and for k != l."""
    xs = [500, 3000]
    cases = [(2, 2, 1, [1, "1/2", "2/3", "1/4"]), (2, 2, "3/5", ["1/2", "3/4"]),
             (3, 3, 1, [1, "1/2"]), (2, 3, 1, [1, "1/2"]), (3, 2, "1/2", [1, "1/2", "2/3"])]
    for size in (64, SEGMENT_SIZE):
        for h in (0, 1, 12, 100):
            for k, l, A, Bs in cases:
                left = partial_divisor_array(max(xs) + h, k, A)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(arith, "SEGMENT_SIZE", size)
                    sweep = brute_correlation_decades([h], k, l, [A], Bs, xs)
                for B in Bs:
                    results = sweep[h, E(A), E(B)]
                    right = partial_divisor_array(max(xs), l, B)
                    want = [sum(map(int, left[1 + h : x + 1 + h] * right[1 : x + 1])) for x in xs]
                    assert [r.value for r in results] == want, (size, h, k, l, A, B)


def test_integer_bins_equal_np_histogram():
    """_ratio_counts gives np.histogram's counts over _HIST_RANGE: on the
    distribution workload's last window (k = 3, A = 1/2, to 2*10^6) and on
    k = 2 windows, on ratios exactly i / bins and 1, and on pairs with a
    large f whose ratio lies a hair above i / bins, under the 10^-7 offset of
    the float edges, where the integer bin alone would differ."""

    def histogram(p, f, bins):
        return np.histogram(p / f, bins=bins, range=_HIST_RANGE)[0].tolist()

    top = 2 * 10**6
    for k, A in ((3, "1/2"), (2, "1/2"), (2, "2/3")):
        lo = top - SEGMENT_SIZE + 1
        f = _PartialSieve(k, 1, top)(lo, top, np.empty(SEGMENT_SIZE, dtype=np.int64)).copy()
        p = _PartialSieve(k, A, top)(lo, top, np.empty(SEGMENT_SIZE, dtype=np.int64))
        for bins in (20, 7, 1, 100):
            assert _ratio_counts(p, f, bins).tolist() == histogram(p, f, bins), (k, A, bins)
    for bins in (20, 3, 64):
        f = np.arange(1, 400, dtype=np.int64) * bins
        for i in range(bins + 1):
            p = np.maximum(f // bins * i, 1)
            assert _ratio_counts(p, f, bins).tolist() == histogram(p, f, bins), (bins, i)
    bins, f0 = 20, 10**9
    f = np.full(bins - 1, bins * f0, dtype=np.int64)
    p = np.arange(1, bins, dtype=np.int64) * f0 + 1
    assert _ratio_counts(p, f, bins).tolist() == histogram(p, f, bins)
    assert np.bincount((bins * p - 1) // f, minlength=bins).tolist() != histogram(p, f, bins)


def test_brute_budget_caps_x_not_x_plus_h(monkeypatch):
    """x = MAX_BRUTE_X runs for any h; x = MAX_BRUTE_X + 1 raises, for every
    brute sum."""
    cap = 10**4
    want = brute_correlation_decades([12], 2, 2, [1], ["1/2"], [cap])
    monkeypatch.setattr(oracle, "MAX_BRUTE_X", cap)
    assert brute_correlation_decades([12], 2, 2, [1], ["1/2"], [cap]) == want
    for run in (lambda x: brute_correlation_decades([1], 2, 2, [1], ["1/2"], [x]),
                lambda x: empirical_distribution(2, "1/2", x),
                lambda x: brute_ap_sweep(2, "1/2", [(3, 1)], [x]),
                lambda x: partial_divisor_array(x, 2, "1/2")):
        run(cap)
        with pytest.raises(ResourceBudgetError):
            run(cap + 1)


def test_streamed_sums_do_not_depend_on_the_window():
    """Correlation sums, progression sums and the distribution, streamed in
    windows of 1, 7, 4096 and 2^18 integers, are bit-identical."""
    xs = [300, 2000, 2500]

    def run(size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arith, "SEGMENT_SIZE", size)
            return ([[r.value for r in rs] for rs in
                     brute_correlation_decades([3], 3, 2, ["2/3"], ["1/4", "1/2"], xs).values()],
                    [r.value for r in _one(1, 2, 2, 1, "1/2", xs)],
                    empirical_distribution(3, "1/3", xs),
                    brute_ap_sweep(3, "1/2", [(q, 2) for q in (1, 6, 7)], xs))

    want = run(2**18)
    for size in (1, 7, 4096):
        assert run(size) == want, size


EXPONENTS = ["1", "1/2", "2/3", "3/5", "1/4", "1/3", "0"]


@settings(max_examples=40, deadline=None)
@given(W=st.sampled_from([16, 61, 256]),
       kl=st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 2)]),
       marks=st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 1)), min_size=1, max_size=4),
       As=st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=3),
       Bs=st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=3),
       xs=st.lists(st.integers(1, 900), min_size=1, max_size=3))
def test_grid_sums_equal_the_pointwise_products(W, kl, marks, As, Bs, xs):
    """Every (h, A, B, x) sum of one grid call, with windows of W integers,
    equals the sum of products of partial_divisor_array slices: shifts
    around 0, W, 2W and 3W (so 0, 1, W - 1, W and about 3W), k = l and
    k != l, exponents that derive from d_k or d_l and ones that do not, and
    a duplicate in each of hs, As and Bs."""
    k, l = kl
    hs = [max(0, m * W + d) for m, d in marks]
    hs, As, Bs = hs + hs[:1], As + As[:1], Bs + Bs[:1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "SEGMENT_SIZE", W)
        sweep = brute_correlation_decades(hs, k, l, As, Bs, xs)
    assert set(sweep) == {(h, E(A), E(B)) for h in hs for A in As for B in Bs}
    top = max(xs)
    rights = {B: partial_divisor_array(top, l, B) for B in Bs}
    for A in As:
        left = partial_divisor_array(top + max(hs), k, A)
        for h in hs:
            for B, right in rights.items():
                want = [int(np.dot(left[1 + h : x + 1 + h], right[1 : x + 1])) for x in sorted(xs)]
                assert [r.value for r in sweep[h, E(A), E(B)]] == want, (h, A, B)
                assert [r.x for r in sweep[h, E(A), E(B)]] == sorted(xs)


def test_far_shifts_keep_memory_to_a_window():
    """Traced peak memory of hs = [1, 10 W] stays within 1.5x of hs = [1]:
    a shift past the window width starts a further group of windows at its
    own offset, not one window stretched over every shift."""
    W = SEGMENT_SIZE

    def peak(hs):
        tracemalloc.start()
        try:
            brute_correlation_decades(hs, 2, 2, [1, "1/4"], ["1/2"], [4 * W])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    near, far = peak([1]), peak([1, 10 * W])
    assert far < 1.5 * near, (near, far)


def test_every_sum_rejects_an_empty_cutoff_list():
    for run in (lambda xs: brute_correlation_decades([1], 2, 2, [1], ["1/2"], xs),
                lambda xs: brute_ap_sweep(2, "1/2", [(3, 1)], xs),
                lambda xs: empirical_distribution(2, "1/2", xs)):
        for xs in ([], [0, 10]):
            with pytest.raises(ValueError, match="cutoffs x >= 1"):
                run(xs)


def test_correlation_sweep_matches_one_B_at_a_time():
    xs = [1000, 5000]
    Bs = [RationalExponent(1, 1), "1/2", "1/3", "1/2"]
    sweep = brute_correlation_decades([2], 3, 2, ["1/2"], Bs, xs)
    assert len(sweep) == len(set(map(E, Bs)))
    for B in Bs:
        results = sweep[2, E("1/2"), E(B)]
        alone = _one(2, 3, 2, "1/2", B, xs)
        assert [(r.x, r.B, r.value) for r in results] == [(r.x, r.B, r.value) for r in alone]


def test_streamed_memory_does_not_grow_with_x():
    """Traced peak memory at x = 4*10^6 stays within 1.2x of that at 10^6:
    the exact side holds a window and the q <= x^A tables, not arrays of
    length x."""

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for run in (lambda x: empirical_distribution(3, "1/2", x),
                lambda x: brute_correlation_decades([1], 2, 2, [1], ["1/2"], [x])):
        small = peak(lambda: run(10**6))
        big = peak(lambda: run(4 * 10**6))
        assert big < 1.2 * small, (small, big)


def test_window_kernel_allocates_nothing_per_window():
    """After one warm window, the next 2^18-wide window of the A = 1 kernel,
    written into the stream's buffer, traces under 1 MB (its values alone
    are 2 MB): the kernel's working arrays are allocated once."""
    top, W = 10**8, SEGMENT_SIZE
    window = _PartialSieve(3, 1, top)
    buf = np.empty(W, dtype=np.int64)
    window(top - 2 * W + 1, top - W, out=buf)
    tracemalloc.start()
    try:
        window(top - W + 1, top, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak
    assert np.array_equal(buf, sieve_dk(3, top - W + 1, top).values)


def test_brute_correlation_hand_value():
    """Recomputed by hand: sum_{n<=10} d(n+1) d(n) over plain divisor counts."""
    d = [0, 1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2]  # d(0..11)
    want = sum(d[n + 1] * d[n] for n in range(1, 11))
    assert want == 74
    [got] = _one(1, 2, 2, 1, 1, [10])
    assert got.value == 74


def test_brute_correlation_trivial_orders():
    for h in (0, 1, 5, 12):
        [r] = _one(h, 1, 1, 1, 1, [777])
        assert r.value == 777


def test_brute_correlation_rejects_a_negative_shift():
    """A negative h raises before anything is sieved: its left windows would
    reach n + h <= 0, where the kernel does not give d(m) = 0."""
    with pytest.raises(ValueError, match="h >= 0"):
        brute_correlation_decades([-3], 2, 2, [1], [1], [50])


def test_brute_correlation_two_paths_agree():
    """A = 1 through the partial-array path equals the plain d_k route."""
    x, h = 2000, 2
    [r] = _one(h, 2, 2, RationalExponent(1, 1), "1/2", [x])
    via_partial = r.value
    left = divisor_count_array(x + h, 2)[h + 1 : x + h + 1]
    right = partial_divisor_array(x, 2, RationalExponent(1, 2))[1 : x + 1]
    assert via_partial == int(np.dot(left, right))


def test_brute_decades_prefix_consistency():
    xs = [100, 1000, 10000]
    rs = _one(1, 2, 2, 1, "1/2", xs)
    for r in rs:
        [single] = _one(1, 2, 2, 1, "1/2", [r.x])
        assert r.value == single.value, r.x


def test_brute_ap_sweep_values():
    # k = 1 counts progression members
    assert brute_ap_sweep(1, "1/2", [(7, 3)], [100]) == {(7, 3): [len(range(3, 101, 7))]}
    # q = 1 reduces to the full partial sum
    x = 4000
    arr = partial_divisor_array(x, 2, "1/2")
    assert brute_ap_sweep(2, "1/2", [(1, 0)], [x])[1, 0] == [int(arr[1:].sum())]
    # frozen regression value, recomputed once by a direct per-n scan
    assert brute_ap_sweep(2, "1/2", [(7, 3)], [10**6])[7, 3] == [895024]


def test_brute_ap_sweep_matches_one_sum_at_a_time():
    """One stream per (k, A) gives, in the order of xs and at any window
    size, every (q, h, x) sum that strided slices of one
    partial_divisor_array give."""
    qs, hs, xs = (1, 3, 7, 12), (0, 1, 2, 5), [3000, 100, 2500, 3000]
    classes = [(q, h) for q in qs for h in hs]
    for k, A in ((1, "1/2"), (2, "1/2"), (3, "1/3"), (3, 1)):
        arr = partial_divisor_array(max(xs), k, A)
        for size in (7, 4096, SEGMENT_SIZE):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(arith, "SEGMENT_SIZE", size)
                sums = brute_ap_sweep(k, A, classes, xs)
            assert sorted(sums) == sorted(classes)
            for q, h in classes:
                want = [int(arr[1 : x + 1][(h - 1) % q :: q].sum()) for x in xs]
                assert sums[q, h] == want, (k, A, q, h, size)
    with pytest.raises(ValueError):
        brute_ap_sweep(2, "1/2", [(0, 1)], [100])


def test_empirical_distribution_exact_mean():
    dist = empirical_distribution(2, RationalExponent(1, 1), 10**4)
    assert dist.mean == 1
    half = empirical_distribution(2, "1/2", 10**4)
    # mean is an exact rational in (1/2, 0.53) at this scale
    assert Fraction(1, 2) < half.mean < Fraction(53, 100)
    assert sum(c for _, _, c in half.histogram) == 10**4
    # the scaling residual for k=2, A=1/2 is exactly floor(sqrt(x))/2
    assert half.scaling_residual() == Fraction(100, 2)


def test_empirical_distribution_cutoff_lists():
    """A list of cutoffs, in any order, gives the single-cutoff results, and
    those match a direct per-n rational sum."""
    xs = [3000, 100, 1000]
    table = sieve_dk(3, 1, 3000)
    many = empirical_distribution(3, "1/2", xs)
    assert [d.x for d in many] == xs
    assert empirical_distribution(3, "1/2", sorted(xs)) == sorted(many, key=lambda d: d.x)
    for dist in many:
        assert dist == empirical_distribution(3, "1/2", dist.x)
        ns = range(1, dist.x + 1)
        parts = [dk_partial(n, 3, "1/2") for n in ns]
        assert dist.mean == sum(Fraction(p, table.dk(n)) for n, p in zip(ns, parts)) / dist.x
        assert dist.sum_partial == sum(parts)
        assert dist.sum_full == sum(table.dk(n) for n in ns)
        assert sum(c for _, _, c in dist.histogram) == dist.x


def test_group_sums_are_exact_past_float_precision():
    """Group sums past 2^53, where float64 weights round, stay exact."""
    keys = np.array([1, 3, 1, 3, 1, 5], dtype=np.int64)
    weights = np.array([2**52 + 1] * 5 + [7], dtype=np.int64)
    want = {1: 3 * (2**52 + 1), 3: 2 * (2**52 + 1), 5: 7}
    assert _group_sums(keys, weights) == want
    as_float = np.bincount(keys, weights=weights.astype(np.float64))
    assert int(as_float[1]) != want[1]  # the float route rounds this group
    # sums past int64 come out exact too (chunks short enough not to wrap)
    big = np.full(10, 2**62 - 1, dtype=np.int64)
    assert _group_sums(np.zeros(10, dtype=np.int64), big) == {0: 10 * (2**62 - 1)}
    assert _group_sums(np.array([2, 2]), np.array([4, -4])) == {}


def test_exact_sum_never_wraps():
    arr = np.full(2**16, 2**50, dtype=np.int64)
    assert _exact_sum(arr) == 2**66
    mixed = np.array([2**63 - 1, 2**63 - 1, -(2**63) + 1, 5], dtype=np.int64)
    assert _exact_sum(mixed) == 2**63 + 4
    assert _exact_sum(np.zeros(0, dtype=np.int64)) == 0


def test_checked_product_refuses_wrapping():
    small = np.array([3, 2**31], dtype=np.int64)
    assert _checked_product(small, small).tolist() == [9, 2**62]
    with pytest.raises(ResourceBudgetError):
        _checked_product(np.array([2**32]), np.array([1, 2**31]))


def test_residue_routes_agree_with_ledgers():
    """Primary vs b-ledger, secondary vs a-ledger and their sum vs the
    polynomial at matched truncation, across A: the ledger map's
    A-dependence against the residue pipeline's."""
    tol = mp.mpf(10) ** -30
    for (k, l) in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for h in (1, 6):
            ctx = fixed_context(h, k, l, 2000)
            for A in ("1/3", "1/2", "2/3", "1"):
                rr = residue_polynomial_routes(h, k, l, A, 2000, ctx=ctx)
                poly = main_polynomial(A, ctx)
                secondary = rr.secondary + [mp.mpf(0)]  # no a-term at the top degree
                for d, terms in enumerate(poly.provenance):
                    b = sum(t[3] for t in terms if t[0] == "b")
                    a = sum(t[2] for t in terms if t[0] == "a")
                    want = rr.primary[d] + secondary[d]
                    for got, ref in ((b, rr.primary[d]), (a, secondary[d]),
                                     (poly.coeffs[d], want)):
                        assert abs(got - ref) <= tol * (1 + abs(ref)), (k, l, h, A, d)


def test_primary_route_k1_is_phi_sum():
    """k = 1: no derivatives, the primary route is the plain phi partial sum."""
    Q = 300
    ctx = coefficient_context(1, 1, 2, source="dirichlet", Q=Q)
    rr = residue_polynomial_routes(1, 1, 2, "1/2", Q, ctx=ctx)
    direct = sum(phi_of(1, 1, 2, q, 0)[0, 0] for q in range(1, Q + 1))
    # evaluate the route polynomial at lambda = log(Q^2); the main-term
    # approximation of the inner divisor sums is the only difference
    lam = mp.log(mp.mpf(Q) ** 2)
    poly_val = sum(c * lam**d for d, c in enumerate(rr.primary))
    assert abs(poly_val - direct) / direct < mp.mpf("2e-3")
    jet = phi_partial_sum_jet(1, 1, 2, Q, 0)
    assert abs(jet[0, 0] - direct) < mp.mpf(10) ** -25


def test_direct_secondary_matches_assembly_loosely():
    """Exact boundary-weight evaluation vs the ledger polynomial.

    The difference is the analytic main-term error, O(Q^(-2/l)) relative,
    so the tolerance here is coarse and shrinks with Q.
    """
    k, l, h = 2, 2, 1
    A = RationalExponent(1, 2)
    rels = []
    for Q in (300, 3000):
        x = mp.mpf(Q) ** 2
        lam = mp.log(x)
        exact = direct_secondary_value(h, k, l, A, Q, lam)
        ctx = coefficient_context(h, k, l, source="dirichlet", Q=Q)
        pred = -x * sum(
            a_coefficient(ctx, A, d) / mp.factorial(d) * lam**d
            for d in range(k + l - 2)
        )
        rels.append(abs(exact - pred) / abs(exact))
    assert rels[0] < mp.mpf("0.02")
    assert rels[1] < rels[0]


def test_direct_secondary_delta_conventions_close():
    """The two boundary-offset conventions differ only at integer powers."""
    k, l, h, Q = 2, 2, 1, 500
    A = RationalExponent(1, 2)
    lam = mp.log(mp.mpf(Q) ** 2)
    a = direct_secondary_value(h, k, l, A, Q, lam, delta_zero_when_integer=True)
    b = direct_secondary_value(h, k, l, A, Q, lam, delta_zero_when_integer=False)
    # A = 1/2 makes every q^(1/A) an integer, so the conventions differ by
    # the full offset-by-one shift
    assert a != b
    third = RationalExponent(1, 3)
    lam3 = mp.log(mp.mpf(27))
    c = direct_secondary_value(h, k, l, third, 27, lam3, delta_zero_when_integer=True)
    d = direct_secondary_value(h, k, l, third, 27, lam3, delta_zero_when_integer=False)
    assert abs(c - d) > 0  # cubes below 27 flip their indicator


def test_comparison_report_csv():
    rep = ComparisonReport(title="t", meta={"mode": "demo", "k": 2})
    rep.add(100, 41, mp.mpf(40))
    rep.add(1000, 4100, mp.mpf(4000))
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# k: 2"
    assert lines[2] == "x,observed,predicted,ratio,abs_err,rel_err"
    assert lines[3].startswith("100,41,40.0")
    assert "1.025" in lines[3]


def test_theorem23_decade_stability():
    """Ratios approach 1 across decades (one non-monotone decade allowed)."""
    from divcorr.asympt import main_polynomial

    poly = main_polynomial("1/2", coefficient_context(1, 2, 2, source="euler",
                                                      prime_cutoff=2000))
    rs = _one(1, 2, 2, 1, "1/2", [10**3, 10**4, 10**5, 10**6])
    gaps = [abs(mp.mpf(r.value) / (r.x * poly(mp.log(r.x))) - 1) for r in rs]
    violations = sum(1 for a, b in zip(gaps, gaps[1:]) if b >= a)
    assert violations <= 1, gaps
