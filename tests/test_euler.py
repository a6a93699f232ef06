"""Singular series: Euler products, local jets, Dirichlet coefficients."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd

import mpmath as mp
import numpy as np
import pytest

from divcorr.arith import (
    dk_of_factored,
    dk_prime_power,
    factorize,
    primes_up_to,
    sigma_minus1_exact,
)
from divcorr.euler import (
    DEFAULT_PRIME_CUTOFF,
    _SERIES_DEGREE,
    _c_euler_base,
    _fixed_mul,
    _log_local_c_series,
    _local_fixed,
    _prime_tail_log_jet,
    _varphi_base,
    cf_euler_jet,
    dirichlet_partials,
    evaluate_singular_series,
    singular_constant,
    singular_shift_factor,
    varphi_table,
)
from divcorr.errors import PrecisionError
from divcorr.jets import Jet2
from second_routes import (
    FixedVarphiTable,
    c_factor_poly,
    c_scalar,
    cf_local_jet,
    coefficient_array,
    exp_coeffs,
    exponent_of,
    fixed_partials,
    fixed_varphi_base,
    phi_local,
    phi_of,
    poly_log_series,
    scalar_tail_bound,
    varphi_jet,
    varphi_of,
    varphi_prime_power,
)

TIGHT = mp.mpf(10) ** -30

# the two varphi fills, by the ids their tests keep: "mp" is the fixed-point
# reference in second_routes, "float" the package's float64 fill
FILLS = {"mp": (FixedVarphiTable, fixed_varphi_base, fixed_partials),
         "float": (varphi_table, _varphi_base, dirichlet_partials)}


def _base_of(mode, t):
    """The shared shift-free base a table of that fill reads."""
    if mode == "mp":
        return fixed_varphi_base(t.k, t.l, t.Q, t.order_s, t.bits)[0]
    return _varphi_base(t.k, t.l, t.Q, t.order_s)[0]


def test_singular_constant_closed_forms():
    C22, bound = singular_constant(2, 2)
    assert abs(C22 - 6 / mp.pi**2) < mp.mpf(10) ** -25
    assert bound < mp.mpf(10) ** -25
    C15, _ = singular_constant(1, 5)
    assert C15 == 1
    C51, _ = singular_constant(5, 1)
    assert C51 == 1


def test_singular_constant_keeps_requested_digits():
    """dps=50 asked for at mpmath's default 15 digits still gives 50 digits."""
    with mp.workdps(15):
        C, _ = singular_constant(2, 2, dps=50)
    with mp.workdps(60):
        assert abs(C - 6 / mp.pi**2) < mp.mpf(10) ** -45


def test_singular_constant_meets_a_tol_below_its_digits():
    """A tol below 10^-dps raises the working digits to meet it, so dps 20
    with the default tol 1e-25 states a bound under tol and raises no
    PrecisionError (it raised at (16,16), whose bound met 10^-20 only)."""
    for k, l in ((2, 2), (16, 16)):
        C, bound = singular_constant(k, l, dps=20)
        assert bound <= 1e-25
        with mp.workdps(40):
            assert abs(C - singular_constant(k, l, dps=30)[0]) <= bound


def test_singular_constant_symmetry():
    a, _ = singular_constant(2, 3)
    b, _ = singular_constant(3, 2)
    assert abs(a - b) < TIGHT


def test_singular_constant_vs_jet_route():
    """Scalar Euler product vs the constant coefficient of the jet product."""
    for (k, l) in ((2, 2), (3, 3), (2, 3)):
        scalar, _ = singular_constant(k, l)
        jet, _ = cf_euler_jet(1, k, l, 1, 1, prime_cutoff=2000)
        assert abs(scalar - jet[0, 0]) < mp.mpf(10) ** -9, (k, l)
        assert abs(scalar - jet[0, 0]) < mp.mpf(10) ** -20, (k, l)


def test_shift_factor_exact_values():
    assert singular_shift_factor(1, 2, 2) == 1
    assert singular_shift_factor(2, 2, 2) == Fraction(3, 2)
    for h in range(1, 101):
        assert singular_shift_factor(h, 2, 2) == sigma_minus1_exact(h), h
    for p in (3, 5, 11):
        assert singular_shift_factor(p, 2, 2) == 1 + Fraction(1, p)


def test_shift_factor_trivial_orders():
    assert singular_shift_factor(12, 1, 3) == 1
    assert singular_shift_factor(12, 3, 1) == 1


def _shift_factor_by_tails(h, k, l):
    """f_{k,l}(h) as a finite product over p | h, its two geometric-type
    tails in closed form from sum_b d_k(p^b) x^b = (1-x)^(-k), over the
    C-factor (1-u)^(1-k) + (1-u)^(1-l) - 1, u = 1/p."""
    out = Fraction(1)
    for p, gamma in factorize(h).factors:
        u = Fraction(1, p)
        one_minus_u = 1 - u
        # sum_{b >= a} d_k(p^b) u^b = (1-u)^(-k) - partial sum
        full_k = one_minus_u ** (-k)
        partial = Fraction(0)
        numer = Fraction(0)
        for a in range(gamma + 1):
            tail_k = full_k - partial
            numer += dk_prime_power(l - 1, a) * tail_k if l >= 2 else (tail_k if a == 0 else 0)
            partial += dk_prime_power(k, a) * u**a
        full_l1 = one_minus_u ** (-(l - 1)) if l >= 2 else Fraction(1)
        partial_l1 = Fraction(0)
        for a in range(gamma + 1):
            partial_l1 += (dk_prime_power(l - 1, a) if l >= 2 else (1 if a == 0 else 0)) * u**a
        numer = one_minus_u * numer + dk_prime_power(k, gamma) * (full_l1 - partial_l1)
        denom = one_minus_u ** (1 - k) + one_minus_u ** (1 - l) - 1
        out *= numer / denom
    return out


def test_shift_factor_matches_tail_sums():
    """The closed form at (s, w) = (1, 0) equals the tail-sum route exactly."""
    for k in range(1, 5):
        for l in range(1, 5):
            for h in list(range(1, 61)) + [2 * 1009, 10007, 2**10, 3**7 * 5, 720720]:
                assert singular_shift_factor(h, k, l) == _shift_factor_by_tails(h, k, l), (h, k, l)


def test_local_factor_constant_coeffs():
    for p in (2, 3, 13):
        loc = cf_local_jet(p, 0, 2, 2, 2, 2)
        assert abs(loc[0, 0] - (1 - mp.mpf(p) ** -2)) < TIGHT
        unit = cf_local_jet(p, 0, 1, 1, 2, 2)
        assert abs(unit[0, 0] - 1) < TIGHT
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert abs(unit[i, j]) < TIGHT


def _monomial_jet(p, a, b, c, order_t, order_w):
    """p^(-a t - b w - c) as a Jet2 in (t, w) = (s - 1, w): p^(-s) is
    (a, b, c) = (1, 0, 1), p^(-w-1) is (0, 1, 1), p^(-w) is (0, 1, 0)."""
    L, u = mp.log(p), mp.mpf(p) ** -c
    w_exp = exp_coeffs(b, L, order_w)
    return Jet2([[u * ti * wj for wj in w_exp] for ti in exp_coeffs(a, L, order_t)])


def _c_local_by_jet_ops(p, k, l, order_t, order_w, split):
    """The local C-factor by Jet2 operations: D + (1-X)^k (1-D) / (1-1/p)
    with D = (1-Y)^(l-1), or with the last product distributed (split)."""
    X = _monomial_jet(p, 1, 0, 1, order_t, order_w)
    Y = _monomial_jet(p, 0, 1, 1, order_t, order_w)
    u = mp.mpf(1) / p
    D = (1 - Y) ** (l - 1)
    Xk = (1 - X) ** k
    if split:
        return D + Xk * (1 / (1 - u)) - Xk * D * (1 / (1 - u))
    return D + Xk * (1 - D) * (1 / (1 - u))


def _cf_local_by_jet_ops(p, gamma, k, l, order_t, order_w):
    """The local factor of C f at p^gamma || h by Jet2 operations, from the
    numerator of f derived from the multiplicative summand phi:

      (1-1/p) sum_{a<=g} d_{l-1}(p^a) p^(-aw) sum_{b>=a} d_k(p^b) p^(-bs)
      + d_k(p^g) p^(-g(s-1)) sum_{a>g} d_{l-1}(p^a) p^(-a(w+1)),

    times (1-X)^k (1-Y)^(l-1) / (1-1/p), the two tails by reciprocals."""
    X = _monomial_jet(p, 1, 0, 1, order_t, order_w)
    Y = _monomial_jet(p, 0, 1, 1, order_t, order_w)
    W = _monomial_jet(p, 0, 1, 0, order_t, order_w)
    u = mp.mpf(1) / p
    inv_k = (1 - X) ** (-k)
    numer = Jet2.constant(0, order_t, order_w)
    partial_k = Jet2.constant(0, order_t, order_w)
    for a in range(gamma + 1):
        numer = numer + dk_prime_power(l - 1, a) * (W**a) * (inv_k - partial_k)
        partial_k = partial_k + dk_prime_power(k, a) * (X**a)
    numer = numer * (1 - u)
    tail_l = (1 - Y) ** (-(l - 1))
    for a in range(gamma + 1):
        tail_l = tail_l - dk_prime_power(l - 1, a) * (Y**a)
    shift = _monomial_jet(p, gamma, 0, 0, order_t, order_w)
    numer = numer + dk_prime_power(k, gamma) * shift * tail_l
    return (1 - X) ** k * (1 - Y) ** (l - 1) * numer * (1 / (1 - u))


def test_display_grouping_forms_agree():
    """The printed forms of the local factor, built by Jet2 operations, equal
    the closed form of cf_local_jet: for every gamma the phi-derived
    numerator times the C-factor's cancelled denominator, and at gamma = 0
    the two groupings of the C-factor."""
    for p in (2, 7, 31, 997):
        for (k, l) in ((2, 2), (3, 2), (3, 4)):
            for order_t, order_w in ((2, 2), (3, 4)):
                for gamma in range(4):
                    closed = cf_local_jet(p, gamma, k, l, order_t, order_w)
                    refs = [_cf_local_by_jet_ops(p, gamma, k, l, order_t, order_w)]
                    if gamma == 0:
                        refs += [_c_local_by_jet_ops(p, k, l, order_t, order_w, split)
                                 for split in (False, True)]
                    for ref in refs:
                        assert _max_diff(closed, ref) < TIGHT, (p, k, l, gamma)


def test_local_factor_integers_within_two_units():
    """The local factor's integers over 2^bits, on a (log p)^d table of the
    weights' own guard, lie under two units from the Jet2 reference at 100
    more bits, for every gamma."""
    bits = 200
    for p in (2, 3, 1009):
        for (k, l) in ((2, 2), (3, 2), (2, 4), (4, 2)):
            for gamma in range(4):
                got = _local_fixed(p, gamma, k, l, 3, 4, bits)
                with mp.workprec(bits + 100):
                    ref = _cf_local_by_jet_ops(p, gamma, k, l, 3, 4)
                    units = max(abs(got[i][j] - mp.ldexp(ref[i, j], bits))
                                for i in range(4) for j in range(5))
                assert units < 2, (p, k, l, gamma, units)


def test_fixed_mul_matches_the_loop_product():
    """The planned product equals the plain double loop over the pairs, for
    every shape up to 5 x 5 and signed entries."""
    rng = random.Random(7)
    bits = 90
    for rows in range(1, 6):
        for cols in range(1, 6):
            a, b = ([[rng.getrandbits(160) - (1 << 159) for _ in range(cols)]
                     for _ in range(rows)] for _ in range(2))
            want = [[sum(a[i1][j1] * b[i - i1][j - j1] for i1 in range(i + 1)
                         for j1 in range(j + 1)) >> bits for j in range(cols)]
                    for i in range(rows)]
            assert _fixed_mul(a, b, bits) == want, (rows, cols)


def test_local_factor_h2_product():
    """Assembled product over the p=2 shift factor equals C * f at (1,0)."""
    jet, _ = cf_euler_jet(2, 2, 2, 1, 1, prime_cutoff=2000)
    target = (6 / mp.pi**2) * mp.mpf(3) / 2
    assert abs(jet[0, 0] - target) < mp.mpf(10) ** -9


def test_shift_prime_above_cutoff():
    """Shift primes beyond the Euler cutoff get their true local factor."""
    h = 10007  # prime above the cutoff used here
    jet, _ = cf_euler_jet(h, 2, 2, 1, 1, prime_cutoff=2000)
    C, _ = singular_constant(2, 2)
    f = singular_shift_factor(h, 2, 2)
    want = C * mp.mpf(f.numerator) / f.denominator
    assert abs(jet[0, 0] - want) < mp.mpf(10) ** -20


def _direct_cf_product(h, k, l, order_t, order_w, prime_cutoff):
    """C(s,w) f(s,w) the per-prime way: cf_local_jet with gamma = v_p(h) at
    every p <= P, the prime tail, then the true factor of each p | h above P."""
    hfac = factorize(h)
    with mp.workdps(mp.mp.dps + 10):
        prod = Jet2.constant(1, order_t, order_w)
        for p in primes_up_to(prime_cutoff):
            p = int(p)
            prod = prod * cf_local_jet(p, exponent_of(hfac, p), k, l, order_t, order_w)
        corr, _ = _prime_tail_log_jet(k, l, order_t, order_w, prime_cutoff,
                                      mp.mp.dps, _SERIES_DEGREE)
        prod = prod * corr.exp()
        for p, gamma in hfac.factors:
            if p > prime_cutoff:
                prod = prod * cf_local_jet(p, gamma, k, l, order_t, order_w)
                prod = prod / cf_local_jet(p, 0, k, l, order_t, order_w)
    return prod


def _max_diff(a, b):
    return max(abs(a[i, j] - b[i, j])
               for i in range(a.order_t + 1) for j in range(a.order_w + 1))


@pytest.mark.parametrize("k,l", [(2, 2), (3, 2)])
def test_shared_base_matches_direct_product(k, l):
    """The cached shift-free base with finite corrections at p | h equals the
    direct per-prime product; 1009 lies between the cutoffs 10^3 and 10^4, so
    2*1009 puts it above the default cutoff here and inside it at P = 2000."""
    order_t, order_w = k, max(l, k + l - 2)
    for h in (1, 2, 12, 2 * 1009, 10007):
        got, _ = cf_euler_jet(h, k, l, order_t, order_w)
        want = _direct_cf_product(h, k, l, order_t, order_w, DEFAULT_PRIME_CUTOFF)
        assert _max_diff(got, want) < mp.mpf(10) ** -38, h
    got, _ = cf_euler_jet(2 * 1009, k, l, order_t, order_w, prime_cutoff=2000)
    want = _direct_cf_product(2 * 1009, k, l, order_t, order_w, 2000)
    assert _max_diff(got, want) < mp.mpf(10) ** -38


def test_euler_jet_is_a_fresh_copy():
    """Mutating a returned jet leaves the shared base untouched."""
    for h in (1, 6):
        first, _ = cf_euler_jet(h, 2, 2, 2, 2)
        kept = [list(row) for row in first.coeffs]
        first.coeffs[0][0] += 1
        first.coeffs[1][1] *= 3
        again, _ = cf_euler_jet(h, 2, 2, 2, 2)
        assert again.coeffs == kept, h


def _reference_cf_jet(h, k, l, order_t, order_w, dps):
    """C(s,w) f(s,w) at P = 10^4 with a degree-18 tail, and its bound."""
    ref, ref_bound, _ = _c_euler_base(k, l, order_t, order_w, 10**4, dps, 18)
    with mp.workdps(dps + 10):
        for p, gamma in factorize(h).factors:
            ref = ref * cf_local_jet(p, gamma, k, l, order_t, order_w)
            ref = ref / cf_local_jet(p, 0, k, l, order_t, order_w)
    return ref, ref_bound


@pytest.mark.parametrize("k,l", [(2, 2), (3, 2), (3, 3)])
def test_euler_tail_bounds_are_honest(k, l):
    """At the default cutoff and series degree the jet's stated bound covers
    the distance to a reference at P = 10^4 with a degree-18 tail, and is no
    looser than that of the old truncation (P = 10^4, degree 10)."""
    order_t, order_w = k, max(l, k + l - 2)
    dps = 30
    _, old_bound = _prime_tail_log_jet(k, l, order_t, order_w, 10**4, dps, 10)
    for h in (1, 6):
        got, bound = cf_euler_jet(h, k, l, order_t, order_w, dps=dps)
        ref, ref_bound = _reference_cf_jet(h, k, l, order_t, order_w, dps)
        assert 0 < ref_bound < bound / 1000
        assert bound <= old_bound
        assert _max_diff(got, ref) <= bound, (h, _max_diff(got, ref), bound)


@pytest.mark.parametrize("dps", [30, 40])
@pytest.mark.parametrize("k,l", [(2, 2), (3, 2), (3, 3)])
def test_shift_patch_holds_the_base_precision(k, l, dps):
    """The factors at p | h, patched into the cached base, lie within
    10^-(dps+10) of the same base patched at dps + 40 digits, and the stated
    bound grows by the patch's rounding alone: more than the distance, less
    than 10^-(dps+10)."""
    order_t, order_w = k, max(l, k + l - 2)
    base, base_bound, _ = _c_euler_base(k, l, order_t, order_w, DEFAULT_PRIME_CUTOFF, dps,
                                        _SERIES_DEGREE)
    for h in (6, 12, 2 * 1009, 10007):
        got, bound = cf_euler_jet(h, k, l, order_t, order_w, dps=dps)
        with mp.workdps(dps + 40):
            want = Jet2(base.coeffs)
            for p, gamma in factorize(h).factors:
                want = want * cf_local_jet(p, gamma, k, l, order_t, order_w)
                want = want / cf_local_jet(p, 0, k, l, order_t, order_w)
            diff = _max_diff(got, want)
            assert diff < mp.mpf(10) ** -(dps + 10), (h, diff)
            assert diff <= bound - base_bound < mp.mpf(10) ** -(dps + 10), h


@lru_cache(maxsize=None)
def _mp_local_product(k, l, order_t, order_w, dps):
    """The local C-factors over p <= 10^3 by Jet2 operations, multiplied one
    by one at dps digits."""
    with mp.workdps(dps):
        prod = Jet2.constant(1, order_t, order_w)
        for p in primes_up_to(DEFAULT_PRIME_CUTOFF):
            prod = prod * _c_local_by_jet_ops(int(p), k, l, order_t, order_w, split=False)
        return prod


@pytest.mark.parametrize("dps", [30, 40, 60, 100])
@pytest.mark.parametrize("k,l", [(2, 2), (3, 2), (3, 3)])
def test_fixed_point_base_matches_mpf_product(k, l, dps):
    """The integer product of the base equals the per-prime mpf product at
    dps + 25 digits (built once, at the largest) times the same prime-tail
    correction, within 10^-(dps+10), and its stated bound stays that of the
    tail series: the rounding term adds under 10^-(dps+10)."""
    order_t, order_w = k, max(l, k + l - 2)
    got, bound, _ = _c_euler_base(k, l, order_t, order_w, DEFAULT_PRIME_CUTOFF, dps,
                                  _SERIES_DEGREE)
    prod = _mp_local_product(k, l, order_t, order_w, 125)
    with mp.workdps(dps + 25):
        corr, tail_bound = _prime_tail_log_jet(k, l, order_t, order_w, DEFAULT_PRIME_CUTOFF,
                                               dps, _SERIES_DEGREE)
        want = prod * corr.exp()
        assert _max_diff(got, want) < mp.mpf(10) ** -(dps + 10)
        assert tail_bound < bound < tail_bound + mp.mpf(10) ** -(dps + 10)


def test_euler_jet_at_large_orders_states_a_finite_bound():
    """At (k, l) = (6, 5) math.exp overflowed inside the base's rounding
    amplifier (about 2^37); as a log2 it widens the bits past 2^32, and the
    bound stays finite (or the precision is refused)."""
    try:
        _, bound = cf_euler_jet(1, 6, 5, 6, 9)
    except PrecisionError:
        return
    assert mp.isfinite(bound) and 0 < bound < 1


def test_truncated_log_jet_states_a_bound():
    """At P = 10^4 every moment of the last two degrees is below the moments'
    tolerance, but the moments' error and the rounding keep the bound above 0."""
    assert _prime_tail_log_jet(3, 2, 3, 3, 10**4, 30, 18)[1] > 0


def test_l1_euler_polynomial_matches_dirichlet():
    """l = 1: the C-factor is 1, its log series is empty, the a-ledger is
    empty, and the Euler route gives the Dirichlet route's coefficients
    within the stated bound: those of the classical sum of d_k(n),
    [2 gamma - 1, 1] for k = 2 and [1 - 3 gamma + 3 gamma^2 - 3 gamma_1,
    3 gamma - 1, 1/2] for k = 3."""
    from divcorr.asympt import main_polynomial

    g, g1 = mp.euler, mp.stieltjes(1)
    classical = {2: [2 * g - 1, 1], 3: [1 - 3 * g + 3 * g**2 - 3 * g1, 3 * g - 1, mp.mpf(1) / 2]}
    for k, want in classical.items():
        for h in (1, 2, 6):
            euler = main_polynomial("1/2", h, k, 1, source="euler")
            dirichlet = main_polynomial("1/2", h, k, 1, source="dirichlet", Q=1000)
            bound = euler.tail_bound + dirichlet.tail_bound
            assert len(euler.coeffs) == len(dirichlet.coeffs) == k
            for got, ref in zip(euler.coeffs, dirichlet.coeffs):
                assert abs(got - ref) <= bound, (k, h, got, ref)
            for got, ref in zip(dirichlet.coeffs[:-1], want):
                assert abs(got - ref) <= mp.mpf(10) ** -35, (k, h, got, ref)
            assert dirichlet.coeffs[-1] == want[-1]


HONEST_GRID = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 5), (16, 2), (16, 16), (30, 30)]


@pytest.mark.parametrize("k,l,dps", [pytest.param(k, l, 50, id=f"{k}-{l}") for k, l in HONEST_GRID]
                         + [pytest.param(k, l, 30, id=f"{k}-{l}-dps30") for k, l in HONEST_GRID])
def test_singular_constant_bound_is_honest(k, l, dps):
    """The tail series grows with k and l until the stated bound, truncation
    plus rounding, meets the working precision: no PrecisionError (16,16
    raised at a fixed degree 14), and a bound covering the distance to the
    scalar route at P = 10^4, order 30, on dps + 30 digits, whose own
    truncation is far below the bound.  At dps 50 the bound is also no
    looser than the old truncation's (P = 10^4, order 12); at dps 30 the
    degree rule stops at the first degree whose bound meets 10^-30, which
    for the smaller (k,l) lies above that truncation (5e-35 against 3e-47
    at (2,2))."""
    g = poly_log_series(c_factor_poly(k, l), 30)
    # the constant carries more digits than dps: compare it above the reference's
    with mp.workdps(dps + 40):
        C, bound = singular_constant(k, l, dps=dps)
        ref = c_scalar(k, l, 10**4, 30, dps + 30)
        assert bound <= mp.mpf(10) ** -dps
        if dps == 50:
            assert bound <= scalar_tail_bound(g, 12, 10**4)
        assert scalar_tail_bound(g, 30, 10**4) < bound / 1000
        assert abs(C - ref) <= bound, (abs(C - ref), bound)


@pytest.mark.parametrize("k,l,deg", [(2, 2, 14), (3, 2, 14), (6, 5, 18), (16, 16, 20)])
def test_log_local_c_series_exponentiates_to_the_factor(k, l, deg):
    """exp(G) = F through total degree deg, in integers, for G = N / den the
    log series and F = D + (1-x)^k (1-D) / (1-u), D = (1-y)^(l-1), built here
    from its binomials: with G_0 = 0 and F_0 = 1 that is F G' = F', degree
    by degree m den F_m = sum_{0<i<=m} i N_i F_(m-i), where F_m, N_m are the
    parts of total degree m."""
    F = [{} for _ in range(deg + 1)]
    D = [(-1) ** b * comb(l - 1, b) for b in range(l)]
    for b in range(min(l - 1, deg) + 1):
        F[b][0, b, 0] = D[b]
    for a in range(min(k, deg) + 1):
        for b in range(1, min(l - 1, deg - a) + 1):
            for c in range(deg - a - b + 1):
                part = F[a + b + c]
                part[a, b, c] = part.get((a, b, c), 0) - (-1) ** a * comb(k, a) * D[b]
    terms, den = _log_local_c_series(k, l, deg)
    N = [{} for _ in range(deg + 1)]
    for key, v in terms:
        assert v and sum(key) >= 2
        N[sum(key)][key] = v
    assert F[0] == {(0, 0, 0): 1}
    for m in range(1, deg + 1):
        rhs = {}
        for i in range(1, m + 1):
            for (a1, b1, c1), n in N[i].items():
                for (a2, b2, c2), f in F[m - i].items():
                    key = (a1 + a2, b1 + b2, c1 + c2)
                    rhs[key] = rhs.get(key, 0) + i * n * f
        lhs = {key: m * den * f for key, f in F[m].items() if f}
        assert {key: v for key, v in rhs.items() if v} == lhs, m
    assert gcd(den, *(v for _, v in terms)) == 1  # den is the least common one


def test_local_factor_cf_wrapper():
    """v_3(18) = 2: the local factor at 3 is C_{2,2}'s factor (1 - 1/9) times
    f_{2,2}'s, sigma_{-1}(9) = 13/9."""
    assert exponent_of(factorize(18), 3) == 2
    direct = cf_local_jet(3, 2, 2, 2, 1, 1)
    assert abs(direct[0, 0] - mp.mpf(8) / 9 * mp.mpf(13) / 9) < TIGHT


def _f_local_jet(p, gamma, k, l, order_t, order_w):
    """Local factor of f_{h,k,l}(s,w) at p with p^gamma || h: C f over C."""
    return (cf_local_jet(p, gamma, k, l, order_t, order_w)
            / cf_local_jet(p, 0, k, l, order_t, order_w))


def test_f_local_against_scalar_series():
    """Jet of the shift factor vs direct numeric summation of its series."""

    def f_scalar(p, gamma, k, l, s, w):
        from divcorr.arith import dk_prime_power

        u = mp.mpf(1) / p
        num = mp.mpf(0)
        for a in range(gamma + 1):
            tail = mp.mpf(0)
            b = a
            while True:
                t = dk_prime_power(k, b) * mp.power(p, -b * s)
                tail += t
                b += 1
                if abs(t) < mp.mpf(10) ** -45 and b > a + 10:
                    break
            num += dk_prime_power(l - 1, a) * mp.power(p, -a * w) * tail
        num *= 1 - u
        tail2 = mp.mpf(0)
        a = gamma + 1
        while True:
            t = dk_prime_power(l - 1, a) * mp.power(p, -a * (w + 1))
            tail2 += t
            a += 1
            if abs(t) < mp.mpf(10) ** -45 and a > gamma + 12:
                break
        num += dk_prime_power(k, gamma) * mp.power(p, -gamma * (s - 1)) * tail2
        den = (1 - u) * (1 - mp.power(p, -s)) ** (-k) \
            + (1 - mp.power(p, -(w + 1))) ** (1 - l) - 1
        return num / den

    for (p, gamma, k, l) in ((2, 1, 2, 2), (3, 2, 3, 2), (2, 1, 2, 3)):
        jet = _f_local_jet(p, gamma, k, l, 2, 2)
        eps = mp.mpf(10) ** -10
        val = f_scalar(p, gamma, k, l, mp.mpf(1), mp.mpf(0))
        assert abs(jet[0, 0] - val) < mp.mpf(10) ** -25
        fd_s = (f_scalar(p, gamma, k, l, 1 + eps, mp.mpf(0))
                - f_scalar(p, gamma, k, l, 1 - eps, mp.mpf(0))) / (2 * eps)
        fd_w = (f_scalar(p, gamma, k, l, mp.mpf(1), eps)
                - f_scalar(p, gamma, k, l, mp.mpf(1), -eps)) / (2 * eps)
        assert abs(jet.partial(1, 0) - fd_s) < mp.mpf(10) ** -15
        assert abs(jet.partial(0, 1) - fd_w) < mp.mpf(10) ** -15


def test_shift_factor_derivative_identity():
    """2 d_w f + d_s f = -4 sigma'_{-1}(h) at k = l = 2 (h = p prime)."""
    for p in (2, 5):
        jet = _f_local_jet(p, 1, 2, 2, 2, 2)
        got = 2 * jet.partial(0, 1) + jet.partial(1, 0)
        want = -4 * (mp.log(p) / p)  # -4 sigma'_{-1}(p)
        assert abs(got - want) < mp.mpf(10) ** -25, p


def test_phi_local_cases():
    """Re-derived local values: the multiplicative summand at prime powers."""
    # p not dividing h: d_{l-1}(p^a)/phi(p^a) * (1 - 1/p)^k at s = 1
    for p in (3, 7):
        jet = phi_local(1, 2, 2, p, 1, 2)
        expect = mp.mpf(1) / (p - 1) * (1 - mp.mpf(1) / p) ** 2
        assert abs(jet[0, 0] - expect) < TIGHT
    # p | h, alpha <= gamma: 1 - (1 - 1/p)^k
    for p in (2, 7):
        jet = phi_local(p, 2, 2, p, 1, 2)
        assert abs(jet[0, 0] - (1 - (1 - mp.mpf(1) / p) ** 2)) < TIGHT
    # p | h, alpha > gamma: explicit case-three value
    jet = phi_local(2, 2, 2, 2, 3, 1)
    # d_1(8)/phi(4) * (1 - 1/2)^2 * d_2(2) * 2^(-1) = 1/8
    expect = mp.mpf(1) / 2 * (mp.mpf(1) / 4) * 2 * (mp.mpf(1) / 2)
    assert abs(jet[0, 0] - expect) < TIGHT


def test_phi_multiplicativity():
    for h in (1, 6):
        a = phi_of(h, 2, 2, 6, 2)
        b = phi_of(h, 2, 2, 2, 2) * phi_of(h, 2, 2, 3, 2)
        for r in range(3):
            assert abs(a[r, 0] - b[r, 0]) < TIGHT


def test_varphi_unit_and_multiplicativity():
    table = varphi_table(1, 2, 2, 100, 2)
    unit = varphi_jet(table, 1)
    assert unit[0, 0] == 1 and unit[1, 0] == 0
    for (r, t) in ((4, 9), (5, 12), (7, 13)):
        a = varphi_of(2, 2, 2, r * t, 2)
        b = varphi_of(2, 2, 2, r, 2) * varphi_of(2, 2, 2, t, 2)
        for i in range(3):
            assert abs(a[i, 0] - b[i, 0]) < TIGHT


def test_dirichlet_convolution_identity():
    """phi(s,q) = sum_{d|q} varphi(d,s) d_{l-1}(q/d)/(q/d) for q <= 200."""
    for (h, k, l) in ((1, 2, 2), (2, 2, 3), (6, 3, 2)):
        for q in range(1, 201):
            lhs = phi_of(h, k, l, q, 1)
            rhs = Jet2.constant(0, 1, 0)
            for d in factorize(q).divisors():
                m = q // d
                dl1 = dk_of_factored(l - 1, factorize(m)) if l >= 2 else (1 if m == 1 else 0)
                if dl1:
                    rhs = rhs + varphi_of(h, k, l, d, 1) * (mp.mpf(dl1) / m)
            for r in range(2):
                assert abs(lhs[r, 0] - rhs[r, 0]) < TIGHT, (h, k, l, q)


def test_varphi_float_matches_mp():
    """The float64 table and the fixed-point reference against the per-q
    product varphi_of, at every q <= Q."""
    Q = 3000
    for (h, k, l) in ((1, 2, 2), (6, 3, 2), (96, 2, 3), (2 * 1009, 3, 3), (10007, 3, 2)):
        tm = FixedVarphiTable(h, k, l, Q, 2)
        tf = varphi_table(h, k, l, Q, 2)
        for q in range(1, Q + 1):
            ref, a, b = varphi_of(h, k, l, q, 2), varphi_jet(tm, q), varphi_jet(tf, q)
            for r in range(3):
                assert abs(a[r, 0] - ref[r, 0]) < TIGHT, (h, k, l, q, r)
                assert abs(b[r, 0] - ref[r, 0]) < mp.mpf(10) ** -13, (h, k, l, q, r)


def _cold_rows(h, k, l, Q, order_s, mode):
    build, base, _ = FILLS[mode]
    base.cache_clear()
    t = build(h, k, l, Q, order_s)
    return [coefficient_array(t, i) for i in range(order_s + 1)]


@pytest.mark.parametrize("mode", ["mp", "float"])
def test_varphi_shared_base_is_bit_identical_and_protected(mode):
    """h = 6, then 1, then 6 on one shared base equal cold builds bit for bit,
    and writing into what a table returns does not reach the next table."""
    Q = 2000
    build, base, _ = FILLS[mode]
    cold = {h: _cold_rows(h, 3, 2, Q, 3, mode) for h in (6, 1)}
    base.cache_clear()
    for h in (6, 1, 6):
        t = build(h, 3, 2, Q, 3)
        for i in range(4):
            row = coefficient_array(t, i)
            assert row.dtype == cold[h][i].dtype
            assert all(row == cold[h][i]), (h, i)
            row[:] = 7
        t.columns(np.arange(Q + 1))[:] = 7
        varphi_jet(t, 12).coeffs[0][0] = 7
    assert base.cache_info().misses == 1
    with pytest.raises(ValueError):
        t._table[0, 2] = 7
    t = build(6, 3, 2, Q, 3)
    assert all(all(coefficient_array(t, i) == cold[6][i]) for i in range(4))


@pytest.mark.parametrize("mode", ["mp", "float"])
def test_varphi_shift_free_table_is_the_base_and_a_shift_copies_it(mode):
    """h = 1 holds the shared base itself; h = 6 holds a read-only copy, and
    building it leaves the base's bytes as they were."""
    Q = 2000
    build = FILLS[mode][0]
    t1 = build(1, 3, 2, Q, 3)
    base = _base_of(mode, t1)
    assert t1._table is base
    before = base.tobytes()
    t6 = build(6, 3, 2, Q, 3)
    assert t6._table is not base and base.tobytes() == before
    assert _base_of(mode, t6) is base
    with pytest.raises(ValueError):
        t6._table[0, 6] = 7


def test_varphi_mp_shifted_table_pinned():
    """The SHA-256 of the integer table at (h, k, l, Q, order_s) =
    (12, 3, 2, 2*10^4, 3), dps 40, row by row as decimal integers: a new way
    to fill a shifted table must keep every integer."""
    with mp.workdps(40):
        t = FixedVarphiTable(12, 3, 2, 2 * 10**4, 3)
    text = " ".join(map(str, t._table.ravel().tolist()))
    assert t.bits == 219
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "06da7cb28bc40085ff150549a13f034b92980caf7dd06255f9b2346a3f7f81f1")



def _mpf_words_digest(nums) -> str:
    """SHA-256 of the exact mpf words (sign, mantissa, exponent, bit count)."""
    words = " ".join(f"{s}:{int(m)}:{e}:{bc}" for s, m, e, bc in (c._mpf_ for c in nums))
    return hashlib.sha256(words.encode()).hexdigest()


def test_euler_integers_pinned():
    """The exact mpf words of the shift-free Euler base (jet and bound) at
    P = 10^3, dps 40, degree 14 and the jet orders of (k, l), of
    cf_euler_jet(12, 3, 2, 3, 3) and of singular_constant(6, 5) at dps 30:
    with test_varphi_mp_shifted_table_pinned, every reader of the local
    factor's integers must keep them."""
    want = {
        (2, 2): "408149e8f00122b2b842deb44c86386e954d5b43e526bf1f957f18f16ee51275",
        (3, 2): "fe79759343917817190ddbd26a0a55364ad0053724018865c5eddd90941f99d0",
        (3, 3): "11faebd9d4de1ee2c8ea43f0b9de87e798c70fd50a189f5b31fde6c972d5809c",
    }
    for (k, l), digest in want.items():
        jet, bound, _ = _c_euler_base(k, l, k, max(l, k + l - 2), 1000, 40, 14)
        assert _mpf_words_digest([*chain.from_iterable(jet.coeffs), bound]) == digest, (k, l)
    jet, bound = cf_euler_jet(12, 3, 2, 3, 3, dps=40)
    assert _mpf_words_digest([*chain.from_iterable(jet.coeffs), bound]) == (
        "86865578baead9ff53dc7505338a74efc5b3108126e2a250e4ef5e0d68b1c7ef")
    assert _mpf_words_digest(singular_constant(6, 5, dps=30)) == (
        "d8952e34eb34266dbd5f1c6e2902e4e766121c64f0a4e6cd1f20f223a700240d")

def test_varphi_mp_table_follows_precision():
    """A table built at 30 digits is not reused at 60."""
    with mp.workdps(30):
        FixedVarphiTable(6, 2, 2, 500, 1)
    with mp.workdps(60):
        t = FixedVarphiTable(6, 2, 2, 500, 1)
        for q in (2, 3, 360, 499):
            ref = varphi_of(6, 2, 2, q, 1)
            for r in range(2):
                assert abs(varphi_jet(t, q)[r, 0] - ref[r, 0]) < mp.mpf(10) ** -55, (q, r)


@pytest.mark.parametrize("mode", ["mp", "float"])
@pytest.mark.parametrize("Q", [1, 2])
def test_varphi_smallest_tables(Q, mode):
    build, _, partials = FILLS[mode]
    for h in (1, 2):
        t = build(h, 2, 2, Q, 1)
        for q in range(1, Q + 1):
            ref = varphi_of(h, 2, 2, q, 1)
            assert all(abs(varphi_jet(t, q)[r, 0] - ref[r, 0]) < mp.mpf(10) ** -15
                       for r in range(2))
        dp = partials(h, 2, 2, Q, 1, 1)
        direct = sum(varphi_of(h, 2, 2, q, 0)[0, 0] for q in range(1, Q + 1))
        assert abs(dp.jet[0, 0] - direct) < mp.mpf(10) ** -15


@pytest.mark.parametrize("h", [6, 12, 96, 2 * 1009, 10007])
def test_varphi_local_jets_match_the_mpmath_route(h):
    """The closed-form local jets at p^a <= 3000, p | h, as the tables hold
    them, against the mpmath jet route at dps + 20: the integers within
    10^-(dps+10); the float64 jets equal float() of the mpmath jets bit for
    bit, except where the closed form is exactly 0 and the mpmath route
    leaves cancellation noise under 10^-(dps+10)."""
    dps, Q = mp.mp.dps, 3000
    tiny = mp.mpf(10) ** -(dps + 10)
    for k, l in ((2, 2), (3, 2), (3, 3)):
        tm = FixedVarphiTable(h, k, l, Q, k)
        tf = varphi_table(h, k, l, Q, k)
        for p, _ in factorize(h).factors:
            pe, a = p, 1
            while pe <= Q:
                fixed = tm._stored(np.array([pe]))[:, 0]
                floats = tf.columns(np.array([pe]))[:, 0]
                with mp.workdps(dps + 20):
                    ref = [row[0] for row in varphi_prime_power(h, k, l, p, a, k).coeffs]
                    for c, f, r in zip(fixed, floats, ref):
                        assert abs(mp.ldexp(c, -tm.bits) - r) < tiny, (k, l, pe)
                        assert f == float(r) or (f == c == 0 and abs(r) < tiny), (k, l, pe)
                pe, a = pe * p, a + 1


@pytest.mark.parametrize("dps", [30, 40, 60, 100])
def test_mp_partials_within_their_stated_rounding(dps):
    """The fixed-point reference's partials against sum_q varphi_of(q)
    (-log q)^j / j! at dps + 20: within the stated rounding, which is at most
    10^-(dps+10)."""
    for (k, l, h) in ((2, 2, 1), (3, 2, 6), (3, 3, 12)):
        order_w = max(l, k + l - 2)
        for Q in (1, 2, 2000):
            with mp.workdps(dps):
                dp = fixed_partials(h, k, l, Q)
            assert 0 < dp.rounding <= 10.0 ** -(dps + 10), (k, l, h, Q)
            assert dp.tail_bound() == max(max(row) for row in dp.tails) + dp.rounding
            with mp.workdps(dps + 20):
                ref = [[mp.mpf(0)] * (order_w + 1) for _ in range(k + 1)]
                for q in range(1, Q + 1):
                    jet, lq = varphi_of(h, k, l, q, k), -mp.log(q)
                    for j in range(order_w + 1):
                        weight = lq**j / mp.factorial(j)
                        for i in range(k + 1):
                            ref[i][j] += jet[i, 0] * weight
                for i in range(k + 1):
                    for j in range(order_w + 1):
                        assert abs(dp.jet[i, j] - ref[i][j]) <= dp.rounding, (k, l, h, Q, i, j)


@pytest.mark.parametrize("h, k, l", [(1, 2, 2), (6, 3, 2), (12, 3, 3), (2018, 3, 3), (96, 2, 3)])
def test_float_partials_within_their_stated_rounding(h, k, l):
    """The float64 partials against the fixed-point reference's, whose own
    rounding is under 10^-50: the stated rounding is positive, covers the
    difference in every cell and is at most 10^-6 of the tail bound."""
    for Q in (1, 2, 2000, 2 * 10**4, 3 * 10**4):
        dp, ref = dirichlet_partials(h, k, l, Q), fixed_partials(h, k, l, Q)
        assert 0 < dp.rounding <= 1e-6 * dp.tail_bound(), (h, k, l, Q)
        for i in range(k + 1):
            for j in range(max(l, k + l - 2) + 1):
                assert abs(dp.jet[i, j] - ref.jet[i, j]) <= dp.rounding, (h, k, l, Q, i, j)


def test_two_route_identity():
    """Scalar product, jet product, and varphi partial sums all agree."""
    for (k, l) in ((2, 2), (2, 3), (3, 3)):
        for h in (1, 2, 6, 12):
            C, _ = singular_constant(k, l)
            f = singular_shift_factor(h, k, l)
            route1 = C * mp.mpf(f.numerator) / f.denominator
            jet, _ = cf_euler_jet(h, k, l, 1, 1, prime_cutoff=2000)
            route2 = jet[0, 0]
            dp = dirichlet_partials(h, k, l, 20000, 1, 1)
            route3 = dp.jet[0, 0]
            assert abs(route1 - route2) < mp.mpf(10) ** -15, (k, l, h)
            assert abs(route1 - route3) < 3 * dp.tails[0][0] + mp.mpf(10) ** -6, (k, l, h)


def test_dirichlet_partials_basics():
    dp = fixed_partials(1, 2, 2, 5000, 1, 2)
    # (0,0): partial sum toward 6/pi^2
    assert abs(dp.jet[0, 0] - 6 / mp.pi**2) < mp.mpf(10) ** -4
    # (0,1): minus the log-weighted sum, term-wise derivative
    table = FixedVarphiTable(1, 2, 2, 5000, 1)
    manual = mp.mpf(0)
    for q in range(2, 5001):
        manual -= varphi_jet(table, q)[0, 0] * mp.log(q)
    assert abs(dp.jet[0, 1] - manual) < mp.mpf(10) ** -25
    # tails shrink with Q for every log-weight j <= l
    # (absolute-convergence monotonicity, empirically)
    for j in range(3):
        tails = []
        for Q in (500, 5000, 50000):
            d = dirichlet_partials(1, 2, 2, Q, 0, 2)
            tails.append(float(d.tails[0][j]))
        assert tails[0] > tails[1] > tails[2], (j, tails)


def test_partials_match_w_finite_differences():
    """d/dw of the scalar truncated sum vs the jet coefficient, 1e-6 relative."""
    Q = 2000
    table = varphi_table(1, 2, 2, Q, 0)
    eps = mp.mpf(10) ** -6

    def scalar(w):
        return sum(varphi_jet(table, q)[0, 0] * mp.power(q, -w) for q in range(1, Q + 1))

    dp = dirichlet_partials(1, 2, 2, Q, 0, 1)
    fd = (scalar(eps) - scalar(-eps)) / (2 * eps)
    assert abs(fd - dp.jet[0, 1]) / abs(fd) < mp.mpf(10) ** -6


def test_phi_partial_sum_growth():
    """Z(1,Q) = sum_{q<=Q} phi(1,q) grows like C f log^(l-1)Q / (l-1)!."""
    from second_routes import phi_partial_sum_jet

    C, _ = singular_constant(2, 2)
    gaps = []
    for Q in (2000, 20000):
        z = phi_partial_sum_jet(1, 2, 2, Q, 0)[0, 0]
        gaps.append(abs(z / mp.log(Q) - C))
    assert gaps[1] < gaps[0]
    assert gaps[1] < mp.mpf("0.1")


def test_varphi_table_budget():
    from divcorr.errors import ResourceBudgetError

    with pytest.raises(ResourceBudgetError):
        varphi_table(1, 2, 2, 10**7 + 1, 1)


def test_singular_series_record_json():
    rec = evaluate_singular_series(6, 2, 2, Q=2000, P=2000)
    blob = rec.to_json()
    import json

    data = json.loads(blob)
    assert data["k"] == 2 and data["h"] == 6
    assert abs(mp.mpf(data["C"]) - 6 / mp.pi**2) < mp.mpf(10) ** -20
    assert abs(mp.mpf(data["f"]) - 2) < mp.mpf(10) ** -20
    assert len(data["partials"]) == rec.partials.jet.order_t + 1
