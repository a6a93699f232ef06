"""Singular series: Euler products, local jets, Dirichlet coefficients."""

from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np
import pytest

from divcorr.arith import dk_of_factored, factorize, primes_up_to, sigma_minus1_exact
from divcorr.euler import (
    DEFAULT_PRIME_CUTOFF,
    _SERIES_DEGREE,
    _c_euler_base,
    _c_factor_poly,
    _c_scalar,
    _poly_log_series,
    _prime_tail_log_jet,
    _scalar_tail_bound,
    _varphi_base,
    c_local_jet,
    cf_euler_jet,
    cf_local_jet,
    dirichlet_partials,
    evaluate_singular_series,
    f_local_jet,
    local_factor_cf,
    phi_local,
    phi_of,
    singular_constant,
    singular_shift_factor,
    varphi_of,
    varphi_table,
)
from divcorr.jets import Jet2, PowerJet

TIGHT = mp.mpf(10) ** -30


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


def test_local_factor_constant_coeffs():
    for p in (2, 3, 13):
        loc = c_local_jet(p, 2, 2, 2, 2)
        assert abs(loc[0, 0] - (1 - mp.mpf(p) ** -2)) < TIGHT
        unit = cf_local_jet(p, 0, 1, 1, 2, 2)
        assert abs(unit[0, 0] - 1) < TIGHT
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert abs(unit[i, j]) < TIGHT


def test_display_grouping_forms_agree():
    """The two printed groupings of the C-factor are the same function."""
    for p in (2, 7, 31):
        for (k, l) in ((2, 2), (3, 2), (3, 4)):
            a = c_local_jet(p, k, l, 2, 2, form="grouped")
            b = c_local_jet(p, k, l, 2, 2, form="split")
            for i in range(3):
                for j in range(3):
                    assert abs(a[i, j] - b[i, j]) < TIGHT


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
            prod = prod * cf_local_jet(p, hfac.exponent_of(p), k, l, order_t, order_w)
        corr, _ = _prime_tail_log_jet(k, l, order_t, order_w, prime_cutoff,
                                      mp.mp.dps, _SERIES_DEGREE)
        prod = prod * corr.exp()
        for p, gamma in hfac.factors:
            if p > prime_cutoff:
                prod = prod * cf_local_jet(p, gamma, k, l, order_t, order_w)
                prod = prod / c_local_jet(p, k, l, order_t, order_w)
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
    ref, ref_bound = _c_euler_base(k, l, order_t, order_w, 10**4, dps, 18)
    with mp.workdps(dps + 10):
        for p, gamma in factorize(h).factors:
            ref = ref * cf_local_jet(p, gamma, k, l, order_t, order_w)
            ref = ref / c_local_jet(p, k, l, order_t, order_w)
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
        assert ref_bound < bound / 1000
        assert bound <= old_bound
        assert _max_diff(got, ref) <= bound, (h, _max_diff(got, ref), bound)


@pytest.mark.parametrize("k,l", [(2, 2), (3, 2), (3, 3), (4, 4), (5, 5), (16, 2),
                                 (16, 16), (30, 30)])
def test_singular_constant_bound_is_honest(k, l):
    """The scalar tail series grows with k and l until its bound meets the
    working precision: no PrecisionError (16,16 raised at a fixed degree
    14), a bound no looser than the old truncation's (P = 10^4, order 12)
    and covering the distance to a reference at P = 10^4, order 30."""
    dps = 50
    g = _poly_log_series(_c_factor_poly(k, l), 30)
    # the constant carries more digits than dps: compare it above dps
    with mp.workdps(dps + 20):
        C, bound = singular_constant(k, l, dps=dps)
        ref = _c_scalar(k, l, 10**4, 30, dps + 10)
        assert bound <= mp.mpf(10) ** -dps
        assert bound <= _scalar_tail_bound(g, 12, 10**4)
        assert _scalar_tail_bound(g, 30, 10**4) < bound / 1000
        assert abs(C - ref) <= bound, (abs(C - ref), bound)


def test_local_factor_cf_wrapper():
    lf = local_factor_cf(3, 18, 2, 2, 1, 1)
    assert lf.p == 3 and lf.gamma == 2
    direct = cf_local_jet(3, 2, 2, 2, 1, 1)
    assert abs(lf.value[0, 0] - direct[0, 0]) < TIGHT


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
        jet = f_local_jet(p, gamma, k, l, 2, 2)
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
        jet = f_local_jet(p, 1, 2, 2, 2, 2)
        got = 2 * jet.partial(0, 1) + jet.partial(1, 0)
        want = -4 * (mp.log(p) / p)  # -4 sigma'_{-1}(p)
        assert abs(got - want) < mp.mpf(10) ** -25, p


def test_phi_local_cases():
    """Re-derived local values: the multiplicative summand at prime powers."""
    # p not dividing h: d_{l-1}(p^a)/phi(p^a) * (1 - 1/p)^k at s = 1
    for p in (3, 7):
        jet = phi_local(1, 2, 2, p, 1, 2)
        expect = mp.mpf(1) / (p - 1) * (1 - mp.mpf(1) / p) ** 2
        assert abs(jet[0] - expect) < TIGHT
    # p | h, alpha <= gamma: 1 - (1 - 1/p)^k
    for p in (2, 7):
        jet = phi_local(p, 2, 2, p, 1, 2)
        assert abs(jet[0] - (1 - (1 - mp.mpf(1) / p) ** 2)) < TIGHT
    # p | h, alpha > gamma: explicit case-three value
    jet = phi_local(2, 2, 2, 2, 3, 1)
    # d_1(8)/phi(4) * (1 - 1/2)^2 * d_2(2) * 2^(-1) = 1/8
    expect = mp.mpf(1) / 2 * (mp.mpf(1) / 4) * 2 * (mp.mpf(1) / 2)
    assert abs(jet[0] - expect) < TIGHT


def test_phi_multiplicativity():
    for h in (1, 6):
        a = phi_of(h, 2, 2, 6, 2)
        b = phi_of(h, 2, 2, 2, 2) * phi_of(h, 2, 2, 3, 2)
        for r in range(3):
            assert abs(a[r] - b[r]) < TIGHT


def test_varphi_unit_and_multiplicativity():
    table = varphi_table(1, 2, 2, 100, 2, mode="mp")
    unit = table.jet(1)
    assert unit[0] == 1 and unit[1] == 0
    for (r, t) in ((4, 9), (5, 12), (7, 13)):
        a = varphi_of(2, 2, 2, r * t, 2)
        b = varphi_of(2, 2, 2, r, 2) * varphi_of(2, 2, 2, t, 2)
        for i in range(3):
            assert abs(a[i] - b[i]) < TIGHT


def test_dirichlet_convolution_identity():
    """phi(s,q) = sum_{d|q} varphi(d,s) d_{l-1}(q/d)/(q/d) for q <= 200."""
    for (h, k, l) in ((1, 2, 2), (2, 2, 3), (6, 3, 2)):
        for q in range(1, 201):
            lhs = phi_of(h, k, l, q, 1)
            rhs = PowerJet.constant(0, 1)
            for d in factorize(q).divisors():
                m = q // d
                dl1 = dk_of_factored(l - 1, factorize(m)) if l >= 2 else (1 if m == 1 else 0)
                if dl1:
                    rhs = rhs + varphi_of(h, k, l, d, 1) * (mp.mpf(dl1) / m)
            for r in range(2):
                assert abs(lhs[r] - rhs[r]) < TIGHT, (h, k, l, q)


def test_varphi_float_matches_mp():
    """Both table modes against the per-q product varphi_of, at every q <= Q."""
    Q = 3000
    for (h, k, l) in ((1, 2, 2), (6, 3, 2), (96, 2, 3), (2 * 1009, 3, 3), (10007, 3, 2)):
        tm = varphi_table(h, k, l, Q, 2, mode="mp")
        tf = varphi_table(h, k, l, Q, 2, mode="float")
        for q in range(1, Q + 1):
            ref, a, b = varphi_of(h, k, l, q, 2), tm.jet(q), tf.jet(q)
            for r in range(3):
                assert abs(a[r] - ref[r]) < TIGHT, (h, k, l, q, r)
                assert abs(b[r] - ref[r]) < mp.mpf(10) ** -13, (h, k, l, q, r)


def _cold_rows(h, k, l, Q, order_s, mode):
    _varphi_base.cache_clear()
    t = varphi_table(h, k, l, Q, order_s, mode)
    return [t.coefficient_array(i) for i in range(order_s + 1)]


@pytest.mark.parametrize("mode", ["mp", "float"])
def test_varphi_shared_base_is_bit_identical_and_protected(mode):
    """h = 6, then 1, then 6 on one shared base equal cold builds bit for bit,
    and writing into what a table returns does not reach the next table."""
    Q = 2000
    cold = {h: _cold_rows(h, 3, 2, Q, 3, mode) for h in (6, 1)}
    _varphi_base.cache_clear()
    for h in (6, 1, 6):
        t = varphi_table(h, 3, 2, Q, 3, mode)
        for i in range(4):
            row = t.coefficient_array(i)
            assert row.dtype == cold[h][i].dtype
            assert all(row == cold[h][i]), (h, i)
            row[:] = 7
        t.columns(np.arange(Q + 1))[:] = 7
        t.jet(12).coeffs[0] = 7
    assert _varphi_base.cache_info().misses == 1
    with pytest.raises(ValueError):
        t._base[0, 2] = 7
    t = varphi_table(6, 3, 2, Q, 3, mode)
    assert all(all(t.coefficient_array(i) == cold[6][i]) for i in range(4))


def test_varphi_mp_table_follows_precision():
    """A table built at 30 digits is not reused at 60."""
    with mp.workdps(30):
        varphi_table(6, 2, 2, 500, 1, mode="mp")
    with mp.workdps(60):
        t = varphi_table(6, 2, 2, 500, 1, mode="mp")
        for q in (2, 3, 360, 499):
            ref = varphi_of(6, 2, 2, q, 1)
            for r in range(2):
                assert abs(t.jet(q)[r] - ref[r]) < mp.mpf(10) ** -55, (q, r)


@pytest.mark.parametrize("mode", ["mp", "float"])
@pytest.mark.parametrize("Q", [1, 2])
def test_varphi_smallest_tables(Q, mode):
    for h in (1, 2):
        t = varphi_table(h, 2, 2, Q, 1, mode=mode)
        for q in range(1, Q + 1):
            ref = varphi_of(h, 2, 2, q, 1)
            assert all(abs(t.jet(q)[r] - ref[r]) < mp.mpf(10) ** -15 for r in range(2))
        dp = dirichlet_partials(h, 2, 2, Q, 1, 1, mode=mode)
        direct = sum(varphi_of(h, 2, 2, q, 0)[0] for q in range(1, Q + 1))
        assert abs(dp.jet[0, 0] - direct) < mp.mpf(10) ** -15


def test_two_route_identity():
    """Scalar product, jet product, and varphi partial sums all agree."""
    for (k, l) in ((2, 2), (2, 3), (3, 3)):
        for h in (1, 2, 6, 12):
            C, _ = singular_constant(k, l)
            f = singular_shift_factor(h, k, l)
            route1 = C * mp.mpf(f.numerator) / f.denominator
            jet, _ = cf_euler_jet(h, k, l, 1, 1, prime_cutoff=2000)
            route2 = jet[0, 0]
            dp = dirichlet_partials(h, k, l, 20000, 1, 1, mode="mp")
            route3 = dp.jet[0, 0]
            assert abs(route1 - route2) < mp.mpf(10) ** -15, (k, l, h)
            assert abs(route1 - route3) < 3 * dp.tails[0][0] + mp.mpf(10) ** -6, (k, l, h)


def test_dirichlet_partials_basics():
    dp = dirichlet_partials(1, 2, 2, 5000, 1, 2, mode="mp")
    # (0,0): partial sum toward 6/pi^2
    assert abs(dp.jet[0, 0] - 6 / mp.pi**2) < mp.mpf(10) ** -4
    # (0,1): minus the log-weighted sum, term-wise derivative
    table = varphi_table(1, 2, 2, 5000, 1, mode="mp")
    manual = mp.mpf(0)
    for q in range(2, 5001):
        manual -= table.jet(q)[0] * mp.log(q)
    assert abs(dp.jet[0, 1] - manual) < mp.mpf(10) ** -25
    # tails shrink with Q for every log-weight j <= l
    # (absolute-convergence monotonicity, empirically)
    for j in range(3):
        tails = []
        for Q in (500, 5000, 50000):
            d = dirichlet_partials(1, 2, 2, Q, 0, 2, mode="mp" if Q <= 30000 else "float")
            tails.append(float(d.tails[0][j]))
        assert tails[0] > tails[1] > tails[2], (j, tails)


def test_partials_match_w_finite_differences():
    """d/dw of the scalar truncated sum vs the jet coefficient, 1e-6 relative."""
    Q = 2000
    table = varphi_table(1, 2, 2, Q, 0, mode="mp")
    eps = mp.mpf(10) ** -6

    def scalar(w):
        return sum(table.jet(q)[0] * mp.power(q, -w) for q in range(1, Q + 1))

    dp = dirichlet_partials(1, 2, 2, Q, 0, 1, mode="mp")
    fd = (scalar(eps) - scalar(-eps)) / (2 * eps)
    assert abs(fd - dp.jet[0, 1]) / abs(fd) < mp.mpf(10) ** -6


def test_phi_partial_sum_growth():
    """Z(1,Q) = sum_{q<=Q} phi(1,q) grows like C f log^(l-1)Q / (l-1)!."""
    from divcorr.oracle import phi_partial_sum_jet

    C, _ = singular_constant(2, 2)
    gaps = []
    for Q in (2000, 20000):
        z = phi_partial_sum_jet(1, 2, 2, Q, 0)[0]
        gaps.append(abs(z / mp.log(Q) - C))
    assert gaps[1] < gaps[0]
    assert gaps[1] < mp.mpf("0.1")


def test_varphi_table_budget():
    from divcorr.errors import ResourceBudgetError

    with pytest.raises(ResourceBudgetError):
        varphi_table(1, 2, 2, 10**7 + 1, 1, mode="float")


def test_dirichlet_partials_tolerance_warning():
    """An unreachable tolerance attaches a warning but still returns data."""
    from divcorr.errors import PrecisionWarning

    with pytest.warns(PrecisionWarning):
        dp = dirichlet_partials(1, 2, 2, 500, 0, 1, mode="mp", tol=1e-12)
    assert dp.jet[0, 0] > 0


def test_singular_series_record_json():
    rec = evaluate_singular_series(6, 2, 2, Q=2000, P=2000)
    blob = rec.to_json()
    import json

    data = json.loads(blob)
    assert data["k"] == 2 and data["h"] == 6
    assert abs(mp.mpf(data["C"]) - 6 / mp.pi**2) < mp.mpf(10) ** -20
    assert abs(mp.mpf(data["f"]) - 2) < mp.mpf(10) ** -20
    assert len(data["partials"]) == rec.partials.jet.order_t + 1
