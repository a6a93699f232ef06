"""Coefficient ledgers, the asymptotic polynomial, and closed-form checks."""

import json
from fractions import Fraction

import mpmath as mp
import pytest

from divcorr.arith import RationalExponent
from divcorr.asympt import (
    a_coefficient,
    ap_main_term,
    b_coefficient,
    bareikis_cdf,
    coefficient_context,
    conjecture_leading,
    corollary_lower_bound,
    correlation_leading,
    correlation_validity,
    estermann_assembled,
    estermann_closed_forms,
    estermann_coefficients,
    main_polynomial,
    partial_vs_full_leading_gap,
    theta_base,
    theta_exponent,
)
from divcorr.euler import singular_constant, singular_shift_factor
from divcorr.zeta_series import euler_gamma
from second_routes import bareikis_cdf_quadrature


def ctx_for(h, k, l):
    return coefficient_context(h, k, l, source="euler", prime_cutoff=2000)


def test_theta_table_exact():
    assert theta_base(2) == Fraction(2, 3)
    assert theta_base(3) == Fraction(21, 41)
    assert theta_base(4) == Fraction(1, 2)
    assert theta_base(5) == Fraction(9, 20)
    assert theta_base(6) == Fraction(5, 12)
    assert theta_base(7) == Fraction(8, 21)
    assert theta_base(9) == Fraction(8, 27)
    with pytest.raises(ValueError):
        theta_base(1)


def test_theta_exponent():
    assert theta_exponent(2, 0) == Fraction(2, 3)
    assert theta_exponent(3, Fraction(9, 10)) == Fraction(21, 41)
    assert theta_exponent(7, 0) == Fraction(8, 21)
    # the combined form interpolates toward 1/k as the gcd grows
    assert theta_exponent(2, Fraction(1, 2)) == Fraction(2, 3) - Fraction(1, 3) * Fraction(1, 2)
    assert theta_exponent(4, 1) == Fraction(1, 4)  # floor at 1/k
    with pytest.raises(ValueError):
        theta_exponent(1, 0)
    # values in (0, 1], nonincreasing in k within the tabulated family
    vals = [theta_exponent(k, 0) for k in range(4, 12)]
    assert all(0 < v <= 1 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_b_top_equals_singular_product():
    for (k, l, h) in ((2, 2, 1), (2, 2, 6), (3, 3, 2)):
        ctx = ctx_for(h, k, l)
        b_top = b_coefficient(ctx, k - 1, l - 1)
        C, _ = singular_constant(k, l)
        f = singular_shift_factor(h, k, l)
        want = C * mp.mpf(f.numerator) / f.denominator
        assert abs(b_top - want) < mp.mpf(10) ** -15, (k, l, h)


def test_b_2211_is_sigma():
    from divcorr.arith import sigma_minus1_moments

    for h in (1, 2, 12, 49):
        ctx = ctx_for(h, 2, 2)
        got = b_coefficient(ctx, 1, 1)
        want = 6 / mp.pi**2 * sigma_minus1_moments(h)[0]
        assert abs(got - want) < mp.mpf(10) ** -15, h


def test_a_coefficient_classical_values():
    """Hand-derived k = l = 2 specializations of the boundary ledger."""
    with mp.workdps(30):
        g = euler_gamma()
    for h in (1, 6):
        ctx = ctx_for(h, 2, 2)
        CF = ctx.partials[0, 0]
        dsCF = ctx.partials.partial(1, 0)
        for Astr in ("1/2", "1/3"):
            A = RationalExponent.parse(Astr)
            Af = A.mpf()
            a1 = a_coefficient(ctx, A, 1)
            assert abs(a1 - (-Af * CF)) < mp.mpf(10) ** -25
            a0 = a_coefficient(ctx, A, 0)
            want = Af * ((2 - 2 * g) * CF - dsCF)
            assert abs(a0 - want) < mp.mpf(10) ** -25


def test_a_coefficient_index_guards():
    ctx = ctx_for(1, 2, 2)
    with pytest.raises(ValueError):
        a_coefficient(ctx, RationalExponent(1, 2), 2)  # m > k+l-3
    with pytest.raises(ValueError):
        b_coefficient(ctx, 2, 0)


def test_main_polynomial_leading():
    for (k, l) in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for Astr in ("1/2", "1/3"):
            for h in (1, 2, 6):
                A = RationalExponent.parse(Astr)
                poly = main_polynomial(A, ctx_for(h, k, l))
                assert poly.degree == k + l - 2
                want = A.mpf() ** (l - 1) * conjecture_leading(h, k, l)
                assert abs(poly.leading() - want) < mp.mpf(10) ** -9, (k, l, h, Astr)


def test_b_block_A_scaling():
    """The (m, n) block scales exactly as A^n between two values of A."""
    h, k, l = 2, 2, 3
    ctx = ctx_for(h, k, l)
    p1 = main_polynomial(RationalExponent(1, 2), ctx)
    p2 = main_polynomial(RationalExponent(1, 3), ctx)

    def b_parts(poly):
        out = {}
        for d, contribs in enumerate(poly.provenance):
            for t in contribs:
                if t[0] == "b":
                    out[(t[1], t[2])] = t[3]
        return out

    b1, b2 = b_parts(p1), b_parts(p2)
    for (m, n), v1 in b1.items():
        v2 = b2[(m, n)]
        if abs(v1) > mp.mpf(10) ** -25:
            ratio = v2 / v1
            want = (mp.mpf(1) / 3) ** n / (mp.mpf(1) / 2) ** n
            assert abs(ratio - want) < mp.mpf(10) ** -20, (m, n)


def test_polynomial_validity_flag():
    inside = main_polynomial(RationalExponent(1, 2), ctx_for(1, 2, 2))
    assert inside.in_proven_range  # 1/2 < theta_2 = 2/3
    outside = main_polynomial(RationalExponent(3, 4), ctx_for(1, 2, 2))
    assert not outside.in_proven_range


def test_polynomial_json_provenance():
    poly = main_polynomial(RationalExponent(1, 2), ctx_for(1, 2, 2))
    data = json.loads(poly.to_json())
    assert data["degree"] == 2
    assert data["A"] == "1/2"
    terms = [t["term"] for t in data["provenance"][1]]
    assert "b" in terms and "a" in terms


def test_conjecture_leading_examples():
    assert abs(conjecture_leading(1, 2, 2) - 6 / mp.pi**2) < mp.mpf(10) ** -20
    assert abs(conjecture_leading(6, 2, 2) - 12 / mp.pi**2) < mp.mpf(10) ** -20
    C33, _ = singular_constant(3, 3)
    assert abs(conjecture_leading(1, 3, 3) - C33 / 4) < mp.mpf(10) ** -20


def test_corollary_lower_bound():
    pref = (mp.mpf(21) / 41) ** 2
    assert mp.nstr(pref, 3) == "0.262"
    C33, _ = singular_constant(3, 3)
    got = corollary_lower_bound(1, 3, 3)
    assert abs(got - pref * C33 / 4) < mp.mpf(10) ** -20
    for (h, k, l) in ((1, 2, 2), (6, 2, 3), (2, 3, 3)):
        assert corollary_lower_bound(h, k, l) <= conjecture_leading(h, k, l)


def test_estermann_two_routes_tight():
    """Euler-product partials: both routes to 1e-9 (far tighter than the gate)."""
    for h in range(1, 21):
        chk = estermann_coefficients(ctx_for(h, 2, 2))
        assert chk.max_diff < mp.mpf(10) ** -9, h
        assert chk.ok


def test_estermann_closed_form_structure():
    """h-dependence enters the closed forms only through the sigma moments."""
    with mp.workdps(30):
        g = euler_gamma()
    from divcorr.zeta_series import estermann_a_constants

    ap, app = estermann_a_constants()
    c2, c1, c0 = estermann_closed_forms(1)
    six = 6 / mp.pi**2
    assert abs(c2 - six) < mp.mpf(10) ** -25
    want_c0 = six * (2 * g - 1) ** 2 + six + 4 * ap * (2 * g - 1) + 4 * app
    assert abs(c0 - want_c0) < mp.mpf(10) ** -25
    # h = 4 vs h = 1 differ through sigma moments only
    from divcorr.arith import sigma_minus1_moments

    s0, s1, s2 = sigma_minus1_moments(4)
    d2, d1, d0 = estermann_closed_forms(4)
    assert abs(d2 - six * s0) < mp.mpf(10) ** -25
    assert abs((d1 - c1 * s0) - (-4 * six * s1)) < mp.mpf(10) ** -25


def test_estermann_closed_forms_follow_dps():
    """At 60 working digits the closed forms match gamma and zeta(2)
    derivatives to 1e-55."""
    from divcorr.arith import sigma_minus1_moments

    h = 6
    with mp.workdps(80):
        g = mp.euler
        z, z1, z2 = mp.zeta(2), mp.zeta(2, derivative=1), mp.zeta(2, derivative=2)
        ap, app = -z1 / z**2, (2 * z1**2 - z2 * z) / z**3
        s0, s1, s2 = sigma_minus1_moments(h)
        six = 6 / mp.pi**2
        want = (
            six * s0,
            (2 * six * (2 * g - 1) + 4 * ap) * s0 - 4 * six * s1,
            (six * (2 * g - 1) ** 2 + six + 4 * ap * (2 * g - 1) + 4 * app) * s0
            - (4 * six * (2 * g - 1) + 8 * ap) * s1 + 4 * six * s2,
        )
    with mp.workdps(60):
        got = estermann_closed_forms(h)
    for c, w in zip(got, want):
        assert abs(c - w) < mp.mpf(10) ** -55


def test_estermann_consistency_error():
    """A sabotaged partial fails the check, which is returned, not raised:
    the CLI writes the report, then exits 5."""
    ctx = ctx_for(3, 2, 2)
    ctx.partials.coeffs[0][0] += mp.mpf("1e-3")  # sabotage one partial
    chk = estermann_coefficients(ctx)
    assert not chk.ok and chk.h == 3


def test_estermann_refuses_a_context_not_for_2_2():
    """The routes read (h, k, l) from the context; one built for (3, 2) is
    refused."""
    ctx = ctx_for(1, 3, 2)
    for call in (lambda: estermann_assembled(ctx), lambda: estermann_coefficients(ctx)):
        with pytest.raises(ValueError, match=r"\(k, l\) = \(2, 2\)"):
            call()
    assert main_polynomial("1/2", ctx).h == 1


def test_corollary3_cancellation():
    for (k, l) in ((2, 2), (3, 2)):
        for h in (1, 2):
            gap = partial_vs_full_leading_gap(h, k, l, "2/3", "1/4")
            assert abs(gap) < mp.mpf(10) ** -9, (k, l, h)


def test_correlation_validity_ranges():
    assert correlation_validity(2, 2, RationalExponent(1, 1), RationalExponent(1, 4))
    assert not correlation_validity(2, 2, RationalExponent(1, 1), RationalExponent(2, 3))
    # B must clear A * theta_{k-1} too
    assert not correlation_validity(3, 2, RationalExponent(1, 3), RationalExponent(1, 4))


def test_bareikis_values():
    assert abs(bareikis_cdf(2, "1/2") - mp.mpf(1) / 2) < mp.mpf(10) ** -25
    assert bareikis_cdf(5, 1) == 1
    assert bareikis_cdf(3, 0) == 0
    third = bareikis_cdf(2, "1/4")
    assert abs(third - mp.mpf(1) / 3) < mp.mpf(10) ** -25
    # closed arcsine form at k = 2
    for Astr in ("1/8", "2/5", "7/9"):
        A = RationalExponent.parse(Astr)
        got = bareikis_cdf(2, A)
        want = 2 / mp.pi * mp.asin(mp.sqrt(A.mpf()))
        assert abs(got - want) < mp.mpf(10) ** -25
    with pytest.raises(ValueError):
        bareikis_cdf(1, "1/2")


def test_bareikis_quadrature_oracle():
    for (k, Astr) in ((2, "1/4"), (3, "1/2"), (4, "2/3"), (5, "1/5")):
        a = bareikis_cdf(k, Astr)
        b = bareikis_cdf_quadrature(k, Astr)
        assert abs(a - b) < mp.mpf(10) ** -20, (k, Astr)


def test_ap_main_term():
    # q = 1 reduces to x * sum_{n <= x^A} d_{k-1}(n)/n
    mt = ap_main_term(1000, 1, 0, 2, "1/2")
    want = 1000 * sum(mp.mpf(1) / n for n in range(1, 32))
    assert abs(mt.value - want) < mp.mpf(10) ** -20
    assert not mt.residue_ok  # h = 0 mod 1 is flagged
    mt2 = ap_main_term(1000, 7, 3, 2, "1/2")
    assert mt2.residue_ok
    # gcd condition: only (n, q) | h survive
    mt3 = ap_main_term(100, 4, 2, 2, "1/2")
    total = Fraction(0)
    for n in range(1, 11):
        from math import gcd

        g = gcd(n, 4)
        if 2 % g == 0:
            total += Fraction(g, n)  # d_1(n) = 1
    want3 = mp.mpf(100) / 4 * mp.mpf(total.numerator) / total.denominator
    assert abs(mt3.value - want3) < mp.mpf(10) ** -20


@pytest.mark.parametrize("k", [1, 3, 4])
def test_ap_main_term_matches_the_exact_sum(k):
    """The fixed-point n-sum against the exact rational one, with d_{k-1}
    from factorization: to the working precision."""
    from math import gcd

    from divcorr.arith import dk_of_factored, factorize

    x, q, h = 10**4, 6, 2
    total = Fraction(0)
    for n in range(1, 465):  # n <= x^(2/3)
        if h % gcd(n, q) == 0:
            d = dk_of_factored(k - 1, factorize(n)) if k > 1 else int(n == 1)
            total += Fraction(gcd(n, q) * d, n)
    want = mp.mpf(x) / q * mp.mpf(total.numerator) / total.denominator
    assert abs(ap_main_term(x, q, h, k, "2/3").value / want - 1) < mp.mpf(10) ** -38
