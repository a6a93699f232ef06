"""Stieltjes constants, zeta-power Taylor data, prime-zeta moments."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from divcorr.arith import primes_up_to
from divcorr.errors import PrecisionError
from divcorr.euler import PrimeTailMoments
from divcorr.zeta_series import (
    _zeta_taylor,
    c_coeffs,
    estermann_a_constants,
    euler_gamma,
    fixed_log,
    fixed_logs,
    inverse_zeta_jet_at_2,
    log_powers,
    mobius_sieve,
    stieltjes_table,
    zeta_jet,
    zeta_laurent_jet,
    zeta_power_coeffs,
)
from second_routes import (
    c_coeffs_via_division,
    jet_eval,
    jet_log,
    log_powers_mpf,
    mobius_log_moment_sieve,
    zeta_taylor_mpf,
)

# Regression fixture: gamma_0..gamma_5 at 30 digits from the Euler-Maclaurin
# run, cross-checked against an independent high-precision evaluation.
GAMMA_FIXTURE = [
    "0.577215664901532860606512090082",
    "-0.0728158454836767248605863758749",
    "-0.00969036319287231848453038603521",
    "0.00205383442030334586616004654275",
    "0.00232537006546730005746817017752",
    "0.000793323817301062701753334877444",
]


def test_stieltjes_fixture():
    table = stieltjes_table(5, 30)
    for got, want in zip(table, GAMMA_FIXTURE):
        assert abs(got - mp.mpf(want)) < mp.mpf(10) ** -29


def test_stieltjes_against_independent_oracle():
    """Euler-Maclaurin values vs mpmath's own algorithm at doubled precision."""
    with mp.workdps(80):
        table = stieltjes_table(12, 35)
        for m, got in enumerate(table):
            want = mp.stieltjes(m)
            assert abs(got - want) < mp.mpf(10) ** -34, m


def test_stieltjes_shape_and_ceilings():
    assert len(stieltjes_table(0, 20)) == 1
    with pytest.raises(PrecisionError):
        stieltjes_table(31, 30)
    with pytest.raises(PrecisionError):
        stieltjes_table(3, 101)


def test_stieltjes_at_the_digit_ceiling():
    """gamma_0..gamma_6 at 100 digits, as `--dps` up to 100 asks for."""
    table = stieltjes_table(6, 100)
    with mp.workdps(110):
        for m, got in enumerate(table):
            assert abs(got - mp.stieltjes(m)) < mp.mpf(10) ** -99, m


@pytest.mark.parametrize("m", [11, 20, 30])
def test_stieltjes_high_index_at_the_digit_ceiling(m):
    """gamma_11..gamma_30 at 100 digits: at the fixed depth N = 120 the
    Euler-Maclaurin tail stopped short of 10^-100 for these and the table
    raised PrecisionError; the depth now grows with m and digits."""
    got = stieltjes_table(m, 100)[m]
    with mp.workdps(110):
        assert abs(got - mp.stieltjes(m)) < mp.mpf(10) ** -99


def test_euler_gamma_matches_mpmath():
    assert abs(euler_gamma(30) - mp.euler) < mp.mpf(10) ** -29


def test_zeta_laurent_jet_values():
    """(s-1) zeta(s) at s = 1 + t for small t, against direct evaluation."""
    jet = zeta_laurent_jet(8)
    for tval in ("0.05", "-0.03"):
        t = mp.mpf(tval)
        direct = t * mp.zeta(1 + t)
        series = jet_eval(jet, t, 0)
        assert abs(direct - series) < mp.mpf(10) ** -9


def test_zeta_power_coeffs():
    g = euler_gamma(30)
    for j in range(7):
        a = zeta_power_coeffs(j, 4)
        assert a[0] == 1
    assert abs(zeta_power_coeffs(1, 2)[1] - g) < mp.mpf(10) ** -30
    assert abs(zeta_power_coeffs(2, 2)[1] - 2 * g) < mp.mpf(10) ** -30
    a0 = zeta_power_coeffs(0, 4)
    assert a0[0] == 1 and all(v == 0 for v in a0[1:])


def test_c_coeffs_values():
    g = euler_gamma(30)
    for j in range(7):
        assert c_coeffs(j, 0)[0] == 1
    c = c_coeffs(2, 1)
    assert abs(c[1] - (2 * g - 1)) < mp.mpf(10) ** -30
    c1 = c_coeffs(1, 1)
    assert abs(c1[1] - (g - 1)) < mp.mpf(10) ** -30


def test_c_coeffs_against_jet_division():
    """Alternating-sum route vs division by s = 1 + t, at 30-digit precision."""
    with mp.workdps(30):
        for j in range(6):
            alt = c_coeffs(j, 6)
            div = c_coeffs_via_division(j, 6)
            for n in range(7):
                assert abs(alt[n] - div[n]) < mp.mpf(10) ** -20, (j, n)


@lru_cache(maxsize=None)
def prime_power_log_moments(m: int, d_max: int, dps: int = 40) -> tuple:
    """pi_d(m) = sum_p (log p)^d p^(-m) for d = 0..d_max, via the prime zeta
    function P(s) = sum_n mu(n)/n log zeta(n s) expanded at s = m: the
    Moebius route over all primes, a second route to the prime-tail moments."""
    mob = mobius_sieve(256)
    with mp.workdps(dps + 10):
        coeffs = [mp.mpf(0)] * (d_max + 1)
        eps = mp.mpf(10) ** (-(dps + 8))
        cutoff = (dps + 12) * 3.33 + 4
        for n in range(1, 257):
            if mob[n] == 0:
                continue
            if n * m > cutoff:
                break
            ljet = jet_log(zeta_jet(n * m, d_max, dps + 10))
            for d in range(d_max + 1):
                coeffs[d] += int(mob[n]) * ljet[d, 0] * n**d / n
            if abs(ljet[0, 0]) / n < eps and n > 4:
                break
        # P(m + tau) jet coefficient d equals (-1)^d pi_d(m) / d!
        return tuple((-1) ** d * mp.factorial(d) * coeffs[d] for d in range(d_max + 1))


def test_prime_zeta_moments():
    assert abs(prime_power_log_moments(2, 0)[0] - mp.primezeta(2)) < mp.mpf(10) ** -35
    assert abs(prime_power_log_moments(3, 0)[0] - mp.primezeta(3)) < mp.mpf(10) ** -35
    # d >= 1 moments against direct prime sums (float reference)
    from divcorr.arith import primes_up_to

    ps = primes_up_to(2 * 10**6).astype(np.float64)
    for m, d in ((2, 1), (2, 2), (3, 1)):
        direct = float(np.sum(np.log(ps) ** d / ps**m))
        got = float(prime_power_log_moments(m, d)[d])
        tail = (np.log(2e6) ** d) / (2e6 ** (m - 1) * (m - 1))
        assert abs(direct - got) < max(5 * tail, 1e-12), (m, d)


@pytest.mark.parametrize("P,m_max,d_max,dps", [(10**3, 14, 6, 30), (10**3, 14, 4, 30),
                                                (10**4, 18, 6, 30), (10**3, 42, 0, 40)])
def test_prime_tail_moments(P, m_max, d_max, dps):
    """Every moment lies within 10^-(dps+5) of the same series at dps + 25
    (the last case has the shape of the scalar constant's); for m = 2, 3, 7,
    that reference plus the partial sum over p <= P is the full prime-zeta
    moment of the Moebius route, pi_d(m)."""
    got = PrimeTailMoments(P, m_max, d_max, dps)
    ref = PrimeTailMoments(P, m_max, d_max, dps + 25)
    for m in range(2, m_max + 1):
        for d in range(d_max + 1):
            assert abs(got.tail(m, d) - ref.tail(m, d)) < mp.mpf(10) ** -(dps + 5), (m, d)
    with mp.workdps(dps + 10):
        logs = [mp.log(int(p)) for p in primes_up_to(P)]
        for m in (2, 3, 7):
            full = prime_power_log_moments(m, d_max, dps + 5)
            for d in range(d_max + 1):
                partial = mp.fsum(L**d * mp.exp(-m * L) for L in logs)
                assert abs(ref.tail(m, d) + partial - full[d]) < mp.mpf(10) ** -(dps + 3), (m, d)


@pytest.mark.parametrize("bits", [64, 213, 400])
def test_log_table_within_two_units(bits):
    """(log p)^d for the primes below 3*10^4, d <= 7, lies under two units
    below the floor of the mpmath value; so does log n for every seventh n there,
    and for single n past the table (Mersenne primes 2^31 - 1, 2^61 - 1)."""
    primes = tuple(int(p) for p in primes_up_to(3 * 10**4))
    for got, want in zip(log_powers(primes, 7, bits), log_powers_mpf(primes, 7, bits)):
        assert all(0 <= w - g < 2 for g, w in zip(got, want))
    logs = fixed_logs(3 * 10**4, bits)
    with mp.workprec(bits + 64):
        for n in range(1, 3 * 10**4 + 1, 7):
            assert 0 <= int(mp.ldexp(mp.log(n), bits)) - logs[n] < 2, n
        for n in (10007, 2**31 - 1, 2**61 - 1):
            assert 0 <= int(mp.ldexp(mp.log(n), bits)) - fixed_log(n, bits) < 2, n


@pytest.mark.parametrize("bits", [120, 213, 400])
def test_zeta_taylor_within_two_units(bits):
    """The integer Euler-Maclaurin jets lie within two units of the same pass
    in mpmath arithmetic, taken 12 digits past the width."""
    dps = math.ceil(bits * math.log10(2)) + 12
    for y in (2, 3, 7, 16, 40):
        ref = zeta_taylor_mpf(y, 6, dps)
        with mp.workdps(dps + 5):
            for got, want in zip(_zeta_taylor(y, 6, bits), ref):
                assert abs(got - mp.ldexp(want, bits)) < 2, y


@pytest.mark.parametrize("dps", [30, 45, 60, 100])
def test_zeta_jet_matches_mpmath(dps):
    """Euler-Maclaurin jets of zeta agree with mpmath's zeta derivatives,
    from y = 2, where the corrections carry the value, to y = 100, where the
    head sum does."""
    order = 6
    for y in (2, 3, 5, 10, 22, 40, 100):
        got = zeta_jet(y, order, dps)
        with mp.workdps(dps + 15):
            for r in range(order + 1):
                want = mp.zeta(y, derivative=r) / mp.factorial(r)
                assert abs(got[r, 0] - want) < mp.mpf(10) ** -(dps + 2), (y, r)


def test_inverse_zeta_jet():
    jet = inverse_zeta_jet_at_2(2, 40)
    assert abs(jet[0, 0] - 1 / mp.zeta(2)) < mp.mpf(10) ** -35
    a1 = jet.partial(1, 0)
    want = -mp.zeta(2, derivative=1) / mp.zeta(2) ** 2
    assert abs(a1 - want) < mp.mpf(10) ** -35


def test_estermann_constants_two_routes():
    """Euler-product jet route vs direct Moebius sieve summation.

    The sieve tail at N = 10^7 fluctuates at the ~1e-10 scale, far inside
    the reported integral bound; the frozen tolerances reflect the observed
    margins (5e-10 and 1e-8).
    """
    ap, app = estermann_a_constants()
    v1, bound1 = mobius_log_moment_sieve(1, 10**7)
    v2, bound2 = mobius_log_moment_sieve(2, 10**7)
    assert abs(-mp.mpf(v1) - ap) < bound1
    assert abs(mp.mpf(v2) - app) < bound2
    assert abs(-mp.mpf(v1) - ap) < 5e-10
    assert abs(mp.mpf(v2) - app) < 1e-8
    # closed forms through zeta derivatives
    z, z1, z2 = mp.zeta(2), mp.zeta(2, derivative=1), mp.zeta(2, derivative=2)
    assert abs(ap - (-z1 / z**2)) < mp.mpf(10) ** -30
    assert abs(app - (2 * z1**2 - z2 * z) / z**3) < mp.mpf(10) ** -30


def test_mobius_sieve():
    mu = mobius_sieve(30)
    expect = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0, 30: -1}
    for n, v in expect.items():
        assert mu[n] == v
