"""Stieltjes constants, zeta-power Taylor data, prime-zeta moments."""

import mpmath as mp
import numpy as np
import pytest

from divcorr.errors import PrecisionError
from divcorr.jets import PowerJet
from divcorr.zeta_series import (
    _log_zeta_jet_at,
    _short_series_terms,
    c_coeffs,
    c_coeffs_via_division,
    estermann_a_constants,
    euler_gamma,
    inverse_zeta_jet_at_2,
    mobius_log_moment_sieve,
    mobius_sieve,
    prime_power_log_moments,
    stieltjes_table,
    zeta_laurent_jet,
    zeta_power_coeffs,
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


def test_euler_gamma_matches_mpmath():
    assert abs(euler_gamma(30) - mp.euler) < mp.mpf(10) ** -29


def test_zeta_laurent_jet_values():
    """(s-1) zeta(s) at s = 1 + t for small t, against direct evaluation."""
    jet = zeta_laurent_jet(8)
    for tval in ("0.05", "-0.03"):
        t = mp.mpf(tval)
        direct = t * mp.zeta(1 + t)
        series = jet(t)
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


@pytest.mark.parametrize("dps", [30, 45, 60])
def test_log_zeta_short_series(dps):
    """Short-series log-zeta jets agree with mpmath's zeta derivatives, on both
    sides of the switch-over from mpmath to the direct sum."""
    order = 6
    switch = min(y for y in range(2, 400) if _short_series_terms(y, order, dps))
    assert _short_series_terms(switch - 1, order, dps) is None
    for y in (switch - 2, switch - 1, switch, switch + 1, 2 * switch, 6 * switch):
        got = _log_zeta_jet_at(y, order, dps)
        with mp.workdps(dps + 15):
            vals = [mp.zeta(y, derivative=r) / mp.factorial(r) for r in range(order + 1)]
            want = PowerJet(vals).log()
            for r in range(order + 1):
                assert abs(got[r] - want[r]) < mp.mpf(10) ** (2 - dps), (y, r)


def test_inverse_zeta_jet():
    jet = inverse_zeta_jet_at_2(2, 40)
    assert abs(jet[0] - 1 / mp.zeta(2)) < mp.mpf(10) ** -35
    a1 = jet.derivative_at_origin(1)
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
