"""Laurent data of the Riemann zeta function at s = 1 and friends.

Provides Stieltjes constants by Euler-Maclaurin summation, the Taylor
coefficients of powers (s-1)^j zeta(s)^j around s = 1, the alternating-sum
coefficients of (s-1)^j zeta(s)^j / s, log-weighted prime sums

    pi_d(m) = sum over primes of (log p)^d * p^(-m)

obtained from derivatives of the prime zeta function, and the classical
constants attached to 1/zeta at s = 2 that show up in the closed-form
coefficients of the shifted-divisor expansion of Ingham/Estermann type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import PrecisionError
from .jets import PowerJet

# Configured ceilings for Stieltjes computations.
STIELTJES_MAX_INDEX = 30
STIELTJES_MAX_DIGITS = 100


def _log_power_derivative_polys(m: int, r_max: int) -> list[list[Fraction]]:
    """Coefficient lists P_r for d^r/dt^r [log^m t / t] = t^(-r-1) P_r(log t).

    P_0 = L^m and P_{r+1} = P_r' - (r+1) P_r, exactly in rationals.
    """
    polys = [[Fraction(0)] * m + [Fraction(1)]]
    for r in range(r_max):
        cur = polys[-1]
        nxt = [Fraction(0)] * len(cur)
        for i, c in enumerate(cur):
            if i >= 1:
                nxt[i - 1] += i * c
            nxt[i] -= (r + 1) * c
        polys.append(nxt)
    return polys


def _poly_eval(coeffs, x):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + mp.mpf(c.numerator) / c.denominator
    return acc


@lru_cache(maxsize=None)
def _stieltjes_em(m: int, digits: int) -> tuple[mp.mpf, mp.mpf]:
    """(gamma_m, error_estimate) by Euler-Maclaurin with adaptive depth."""
    N = 120
    guard = 15 + int(0.8 * m)
    with mp.workdps(digits + guard):
        logN = mp.log(N)
        total = mp.mpf(0)
        for n in range(1, N + 1):
            total += mp.log(n) ** m / n
        total -= logN ** (m + 1) / (m + 1)
        total -= mp.log(N) ** m / (2 * N)
        polys = _log_power_derivative_polys(m, 2 * 40)
        err = None
        prev_mag = mp.inf
        target = mp.mpf(10) ** (-(digits + 5))
        for j in range(1, 40):
            deriv = _poly_eval(polys[2 * j - 1], logN) / mp.mpf(N) ** (2 * j)
            term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
            mag = abs(term)
            if mag > prev_mag:
                err = prev_mag
                break
            total -= term
            prev_mag = mag
            if mag < target:
                err = mag
                break
        if err is None:
            err = prev_mag
        return +total, +err


class StieltjesTable:
    """gamma_0..gamma_M with a guaranteed number of correct decimal digits."""

    def __init__(self, gammas, digits: int):
        self.gammas = list(gammas)
        self.digits = digits

    def __getitem__(self, m: int) -> mp.mpf:
        return self.gammas[m]

    def __len__(self) -> int:
        return len(self.gammas)

    def __iter__(self):
        return iter(self.gammas)


def stieltjes_table(m_max: int, digits: int = 30) -> StieltjesTable:
    """Stieltjes constants gamma_0..gamma_m_max with `digits` correct digits."""
    if m_max < 0:
        raise ValueError("stieltjes_table requires m_max >= 0")
    if m_max > STIELTJES_MAX_INDEX or digits > STIELTJES_MAX_DIGITS:
        raise PrecisionError(
            f"stieltjes_table ceilings are m <= {STIELTJES_MAX_INDEX}, "
            f"digits <= {STIELTJES_MAX_DIGITS}"
        )
    return StieltjesTable([_stieltjes_checked(m, digits) for m in range(m_max + 1)], digits)


def _stieltjes_checked(m: int, digits: int) -> mp.mpf:
    val, err = _stieltjes_em(m, digits)
    if err > mp.mpf(10) ** (-digits):
        raise PrecisionError(
            f"gamma_{m}: achieved only {err} at the configured depth",
            achieved=err,
        )
    return val


def euler_gamma(digits: int = 30) -> mp.mpf:
    """gamma_0 to `digits` digits.  The table's digit ceiling does not apply:
    the Euler-Maclaurin series for gamma_0 converges far beyond it."""
    return _stieltjes_checked(0, digits)


def zeta_laurent_jet(order: int, digits: int | None = None) -> PowerJet:
    """Jet of (s-1) * zeta(s) at s = 1: 1 + sum (-1)^n gamma_n t^(n+1) / n!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    digits = digits or max(30, mp.mp.dps)
    gammas = stieltjes_table(max(order - 1, 0), digits) if order >= 1 else []
    coeffs = [mp.mpf(1)] + [mp.mpf(0)] * order
    for n in range(order):
        coeffs[n + 1] = (-1) ** n * gammas[n] / mp.factorial(n)
    return PowerJet(coeffs)


def zeta_power_jet(j: int, order: int, digits: int | None = None) -> PowerJet:
    """Jet of (s-1)^j zeta(s)^j at s = 1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    base = zeta_laurent_jet(order, digits)
    return base**j


def zeta_power_coeffs(j: int, r_max: int, digits: int | None = None) -> list[mp.mpf]:
    """a_r(j) for r = 0..r_max, where (s-1)^j zeta^j(s) = sum a_r(j) t^r / r!."""
    jet = zeta_power_jet(j, r_max, digits)
    return [mp.factorial(r) * jet[r] for r in range(r_max + 1)]


def c_coeffs(j: int, n_max: int, digits: int | None = None) -> list[mp.mpf]:
    """c_n(j) = sum_{r<=n} (-1)^(n-r) a_r(j) / r!, n = 0..n_max.

    These are the Taylor coefficients of (s-1)^j zeta^j(s) / s at s = 1.
    """
    a = zeta_power_coeffs(j, n_max, digits)
    out = []
    for n in range(n_max + 1):
        acc = mp.mpf(0)
        for r in range(n + 1):
            acc += (-1) ** (n - r) * a[r] / mp.factorial(r)
        out.append(acc)
    return out


def c_coeffs_via_division(j: int, n_max: int, digits: int | None = None) -> list[mp.mpf]:
    """Same coefficients via jet division by s = 1 + t; independent route."""
    jet = zeta_power_jet(j, n_max, digits)
    one_plus_t = PowerJet([mp.mpf(1), mp.mpf(1)] + [mp.mpf(0)] * (n_max - 1)) \
        if n_max >= 1 else PowerJet([mp.mpf(1)])
    quotient = jet / one_plus_t
    return [quotient[n] for n in range(n_max + 1)]


# Most terms _log_zeta_jet_at sums directly.  At order 8 and 45-55 digits
# (2-core Xeon VM) a term costs about 0.09 ms and mpmath's zeta with its
# derivatives 15-20 ms, so the routes break even near K = 170-210: 1.7-1.9x
# faster at K = 84-100, 0.6-0.8x at K = 280.  120 keeps a margin.
SHORT_SERIES_MAX_TERMS = 120


def _short_series_terms(y: int, order: int, dps: int) -> int | None:
    """Smallest K with sum_{k>K} (log k)^r k^(-y) / r! < 10^(-dps) for every
    r <= order, or None when that takes more than SHORT_SERIES_MAX_TERMS.

    (log t)^r t^(-y) decreases once log t >= r/y, so from such a K on the tail
    is at most int_K^oo (log t)^r t^(-y) dt / r!, which is
    K^(1-y) sum_{i<=r} z^i/i! / (y-1)^(r+1) with z = (y-1) log K.
    """
    target = -(dps + 1) * math.log(10)  # one digit spare for float rounding

    def small_enough(K: int) -> bool:
        z = (y - 1) * math.log(K)
        term, acc = 1.0, 1.0
        for r in range(order + 1):
            if r:
                term *= z / r
                acc += term
            if -z + math.log(acc) - (r + 1) * math.log(y - 1) >= target:
                return False
        return True

    k_min = max(2, math.ceil(math.exp(order / y)))
    if k_min > SHORT_SERIES_MAX_TERMS or not small_enough(SHORT_SERIES_MAX_TERMS):
        return None
    return next(K for K in range(k_min, SHORT_SERIES_MAX_TERMS + 1) if small_enough(K))


@lru_cache(maxsize=None)
def _log_zeta_jet_at(y: int, order: int, dps: int) -> PowerJet:
    """log zeta(y + tau) as a jet in tau, from the Taylor coefficients
    zeta^(r)(y) / r! = sum_k (-log k)^r k^(-y) / r!: summed over k <= K when
    a short series reaches 10^(-dps), else by mpmath."""
    K = _short_series_terms(y, order, dps)
    with mp.workdps(dps):
        if K is None:
            x = mp.mpf(y)
            vals = [mp.zeta(x, derivative=r) / mp.factorial(r) for r in range(order + 1)]
        else:
            vals = [mp.mpf(0)] * (order + 1)
            for k in range(2, K + 1):
                neg_log = -mp.log(k)
                term = mp.mpf(1) / k**y
                for r in range(order + 1):
                    vals[r] += term
                    term = term * neg_log / (r + 1)
            vals[0] += 1
        return PowerJet(vals).log()


@lru_cache(maxsize=None)
def prime_power_log_moments(m: int, d_max: int, dps: int = 40) -> tuple:
    """pi_d(m) = sum_p (log p)^d p^(-m) for d = 0..d_max, via the prime zeta
    function P(s) = sum_n mu(n)/n log zeta(n s) expanded at s = m.
    """
    if m < 2:
        raise ValueError("prime_power_log_moments requires m >= 2")
    with mp.workdps(dps + 10):
        coeffs = [mp.mpf(0)] * (d_max + 1)
        eps = mp.mpf(10) ** (-(dps + 8))
        cutoff = (dps + 12) * 3.33 + 4
        mob = _mobius_list(256)
        for n in range(1, 257):
            if mob[n] == 0:
                continue
            if n * m > cutoff:
                break
            ljet = _log_zeta_jet_at(n * m, d_max, dps + 10)
            scale = mp.mpf(1)
            contrib0 = abs(ljet[0]) / n
            for d in range(d_max + 1):
                coeffs[d] += mob[n] * ljet[d] * scale / n
                scale *= n
            if contrib0 < eps and n > 4:
                break
        # P(m + tau) jet coefficient d equals (-1)^d pi_d(m) / d!
        return tuple(
            (-1) ** d * mp.factorial(d) * coeffs[d] for d in range(d_max + 1)
        )


def _mobius_list(n: int) -> list[int]:
    mu = [1] * (n + 1)
    mu[0] = 0
    primes = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def mobius_sieve(n: int) -> np.ndarray:
    """Moebius function 0..n as int8 (numpy sieve)."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, n + 1):
        if is_p[p]:
            if p <= n // p:
                is_p[p * p :: p] = False
            mu[p::p] *= -1
            pp = p * p
            if pp <= n:
                mu[pp::pp] = 0
    return mu


def mobius_log_moment_sieve(d: int, n_terms: int) -> tuple[float, float]:
    """(sum_{2<=n<=N} mu(n) log^d n / n^2, integral tail bound).

    Direct sieve route; float64 with pairwise summation is far below the
    truncation uncertainty.  The bound is on the absolute tail
    sum_{n>N} log^d n / n^2 = (sum_{i<=d} d!/i! log^i N) / N.
    """
    mu = mobius_sieve(n_terms)
    total = 0.0
    chunk = 1 << 20
    for start in range(2, n_terms + 1, chunk):
        stop = min(start + chunk - 1, n_terms)
        ns = np.arange(start, stop + 1, dtype=np.float64)
        terms = np.log(ns) ** d / ns**2 if d > 0 else 1.0 / ns**2
        total += float(np.dot(mu[start : stop + 1].astype(np.float64), terms))
    logn = float(np.log(n_terms))
    dfact = float(mp.factorial(d))
    bound = sum(dfact / float(mp.factorial(i)) * logn**i for i in range(d + 1))
    bound /= n_terms
    return total, bound


@lru_cache(maxsize=None)
def inverse_zeta_jet_at_2(order: int = 2, dps: int = 40) -> PowerJet:
    """Jet of 1/zeta(2 + tau): Euler-product route via prime zeta moments.

    log(1/zeta(2+tau)) = -sum_{i>=1} (1/i) sum_p p^(-2i) e^(-i tau log p);
    the tau^d coefficient is -sum_i (-i)^d / (i d!) pi_d(2i).
    """
    with mp.workdps(dps + 8):
        coeffs = [mp.mpf(0)] * (order + 1)
        i = 1
        while True:
            moments = prime_power_log_moments(2 * i, order, dps + 8)
            if abs(moments[0]) < mp.mpf(10) ** (-(dps + 6)) and i > 2:
                break
            for d in range(order + 1):
                coeffs[d] += (mp.mpf(-i)) ** d / (i * mp.factorial(d)) * moments[d]
            i += 1
            if i > 200:
                break
        logjet = PowerJet([-c for c in coeffs])
        return logjet.exp()


def estermann_a_constants(dps: int = 40) -> tuple[mp.mpf, mp.mpf]:
    """(a', a'') with a' = -sum mu(n) log n / n^2, a'' = sum mu(n) log^2 n / n^2.

    Computed from the reciprocal-zeta jet at s = 2 (a' and a'' are its first
    and second derivatives); the direct Moebius sums serve as the
    independent cross-check in the tests.
    """
    jet = inverse_zeta_jet_at_2(2, dps)
    a1 = jet.derivative_at_origin(1)
    a2 = jet.derivative_at_origin(2)
    return a1, a2
