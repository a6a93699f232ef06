"""Laurent data of the Riemann zeta function at s = 1 and friends.

Provides Stieltjes constants by Euler-Maclaurin summation, the Taylor
coefficients of powers (s-1)^j zeta(s)^j around s = 1, the alternating-sum
coefficients of (s-1)^j zeta(s)^j / s, Taylor jets of zeta at integers
y >= 2 (every derivative from one Euler-Maclaurin pass), and the classical
constants attached to 1/zeta at s = 2 that show up in the closed-form
coefficients of the shifted-divisor expansion of Ingham/Estermann type.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count

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


@lru_cache(maxsize=None)
def _log_power_rows(N: int, order: int, dps: int) -> tuple:
    """(-log n)^r / r! for 2 <= n <= N, one row per r <= order."""
    with mp.workdps(dps):
        neg_logs = [-mp.log(n) for n in range(2, N + 1)]
        rows = [[mp.mpf(1)] * (N - 1)]
        for r in range(1, order + 1):
            rows.append([a * b / r for a, b in zip(rows[-1], neg_logs)])
        return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def _em_weight(k: int, N: int, dps: int) -> mp.mpf:
    """B_2k / (2k)! N^(1-2k), shared by the zeta jets at every y."""
    with mp.workdps(dps):
        return mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.mpf(N) ** (1 - 2 * k)


@lru_cache(maxsize=None)
def _zeta_taylor(y: int, order: int, dps: int) -> tuple:
    """zeta^(r)(y) / r! for r = 0..order, at an integer y >= 2, from one
    Euler-Maclaurin pass (Edwards, Riemann's Zeta Function, ch. 6).  With
    s = y + tau and (s)_j the rising factorial s (s+1) ... (s+j-1),

      zeta(s) = sum_{n<N} n^(-s)
                + N^(-s) [N/(s-1) + 1/2 + sum_{k>=1} B_2k/(2k)! (s)_(2k-1) N^(1-2k)],

    every factor taken as a jet in tau: n^(-s) = n^(-y) e^(-tau log n), with
    the rows of (-log n)^r / r! shared by every y; the Pochhammer jet, with
    integer coefficients, grows by two linear factors per k; N^(-s)
    multiplies the bracket once.  The corrections fall like
    (2k)! / (2 pi N)^(2k) until 2k nears 2 pi N; N = 10 + dps puts that
    floor far below 10^-dps, and the series stops at its first term under
    10^-(dps+2) in every coefficient (a tau^r coefficient of the product is
    at most N times the bracket's largest one)."""
    if y < 2:
        raise ValueError("_zeta_taylor requires y >= 2")
    N = 10 + dps
    rows = _log_power_rows(N, order, dps + 5)
    with mp.workdps(dps + 5):
        powers = [mp.mpf(n) ** -y for n in range(2, N)]
        vals = [mp.fdot(powers, row) for row in rows]  # n < N: zip stops at powers
        vals[0] += 1
        poch = ([y, 1] + [0] * order)[: order + 1]
        weights, pochs = [], []
        eps = mp.mpf(10) ** -(dps + 2) * mp.mpf(N) ** (y - 1)
        for k in count(1):
            weights.append(_em_weight(k, N, dps + 5))
            pochs.append(poch)
            if abs(weights[-1]) * max(poch) < eps:
                break
            for a in (y + 2 * k - 1, y + 2 * k):
                poch = [a * poch[0]] + [a * poch[r] + poch[r - 1] for r in range(1, order + 1)]
        bracket = [N * mp.mpf(-1) ** r / mp.mpf(y - 1) ** (r + 1)
                   + mp.fdot(weights, [pc[r] for pc in pochs]) for r in range(order + 1)]
        bracket[0] += mp.mpf(1) / 2
        n_pow = [mp.mpf(N) ** -y * row[-1] for row in rows]  # N^(-s)
        return tuple(vals[r] + mp.fdot(bracket[: r + 1], n_pow[r::-1])
                     for r in range(order + 1))


def zeta_jet(y: int, order: int, dps: int = 40) -> PowerJet:
    """zeta(y + tau) as a jet in tau (coefficients zeta^(r)(y) / r!), to
    about 10^-(dps+2), at an integer y >= 2; a fresh jet on every call."""
    return PowerJet(_zeta_taylor(y, order, dps))


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


@lru_cache(maxsize=None)
def inverse_zeta_jet_at_2(order: int = 2, dps: int = 40) -> PowerJet:
    """Jet of 1/zeta(2 + tau): the reciprocal of the Euler-Maclaurin jet of
    zeta at 2."""
    with mp.workdps(dps + 8):
        return zeta_jet(2, order, dps + 8).reciprocal()


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
