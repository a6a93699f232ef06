"""Singular series and the multiplicative machinery behind them.

The correlation sum of d_k(n+h) against d_l(n) carries the arithmetic
constant

    C_{k,l} = prod_p [ (1-1/p)^(l-1) + (1-1/p)^(k-1) - (1-1/p)^(k+l-2) ]

and a finite factor f_{k,l}(h) over primes dividing the shift h.  Both lift
to two-variable Euler products C_{k,l}(s,w), f_{h,k,l}(s,w) expanded here as
jets at (s,w) = (1,0).  Their Dirichlet coefficients varphi(q,s) in the
w-aspect, and the multiplicative summand phi(s,q) they convolve into, feed
every coefficient of the asymptotic polynomial.

Euler products are truncated at a prime cutoff P and corrected by exact
tail sums: the local log-factor is expanded as a rational power series in
(x, y, u) = (p^-s, p^(-w-1), 1/p), and each monomial u-degree m is summed
over p > P through log-weighted prime zeta values.  This leaves truncation
errors far below the working precision instead of the 1/(P log P) floor a
bare cutoff would give.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath as mp
import numpy as np

from .arith import (
    FactoredInteger,
    dk_prime_power,
    euler_phi_prime_power,
    factorize,
    primes_up_to,
    spf_array,
)
from .errors import PrecisionError, PrecisionWarning, ResourceBudgetError
from .jets import Jet2, PowerJet
from .zeta_series import prime_power_log_moments

DEFAULT_PRIME_CUTOFF = 1_000
_SERIES_DEGREE = 14  # total degree kept in local log-factor expansions
_MAX_SCALAR_ORDER = 42  # the scalar constant's series in 1/p grows to this

MAX_DIRICHLET_Q = 4 * 10**6
_MP_TABLE_LIMIT = 30_000


def _as_factored(h) -> FactoredInteger:
    return h if isinstance(h, FactoredInteger) else factorize(int(h))


def _mpf_frac(fr: Fraction) -> mp.mpf:
    return mp.mpf(fr.numerator) / fr.denominator


# ---------------------------------------------------------------------------
# scalar singular series
# ---------------------------------------------------------------------------


def _one_minus_u_pow(e: int) -> list[Fraction]:
    return [Fraction((-1) ** i * comb(e, i)) for i in range(e + 1)]


@lru_cache(maxsize=None)
def _c_factor_poly(k: int, l: int) -> tuple[Fraction, ...]:
    """Integer polynomial (in u = 1/p) of the local factor of C_{k,l}."""
    deg = max(l - 1, k - 1, k + l - 2)
    out = [Fraction(0)] * (deg + 1)
    for e, sign in ((l - 1, 1), (k - 1, 1), (k + l - 2, -1)):
        pw = _one_minus_u_pow(e)
        for i, c in enumerate(pw):
            out[i] += sign * c
    return tuple(out)


def _poly_log_series(poly, order: int) -> list[Fraction]:
    """log of a rational polynomial/series with constant term 1."""
    p = list(poly[: order + 1]) + [Fraction(0)] * max(0, order + 1 - len(poly))
    assert p[0] == 1
    e = [Fraction(0)] + p[1:]
    out = [Fraction(0)] * (order + 1)
    term = [Fraction(1)] + [Fraction(0)] * order
    for r in range(1, order + 1):
        term = _poly_mul1(term, e, order)
        sign = Fraction((-1) ** (r + 1), r)
        for i, c in enumerate(term):
            out[i] += sign * c
    return out


def _poly_mul1(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(0, order + 1 - i):
            y = b[j]
            if y != 0:
                out[i + j] += x * y
    return out


class PrimeTailMoments:
    """T(m, d) = sum over primes p > P of (log p)^d p^(-m), exactly."""

    def __init__(self, prime_cutoff: int, m_max: int, d_max: int, dps: int = 40):
        self.prime_cutoff = prime_cutoff
        self.m_max = m_max
        self.d_max = d_max
        self.dps = dps
        with mp.workdps(dps + 10):
            partial = [[mp.mpf(0)] * (d_max + 1) for _ in range(m_max + 1)]
            for p in primes_up_to(prime_cutoff):
                p = int(p)
                u = mp.mpf(1) / p
                L = mp.log(p)
                um = u * u
                for m in range(2, m_max + 1):
                    Ld = um
                    for d in range(d_max + 1):
                        partial[m][d] += Ld
                        Ld *= L
                    um *= u
            self._tails = {}
            for m in range(2, m_max + 1):
                full = prime_power_log_moments(m, d_max, dps + 5)
                for d in range(d_max + 1):
                    self._tails[(m, d)] = +(full[d] - partial[m][d])

    def tail(self, m: int, d: int) -> mp.mpf:
        return self._tails[(m, d)]


@lru_cache(maxsize=None)
def _tail_moments(prime_cutoff: int, m_max: int, d_max: int, dps: int) -> PrimeTailMoments:
    return PrimeTailMoments(prime_cutoff, m_max, d_max, dps)


def _guarded_dps(dps: int, growth: float) -> int:
    """Digits for the prime-tail moments of a series whose terms reach
    `growth` times 2^m at degree m.  A moment of degree m is a full sum less a
    partial one, both near 2^-m, so its absolute error is near
    2^-m 10^-(dps+10); past five of those ten guard digits, the series'
    growth is made up with extra digits."""
    if growth <= 0:
        return dps
    return dps + max(0, math.ceil(math.log10(growth)) - 5)


def _prime_tail_upper(prime_cutoff: int, m: int) -> mp.mpf:
    """Upper bound on sum_{p > P} p^(-m): the primes in (P, 2P] summed, the
    integers beyond 2P by the integral (2P)^(1-m) / (m-1).  Taken as P^(-m)
    times a float sum of (P/p)^m <= 1, so it does not underflow."""
    P = max(prime_cutoff, 1)  # no prime is below 2
    ps = primes_up_to(2 * P)
    ratios = P / ps[ps > P].astype(float)
    scaled = float(np.sum(ratios**m)) * (1 + 1e-12) + P * 2.0 ** (1 - m) / (m - 1)
    return mp.mpf(scaled) * mp.mpf(P) ** (-m)


def _scalar_tail_bound(g, order: int, prime_cutoff: int) -> mp.mpf:
    """Stated bound of the 1/p series of log C_{k,l} cut at `order`: twice its
    last two terms, summed over p > P."""
    return 2 * sum(abs(_mpf_frac(g[m])) * _prime_tail_upper(prime_cutoff, m)
                   for m in (order - 1, order))


def _c_scalar(k: int, l: int, prime_cutoff: int, order: int, dps: int) -> mp.mpf:
    """C_{k,l}: the local factors over p <= P times exp of the series of the
    log-factor in u = 1/p, to u^order, summed over p > P."""
    poly = _c_factor_poly(k, l)
    g = _poly_log_series(poly, order)
    assert g[0] == 0 and g[1] == 0, "local factor must be 1 + O(u^2)"
    growth = max(abs(float(c)) * 2.0**-m for m, c in enumerate(g))
    with mp.workdps(dps + 10):
        prod = mp.mpf(1)
        for p in primes_up_to(prime_cutoff):
            u = mp.mpf(1) / int(p)
            acc = mp.mpf(0)
            for c in reversed(poly):
                acc = acc * u + mp.mpf(c.numerator) / c.denominator
            prod *= acc
        tails = _tail_moments(prime_cutoff, order, 0, _guarded_dps(dps, growth))
        corr = mp.mpf(0)
        for m in range(2, order + 1):
            if g[m] != 0:
                corr += _mpf_frac(g[m]) * tails.tail(m, 0)
        return prod * mp.exp(corr)


def singular_constant(k: int, l: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
                      tol: float = 1e-25, dps: int | None = None) -> tuple[mp.mpf, mp.mpf]:
    """(C_{k,l}, tail bound).  The factor is identically 1 when min(k,l) = 1.

    The coefficients of the tail series in 1/p grow with k and l, so the
    series is cut at the first order from _SERIES_DEGREE + 4 on, in steps of
    two, whose stated bound is below 10^-dps; at _MAX_SCALAR_ORDER at most.
    """
    if k < 1 or l < 1:
        raise ValueError("singular_constant requires k, l >= 1")
    dps = dps or max(30, mp.mp.dps)
    if k == 1 or l == 1:
        return mp.mpf(1), mp.mpf(0)
    g = _poly_log_series(_c_factor_poly(k, l), _MAX_SCALAR_ORDER)
    with mp.workdps(dps + 10):
        target = mp.mpf(10) ** (-dps)
        for order in range(_SERIES_DEGREE + 4, _MAX_SCALAR_ORDER + 1, 2):
            bound = _scalar_tail_bound(g, order, prime_cutoff)
            if bound <= target:
                break
        value = _c_scalar(k, l, prime_cutoff, order, dps)
    if bound > tol:
        raise PrecisionError(
            f"singular_constant({k},{l}): achieved bound {mp.nstr(bound, 5)} > tol {tol}",
            achieved=bound,
        )
    return +value, +bound


def singular_shift_factor(h, k: int, l: int) -> Fraction:
    """f_{k,l}(h), exactly, as a finite product over p | h.

    The two geometric-type tails are evaluated in closed form from the
    negative-binomial generating function sum_b d_k(p^b) x^b = (1-x)^(-k).
    """
    if k < 1 or l < 1:
        raise ValueError("singular_shift_factor requires k, l >= 1")
    hfac = _as_factored(h)
    out = Fraction(1)
    for p, gamma in hfac.factors:
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


# ---------------------------------------------------------------------------
# local jets of C(s,w) f(s,w)
# ---------------------------------------------------------------------------


def _jet_x(p: int, order_t: int, order_w: int) -> Jet2:
    """p^(-s) = (1/p) e^(-t log p) as a Jet2 in (t, w)."""
    u = mp.mpf(1) / p
    L = mp.log(p)
    out = Jet2.constant(0, order_t, order_w)
    for i in range(order_t + 1):
        out.coeffs[i][0] = u * (-L) ** i / mp.factorial(i)
    return out


def _jet_y(p: int, order_t: int, order_w: int) -> Jet2:
    """p^(-w-1) = (1/p) e^(-w log p) as a Jet2."""
    u = mp.mpf(1) / p
    L = mp.log(p)
    out = Jet2.constant(0, order_t, order_w)
    for j in range(order_w + 1):
        out.coeffs[0][j] = u * (-L) ** j / mp.factorial(j)
    return out


def _jet_w_exp(p: int, order_t: int, order_w: int) -> Jet2:
    """p^(-w) = e^(-w log p) as a Jet2."""
    L = mp.log(p)
    out = Jet2.constant(0, order_t, order_w)
    for j in range(order_w + 1):
        out.coeffs[0][j] = (-L) ** j / mp.factorial(j)
    return out


def c_local_jet(p: int, k: int, l: int, order_t: int, order_w: int,
                form: str = "grouped") -> Jet2:
    """Local factor of C_{k,l}(s,w) at a prime not dividing the shift.

    form="grouped" uses D + (1-x)^k (1 - D) / (1 - 1/p) with
    D = (1-y)^(l-1); form="split" distributes the last product.  The two
    are algebraically identical; both are kept so tests can pin that down.
    """
    X = _jet_x(p, order_t, order_w)
    Y = _jet_y(p, order_t, order_w)
    u = mp.mpf(1) / p
    D = (1 - Y) ** (l - 1)
    Xk = (1 - X) ** k
    if form == "grouped":
        return D + Xk * (1 - D) * (1 / (1 - u))
    if form == "split":
        return D + Xk * (1 / (1 - u)) - Xk * D * (1 / (1 - u))
    raise ValueError(f"unknown form {form!r}")


def _jet_t_exp(p: int, gamma: int, order_t: int, order_w: int) -> Jet2:
    """p^(-gamma (s-1)) = e^(-gamma t log p) as a Jet2."""
    L = mp.log(p)
    out = Jet2.constant(0, order_t, order_w)
    for i in range(order_t + 1):
        out.coeffs[i][0] = (-gamma * L) ** i / mp.factorial(i)
    return out


def _f_numerator_jet(p: int, gamma: int, k: int, l: int,
                     order_t: int, order_w: int) -> Jet2:
    """Numerator of the local shift factor, derived from the multiplicative
    summand phi rather than transcribed:

      (1-1/p) sum_{a<=g} d_{l-1}(p^a) p^(-aw) sum_{b>=a} d_k(p^b) p^(-bs)
      + d_k(p^g) p^(-g(s-1)) sum_{a>g} d_{l-1}(p^a) p^(-a(w+1)).

    The p^(-g(s-1)) weight on the second term is forced by the phi
    convolution identity (it is invisible at s = 1).
    """
    X = _jet_x(p, order_t, order_w)
    Y = _jet_y(p, order_t, order_w)
    W = _jet_w_exp(p, order_t, order_w)
    u = mp.mpf(1) / p
    inv_k = (1 - X) ** (-k)
    numer = Jet2.constant(0, order_t, order_w)
    partial_k = Jet2.constant(0, order_t, order_w)
    for a in range(gamma + 1):
        tail = inv_k - partial_k
        numer = numer + dk_prime_power(l - 1, a) * (W**a) * tail
        partial_k = partial_k + dk_prime_power(k, a) * (X**a)
    numer = numer * (1 - u)
    tail_l = (1 - Y) ** (-(l - 1))
    for a in range(gamma + 1):
        tail_l = tail_l - dk_prime_power(l - 1, a) * (Y**a)
    shift = _jet_t_exp(p, gamma, order_t, order_w)
    return numer + dk_prime_power(k, gamma) * shift * tail_l


def f_local_jet(p: int, gamma: int, k: int, l: int, order_t: int, order_w: int) -> Jet2:
    """Local factor of f_{h,k,l}(s,w) at p with p^gamma || h (gamma >= 1)."""
    if gamma < 1:
        raise ValueError("f_local_jet requires gamma >= 1")
    X = _jet_x(p, order_t, order_w)
    Y = _jet_y(p, order_t, order_w)
    u = mp.mpf(1) / p
    numer = _f_numerator_jet(p, gamma, k, l, order_t, order_w)
    denom = (1 - u) * (1 - X) ** (-k) + (1 - Y) ** (-(l - 1)) - 1
    return numer / denom


def cf_local_jet(p: int, gamma: int, k: int, l: int, order_t: int, order_w: int) -> Jet2:
    """Local factor of C(s,w) f(s,w) at p, for any gamma = v_p(h) >= 0.

    For gamma >= 1 the denominator of the f-factor cancels against the
    C-factor, leaving (1-x)^k (1-y)^(l-1) * numerator / (1-1/p); computed in
    that division-free form.
    """
    if gamma == 0:
        return c_local_jet(p, k, l, order_t, order_w)
    X = _jet_x(p, order_t, order_w)
    Y = _jet_y(p, order_t, order_w)
    u = mp.mpf(1) / p
    numer = _f_numerator_jet(p, gamma, k, l, order_t, order_w)
    return (1 - X) ** k * (1 - Y) ** (l - 1) * numer * (1 / (1 - u))


@dataclass(frozen=True)
class LocalFactor:
    """Euler factor of C(s,w) f(s,w) at a single prime, as a Jet2."""

    p: int
    gamma: int
    k: int
    l: int
    value: Jet2


def local_factor_cf(p: int, h, k: int, l: int, order_t: int, order_w: int) -> LocalFactor:
    gamma = _as_factored(h).exponent_of(p)
    return LocalFactor(p=p, gamma=gamma, k=k, l=l,
                       value=cf_local_jet(p, gamma, k, l, order_t, order_w))


# --- trivariate log-factor series for prime tails ---------------------------


def _tri_mul(a: dict, b: dict, deg: int) -> dict:
    out = {}
    for (i1, j1, c1), x in a.items():
        if x == 0:
            continue
        for (i2, j2, c2), y in b.items():
            if i1 + i2 + j1 + j2 + c1 + c2 > deg:
                continue
            key = (i1 + i2, j1 + j2, c1 + c2)
            out[key] = out.get(key, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _log_local_c_series(k: int, l: int, deg: int = _SERIES_DEGREE) -> tuple:
    """log of the local C-factor as a series in (x, y, u), exact rationals.

    Monomial x^a y^b u^c stands for p^(-as) p^(-b(w+1)) p^(-c); the series
    starts at total degree 2, which is the p^(-2) convergence of the product.
    """
    ypow = {(0, b, 0): Fraction((-1) ** b * comb(l - 1, b)) for b in range(l)}
    xpow = {(a, 0, 0): Fraction((-1) ** a * comb(k, a)) for a in range(k + 1)}
    geom = {(0, 0, c): Fraction(1) for c in range(deg + 1)}
    one = {(0, 0, 0): Fraction(1)}
    one_minus_d = dict(one)
    for key, v in ypow.items():
        one_minus_d[key] = one_minus_d.get(key, Fraction(0)) - v
    if one_minus_d.get((0, 0, 0)) == 0:
        one_minus_d.pop((0, 0, 0))
    f = dict(ypow)
    second = _tri_mul(_tri_mul(xpow, one_minus_d, deg), geom, deg)
    for key, v in second.items():
        f[key] = f.get(key, Fraction(0)) + v
    e = {k_: v for k_, v in f.items() if k_ != (0, 0, 0) and v != 0}
    const = f.get((0, 0, 0), Fraction(0))
    assert const == 1, "local factor must have constant term 1"
    assert all(sum(k_) >= 2 for k_ in e), "degree-1 terms must cancel"
    out = {}
    term = {(0, 0, 0): Fraction(1)}
    for r in range(1, deg // 2 + 1):
        term = _tri_mul(term, e, deg)
        sign = Fraction((-1) ** (r + 1), r)
        for key, v in term.items():
            out[key] = out.get(key, Fraction(0)) + sign * v
    return tuple(sorted((key, v) for key, v in out.items() if v != 0))


def _max_power_term(a: int, order: int) -> float:
    """max over i <= order of a^i / i!, the largest t- or w-factor of a
    monomial's jet."""
    return max(a**i / math.factorial(i) for i in range(order + 1))


def _prime_tail_log_jet(k: int, l: int, order_t: int, order_w: int, prime_cutoff: int,
                        dps: int, degree: int) -> tuple[Jet2, mp.mpf]:
    """(log of prod_{p > P} of the local C-factor as a jet, bound): the
    log-factor series to total degree `degree`, each monomial summed over
    p > P through the prime-tail moments."""
    series = _log_local_c_series(k, l, degree)
    growth = max(abs(float(g)) * 2.0 ** -(a + b + c) * _max_power_term(a, order_t)
                 * _max_power_term(b, order_w) for (a, b, c), g in series)
    tails = _tail_moments(prime_cutoff, degree, order_t + order_w, _guarded_dps(dps, growth))
    corr = Jet2.constant(0, order_t, order_w)
    gmax = mp.mpf(0)
    for (a, b, c), g in series:
        m = a + b + c
        gm = _mpf_frac(g)
        gmax = max(gmax, abs(gm))
        for i in range(order_t + 1):
            if a == 0 and i > 0:
                break
            base = gm * (mp.mpf(-a)) ** i / mp.factorial(i)
            for j in range(order_w + 1):
                if b == 0 and j > 0:
                    break
                corr.coeffs[i][j] += (
                    base * (mp.mpf(-b)) ** j / mp.factorial(j) * tails.tail(m, i + j)
                )
    bound = 2 * gmax * (tails.tail(degree - 1, order_t + order_w)
                        + tails.tail(degree, order_t + order_w))
    return corr, bound


@lru_cache(maxsize=None)
def _c_euler_base(k: int, l: int, order_t: int, order_w: int, prime_cutoff: int,
                  dps: int, degree: int) -> tuple[Jet2, mp.mpf]:
    """(jet of the shift-free C(s,w) at (1,0), tail bound): the local factors
    over p <= P times the exp of the prime tail.  Shared by every shift;
    callers must not mutate it."""
    with mp.workdps(dps + 10):
        prod = Jet2.constant(1, order_t, order_w)
        for p in primes_up_to(prime_cutoff):
            prod = prod * c_local_jet(int(p), k, l, order_t, order_w)
        corr, bound = _prime_tail_log_jet(k, l, order_t, order_w, prime_cutoff, dps, degree)
        return prod * corr.exp(), +bound


def cf_euler_jet(h, k: int, l: int, order_t: int, order_w: int,
                 prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
                 dps: int | None = None) -> tuple[Jet2, mp.mpf]:
    """(jet of C(s,w) f(s,w) at (1,0), tail bound): the shift-free C-product
    (built once per process for each set of parameters), with the local factor
    of every p | h swapped from its gamma = 0 form to the true one."""
    dps = dps or max(30, mp.mp.dps)
    base, bound = _c_euler_base(k, l, order_t, order_w, prime_cutoff, dps,
                                 _SERIES_DEGREE)
    with mp.workdps(dps + 10):
        result = Jet2(base.coeffs)
        for p, gamma in _as_factored(h).factors:
            result = result * cf_local_jet(p, gamma, k, l, order_t, order_w)
            result = result / c_local_jet(p, k, l, order_t, order_w)
        return result, bound


# ---------------------------------------------------------------------------
# the multiplicative summand phi and the Dirichlet coefficients varphi
# ---------------------------------------------------------------------------


def _jet_x1(p: int, order_s: int) -> PowerJet:
    u = mp.mpf(1) / p
    L = mp.log(p)
    return PowerJet([u * (-L) ** r / mp.factorial(r) for r in range(order_s + 1)])


def _dl1(l: int, alpha: int) -> int:
    """d_{l-1}(p^alpha), with the l = 1 convention d_0 = indicator of 1."""
    if l >= 2:
        return dk_prime_power(l - 1, alpha)
    return 1 if alpha == 0 else 0


def phi_local(h, k: int, l: int, p: int, alpha: int, order_s: int) -> PowerJet:
    """phi(s, p^alpha) as a jet in t = s - 1.

    With gamma = v_p(h) and delta = min(alpha, gamma):
      alpha <= gamma:  d_{l-1}(p^a) (1-p^-s)^k sum_{b>=a} d_k(p^b) p^(-bs),
                       the tail sum in closed form;
      alpha > gamma:   d_{l-1}(p^a)/phi(p^(a-g)) (1-p^-s)^k d_k(p^g) p^(-gs).
    """
    if alpha < 1:
        raise ValueError("phi_local requires alpha >= 1")
    gamma = _as_factored(h).exponent_of(p)
    X = _jet_x1(p, order_s)
    xk = (1 - X) ** k
    if alpha <= gamma:
        partial = PowerJet.constant(0, order_s)
        for b in range(alpha):
            partial = partial + dk_prime_power(k, b) * X**b
        return _dl1(l, alpha) * (1 - xk * partial)
    delta = gamma
    front = Fraction(_dl1(l, alpha), euler_phi_prime_power(p, alpha - delta))
    jet = xk * (dk_prime_power(k, delta) * X**delta)
    return _mpf_frac(front) * jet


def varphi_prime_power(h, k: int, l: int, p: int, alpha: int, order_s: int) -> PowerJet:
    """varphi(p^alpha, s): local phi-series multiplied by (1 - p^(-w-1))^(l-1)."""
    u = mp.mpf(1) / p
    out = PowerJet.constant(0, order_s)
    for j in range(min(alpha, l - 1) + 1):
        coef = comb(l - 1, j) * (-u) ** j
        if alpha - j == 0:
            out = out + PowerJet.constant(coef, order_s)
        else:
            out = out + coef * phi_local(h, k, l, p, alpha - j, order_s)
    return out


def phi_of(h, k: int, l: int, q: int, order_s: int) -> PowerJet:
    """phi(s, q) by multiplicativity."""
    out = PowerJet.constant(1, order_s)
    for p, e in factorize(q).factors:
        out = out * phi_local(h, k, l, p, e, order_s)
    return out


def varphi_of(h, k: int, l: int, q: int, order_s: int) -> PowerJet:
    """varphi(q, s) by multiplicativity."""
    out = PowerJet.constant(1, order_s)
    for p, e in factorize(q).factors:
        out = out * varphi_prime_power(h, k, l, p, e, order_s)
    return out


# --- float64 fast path -------------------------------------------------------


def _fpoly_mul(a, b, n):
    out = [0.0] * (n + 1)
    for i, x in enumerate(a):
        if x == 0.0:
            continue
        for j in range(0, n + 1 - i):
            out[i + j] += x * b[j]
    return out


def _fpoly_pow(a, e, n):
    out = [0.0] * (n + 1)
    out[0] = 1.0
    base = list(a)
    while e:
        if e & 1:
            out = _fpoly_mul(out, base, n)
        base = _fpoly_mul(base, base, n)
        e >>= 1
    return out


def _phi_pp_float(gamma: int, k: int, l: int, p: int, alpha: int, order_s: int):
    u = 1.0 / p
    L = math.log(p)
    X = [u * (-L) ** r / math.factorial(r) for r in range(order_s + 1)]
    one_minus_x = [1.0 - X[0]] + [-c for c in X[1:]]
    xk = _fpoly_pow(one_minus_x, k, order_s)
    if alpha <= gamma:
        partial = [0.0] * (order_s + 1)
        xb = [1.0] + [0.0] * order_s
        for b in range(alpha):
            c = dk_prime_power(k, b)
            for r in range(order_s + 1):
                partial[r] += c * xb[r]
            xb = _fpoly_mul(xb, X, order_s)
        prod = _fpoly_mul(xk, partial, order_s)
        out = [-c for c in prod]
        out[0] += 1.0
        d = _dl1(l, alpha)
        return [d * c for c in out]
    delta = gamma
    front = _dl1(l, alpha) / euler_phi_prime_power(p, alpha - delta)
    xd = _fpoly_pow(X, delta, order_s) if delta else [1.0] + [0.0] * order_s
    prod = _fpoly_mul(xk, xd, order_s)
    scale = front * dk_prime_power(k, delta)
    return [scale * c for c in prod]


def _varphi_pp_float(gamma: int, k: int, l: int, p: int, alpha: int, order_s: int):
    u = 1.0 / p
    out = [0.0] * (order_s + 1)
    for j in range(min(alpha, l - 1) + 1):
        coef = comb(l - 1, j) * (-u) ** j
        if alpha - j == 0:
            out[0] += coef
        else:
            loc = _phi_pp_float(gamma, k, l, p, alpha - j, order_s)
            for r in range(order_s + 1):
                out[r] += coef * loc[r]
    return out


class VarphiTable:
    """varphi(q, s) jets for q <= Q, stored as coefficient arrays in t.

    mode "mp" keeps mpmath coefficients (exact to working precision); mode
    "float" keeps float64 numpy arrays for large Q, where the q-truncation
    tail dwarfs double-precision rounding.
    """

    def __init__(self, h, k: int, l: int, Q: int, order_s: int, mode: str):
        self.h = int(_as_factored(h).value)
        self.k = k
        self.l = l
        self.Q = Q
        self.order_s = order_s
        self.mode = mode
        hfac = _as_factored(h)
        if Q > MAX_DIRICHLET_Q:
            raise ResourceBudgetError(f"varphi table Q={Q} over budget {MAX_DIRICHLET_Q}")
        spf = spf_array(Q) if Q >= 2 else np.array([0, 1], dtype=np.int64)
        if mode == "mp":
            self._build_mp(hfac, spf)
        elif mode == "float":
            self._build_float(hfac, spf)
        else:
            raise ValueError(f"unknown varphi table mode {mode!r}")

    def _build_mp(self, hfac, spf):
        Q, os = self.Q, self.order_s
        vals = [None] * (Q + 1)
        vals[1] = [mp.mpf(1)] + [mp.mpf(0)] * os
        pw_cache = {}
        expo = np.zeros(Q + 1, dtype=np.int64)
        base = np.zeros(Q + 1, dtype=np.int64)
        expo[1] = 0
        base[1] = 1
        for q in range(2, Q + 1):
            p = int(spf[q])
            m = q // p
            if m % p == 0:
                expo[q] = expo[m] + 1
                base[q] = base[m]
            else:
                expo[q] = 1
                base[q] = m
            key = (p, int(expo[q]))
            loc = pw_cache.get(key)
            if loc is None:
                jet = varphi_prime_power(hfac, self.k, self.l, p, key[1], os)
                loc = jet.coeffs
                pw_cache[key] = loc
            b = int(base[q])
            if b == 1:
                vals[q] = list(loc)
            else:
                vb = vals[b]
                out = [mp.mpf(0)] * (os + 1)
                for i in range(os + 1):
                    ci = loc[i]
                    if ci == 0:
                        continue
                    for j in range(os + 1 - i):
                        out[i + j] += ci * vb[j]
                vals[q] = out
        self._vals = vals

    def _build_float(self, hfac, spf):
        Q, os = self.Q, self.order_s
        arr = np.zeros((os + 1, Q + 1), dtype=np.float64)
        arr[0, 1] = 1.0
        primes = primes_up_to(Q)
        for p in primes[::-1]:
            p = int(p)
            gamma = hfac.exponent_of(p)
            pe = p
            alpha = 1
            while pe <= Q:
                loc = _varphi_pp_float(gamma, self.k, self.l, p, alpha, os)
                mmax = Q // pe
                ms = np.arange(1, mmax + 1, dtype=np.int64)
                mask = (spf[ms] > p) | (ms == 1)
                ms = ms[mask]
                targets = ms * pe
                for i in range(os + 1):
                    acc = np.zeros(len(ms), dtype=np.float64)
                    for r in range(i + 1):
                        if loc[r] != 0.0:
                            acc += loc[r] * arr[i - r, ms]
                    arr[i, targets] = acc
                pe *= p
                alpha += 1
        arr[:, 0] = 0.0
        self._arr = arr

    def coefficient_array(self, i: int) -> np.ndarray:
        if self.mode != "float":
            raise ValueError("coefficient_array is only for float tables")
        return self._arr[i]

    def jet(self, q: int) -> PowerJet:
        if not 1 <= q <= self.Q:
            raise IndexError(f"q={q} outside table range")
        if self.mode == "mp":
            return PowerJet(self._vals[q])
        return PowerJet([mp.mpf(float(self._arr[i, q])) for i in range(self.order_s + 1)])


def varphi_table(h, k: int, l: int, Q: int, order_s: int, mode: str = "auto") -> VarphiTable:
    if mode == "auto":
        mode = "mp" if Q <= _MP_TABLE_LIMIT else "float"
    return VarphiTable(h, k, l, Q, order_s, mode)


@dataclass
class DirichletPartials:
    """Truncated mixed partials of sum_q varphi(q,s) q^(-w) at (1,0).

    jet[i][j] = (1/i!j!) d^i_s d^j_w of the partial sum; tails[i][j] is the
    magnitude of the last decade's contribution, the empirical tail proxy.
    """

    h: int
    k: int
    l: int
    Q: int
    jet: Jet2
    tails: list
    mode: str

    def tail_bound(self) -> mp.mpf:
        return max(max(row) for row in self.tails)


def dirichlet_partials(h, k: int, l: int, Q: int, order_t: int | None = None,
                       order_w: int | None = None, mode: str = "auto",
                       tol: float | None = None) -> DirichletPartials:
    """Assemble D[i][j] = sum_{q<=Q} varphi_i(q) (-log q)^j / j! with tail data.

    When `tol` is given and the empirical tail estimate exceeds it, a
    PrecisionWarning is attached (the series converge absolutely, so a
    large tail is a truncation statement, not an error).
    """
    order_t = order_t if order_t is not None else k
    order_w = order_w if order_w is not None else max(l, k + l - 2)
    if mode == "auto":
        mode = "mp" if Q <= _MP_TABLE_LIMIT else "float"
    table = varphi_table(h, k, l, Q, order_t, mode)
    lo_decade = Q // 10
    if mode == "mp":
        D = [[mp.mpf(0)] * (order_w + 1) for _ in range(order_t + 1)]
        tail = [[mp.mpf(0)] * (order_w + 1) for _ in range(order_t + 1)]
        for q in range(1, Q + 1):
            coeffs = table._vals[q]
            neglog = -mp.log(q) if q > 1 else mp.mpf(0)
            wpow = mp.mpf(1)
            for j in range(order_w + 1):
                scale = wpow / mp.factorial(j)
                for i in range(order_t + 1):
                    term = coeffs[i] * scale
                    D[i][j] += term
                    if q > lo_decade:
                        tail[i][j] += term
                wpow *= neglog
        tails = [[abs(t) for t in row] for row in tail]
        out = DirichletPartials(h=int(_as_factored(h).value), k=k, l=l, Q=Q,
                                jet=Jet2(D), tails=tails, mode=mode)
        _tail_tolerance_check(out, tol)
        return out
    qs = np.arange(0, Q + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        neglog = -np.log(qs)
    neglog[0] = 0.0
    neglog[1] = 0.0
    D = [[mp.mpf(0)] * (order_w + 1) for _ in range(order_t + 1)]
    tails = [[mp.mpf(0)] * (order_w + 1) for _ in range(order_t + 1)]
    wpow = np.ones(Q + 1, dtype=np.float64)
    for j in range(order_w + 1):
        fj = float(mp.factorial(j))
        for i in range(order_t + 1):
            arr = table.coefficient_array(i)
            full = float(np.dot(arr[1:], wpow[1:])) / fj
            last = float(np.dot(arr[lo_decade + 1 :], wpow[lo_decade + 1 :])) / fj
            D[i][j] = mp.mpf(full)
            tails[i][j] = abs(mp.mpf(last))
        wpow *= neglog
    out = DirichletPartials(h=int(_as_factored(h).value), k=k, l=l, Q=Q,
                            jet=Jet2(D), tails=tails, mode=mode)
    _tail_tolerance_check(out, tol)
    return out


def _tail_tolerance_check(partials: DirichletPartials, tol: float | None):
    if tol is not None and partials.tail_bound() > tol:
        warnings.warn(
            f"Dirichlet partials at Q={partials.Q}: tail estimate "
            f"{mp.nstr(partials.tail_bound(), 4)} exceeds requested {tol}",
            PrecisionWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# aggregated record
# ---------------------------------------------------------------------------


@dataclass
class SingularSeries:
    """Evaluated singular series data for one (h, k, l)."""

    k: int
    l: int
    h: int
    C: mp.mpf
    f: mp.mpf
    partials: DirichletPartials
    Q: int
    P: int
    tail_bound: mp.mpf

    def leading_product(self) -> mp.mpf:
        return self.C * self.f

    def to_json(self, digits: int = 30) -> str:
        payload = {
            "k": self.k,
            "l": self.l,
            "h": self.h,
            "C": mp.nstr(self.C, digits),
            "f": mp.nstr(self.f, digits),
            "partials": [
                [mp.nstr(c, digits) for c in row] for row in self.partials.jet.coeffs
            ],
            "Q": self.Q,
            "P": self.P,
            "tail_bound": mp.nstr(self.tail_bound, 8),
        }
        return json.dumps(payload, sort_keys=True)


def evaluate_singular_series(h, k: int, l: int, Q: int = 100_000,
                             P: int = DEFAULT_PRIME_CUTOFF,
                             order_t: int | None = None,
                             order_w: int | None = None,
                             mode: str = "auto") -> SingularSeries:
    C, cbound = singular_constant(k, l, prime_cutoff=P)
    f = singular_shift_factor(h, k, l)
    partials = dirichlet_partials(h, k, l, Q, order_t, order_w, mode)
    return SingularSeries(
        k=k, l=l, h=int(_as_factored(h).value), C=C, f=_mpf_frac(f),
        partials=partials, Q=Q, P=P,
        tail_bound=partials.tail_bound() + cbound,
    )
