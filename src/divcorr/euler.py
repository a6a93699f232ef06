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
(x, y, u) = (p^-s, p^(-w-1), 1/p), and each monomial of total degree m is
summed over p > P through the moments sum_{p>P} (log p)^d p^(-m).  Those
come from Cohen's P-rough prime zeta series, on one table of partial prime
sums over p <= P and a few zeta jets (PrimeTailMoments).  This leaves
truncation errors far below the working precision instead of the
1/(P log P) floor a bare cutoff would give.  Every local factor, at p^gamma
|| h for any gamma, is one closed form: integer polynomials in p, built
once per (gamma, k, l) and evaluated at one prime or a vector of primes.
Their product over p <= P, the patch at p | h and the tail's log-jet run
over 2^bits; the varphi tables run in float64, with a stated rounding.  The
scalar C_{k,l} is that shift-free product's constant coefficient
(singular_constant): one route, whose series degree grows with k and l until
its stated bound, truncation plus rounding, meets the working precision.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count
from math import comb
from operator import itemgetter, mul

import mpmath as mp
import numpy as np

from .arith import (
    FactoredInteger,
    dk_prime_power,
    factorize,
    primes_up_to,
    spf_array,
)
from .errors import PrecisionError, ResourceBudgetError
from .jets import Jet2
from .zeta_series import _zeta_taylor, log_powers, mobius_sieve

DEFAULT_PRIME_CUTOFF = 1_000
_SERIES_DEGREE = 14  # total degree kept in local log-factor expansions
_MAX_SCALAR_ORDER = 42  # singular_constant's series degree grows to this

MAX_DIRICHLET_Q = 4 * 10**6


def _as_factored(h) -> FactoredInteger:
    return h if isinstance(h, FactoredInteger) else factorize(int(h))


def _mpf_frac(fr: Fraction) -> mp.mpf:
    return mp.mpf(fr.numerator) / fr.denominator


class PrimeTailMoments:
    """T(m, d) = sum over primes p > P of (log p)^d p^(-m), for 2 <= m <= m_max
    and d <= d_max, to about 2^-m 10^-(dps+10).

    Cohen's P-rough series (High precision computation of Hardy-Littlewood
    constants, 1998).  With zeta_{>P} the zeta function without its Euler
    factors at p <= P and S(M, d) = sum_{p<=P} p^(-M) (log p)^d,

      sum_{p>P} p^(-m-tau) = sum_{n squarefree} mu(n)/n log zeta_{>P}(nm + n tau),
      log zeta_{>P}(y + tau) = log zeta(y + tau) - sum_{j>=1} sum_{p<=P} p^(-j(y+tau)) / j,

    so T(m, d) = (-1)^d d! sum_n mu(n) n^(d-1) [tau^d] log zeta_{>P}(nm + tau),
    and (-1)^d d! times the tau^d coefficient of the j-th prime sum is
    j^(d-1) S(jy, d).  The term of n is about n^(d-1) T(nm, d), which falls
    like q^(-nm) with q the first prime above P, so only a few products y = nm
    are kept (2..16 at P = 10^3, dps 30), each with one zeta jet; terms are
    kept down to 2^-m 10^-(dps+10) (float estimates decide).  It all runs in
    integers over 2^bits (`fixed`; tail() converts one): S(M, .) once for
    every M = jy, over the primes whose terms are not negligible; the zeta
    jets and their logs (_fixed_log_jet) log2(d!) + 2 d_max + 8 bits wider,
    for the d! and the recurrence's growth (the |f_r| are under 1).
    """

    def __init__(self, prime_cutoff: int, m_max: int, d_max: int, dps: int = 40):
        self.prime_cutoff, self.m_max, self.d_max, self.dps = prime_cutoff, m_max, d_max, dps
        primes = primes_up_to(2 * prime_cutoff + 2)
        q = int(primes[np.searchsorted(primes, prime_cutoff, side="right")])
        primes = [int(p) for p in primes[primes <= prime_cutoff]]
        logp = np.log(np.array(primes, dtype=float))
        eps, ln2, lq = -(dps + 10) * math.log(10), math.log(2), math.log(q)

        def size(n: int, M: int) -> float:
            """log of n^(d-1) T(M, d) at d = 0 or d_max, whichever is larger:
            the term at q times 1 + q / (M - 1 - d / log q) for the integral
            over the rest."""
            return max((d - 1) * math.log(n) + d * math.log(lq) - M * lq
                       + math.log1p(q / max(M - 1 - d / lq, 0.5)) for d in (0, d_max))

        loglogp, log_count = d_max * np.log(logp), math.log(max(len(primes), 1))
        rank = np.arange(1, len(primes) + 1)

        def widths(y: int, tol: float) -> list[int]:
            """For M = y, 2y, ... before the first M that keeps none: the primes
            from 2 up to the last whose term M^(d-1) p^(-M) (log p)^d is above
            tol / pi(P) for some d <= d_max, counted (the rest add under tol);
            16 M at a time, each row as its own float expression would give."""
            out = []
            while not out or out[-1]:
                Ms = np.arange(len(out) + 1, len(out) + 17)[:, None] * y
                lm = np.array([[math.log(M)] for M in Ms[:, 0].tolist()])
                logs = np.maximum(-lm, (d_max - 1) * lm + loglogp) - Ms * logp
                out += (rank * (logs >= tol - log_count)).max(axis=1, initial=0).tolist()
            return out[: out.index(0)]

        # terms[m]: the squarefree n below the first n whose term is dropped
        ends = {m: next(n for n in count(1) if size(n, n * m) < eps - m * ln2)
                for m in range(2, m_max + 1)}
        mu = mobius_sieve(max(ends.values(), default=1))
        terms = {m: [n for n in range(1, end) if mu[n]] for m, end in ends.items()}
        ys = sorted({n * m for m, ns in terms.items() for n in ns})
        # need[M]: primes S(M, .) sums over; js[y]: prime sums j <= js[y] at y
        need, js = {}, {}
        for y in ys:
            counts = widths(y, eps - y * ln2)
            for j, cnt in enumerate(counts, 1):
                need[j * y] = max(need.get(j * y, 0), cnt)
            js[y] = len(counts)
        top = max(need, default=1)
        # S(M, d) as integers over 2^bits: p^(-M) is off by under 4 units, a term
        # by under 5 (log q)^d, and a moment multiplies S(jy, d) by (nj)^(d-1);
        # bits keep the sum of those under 2^-y 10^-(dps+10) for every y.
        bits = math.ceil(-eps / ln2 + max(ys, default=0) + math.log2(
            5 * max(len(primes), 1) * lq ** d_max * top ** max(d_max - 1, 0)))
        self.bits = bits
        rows = log_powers(tuple(primes), d_max, bits)
        # carried[M - 1]: the primes whose powers some S(M' >= M) still needs
        carried = list(accumulate((need.get(M, 0) for M in range(top, 0, -1)), max))[::-1]
        u = [(1 << bits) // p for p in primes]
        S, pw = {}, [1 << bits] * len(primes)
        for M in range(1, top + 1):
            pw = [(a * b) >> bits for a, b in zip(pw[: carried[M - 1]], u)]
            if M in need:
                S[M] = [sum(map(mul, pw[: need[M]], row)) >> bits for row in rows]
        zb = bits + math.ceil(math.log2(math.factorial(d_max))) + 2 * d_max + 8
        # logz[y][d]: (-1)^d d! [tau^d] log zeta_{>P}(y + tau) over 2^bits
        logz = {}
        for y in ys:
            g = _fixed_log_jet(_zeta_taylor(y, d_max, zb), zb)
            logz[y] = [((-1) ** d * math.factorial(d) * g[d] >> zb - bits)
                       - sum(j**d * S[j * y][d] // j for j in range(1, js[y] + 1))
                       for d in range(d_max + 1)]
        self.fixed = {(m, d): sum(int(mu[n]) * n**d * logz[n * m][d] // n for n in ns)
                      for m, ns in terms.items() for d in range(d_max + 1)}

    def tail(self, m: int, d: int) -> mp.mpf:
        return mp.ldexp(self.fixed[(m, d)], -self.bits)


@lru_cache(maxsize=None)
def _tail_moments(prime_cutoff: int, m_max: int, d_max: int, dps: int) -> PrimeTailMoments:
    return PrimeTailMoments(prime_cutoff, m_max, d_max, dps)


def _guarded_dps(dps: int, growth: float) -> int:
    """Digits for the prime-tail moments of a series whose terms reach
    `growth` times 2^m at degree m.  A moment of degree m is kept to an
    absolute error near 2^-m 10^-(dps+10) (PrimeTailMoments); past five of
    those ten guard digits, the series' growth is made up with extra
    digits."""
    if growth <= 0:
        return dps
    return dps + max(0, math.ceil(math.log10(growth)) - 5)


def singular_constant(k: int, l: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
                      tol: float = 1e-25, dps: int | None = None) -> tuple[mp.mpf, mp.mpf]:
    """(C_{k,l}, bound): the constant coefficient of the shift-free Euler jet
    base, _c_euler_base at orders (0, 0), and its stated bound, truncation of
    the tail series plus rounding.  The series' coefficients grow with k and
    l, so its degree is the first from _SERIES_DEGREE on, in steps of two,
    whose bound is at most 10^-dps; at _MAX_SCALAR_ORDER at most.  A tol
    below 10^-dps raises dps to one digit past it.  The factor is
    identically 1 when min(k,l) = 1.
    """
    if k < 1 or l < 1:
        raise ValueError("singular_constant requires k, l >= 1")
    dps = dps or max(30, mp.mp.dps)
    if 0 < tol < 10.0**-dps:
        dps = math.ceil(-math.log10(tol)) + 1
    if k == 1 or l == 1:
        return mp.mpf(1), mp.mpf(0)
    with mp.workdps(dps + 10):
        target = mp.mpf(10) ** (-dps)
    for degree in range(_SERIES_DEGREE, _MAX_SCALAR_ORDER + 1, 2):
        base, bound, _ = _c_euler_base(k, l, 0, 0, prime_cutoff, dps, degree)
        if bound <= target:
            break
    if bound > tol:
        raise PrecisionError(
            f"singular_constant({k},{l}): achieved bound {mp.nstr(bound, 5)} > tol {tol}",
            achieved=bound,
        )
    return base[0, 0], bound  # unrounded: `+` would cut them to the caller's digits


def singular_shift_factor(h, k: int, l: int) -> Fraction:
    """f_{k,l}(h), exactly: over p | h, the local factor of C(s,w) f(s,w) at
    (1,0) over that of C alone, from the weights of _local_weights."""
    if k < 1 or l < 1:
        raise ValueError("singular_shift_factor requires k, l >= 1")

    def at_one(p: int, gamma: int) -> Fraction:  # the (0, 0) contraction over den
        ((c,),), e = _local_jet_weights(gamma, k, l, 0, 0, None)
        return Fraction(_horner(c, p), (p - 1) * p**e)

    return math.prod((at_one(p, g) / at_one(p, 0) for p, g in _as_factored(h).factors),
                     start=Fraction(1))


# ---------------------------------------------------------------------------
# local jets of C(s,w) f(s,w)
# ---------------------------------------------------------------------------


def _dl1(l: int, alpha: int) -> int:
    """d_{l-1}(p^alpha), with the l = 1 convention d_0 = indicator of 1."""
    if l >= 2:
        return dk_prime_power(l - 1, alpha)
    return 1 if alpha == 0 else 0


def _conv(a: list, b: list) -> list:
    """Product of two polynomials held as coefficient lists."""
    return [sum(a[i] * b[n - i] for i in range(max(0, n - len(b) + 1), min(n + 1, len(a))))
            for n in range(len(a) + len(b) - 1)]


@lru_cache(maxsize=None)
def _local_weights(gamma: int, k: int, l: int) -> tuple[tuple, int]:
    """(w, e): the local factor of C(s,w) f(s,w) at p, p^gamma || h, is the
    sum of v(p) / den e^(-(a t + b w) log p), den = (p-1) p^e, over ((a, b), v)
    in w, v the integer coefficients of a polynomial in p, from its highest
    power down: the monomials X^a Y^b of

      sum_{a<=gamma} d_{l-1}(p^a) p^a Y^a (1-Y)^(l-1) [1 - (1-X)^k sum_{b<a} d_k(p^b) X^b]
      + d_k(p^gamma) p^(gamma+1)/(p-1) X^gamma (1-X)^k [1 - (1-Y)^(l-1) sum_{a<=gamma} d_{l-1}(p^a) Y^a],

    X = p^(-s), Y = p^(-w-1), their value p^(-a-b) at (1,0) taken into w: that
    is (1-X)^k (1-Y)^(l-1) / (1-1/p) times the numerator of f derived from phi,
    (1-1/p) sum_{a<=gamma} d_{l-1}(p^a) p^(-aw) sum_{b>=a} d_k(p^b) p^(-bs)
    + d_k(p^gamma) p^(-gamma(s-1)) sum_{a>gamma} d_{l-1}(p^a) p^(-a(w+1)).
    At gamma = 0 it is C's factor D + (1-X)^k (1-D)/(1-1/p), D = (1-Y)^(l-1)."""
    xk = [(-1) ** a * comb(k, a) for a in range(k + 1)]
    yl = [(-1) ** b * comb(l - 1, b) for b in range(l)]
    dk = [dk_prime_power(k, b) for b in range(gamma + 1)]
    dl = [_dl1(l, a) for a in range(gamma + 1)]
    terms = []  # (scalar times p - 1 as {power of p: coefficient}, X-polynomial, Y-polynomial)
    for a in range(gamma + 1):
        ys = [0] * a + yl
        terms += [({a + 1: dl[a], a: -dl[a]}, [1], ys),
                  ({a + 1: -dl[a], a: dl[a]}, _conv(xk, dk[:a]), ys)]
    xs = [0] * gamma + xk
    terms += [({gamma + 1: dk[gamma]}, xs, [1]), ({gamma + 1: -dk[gamma]}, xs, _conv(yl, dl))]
    e = max(len(xs) + len(ys) - 2 for _, xs, ys in terms)
    w = defaultdict(lambda: [0] * (e + gamma + 2))  # coefficients of p^0, p^1, ...
    for c, xs, ys in terms:
        for a, x in enumerate(xs):
            for b, y in enumerate(ys):
                for n, v in c.items():
                    w[a, b][n + e - a - b] += v * x * y
    return tuple((ab, tuple(v[::-1])) for ab, v in w.items() if any(v)), e


@lru_cache(maxsize=None)
def _local_jet_weights(gamma: int, k: int, l: int, order_t: int, order_w: int,
                       alpha: int | None) -> tuple:
    """(rows, e): rows[i][j], the coefficients of sum v (-a)^i (-b)^j over
    _local_weights' w, highest power of p first; with alpha, over its
    monomials with b = alpha only, taken as b = 0."""
    w, e = _local_weights(gamma, k, l)
    if alpha is not None:
        w = tuple(((a, 0), v) for (a, b), v in w if b == alpha)
    rows = tuple(tuple(tuple(map(sum, zip(*([x * (-a) ** i * (-b) ** j for x in v]
                                           for (a, b), v in w))))
                       for j in range(order_w + 1)) for i in range(order_t + 1))
    return rows, e


def _horner(coeffs, p):
    """The polynomial with these coefficients, highest first, at p: a Python
    int or a numpy object array of them."""
    acc = 0
    for c in coeffs:
        acc = acc * p + c
    return acc


def _table_guard(k: int, l: int) -> int:
    """Bits of (log p)^d below a gamma = 0 local factor's unit, for every p:
    its rational weight is at most 3 (1 + e/2)^(k+l-1), so a table entry's
    error adds under one unit."""
    return math.ceil(math.log2(6) + (k + l - 1) * math.log2(1 + math.e / 2))


def _c_local_fixed(p, gamma: int, k: int, l: int, order_t: int, order_w: int,
                   logs, guard: int, alpha: int | None = None) -> list[list]:
    """The local factor over 2^bits, each integer under two units off, from
    logs[d] = (log p)^d over 2^(bits + guard), guard at least _local_fixed's:
    t^i w^j sums v (-a)^i (-b)^j (log p)^(i+j) / (den i! j!) over w.  p is a
    Python int, or a numpy object array of primes with logs[d] over them;
    each polynomial of _local_jet_weights is evaluated there by Horner's
    rule.  With alpha, only its part in p^(-alpha w), the monomials with
    b = alpha: at order_w = 0 that is the t-jet of varphi(p^alpha, s)."""
    rows, e = _local_jet_weights(gamma, k, l, order_t, order_w, alpha)
    den = (p - 1) * p**e << guard
    return [[_horner(c, p) * logs[i + j] // (den * math.factorial(i) * math.factorial(j))
             for j, c in enumerate(row)] for i, row in enumerate(rows)]


def _local_fixed(p: int, gamma: int, k: int, l: int, order_t: int, order_w: int,
                 bits: int, alpha: int | None = None) -> list[list[int]]:
    """_c_local_fixed on a (log p)^d table of the weights' own guard, with
    2^guard >= 2 sum |v| 3^(a+b) / den at p: it bounds a table unit's growth."""
    w, e = _local_weights(gamma, k, l)
    size = 2 * sum(abs(_horner(v, p)) * 3 ** (a + b) for (a, b), v in w)
    guard = (-(-size // ((p - 1) * p**e)) - 1).bit_length()
    logs = [row[0] for row in log_powers((p,), order_t + order_w, bits + guard)]
    return _c_local_fixed(p, gamma, k, l, order_t, order_w, logs, guard, alpha)


def _jet_from_fixed(rows, bits: int) -> Jet2:
    return Jet2([[mp.ldexp(c, -bits) for c in row] for row in rows])


# --- trivariate log-factor series for prime tails ---------------------------


_KEY = 8  # x^a y^b u^c has key (a << 2 _KEY) | (b << _KEY) | c; degrees stay below 2^_KEY


@lru_cache(maxsize=None)
def _local_c_numerator(k: int, l: int) -> tuple:
    """P = (1-u) F = (1-u) D + (1-x)^k (1-D), D = (1-y)^(l-1), for F the
    local C-factor: a polynomial in (x, y, u) of total degree at most
    k + l - 1, as its parts by degree, {key of x^a y^b u^c: integer}."""
    d = [(-1) ** b * comb(l - 1, b) for b in range(l)]
    parts = [defaultdict(int) for _ in range(k + l)]
    for b, v in enumerate(d):
        parts[b][b << _KEY] += v
        parts[b + 1][b << _KEY | 1] -= v
    for a in range(k + 1):
        for b in range(1, l):
            parts[a + b][a << 2 * _KEY | b << _KEY] -= (-1) ** a * comb(k, a) * d[b]
    return tuple({key: v for key, v in part.items() if v} for part in parts)


@lru_cache(maxsize=None)
def _log_numerator_part(k: int, l: int, m: int) -> dict:
    """lcm(1..m) times L_m, the part of total degree m of L = log P, as
    {key: integer}.  P_0 = 1, and the Euler operator x d/dx + y d/dy + u d/du
    multiplies a part of degree m by m, so P L' = P' reads
    m L_m = m P_m - sum_{0<i<m} i L_i P_(m-i), with P_j = 0 past degree
    k + l - 1.  L_m's denominators divide lcm(1..m), so every division by m
    is exact."""
    P, lcm = _local_c_numerator(k, l), math.lcm(*range(1, m + 1))
    acc = defaultdict(int, {key: m * lcm * v for key, v in (P[m] if m < len(P) else {}).items()})
    for i in range(max(1, m - len(P) + 1), m):
        scale = i * (lcm // math.lcm(*range(1, i + 1)))
        rest = P[m - i].items()
        for key1, g in _log_numerator_part(k, l, i).items():
            g *= scale
            for key2, f in rest:
                acc[key1 + key2] -= g * f
    return {key: v // m for key, v in acc.items() if v}


@lru_cache(maxsize=None)
def _log_local_c_series(k: int, l: int, deg: int = _SERIES_DEGREE) -> tuple[tuple, int]:
    """(terms, den): log of the local C-factor as a series in (x, y, u), the
    coefficient of x^a y^b u^c being v / den for ((a, b, c), v) in terms.

    Monomial x^a y^b u^c stands for p^(-as) p^(-b(w+1)) p^(-c); the series
    starts at total degree 2, which is the p^(-2) convergence of the product.
    It is log P - log(1-u), P = (1-u) F: the parts of log P of degree m <= deg
    (_log_numerator_part, shared by every deg) plus u^m / m, put over
    lcm(1..deg) in integers and reduced to the least common den.
    """
    lcm, mask = math.lcm(*range(1, deg + 1)), (1 << _KEY) - 1
    out = {}  # the parts' keys are disjoint
    for m in range(1, deg + 1):
        lcm_m = math.lcm(*range(1, m + 1))
        part = defaultdict(int, _log_numerator_part(k, l, m))
        part[m] += lcm_m // m  # u^m / m, from -log(1-u)
        part = {key: v * (lcm // lcm_m) for key, v in part.items() if v}
        assert m > 1 or not part, "local factor must be 1 + O(degree 2)"
        out.update(part)
    common = math.gcd(lcm, *out.values())
    return tuple(sorted(((key >> 2 * _KEY, key >> _KEY & mask, key & mask), v // common)
                        for key, v in out.items())), lcm // common


@lru_cache(maxsize=None)
def _max_power_term(a: int, order: int) -> float:
    """max over i <= order of a^i / i!, the largest t- or w-factor of a
    monomial's jet."""
    return max(a**i / math.factorial(i) for i in range(order + 1))


@lru_cache(maxsize=None)
def _log_jet_weights(k: int, l: int, order_t: int, order_w: int, degree: int) -> tuple:
    """(num, den, growth, gmax): num[i][j][m] / (den i! j!), the sum of
    g (-a)^i (-b)^j over the series' monomials x^a y^b u^c of degree m, weighs
    T(m, i+j) in the log-jet's t^i w^j; growth (_guarded_dps), gmax = max |g|.
    k = 1 or l = 1 makes the C-factor 1: its series is empty, growth and gmax 0."""
    series, den = _log_local_c_series(k, l, degree)
    num = [[[0] * (degree + 1) for _ in range(order_w + 1)] for _ in range(order_t + 1)]
    for (a, b, c), g in series:
        for i in range(order_t + 1 if a else 1):
            for j in range(order_w + 1 if b else 1):
                num[i][j][a + b + c] += g * (-a) ** i * (-b) ** j
    growth = max((abs(g) / den * 2.0 ** -(a + b + c) * _max_power_term(a, order_t)
                  * _max_power_term(b, order_w) for (a, b, c), g in series), default=0.0)
    return num, den, growth, Fraction(max((abs(g) for _, g in series), default=0), den)


def _prime_tail_log_jet(k: int, l: int, order_t: int, order_w: int, prime_cutoff: int,
                        dps: int, degree: int) -> tuple[Jet2, mp.mpf]:
    """(log of prod_{p > P} of the local C-factor as a jet, bound): the
    log-factor series to total degree `degree`, each monomial summed over
    p > P through the prime-tail moments, in integers over the moments' 2^bits.
    The bound is twice the last two degrees' terms plus the weighted moments'
    own errors 2^-m 10^-(dps'+10) and a unit for each rounding."""
    num, den, growth, gmax = _log_jet_weights(k, l, order_t, order_w, degree)
    tails = _tail_moments(prime_cutoff, degree, order_t + order_w, _guarded_dps(dps, growth))
    bits, dmax = tails.bits, order_t + order_w
    moments = [[tails.fixed.get((m, d), 0) for m in range(degree + 1)] for d in range(dmax + 1)]
    scales = [[den * math.factorial(i) * math.factorial(j) for j in range(order_w + 1)]
              for i in range(order_t + 1)]
    corr = [[sum(map(mul, num[i][j], moments[i + j])) // scales[i][j]
             for j in range(order_w + 1)] for i in range(order_t + 1)]
    unit = 2.0**-bits
    rounding = max(unit + sum(abs(n) / scales[i][j] * (2.0**-m * 10.0 ** -(tails.dps + 10) + unit)
                              for m, n in enumerate(num[i][j]))
                   for i in range(order_t + 1) for j in range(order_w + 1))
    bound = 2 * _mpf_frac(gmax) * (tails.tail(degree - 1, dmax) + tails.tail(degree, dmax))
    return _jet_from_fixed(corr, bits), bound + rounding


@lru_cache(maxsize=None)
def _mul_plan(rows: int, cols: int) -> tuple:
    """Getters that gather, for each coefficient (i, j) of a truncated rows x
    cols jet product, row by row, the entries a[i1][j1] and the matching
    b[i-i1][j-j1] of the jets flattened row by row.  Each also takes index
    rows * cols, a 0 appended to both flat lists, so that it returns a tuple
    even for (0, 0)."""
    zero = rows * cols
    return tuple((itemgetter(zero, *(i1 * cols + j1 for i1 in range(i + 1) for j1 in range(j + 1))),
                  itemgetter(zero, *((i - i1) * cols + j - j1 for i1 in range(i + 1)
                                     for j1 in range(j + 1))))
                 for i in range(rows) for j in range(cols))


def _fixed_mul(a: list, b: list, bits: int) -> list[list[int]]:
    """Truncated product of two jets held as integers over 2^bits, floored."""
    rows, cols = len(a), len(a[0])
    fa, fb = [*chain.from_iterable(a), 0], [*chain.from_iterable(b), 0]
    flat = [sum(map(mul, ga(fa), gb(fb))) >> bits for ga, gb in _mul_plan(rows, cols)]
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def _fixed_div(a: list, b: list, bits: int) -> list[list[int]]:
    """Truncated quotient a / b of two jets held as integers over 2^bits,
    solved coefficient by coefficient, each floored: q b equals a less under
    b[0][0] / 2^bits units in every coefficient."""
    q = [[0] * len(a[0]) for _ in a]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            rest = sum(b[i1][j1] * q[i - i1][j - j1] for i1 in range(i + 1)
                       for j1 in range(j + 1) if i1 or j1)
            q[i][j] = ((x << bits) - rest) // b[0][0]
    return q


def _fixed_log_jet(f, bits: int) -> list[int]:
    """log of a one-variable jet held as integers over 2^bits, f[0] > 2^bits:
    one mpmath log for the constant term, then g_r from r f_0 g_r = r f_r -
    sum_{0<i<r} i g_i f_(r-i) (f g' = f'), each floored."""
    with mp.workprec(bits + 16):
        g = [int(mp.ldexp(mp.log(mp.ldexp(f[0], -bits)), bits))]
    for r in range(1, len(f)):
        rest = sum(i * g[i] * f[r - i] for i in range(1, r))
        g.append(((r * f[r] << bits) - rest) // (r * f[0]))
    return g


def _l1(rows: list, bits: int) -> float:
    """The sum of |coefficients| of a jet held as integers over 2^bits."""
    return sum(abs(c) for row in rows for c in row) / (1 << bits)


@lru_cache(maxsize=None)
def _c_euler_base(k: int, l: int, order_t: int, order_w: int, prime_cutoff: int,
                  dps: int, degree: int) -> tuple[Jet2, mp.mpf, int]:
    """(jet of the shift-free C(s,w) at (1,0), tail bound, bits): the local factors
    over p <= P, multiplied as integers over 2^bits, times the exp of the prime
    tail.  Shared by every shift; callers must not mutate it.  Per prime,
    every coefficient is rounded twice (factor, two units; product, one), and
    the other factors, bounded termwise by exp(X) with X = sum_p |factor - 1|,
    carry a rounding on: to first order by at most exp(X(rho, rho)) /
    ((1-rho)^2 rho^(order_t+order_w)), rho in (0, 1): 2^9 at (2,2) to 2^25 at
    (4,4) and 2^37 at (6,5), taken as its log2 (exp(X) overflows a float near
    rho = 1 from (6,5) on).  bits keep 3 pi(P) 2^32 units under 10^-(dps+10)
    and reach the moments' bits; an amplifier above 2^32 widens them by the
    excess, and the product is redone."""
    primes = [int(p) for p in primes_up_to(prime_cutoff)]
    p, guard, count = np.array(primes, dtype=object), _table_guard(k, l), 3 * len(primes)
    growth = _log_jet_weights(k, l, order_t, order_w, degree)[2]
    tails = _tail_moments(prime_cutoff, degree, order_t + order_w, _guarded_dps(dps, growth))
    bits = max(tails.bits - guard, math.ceil(
        (dps + 10) * math.log2(10) + math.log2(max(count, 1)) + 32))
    narrow = bits  # widened by the excess of an amplifier over 2^32
    while True:
        logs = [np.array(row, dtype=object)
                for row in log_powers(tuple(primes), order_t + order_w, bits + guard)]
        factors = _c_local_fixed(p, 0, k, l, order_t, order_w, logs, guard)
        spread = [[0] * (order_w + 1) for _ in range(order_t + 1)]
        prod = [[(i == j == 0) << bits for j in range(order_w + 1)] for i in range(order_t + 1)]
        for n in range(len(primes)):
            factor = [[c[n] for c in row] for row in factors]
            prod = _fixed_mul(prod, factor, bits)
            factor[0][0] -= 1 << bits
            spread = [[s + abs(f) for s, f in zip(*rows)] for rows in zip(spread, factor)]
        log2_amplifier = min(
            (sum(s / (1 << bits) * rho ** (i + j)
                 for i, row in enumerate(spread) for j, s in enumerate(row))
             - math.log((1 - rho) ** 2 * rho ** (order_t + order_w))) / math.log(2)
            for rho in (r / 16 for r in range(1, 16)))
        wide = narrow + max(0, math.ceil(log2_amplifier) - 32)
        if bits >= wide:
            break
        bits = wide
    with mp.workprec(bits + 8):  # the rounding term, over 2^-bits, outweighs the sum's own
        corr, bound = _prime_tail_log_jet(k, l, order_t, order_w, prime_cutoff, dps, degree)
        bound = +(bound + count * 2.0 ** (log2_amplifier - bits))
    with mp.workprec(bits):  # at dps + 10 digits, exp and product err by units in the last
        return _jet_from_fixed(prod, bits) * corr.exp(), bound, bits


def cf_euler_jet(h, k: int, l: int, order_t: int, order_w: int,
                 prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
                 dps: int | None = None) -> tuple[Jet2, mp.mpf]:
    """(jet of C(s,w) f(s,w) at (1,0), bound): the shift-free C-product (built
    once per process for each set of parameters) as integers over its 2^bits,
    times the local factor N of each p | h over its gamma = 0 form D.  The
    bound adds the rounding, to first order in units (|.| sums |coefficients|):
    one for the base's integers; then err |N| + 2 |R| + 1 for R N, and
    |1/D| (err + 2 |Q| + 1) for Q = R N / D, each factor two units off, with
    |1/D| <= sum_{r<=order_t+order_w} (|D| / D_00 - 1)^r / D_00; |Q| for the mpfs."""
    dps = dps or max(30, mp.mp.dps)
    base, bound, bits = _c_euler_base(k, l, order_t, order_w, prime_cutoff, dps,
                                       _SERIES_DEGREE)
    factors = _as_factored(h).factors
    if not factors:
        return Jet2(base.coeffs), bound
    prod = [[int(mp.ldexp(c, bits)) for c in row] for row in base.coeffs]
    err = 1.0
    for p, gamma in factors:
        new = _local_fixed(p, gamma, k, l, order_t, order_w, bits)
        old = _local_fixed(p, 0, k, l, order_t, order_w, bits)
        err = err * _l1(new, bits) + 2 * _l1(prod, bits) + 1
        prod = _fixed_div(_fixed_mul(prod, new, bits), old, bits)
        d00 = old[0][0] / (1 << bits)
        inverse = sum((_l1(old, bits) / d00 - 1) ** r
                      for r in range(order_t + order_w + 1)) / d00
        err = inverse * (err + 2 * _l1(prod, bits) + 1)
    with mp.workprec(bits):
        return _jet_from_fixed(prod, bits), bound + (err + _l1(prod, bits)) * 2.0**-bits


# ---------------------------------------------------------------------------
# tables of the Dirichlet coefficients varphi(q, s) for q <= Q
# ---------------------------------------------------------------------------


def _jet_mul(a, b) -> np.ndarray:
    """Truncated products of t-jets stored column-wise (row r holds the t^r
    coefficients): out[i] = sum_{r <= i} a[r] b[i-r]."""
    return np.stack([sum(a[r] * b[i - r] for r in range(i + 1)) for i in range(len(a))])


_CHUNK = 1 << 12  # columns per gather-multiply step, to bound temporaries
_EXACT_PRIMES = 100  # primes below this enter VarphiTable's majorant one by one


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2^-53: m float64 roundings."""
    return m * 2.0**-53 / (1 - m * 2.0**-53)


def _chunks(a: np.ndarray):
    return (a[i:i + _CHUNK] for i in range(0, len(a), _CHUNK))


def _fill_order(Q: int):
    """(qs, ms), chunk by chunk: every q <= Q but 1 and the prime powers, with
    m = q / p^a, p^a || q, p = spf(q), one level of distinct prime factors at
    a time (each level's m are done before it), so at most 7 for Q <= 4*10^6."""
    spf = spf_array(Q).astype(np.int32)
    spf[0] = 1
    # cofactor m = q / p^a: p divides q/p iff spf(q/p) = p, as no prime of q is below p
    m = np.arange(Q + 1, dtype=np.int32) // spf
    rest = np.flatnonzero(spf[m] == spf)
    rest = rest[rest >= 2]
    while len(rest):
        m[rest] //= spf[rest]
        rest = rest[spf[m[rest]] == spf[rest]]
    done = m == 1
    pending = np.flatnonzero(m > 1).astype(np.int32)
    while len(pending):
        ready = done[m[pending]]
        for qs in _chunks(pending[ready]):
            yield qs, m[qs]
        done[pending] = ready
        pending = pending[~ready]


@lru_cache(maxsize=1)
def _varphi_base(k: int, l: int, Q: int, order_s: int) -> tuple[np.ndarray, dict]:
    """(table, sizes): varphi(q, s), 0 <= q <= Q, at a shift with no prime
    factor, a read-only (order_s + 1, Q + 1) float64 array (only the latest
    is kept), and VarphiTable's (E, W) for each prime below _EXACT_PRIMES,
    summed over the rest at key 0.  With u = 1/p, varphi(p^a) is the
    p^(-aw) part of the gamma = 0 local factor, 0 for a >= l, evaluated as
    u^a [(-1)^a C(l-1,a) + N_a (1-p^-s)^k / (1-u)], N_a = -(-1)^a C(l-1,a);
    every other q is varphi(p^a) varphi(m), in _fill_order.  Its t^r entry
    rounds by at most E = gamma_K C(l-1,a) [u^a (r = 0) + u^a / (1-u)
    sum_i C(k,i) i^r u^i (log p)^r / r!], the form with its terms made
    positive (Higham, Accuracy and Stability of Numerical Algorithms, 2002),
    K = 3k + 8 order_s + 2l + 9: Horner in -fl(1/p) (3k), (log p)^r by a log
    within 4 ulp and pow within 1 (8r + 2), its product and 1/r! (2),
    u^a / (1-u) (2a + 2), N_a and its product (2); at r = 0, C u^a (a + 3)
    and the sum (1).  This covers the cancellation in 1 - (1-u)^(k-1) by
    the terms' size.  W = |entry| + E bounds both entry and value."""
    n, primes = order_s + 1, primes_up_to(Q)
    table = np.zeros((n, Q + 1))
    table[0, 1] = 1.0
    logp, u = np.log(primes), 1 / primes
    # (1 - p^-s)^k = sum_i C(k,i) (-u)^i e^(-i t log p): its t^r coefficient is
    # (-log p)^r / r! times sum_i C(k,i) i^r (-u)^i; xbar, its terms' sizes
    xk, xbar = [], []
    for r in range(n):
        acc, size = 0 * u, 0 * u
        for i in range(k, -1, -1):
            acc, size = acc * -u + comb(k, i) * i**r, size * u + comb(k, i) * i**r
        xk.append(acc * (-logp) ** r / math.factorial(r))
        xbar.append(size * logp**r / math.factorial(r))
    gamma, (E, W) = _gamma(3 * k + 8 * order_s + 2 * l + 9), np.zeros((2, n, len(primes)))
    # pe = p^a for the primes with p^a <= Q, a prefix of them; front = u^a / (1-u)
    pe, front = primes, u / (1 - u)
    for a in range(1, l):
        cnt, c = len(pe), comb(l - 1, a)
        for r in range(n):
            table[r, pe] = -(-1) ** a * c * front * xk[r][:cnt]
            E[r, :cnt] += gamma * c * (front * xbar[r][:cnt] + (r == 0) * u[:cnt] ** a)
        table[0, pe] += (-1) ** a * c * u[:cnt] ** a
        W[:, :cnt] += np.abs(table[:, pe])
        cnt = int(np.count_nonzero(pe <= Q // primes[:cnt]))
        pe, front = pe[:cnt] * primes[:cnt], front[:cnt] * u[:cnt]
    W += E
    cut = int(np.searchsorted(primes, _EXACT_PRIMES))
    sizes = {q: (E[:, i].copy(), W[:, i].copy()) for i, q in enumerate(primes[:cut].tolist())}
    sizes[0] = (E[:, cut:].sum(axis=1), W[:, cut:].sum(axis=1))
    for qs, ms in _fill_order(Q):
        table[:, qs] = _jet_mul(table[:, qs // ms], table[:, ms])
    table.flags.writeable = False
    return table, sizes


def _shift_table(base: np.ndarray, hfac: FactoredInteger, k: int, l: int):
    """(table, sizes): varphi(q, s) at shift h for 0 <= q <= Q, read-only, and
    VarphiTable's (E, W) for each p | h up to Q.  With no such p the table is
    the shared base; otherwise one copy of it, in which, p by p in increasing
    order, varphi_h(p^a m) = varphi_h(p^a) varphi_h(m), p not dividing m,
    rewrites the multiples of p.  The local jets are the nearest doubles of
    _local_fixed's over 2^128, under two units off: E = u |jet| + 2^-127."""
    n, Q = base.shape[0], base.shape[1] - 1
    factors = [(p, g) for p, g in hfac.factors if p <= Q]
    if not factors:
        return base, {}
    table, sizes, unit = base.copy(), {}, 1 << 128
    for p, gamma in factors:
        pe, a, E, W = p, 1, 0, 0
        while pe <= Q:
            loc = np.array([row[0] / unit for row in _local_fixed(p, gamma, k, l, n - 1, 0, 128, a)])
            E, W = E + _gamma(1) * abs(loc) + 2.0**-127, W + abs(loc)
            ms = np.arange(1, Q // pe + 1, dtype=np.int32)
            for part in _chunks(ms[ms % p != 0]):
                table[:, pe * part] = _jet_mul(loc[:, None], table[:, part])
            pe, a = pe * p, a + 1
        sizes[p] = (E, W + E)
    table.flags.writeable = False
    return table, sizes


class VarphiTable:
    """varphi(q, s) jets for q <= Q as float64 rows in t = s - 1: the shared
    shift-free base (_varphi_base) when h has no prime p <= Q, else a copy
    of it rewritten at the multiples of each such p | h (_shift_table).

    `mass[i]` bounds sum_{q<=Q} |varphi_i(q)|, entries and values, and
    `fill_error[i]` sum_q |entry - value|.  An entry is a chain of jet
    products over q's prime powers, each rounding by at most gamma_n times
    its factors' sizes (Higham 3.1).  With W(p^a) >= |entry|, |value| and
    E(p^a) >= |entry - value|, induction down the chain bounds q's rounding
    by (1 + gamma_n)^omega sum_{p^a || q} (E + gamma_n W)(p^a) prod_{other
    p^b || q} W(p^b), omega the most prime factors of a q <= Q.  Summed over
    q these are terms of prod_p (1 + S_p), S_p = sum_a W(p^a), taken one by
    one below _EXACT_PRIMES and as exp(sum S_p) above (1 + S <= e^S
    termwise): sizes[p] = (sum_a E(p^a), S_p), sizes[0] the rest's sums."""

    def __init__(self, h, k: int, l: int, Q: int, order_s: int):
        if Q > MAX_DIRICHLET_Q:
            raise ResourceBudgetError(f"varphi table Q={Q} over budget {MAX_DIRICHLET_Q}")
        if Q < 1:
            raise ValueError("varphi table requires Q >= 1")
        hfac, n = _as_factored(h), order_s + 1
        self.h, self.k, self.l, self.Q, self.order_s = int(hfac.value), k, l, Q, order_s
        base, sizes = _varphi_base(k, l, Q, order_s)
        self._table, local = _shift_table(base, hfac, k, l)
        g, (E, W) = _gamma(n), sizes[0]
        prod = [math.exp(W[0])]  # exp of the jet W: r e_r = sum_{0<s<=r} s W_s e_(r-s)
        for r in range(1, n):
            prod.append(sum(s * W[s] * prod[r - s] for s in range(1, r + 1)) / r)
        spread = E + g * W
        for E, W in (v for p, v in {**sizes, **local}.items() if p):
            prod, spread = _jet_mul(prod, W + np.eye(1, n)[0]), spread + E + g * W
        omega = int(np.searchsorted(np.cumprod(primes_up_to(30).astype(float)), Q, side="right"))
        self.mass = (1 + g) ** omega * np.array(prod)
        self.fill_error = (1 + g) ** omega * _jet_mul(spread, prod)

    def columns(self, qs: np.ndarray) -> np.ndarray:
        """varphi(q, s) for q in qs (row r: t^r), as a fresh array (a slice
        view changes the last bits of np.dot)."""
        return self._table[:, qs]


def varphi_table(h, k: int, l: int, Q: int, order_s: int) -> VarphiTable:
    return VarphiTable(h, k, l, Q, order_s)


@dataclass
class DirichletPartials:
    """Truncated mixed partials of sum_q varphi(q,s) q^(-w) at (1,0):
    jet[i][j] = (1/i!j!) d^i_s d^j_w of the partial sum; tails[i][j] is the
    magnitude of the last decade's contribution, the empirical tail proxy;
    rounding bounds the float64 error in every jet[i][j] (dirichlet_partials)."""

    h: int
    k: int
    l: int
    Q: int
    jet: Jet2
    tails: list
    rounding: float = 0.0

    def tail_bound(self) -> mp.mpf:
        return max(max(row) for row in self.tails) + self.rounding


def dirichlet_partials(h, k: int, l: int, Q: int, order_t: int | None = None,
                       order_w: int | None = None) -> DirichletPartials:
    """D[i][j] = sum_{q<=Q} varphi_i(q) (-log q)^j / j! with tail data: float64
    dots of the table's rows with (-log q)^j, chunk by chunk.  The stated
    rounding is twice the largest over i, j of (log Q)^j / j! [fill_error[i]
    + gamma_N mass[i]], N = 9j + _CHUNK + Q / _CHUNK + 3: (-log q)^j by a log
    within 4 ulp and j products (9j), a chunk's dot (Higham 3.1), the sum
    over chunks and head + last; the 2 covers the bound's own float sums."""
    order_t = order_t if order_t is not None else k
    order_w = order_w if order_w is not None else max(l, k + l - 2)
    table = varphi_table(h, k, l, Q, order_t)

    def block_sums(lo: int, hi: int) -> list:
        """sum over lo <= q < hi of varphi_i(q) (-log q)^j, block by block."""
        S = [[0] * (order_w + 1) for _ in range(order_t + 1)]
        for start in range(lo, hi, _CHUNK):
            qs = np.arange(start, min(start + _CHUNK, hi))
            cols, logs = table.columns(qs), -np.log(qs)
            wpow = np.ones(len(qs))
            for j in range(order_w + 1):
                for i in range(order_t + 1):
                    S[i][j] += np.dot(cols[i], wpow)
                wpow = wpow * logs
        return S

    head, last = block_sums(1, Q // 10 + 1), block_sums(Q // 10 + 1, Q + 1)
    D = [[mp.mpf(head[i][j] + last[i][j]) / math.factorial(j)
          for j in range(order_w + 1)] for i in range(order_t + 1)]
    tails = [[abs(mp.mpf(last[i][j])) / math.factorial(j)
              for j in range(order_w + 1)] for i in range(order_t + 1)]
    L, N = math.log(Q), _CHUNK + Q // _CHUNK + 3
    rounding = 2 * max(L**j / math.factorial(j)
                       * (table.fill_error[i] + _gamma(N + 9 * j) * table.mass[i])
                       for i in range(order_t + 1) for j in range(order_w + 1))
    return DirichletPartials(h=table.h, k=k, l=l, Q=Q, jet=Jet2(D), tails=tails,
                             rounding=rounding)


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
                             P: int = DEFAULT_PRIME_CUTOFF) -> SingularSeries:
    C, cbound = singular_constant(k, l, prime_cutoff=P)
    f = singular_shift_factor(h, k, l)
    partials = dirichlet_partials(h, k, l, Q)
    return SingularSeries(
        k=k, l=l, h=int(_as_factored(h).value), C=C, f=_mpf_frac(f),
        partials=partials, Q=Q, P=P,
        tail_bound=partials.tail_bound() + cbound,
    )
