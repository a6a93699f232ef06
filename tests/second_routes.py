"""Second routes that only the tests use: v_p(h), the local Euler factor
jets of C(s,w) f(s,w), the varphi coefficient rows and jets of a table, phi
and varphi per q as products of mpmath local jets, the scalar constant
C_{k,l} as an mpf product with its log series in 1/p, the fixed-point
varphi fill with its partials and their stated rounding (the reference for
the package's float64 tables), the phi partial sum through the varphi
convolution, the secondary term from explicit boundary
weights, the strided d_k sieve, the beta law by quadrature, the
c-coefficients by jet division, the Moebius log-moments by a direct sieve,
the (log p)^d table and the zeta jets in mpmath arithmetic, the residue
pipeline for the polynomial coefficients, and the jet of t or w, the log
of a jet and a jet's value at a point.
They arbitrate the library's routes and are not part of the package."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, factorial

import mpmath as mp
import numpy as np

from divcorr.arith import (
    RationalExponent,
    divisor_count_array,
    dk_prime_power,
    factorize,
    introot_ceil,
    primes_up_to,
)
from divcorr.asympt import CoefficientContext, coefficient_context
from divcorr.errors import ResourceBudgetError
from divcorr.euler import (
    _CHUNK,
    MAX_DIRICHLET_Q,
    DirichletPartials,
    _as_factored,
    _c_local_fixed,
    _chunks,
    _dl1,
    _fill_order,
    _guarded_dps,
    _jet_from_fixed,
    _jet_mul,
    _local_fixed,
    _mpf_frac,
    _table_guard,
    _tail_moments,
)
from divcorr.jets import Jet2, JetSingularityError
from divcorr.zeta_series import (
    c_coeffs,
    fixed_logs,
    log_powers,
    mobius_sieve,
    zeta_power_coeffs,
    zeta_power_jet,
)


def exponent_of(h, p: int) -> int:
    """v_p(h), for h an int or a FactoredInteger."""
    return dict(_as_factored(h).factors).get(p, 0)


def cf_local_jet(p: int, gamma: int, k: int, l: int, order_t: int, order_w: int) -> Jet2:
    """Local factor of C(s,w) f(s,w) at p, gamma = v_p(h) >= 0 (C's alone at
    gamma = 0): the integers of _local_weights, 10 bits past working precision."""
    bits = mp.mp.prec + 10
    return _jet_from_fixed(_local_fixed(p, gamma, k, l, order_t, order_w, bits), bits)


def coefficient_array(table, i: int) -> np.ndarray:
    """The t^i coefficients of a varphi table's varphi(q, s) for q = 0..Q (0
    at q = 0), as a fresh array."""
    return table.columns(np.arange(table.Q + 1))[i]


def varphi_jet(table, q: int) -> Jet2:
    """varphi(q, s) from a VarphiTable, as a one-variable jet in t = s - 1."""
    if not 1 <= q <= table.Q:
        raise IndexError(f"q={q} outside table range")
    return Jet2([[c] for c in table.columns(np.array([q]))[:, 0]])


# --- the fixed-point varphi fill -------------------------------------------


@lru_cache(maxsize=1)
def fixed_varphi_base(k: int, l: int, Q: int, order_s: int, bits: int) -> tuple[np.ndarray, dict]:
    """(table, norms): varphi(q, s) for 0 <= q <= Q at a shift with no prime
    factor, as a read-only (order_s + 1, Q + 1) array of Python integers over
    2^bits, and norms[p] = max_a sum_r |t^r coefficient of varphi(p^a)| where
    that is above 1.  Only the latest base is kept.  A prime power is
    _c_local_fixed's part in p^(-aw) of the gamma = 0 local factor, once per
    a < l on the primes with p^a <= Q, from (log p)^r over
    2^(bits + _table_guard), which bounds its weight: under two units off.
    Every other q is varphi(p^a) varphi(m), in the order of _fill_order, each
    jet product floored."""
    n = order_s + 1
    primes = primes_up_to(Q)
    table, norms = np.zeros((n, Q + 1), dtype=object), {}
    table[0, 1] = 1 << bits
    guard = _table_guard(k, l)
    p = np.array(primes.tolist(), dtype=object)
    logs = [np.array(row, dtype=object)
            for row in log_powers(tuple(primes.tolist()), n - 1, bits + guard)]
    for a in range(1, l):
        cnt = int(np.count_nonzero(p ** a <= Q))
        pe = primes[:cnt] ** a
        local = _c_local_fixed(p[:cnt], 0, k, l, n - 1, 0, [row[:cnt] for row in logs], guard, a)
        for r, (col,) in enumerate(local):
            table[r, pe] = col
        size = np.abs(table[:, pe]).sum(axis=0) / (1 << bits)
        norms.update((q, max(g, norms.get(q, 1))) for q, g in zip(primes.tolist(), size) if g > 1)
    for qs, ms in _fill_order(Q):
        table[:, qs] = _jet_mul(table[:, qs // ms], table[:, ms]) >> bits
    table.flags.writeable = False
    return table, norms


def fixed_shift_table(base: np.ndarray, hfac, k: int, l: int, bits: int):
    """(table, norms): the integer table at shift h, read-only, and norms[p],
    the largest sum of |coefficients| of a local jet at p: the base itself
    when no p | h is up to Q, else one copy with the multiples of each such
    p rewritten from _local_fixed's jets over the base's 2^bits."""
    n, Q = base.shape[0], base.shape[1] - 1
    factors = [(p, g) for p, g in hfac.factors if p <= Q]
    if not factors:
        return base, {}
    table, norms = base.copy(), {}
    for p, gamma in factors:
        pe, a = p, 1
        while pe <= Q:
            loc = [row[0] for row in _local_fixed(p, gamma, k, l, n - 1, 0, bits, a)]
            norms[p] = max(norms.get(p, 0.0), sum(map(abs, loc)) / (1 << bits))
            loc = np.array(loc, dtype=object)
            ms = np.arange(1, Q // pe + 1, dtype=np.int32)
            for part in _chunks(ms[ms % p != 0]):
                table[:, pe * part] = _jet_mul(loc[:, None], table[:, part]) >> bits
            pe, a = pe * p, a + 1
    table.flags.writeable = False
    return table, norms


class FixedVarphiTable:
    """varphi(q, s) jets for q <= Q as Python integers over 2^bits, handed
    out as mpmath numbers.  Every stored integer is within `error` =
    4 omega G units of its value, with omega the most prime factors of a
    q <= Q and G = `norm`, the product over p of max(1, the largest sum of
    |coefficients| of a local jet at p), which bounds every column's: a
    product rounds once and carries its factors' errors by their sums,
    3 omega(q) G units by induction on omega(q), from prime powers under
    two.  bits keeps fixed_partials' stated rounding, about
    Q 4 omega G (log Q + 1)^j units (omega <= 7, j <= order_s + l covers the
    default w-order), under 10^-(dps+10) while G < 2^16 (1 to 17 for
    k, l <= 3 and h | 96)."""

    def __init__(self, h, k: int, l: int, Q: int, order_s: int):
        if Q > MAX_DIRICHLET_Q:
            raise ResourceBudgetError(f"varphi table Q={Q} over budget {MAX_DIRICHLET_Q}")
        hfac = _as_factored(h)
        self.h, self.k, self.l, self.Q, self.order_s = int(hfac.value), k, l, Q, order_s
        self.bits = math.ceil((mp.mp.dps + 10) * math.log2(10) + math.log2(32 * Q)
                              + (order_s + l) * math.log2(math.log(Q) + 1)) + 16
        base, norms = fixed_varphi_base(k, l, Q, order_s, self.bits)
        self._table, local = fixed_shift_table(base, hfac, k, l, self.bits)
        omega = int(np.searchsorted(np.cumprod(primes_up_to(30).astype(float)), Q, side="right"))
        self.norm = math.prod(max(1.0, g) for g in {**norms, **local}.values())
        self.error = 4 * omega * self.norm

    def _stored(self, qs: np.ndarray) -> np.ndarray:
        """The integers of columns qs, as a fresh array."""
        return self._table[:, qs]

    def columns(self, qs: np.ndarray) -> np.ndarray:
        """varphi(q, s) for q in qs (row r: t^r), as mpmath numbers."""
        return np.frompyfunc(lambda c: mp.ldexp(c, -self.bits), 1, 1)(self._stored(qs))


def fixed_partials(h, k: int, l: int, Q: int, order_t: int | None = None,
                   order_w: int | None = None) -> DirichletPartials:
    """dirichlet_partials on the fixed-point table: exact integer dots of the
    table's integers with (-log q)^j over 2^lb, lb = bits + _table_guard,
    each power floored and log q = sum v_p(q) log p from the fixed-point
    logs the base's (log p)^d table reads (fixed_logs, under two units low);
    D[i][j] becomes an mpf once, at the table's precision.  The stated
    rounding, with the table's e = `error`, G = `norm` and L = log Q + 1, is
    the largest over j of
    Q [(e + 2G) L^j 2^-bits + G j L^(j-1) (2 log2 Q + 1) 2^-lb] / j!: each
    entry's error times (log q)^j, the powers' errors (log q is under two
    units low, inside the 2 Omega(q) allowed for) times |varphi_i(q)| <= G,
    and 2G for the conversion."""
    order_t = order_t if order_t is not None else k
    order_w = order_w if order_w is not None else max(l, k + l - 2)
    table = FixedVarphiTable(h, k, l, Q, order_t)
    bits = table.bits
    lb = bits + _table_guard(k, l)
    logq = np.array(fixed_logs(Q, lb), dtype=object)

    def block_sums(lo: int, hi: int) -> list:
        S = [[0] * (order_w + 1) for _ in range(order_t + 1)]
        for start in range(lo, hi, _CHUNK):
            qs = np.arange(start, min(start + _CHUNK, hi))
            cols, logs = table._stored(qs), -logq[qs]
            wpow = np.full(len(qs), 1 << lb, dtype=object)
            for j in range(order_w + 1):
                for i in range(order_t + 1):
                    S[i][j] += np.dot(cols[i], wpow)
                wpow = (wpow * logs) >> lb
        return S

    head, last = block_sums(1, Q // 10 + 1), block_sums(Q // 10 + 1, Q + 1)
    with mp.workprec(max(bits, mp.mp.prec)):
        D = [[mp.ldexp(head[i][j] + last[i][j], -bits - lb) / math.factorial(j)
              for j in range(order_w + 1)] for i in range(order_t + 1)]
        tails = [[abs(mp.ldexp(last[i][j], -bits - lb)) / math.factorial(j)
                  for j in range(order_w + 1)] for i in range(order_t + 1)]
    L, e, G = math.log(Q) + 1, table.error, table.norm
    rounding = max(Q * ((e + 2 * G) * L**j * 2.0**-bits
                        + G * j * L ** (j - 1) * (2 * math.log2(Q) + 1) * 2.0**-lb)
                   / math.factorial(j) for j in range(order_w + 1))
    return DirichletPartials(h=table.h, k=k, l=l, Q=Q, jet=Jet2(D), tails=tails,
                             rounding=rounding)


def fixed_context(h: int, k: int, l: int, Q: int) -> CoefficientContext:
    """coefficient_context(h, k, l, source="dirichlet", Q=Q) built from
    fixed_partials: the matched-truncation checks' shared inputs."""
    dp = fixed_partials(h, k, l, Q)
    return CoefficientContext(
        h=int(h), k=k, l=l, partials=dp.jet,
        a_l1=zeta_power_coeffs(l - 1, max(l, k + l - 2) + 1), c_k=c_coeffs(k, k + 1),
        source="dirichlet", tail_bound=dp.tail_bound(), tails=dp.tails)


def variable_t(order_t: int, order_w: int) -> Jet2:
    """The jet of t itself."""
    if order_t < 1:
        raise ValueError("variable_t needs order_t >= 1")
    out = Jet2.constant(0, order_t, order_w)
    out.coeffs[1][0] = mp.mpf(1)
    return out


def variable_w(order_t: int, order_w: int) -> Jet2:
    """The jet of w itself."""
    if order_w < 1:
        raise ValueError("variable_w needs order_w >= 1")
    out = Jet2.constant(0, order_t, order_w)
    out.coeffs[0][1] = mp.mpf(1)
    return out


def jet_log(jet: Jet2) -> Jet2:
    """log of a jet with a positive real constant term c0: log c0 plus the
    series of log(1 + r), r = jet / c0 - 1 (0 at (0, 0) exactly)."""
    c0 = jet.coeffs[0][0]
    if not (isinstance(c0, mp.mpf) and c0 > 0):
        raise JetSingularityError("log of a jet needs a positive constant term")
    rest = Jet2([[c / c0 for c in row] for row in jet.coeffs]) - 1
    out = Jet2.constant(mp.log(c0), jet.order_t, jet.order_w)
    term = Jet2.constant(1, jet.order_t, jet.order_w)
    for r in range(1, jet.order_t + jet.order_w + 1):
        term = term * rest
        out = out + term * (mp.mpf(-1) ** (r + 1) / r)
    return out


def jet_eval(jet: Jet2, t, w):
    """The truncated series summed at (t, w), by Horner's rule in each variable."""
    t, w = mp.mpmathify(t), mp.mpmathify(w)
    acc = mp.mpf(0)
    for i in range(jet.order_t, -1, -1):
        row = mp.mpf(0)
        for j in range(jet.order_w, -1, -1):
            row = row * w + jet.coeffs[i][j]
        acc = acc * t + row
    return acc


def exp_coeffs(c: int, L, order: int) -> list:
    """Taylor coefficients of e^(-c z L) in z, to z^order."""
    return [(-c * L) ** i / factorial(i) for i in range(order + 1)]


def phi_local(h, k: int, l: int, p: int, alpha: int, order_s: int) -> Jet2:
    """phi(s, p^alpha) as a jet in t = s - 1.

    With gamma = v_p(h) and delta = min(alpha, gamma):
      alpha <= gamma:  d_{l-1}(p^a) (1-p^-s)^k sum_{b>=a} d_k(p^b) p^(-bs),
                       the tail sum in closed form;
      alpha > gamma:   d_{l-1}(p^a)/phi(p^(a-g)) (1-p^-s)^k d_k(p^g) p^(-gs).
    """
    if alpha < 1:
        raise ValueError("phi_local requires alpha >= 1")
    gamma = exponent_of(h, p)
    X = Jet2([[c / p] for c in exp_coeffs(1, mp.log(p), order_s)])
    xk = (1 - X) ** k
    if alpha <= gamma:
        partial = Jet2.constant(0, order_s, 0)
        for b in range(alpha):
            partial = partial + dk_prime_power(k, b) * X**b
        return _dl1(l, alpha) * (1 - xk * partial)
    delta = gamma
    front = Fraction(_dl1(l, alpha), p ** (alpha - delta - 1) * (p - 1))  # phi(p^(a-g))
    jet = xk * (dk_prime_power(k, delta) * X**delta)
    return _mpf_frac(front) * jet


def varphi_prime_power(h, k: int, l: int, p: int, alpha: int, order_s: int) -> Jet2:
    """varphi(p^alpha, s): local phi-series multiplied by (1 - p^(-w-1))^(l-1).
    A fresh jet from a cache on (v_p(h), k, l, p, alpha, order_s, working dps)."""
    gamma = exponent_of(h, p)
    return Jet2(_varphi_prime_power(gamma, k, l, p, alpha, order_s, mp.mp.dps))


@lru_cache(maxsize=None)
def _varphi_prime_power(gamma: int, k: int, l: int, p: int, alpha: int, order_s: int,
                        dps: int) -> tuple:
    u = mp.mpf(1) / p
    out = Jet2.constant(0, order_s, 0)
    for j in range(min(alpha, l - 1) + 1):
        coef = comb(l - 1, j) * (-u) ** j
        if alpha - j == 0:
            out = out + Jet2.constant(coef, order_s, 0)
        else:
            out = out + coef * phi_local(p**gamma, k, l, p, alpha - j, order_s)
    return tuple(map(tuple, out.coeffs))


def phi_of(h, k: int, l: int, q: int, order_s: int) -> Jet2:
    """phi(s, q) by multiplicativity."""
    out = Jet2.constant(1, order_s, 0)
    for p, e in factorize(q).factors:
        out = out * phi_local(h, k, l, p, e, order_s)
    return out


def varphi_of(h, k: int, l: int, q: int, order_s: int) -> Jet2:
    """varphi(q, s) by multiplicativity."""
    out = Jet2.constant(1, order_s, 0)
    for p, e in factorize(q).factors:
        out = out * varphi_prime_power(h, k, l, p, e, order_s)
    return out


@lru_cache(maxsize=None)
def c_factor_poly(k: int, l: int) -> tuple[Fraction, ...]:
    """The local factor of C_{k,l} as a polynomial in u = 1/p,
    (1-u)^(l-1) + (1-u)^(k-1) - (1-u)^(k+l-2)."""
    out = [Fraction(0)] * (k + l - 1)
    for e, sign in ((l - 1, 1), (k - 1, 1), (k + l - 2, -1)):
        for i in range(e + 1):
            out[i] += sign * (-1) ** i * comb(e, i)
    return tuple(out)


def _poly_mul1(a, b, order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def poly_log_series(poly, order: int) -> list[Fraction]:
    """log of a rational polynomial with constant term 1, to u^order, as the
    power sum sum_r (-1)^(r+1) e^r / r."""
    assert poly[0] == 1
    e = [Fraction(0)] + list(poly[1 : order + 1]) + [Fraction(0)] * (order + 1 - len(poly))
    out = [Fraction(0)] * (order + 1)
    term = [Fraction(1)] + [Fraction(0)] * order
    for r in range(1, order + 1):
        term = _poly_mul1(term, e, order)
        for i, c in enumerate(term):
            out[i] += Fraction((-1) ** (r + 1), r) * c
    return out


def prime_tail_upper(prime_cutoff: int, m: int) -> mp.mpf:
    """Upper bound on sum_{p > P} p^(-m): the primes in (P, 2P] summed, the
    integers beyond 2P by the integral (2P)^(1-m) / (m-1).  Taken as P^(-m)
    times a float sum of (P/p)^m <= 1, so it does not underflow."""
    ps = primes_up_to(2 * prime_cutoff)
    ratios = prime_cutoff / ps[ps > prime_cutoff].astype(float)
    scaled = float(np.sum(ratios**m)) * (1 + 1e-12) + prime_cutoff * 2.0 ** (1 - m) / (m - 1)
    return mp.mpf(scaled) * mp.mpf(prime_cutoff) ** (-m)


def scalar_tail_bound(g, order: int, prime_cutoff: int) -> mp.mpf:
    """Truncation bound of the 1/p series g of log C_{k,l} cut at `order`:
    twice its last two terms, summed over p > P (no rounding in it)."""
    return 2 * sum(abs(_mpf_frac(g[m])) * prime_tail_upper(prime_cutoff, m)
                   for m in (order - 1, order))


def c_scalar(k: int, l: int, prime_cutoff: int, order: int, dps: int) -> mp.mpf:
    """C_{k,l} by the scalar route: the local factors over p <= P, with
    v = 1 - 1/p, v^(l-1) + v^(k-1) - v^(k+l-2) multiplied in mpf at dps + 10
    digits, times exp of the series of the log-factor in u = 1/p, to
    u^order, summed over p > P by the prime-tail moments."""
    g = poly_log_series(c_factor_poly(k, l), order)
    assert g[0] == 0 and g[1] == 0, "local factor must be 1 + O(u^2)"
    growth = max(abs(float(c)) * 2.0**-m for m, c in enumerate(g))
    with mp.workdps(dps + 10):
        prod = mp.mpf(1)
        for p in primes_up_to(prime_cutoff):
            v = 1 - mp.mpf(1) / int(p)
            prod *= v ** (l - 1) + v ** (k - 1) - v ** (k + l - 2)
        tails = _tail_moments(prime_cutoff, order, 0, _guarded_dps(dps, growth))
        corr = mp.fsum(_mpf_frac(g[m]) * tails.tail(m, 0) for m in range(2, order + 1) if g[m])
        return prod * mp.exp(corr)


def log_powers_mpf(primes, d_max: int, bits: int) -> list:
    """rows[d][i] = (log p_i)^d over 2^bits, floored, for d <= d_max: one
    mpmath log per prime, raised and scaled in mpmath at bits + 64 + 4 d_max
    bits of precision."""
    with mp.workprec(bits + 64 + 4 * d_max):
        logs = [mp.log(p) for p in primes]
        return [[int(mp.ldexp(L**d, bits)) for L in logs] for d in range(d_max + 1)]


def zeta_taylor_mpf(y: int, order: int, dps: int) -> list:
    """zeta^(r)(y) / r! for r = 0..order (at y = 1 the tau^r coefficients of
    (s-1) zeta(s)) by the same Euler-Maclaurin pass as
    zeta_series._zeta_taylor, every sum in mpmath arithmetic at dps + 5
    digits: head sum over n < N = 10 + dps, Bernoulli weights
    B_2k/(2k)! N^(1-2k), the integer Pochhammer jet, N^(-s) applied once; at
    y = 1 the pole term leaves the bracket, the sum is shifted up one order,
    and N^(-tau) is added."""
    N = 10 + dps
    with mp.workdps(dps + 5):
        neg_logs = [-mp.log(n) for n in range(2, N + 1)]
        rows = [[mp.mpf(1)] * (N - 1)]
        for r in range(1, order + 1):
            rows.append([a * b / r for a, b in zip(rows[-1], neg_logs)])
        powers = [mp.mpf(n) ** -y for n in range(2, N)]
        vals = [mp.fdot(powers, row) for row in rows]  # n < N: zip stops at powers
        vals[0] += 1
        poch = ([y, 1] + [0] * order)[: order + 1]
        weights, pochs = [], []
        eps = mp.mpf(10) ** -(dps + 2) * mp.mpf(N) ** (y - 1)
        for k in count(1):
            weights.append(mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.mpf(N) ** (1 - 2 * k))
            pochs.append(poch)
            if abs(weights[-1]) * max(poch) < eps:
                break
            for a in (y + 2 * k - 1, y + 2 * k):
                poch = [a * poch[0]] + [a * poch[r] + poch[r - 1] for r in range(1, order + 1)]
        bracket = [mp.fdot(weights, [pc[r] for pc in pochs]) for r in range(order + 1)]
        if y > 1:  # the pole term N/(s-1)
            bracket = [c + N * mp.mpf(-1) ** r / mp.mpf(y - 1) ** (r + 1)
                       for r, c in enumerate(bracket)]
        bracket[0] += mp.mpf(1) / 2
        n_pow = [mp.mpf(N) ** -y * row[-1] for row in rows]  # N^(-s)
        jet = [vals[r] + mp.fdot(bracket[: r + 1], n_pow[r::-1]) for r in range(order + 1)]
        if y == 1:  # (s-1) zeta(s) = N^(-tau) + tau (the rest)
            jet = [row[-1] + v for row, v in zip(rows, [0] + jet)]
        return jet


def strided_dk_segment(k: int, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Exact d_k(n) on [lo, hi] (lo >= 0) by strided passes alone.

    For each prime p <= sqrt(hi) and each p^j <= hi, the multiples of p^j
    take one more factor p into `acc` (the part of n made of the primes
    sieved so far) and move their d_k value from d_k(p^(j-1)) to d_k(p^j)
    by an exact int64 rescale.  An n with acc < n has one prime factor left,
    above sqrt(hi), worth a factor k.  Index n = 0, if in range, holds 0.
    primes must cover every prime <= sqrt(hi).
    """
    size = hi - lo + 1
    start = max(lo, 1)
    small = primes[primes * primes <= hi]
    small = small[(-start) % small < hi - start + 1].tolist()
    val = np.ones(size, dtype=np.int64)
    acc = np.ones(size, dtype=np.int64)
    binom = [dk_prime_power(k, a) for a in range(hi.bit_length() + 1)]
    for p in small:
        q, j = p, 1
        while q <= hi:
            off = start - lo + (-start) % q
            if off >= size:
                break
            acc[off::q] *= p
            step = val[off::q]
            if j > 1:
                step //= binom[j - 1]
            step *= binom[j]
            q *= p
            j += 1
    val[acc < np.arange(lo, hi + 1, dtype=np.int64)] *= k
    if lo == 0:
        val[0] = 0
    return val


def bareikis_cdf_quadrature(k: int, A, dps: int | None = None) -> mp.mpf:
    """Independent route: adaptive quadrature with endpoint substitution
    u = v^k to absorb the u^(-1/k) singularity at 0."""
    if k < 2:
        raise ValueError("bareikis_cdf_quadrature requires k >= 2")
    A = RationalExponent.parse(A)
    x = A.mpf()
    if x == 0:
        return mp.mpf(0)
    kk = mp.mpf(k)

    def integrand(v):
        u = v**kk
        return kk * v ** (kk - 2) * (1 - u) ** (1 / kk - 1)

    val = mp.quad(integrand, [0, x ** (1 / kk)])
    return val * mp.sin(mp.pi / k) / mp.pi


def c_coeffs_via_division(j: int, n_max: int, digits: int | None = None) -> list[mp.mpf]:
    """Same coefficients as zeta_series.c_coeffs via jet division by
    s = 1 + t; independent route."""
    jet = zeta_power_jet(j, n_max, digits)
    one_plus_t = Jet2([[1 if r < 2 else 0] for r in range(n_max + 1)])
    quotient = jet / one_plus_t
    return [quotient[n, 0] for n in range(n_max + 1)]


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


def phi_partial_sum_jet(h: int, k: int, l: int, Q: int, order_s: int) -> Jet2:
    """sum_{q<=Q} phi(s, q) as a jet in t = s-1, via the varphi convolution.

    phi(s,q) = sum_{d|q} varphi(d,s) d_{l-1}(q/d)/(q/d), so the partial sum
    is sum_{d<=Q} varphi(d,s) * H_{l-1}(Q/d) with H the weighted divisor sum.
    """
    table = FixedVarphiTable(h, k, l, Q, order_s)
    dl1 = divisor_count_array(Q, l - 1) if l >= 2 else None
    # H[m] = sum_{q<=m} d_{l-1}(q)/q as mpf, computed once by prefix sums
    acc = mp.mpf(0)
    H = [mp.mpf(0)] * (Q + 1)
    for q in range(1, Q + 1):
        w = (int(dl1[q]) if l >= 2 else (1 if q == 1 else 0))
        if w:
            acc += mp.mpf(w) / q
        H[q] = acc
    weights = [H[Q // d] for d in range(1, Q + 1)]
    return Jet2([[mp.fdot(coefficient_array(table, r)[1:], weights)]
                 for r in range(order_s + 1)])


def direct_secondary_value(h: int, k: int, l: int, A, Q: int, logx,
                           delta_zero_when_integer: bool = True,
                           order_s: int | None = None) -> mp.mpf:
    """Numeric secondary term via explicit boundary weights (diagnostic).

    Evaluates [t^(k-1)] of t^k zeta^k(1+t)/(1+t) * sum_{q<=Q} phi(q,1+t)
    T_q^(1+t) with T_q = q^(1/A) + h - delta(q), delta(q) = 0 when q^(1/A)
    is an integer (or the opposite convention).  Carries the analytic
    approximation error of the pipeline, so comparisons are loose.
    """
    A = RationalExponent.parse(A)
    order_s = order_s if order_s is not None else k - 1
    a_k = zeta_power_coeffs(k, order_s)
    zk = Jet2([[a_k[r] / mp.factorial(r)] for r in range(order_s + 1)])
    inv1pt = Jet2([[mp.mpf((-1) ** r)] for r in range(order_s + 1)])
    total = Jet2.constant(0, order_s, 0)
    for q in range(1, Q + 1):
        qb = q**A.b
        root = introot_ceil(qb, A.a)
        is_integer_power = root**A.a == qb
        q_pow = mp.mpf(root) if is_integer_power else mp.root(mp.mpf(qb), A.a)
        delta = (0 if is_integer_power else 1) if delta_zero_when_integer else (
            1 if is_integer_power else 0)
        T = q_pow + h - delta
        logT = mp.log(T)
        wjet = Jet2([[T * logT**r / mp.factorial(r)] for r in range(order_s + 1)])
        total = total + phi_of(h, k, l, q, order_s) * wjet
    full = zk * inv1pt * total
    # [t^(k-1)] is the residue expression; it is the term subtracted from
    # the primary in the correlation formula
    return full[k - 1, 0]


def _lampoly_mul(P: list, Q: list, deg: int) -> list:
    """Multiply polynomials in lambda whose coefficients are one-variable jets."""
    out = [None] * (deg + 1)
    for i, a in enumerate(P):
        if a is None:
            continue
        for j, b in enumerate(Q):
            if b is None or i + j > deg:
                continue
            prod = a * b
            out[i + j] = prod if out[i + j] is None else out[i + j] + prod
    return out


def _falling(x: int, r: int) -> Fraction:
    """Falling factorial x (x-1) ... (x-r+1), with ( )_0 = 1; r >= 0."""
    if r < 0:
        raise ValueError("falling factorial needs r >= 0")
    out = Fraction(1)
    for i in range(r):
        out *= x - i
    return out


@dataclass
class ResidueRoutes:
    """Per-log-power coefficients from the residue pipeline at truncation Q.

    primary[d] targets sum_{m+n=d} A^n b_{m,n} / (m! n!); secondary[d]
    targets a_{A,d} / d!.  Both consume the same truncated partials as the
    ledger route, so agreement is a pure check of the combinatorial
    assembly.
    """

    h: int
    k: int
    l: int
    A: RationalExponent
    Q: int
    primary: list
    secondary: list


def residue_polynomial_routes(h: int, k: int, l: int, A, Q: int,
                              ctx: CoefficientContext | None = None) -> ResidueRoutes:
    A = RationalExponent.parse(A)
    if ctx is None:
        ctx = coefficient_context(h, k, l, source="dirichlet", Q=Q)
    D = ctx.partials
    a_l1 = ctx.a_l1
    c_k = ctx.c_k
    Af = A.mpf()
    lam_deg = k + l - 2
    tord = k - 1

    # primary: [t^(k-1)] of  t^k zeta^k(1+t) * Zhat(t, lam) * e^(lam t) / (1+t)
    a_k = zeta_power_coeffs(k, tord)
    zk = Jet2([[a_k[r] / mp.factorial(r)] for r in range(tord + 1)])
    inv1pt = Jet2([[mp.mpf((-1) ** r)] for r in range(tord + 1)])
    zhat = [None] * (lam_deg + 1)
    for n in range(l):
        col = [mp.mpf(0)] * (tord + 1)
        for i in range(tord + 1):
            acc = mp.mpf(0)
            for j in range(l - n):
                acc += a_l1[l - 1 - n - j] / mp.factorial(l - 1 - n - j) * D[i, j]
            col[i] = acc * Af**n / mp.factorial(n)
        zhat[n] = Jet2([[c] for c in col])
    explam = [None] * (lam_deg + 1)
    for d in range(lam_deg + 1):
        col = [mp.mpf(0)] * (tord + 1)
        if d <= tord:
            col[d] = 1 / mp.factorial(d)
        explam[d] = Jet2([[c] for c in col])
    base = zk * inv1pt
    m1 = _lampoly_mul([base], zhat, lam_deg)
    total = _lampoly_mul(m1, explam, lam_deg)
    primary = [
        (total[d][tord, 0] if total[d] is not None else mp.mpf(0))
        for d in range(lam_deg + 1)
    ]

    # secondary: (1/i!) d^i W / x assembled from the residue main terms of
    # the inner divisor sums, then contracted against c_{k-1-i}(k).  The
    # index bookkeeping here (log powers of the truncation parameter kept
    # separate, A-powers absorbed per term) deliberately differs from the
    # ledger's log-x collection, so agreement is a nontrivial check.
    sec = [mp.mpf(0)] * (lam_deg + 1)
    if l >= 2:
        for i in range(k):
            for j in range(i + 1):
                pref_ij = -c_k[k - 1 - i] * comb(i, j) / mp.factorial(i)
                for m in range(j + 1):
                    pref_m = pref_ij * comb(j, m)
                    for r in range(l + m - 1):
                        for u in range(r + 1):
                            word = j - m + r - u
                            base = (
                                pref_m
                                * Af**u
                                / (mp.factorial(u) * mp.factorial(r - u))
                                * mp.factorial(i - j)
                                * mp.factorial(word)
                                * D[i - j, word]
                            )
                            if base == 0:
                                continue
                            for v in range(l + m - 2 - r + 1):
                                fall = _falling(v - l + 1, m)
                                if fall == 0:
                                    continue
                                sec[u] += (
                                    base
                                    * (-Af) ** (l + m - 1 - j - v - r)
                                    * a_l1[v]
                                    * _mpf_frac(fall)
                                    / mp.factorial(v)
                                )
    secondary = [-sec[d] for d in range(k + l - 2)]
    return ResidueRoutes(h=int(h), k=k, l=l, A=A, Q=Q,
                         primary=primary, secondary=secondary)
