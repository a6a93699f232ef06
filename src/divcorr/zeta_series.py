"""Laurent data of the Riemann zeta function at s = 1 and friends.

One Euler-Maclaurin pass (_zeta_taylor) gives every zeta number here, all
derivatives at once: Taylor jets of zeta at integers y >= 2, and at y = 1 the
jet of (s-1) zeta(s) at s = 1, whose coefficients are the Stieltjes
constants.  From that jet come the Taylor coefficients of powers
(s-1)^j zeta(s)^j around s = 1 and the alternating-sum coefficients of
(s-1)^j zeta(s)^j / s; from the jet at y = 2, the classical constants
attached to 1/zeta at s = 2 that show up in the closed-form coefficients of
the shifted-divisor expansion of Ingham/Estermann type.

The sums behind them run in Python integers over 2^bits: log n comes from
one per-process table of fixed-point logs (fixed_logs, log_powers), which the
Euler products of `euler` read too; the head sums, Bernoulli weights and
Pochhammer jet are integer dots on it, converted to mpmath once at the end.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import count
from operator import mul

import mpmath as mp
import numpy as np

from .arith import spf_array
from .errors import PrecisionError
from .jets import Jet2

# Configured ceilings for Stieltjes computations.
STIELTJES_MAX_INDEX = 30
STIELTJES_MAX_DIGITS = 100


_LOG_GUARD = 24  # bits of a cached log below the widths handed out
# logs[n] = log n over 2^width for n < len(logs), at one width for all n
_LOGS = {"width": 0, "logs": [0, 0]}


def _atanh_fixed(a: int, b: int, width: int) -> int:
    """atanh(a/b) over 2^width for 0 <= a/b <= 1/3, as its series with every
    power and term floored: below its value by under 1.5 (t + 2) units, t <=
    width / 3 + 1 the number of nonzero terms."""
    a2, b2 = a * a, b * b
    x = (a << width) // b
    total, k = x, 1
    while x:
        x = x * a2 // b2
        k += 2
        total += x // k
    return total


def _log_chain(n_max: int, bits: int) -> list[int]:
    """The cached logs, grown to n <= n_max (rounded up to a power of two) at a
    width of at least bits + _LOG_GUARD (a multiple of 128; wider recomputes).
    Prime p: log(p - 1) + 2 atanh(1/(2p - 1)); composite n: log q + log(n/q),
    q its least prime.  log n sums at most 2 log2 n atanh values, each under
    width + 9 units low: under 2^_LOG_GUARD for n < 2^32, widths < 2^15.  An
    entry handed out may move by a unit with the width the process has
    reached, but stays under two units below its value."""
    width, logs = _LOGS["width"], _LOGS["logs"]
    if bits + _LOG_GUARD > width:
        width, logs = -(-(bits + _LOG_GUARD) // 128) * 128, [0, 0]
        n_max = max(n_max, len(_LOGS["logs"]) - 1)
    if n_max >= len(logs):
        top = max(256, 1 << (n_max - 1).bit_length())
        spf = spf_array(top).tolist()
        for n in range(len(logs), top + 1):
            q = spf[n]
            logs.append(logs[q] + logs[n // q] if q < n
                        else logs[n - 1] + 2 * _atanh_fixed(1, 2 * n - 1, width))
    _LOGS["width"], _LOGS["logs"] = width, logs
    return logs


def fixed_logs(n_max: int, bits: int) -> list[int]:
    """[log n over 2^bits for 0 <= n <= n_max] (0 at n <= 1), each floored
    from the cached logs: under two units below its value."""
    logs = _log_chain(n_max, bits)
    shift = _LOGS["width"] - bits
    return [x >> shift for x in logs[: n_max + 1]]


def fixed_log(n: int, bits: int) -> int:
    """log n over 2^bits for one n >= 1, under two units below its value: from
    the cached logs when n is in them (the table is not grown for one n), else
    e log 2 + 2 atanh((n - 2^e) / (n + 2^e)) with 2^e <= n < 2^(e+1), under
    (e + 1) (width + 9) units low at the cache's width."""
    logs = _log_chain(2, bits)
    width = _LOGS["width"]
    if n < len(logs):
        value = logs[n]
    else:
        e = n.bit_length() - 1
        value = e * logs[2] + 2 * _atanh_fixed(n - (1 << e), n + (1 << e), width)
    return value >> (width - bits)


@lru_cache(maxsize=32)
def log_powers(ns: tuple, d_max: int, bits: int) -> tuple:
    """rows[d][i] = (log ns[i])^d over 2^bits for d <= d_max, each under two
    units below its value: integer powers of one fixed-point log per n, taken
    g bits wider, g covering 2 d (log n)^(d-1) 2^-g < 1/2 units.  Several n
    read the cached table (fixed_logs, grown to max(ns)); a single n takes
    fixed_log.  The prime-tail moments, the Euler base, the varphi tables and
    the zeta jets share it."""
    n_top = max(ns, default=1)
    g = (4 * d_max).bit_length() + max(d_max - 1, 0) * n_top.bit_length().bit_length()
    if len(ns) == 1:
        logs = [fixed_log(ns[0], bits + g)]
    else:
        table = fixed_logs(n_top, bits + g)
        logs = [table[n] for n in ns]
    rows, pw = [[1 << bits] * len(ns)], [1] * len(ns)
    for d in range(1, d_max + 1):
        pw = [a * b for a, b in zip(pw, logs)]
        rows.append([x >> (d * (bits + g) - bits) for x in pw])
    return tuple(rows)


def _working_dps() -> int:
    """The digits every public analytic routine works to: mpmath's working
    precision, at least 30.  Set it with `mp.mp.dps` or `mp.workdps`."""
    return max(30, mp.mp.dps)


def _laurent_taylor(m_max: int) -> tuple[int, tuple]:
    """(bits, c): c[r] the t^r coefficient of (s-1) zeta(s) at s = 1 + t over
    2^bits, r <= m_max + 1, from one _zeta_taylor pass at y = 1 wide enough
    that gamma_n = (-1)^n n! c_(n+1) holds to 10^-(digits+6), n <= m_max, at
    the working digits."""
    digits = _working_dps()
    bits = math.ceil((digits + 6) * math.log2(10) + math.log2(math.factorial(m_max))) + 8
    return bits, _zeta_taylor(1, m_max + 1, bits)


def stieltjes_table(m_max: int) -> list:
    """Stieltjes constants gamma_0..gamma_m_max to the working digits."""
    if m_max < 0:
        raise ValueError("stieltjes_table requires m_max >= 0")
    if m_max > STIELTJES_MAX_INDEX or _working_dps() > STIELTJES_MAX_DIGITS:
        raise PrecisionError(
            f"stieltjes_table ceilings are m <= {STIELTJES_MAX_INDEX}, "
            f"digits <= {STIELTJES_MAX_DIGITS}"
        )
    bits, c = _laurent_taylor(m_max)
    return [mp.ldexp((-1) ** n * math.factorial(n) * c[n + 1], -bits) for n in range(m_max + 1)]


def euler_gamma() -> mp.mpf:
    """gamma_0 to the working digits.  The table's digit ceiling does not
    apply: the Euler-Maclaurin pass reaches any width."""
    bits, c = _laurent_taylor(0)
    return mp.ldexp(c[1], -bits)


def zeta_laurent_jet(order: int) -> Jet2:
    """Jet of (s-1) * zeta(s) at s = 1: 1 + sum (-1)^n gamma_n t^(n+1) / n!,
    every coefficient read exactly from the integer jet."""
    if order < 0:
        raise ValueError("order must be >= 0")
    bits, c = _laurent_taylor(max(order - 1, 0))
    return Jet2([[mp.ldexp(x, -bits)] for x in c[: order + 1]])


def zeta_power_jet(j: int, order: int) -> Jet2:
    """Jet of (s-1)^j zeta(s)^j at s = 1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return zeta_laurent_jet(order) ** j


def zeta_power_coeffs(j: int, r_max: int) -> list[mp.mpf]:
    """a_r(j) for r = 0..r_max, where (s-1)^j zeta^j(s) = sum a_r(j) t^r / r!."""
    jet = zeta_power_jet(j, r_max)
    return [jet.partial(r, 0) for r in range(r_max + 1)]


def c_coeffs(j: int, n_max: int) -> list[mp.mpf]:
    """c_n(j) = sum_{r<=n} (-1)^(n-r) a_r(j) / r!, n = 0..n_max.

    These are the Taylor coefficients of (s-1)^j zeta^j(s) / s at s = 1.
    """
    a = zeta_power_coeffs(j, n_max)
    out = []
    for n in range(n_max + 1):
        acc = mp.mpf(0)
        for r in range(n + 1):
            acc += (-1) ** (n - r) * a[r] / mp.factorial(r)
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def _log_power_rows(N: int, order: int, bits: int) -> tuple:
    """(-log n)^r / r! over 2^bits, floored, for 2 <= n <= N, one row per
    r <= order: under three units off."""
    rows = log_powers(tuple(range(2, N + 1)), order, bits)
    return tuple([(-1) ** r * x // math.factorial(r) for x in row] for r, row in enumerate(rows))


@lru_cache(maxsize=None)
def _bernoulli_weight(k: int) -> tuple[int, int]:
    """(num, den) with num / den = B_2k / (2k)! exactly."""
    num, den = mp.bernfrac(2 * k)
    return int(num), int(den) * math.factorial(2 * k)


@lru_cache(maxsize=None)
def _zeta_taylor(y: int, order: int, bits: int) -> tuple:
    """zeta^(r)(y) / r! over 2^bits for r = 0..order, at an integer y >= 2,
    or at y = 1 the tau^r coefficients of (s-1) zeta(s), each within two
    units, from one Euler-Maclaurin pass (Edwards, Riemann's Zeta Function,
    ch. 6).  With s = y + tau and (s)_j the rising factorial s (s+1) ...
    (s+j-1),

      zeta(s) = sum_{n<N} n^(-s)
                + N^(-s) [N/(s-1) + 1/2 + sum_{k>=1} B_2k/(2k)! (s)_(2k-1) N^(1-2k)],

    every factor a jet in tau, in integers over 2^(bits + guard): n^(-s) =
    n^(-y) e^(-tau log n), n^(-y) an exact floor, the rows of (-log n)^r / r!
    shared by every y; the integer Pochhammer jet grows by two linear factors
    per k and meets the exact B_2k/(2k)! N^(1-2k) in one floor per
    coefficient; N^(-s) multiplies the bracket once.  At y = 1 the factor
    s - 1 = tau turns the pole term into N^(-tau), so (s-1) zeta(s) is
    N^(-tau) plus tau times the rest: the same sums, with no pole term in the
    bracket, shifted up one order.  The corrections fall like
    (2k)! / (2 pi N)^(2k) until 2k nears 2 pi N; N = 10 + bits log10 2 puts
    that floor far below 2^-bits, and the series stops at its first term
    under N^(y-1) units in every coefficient (the coefficients of N^(-s) sum
    to N^(1-y) in absolute value).  The guard covers the floors, under
    (order + 2) (N + 1)^2 units: (log n)^r / r! < n per head term, and N + 1
    per N^(-s) coefficient times the bracket's N."""
    if y < 1:
        raise ValueError("_zeta_taylor requires y >= 1")
    N = 10 + math.ceil(bits * math.log10(2))
    guard = 2 * N.bit_length() + order.bit_length() + 4
    b = bits + guard
    rows = _log_power_rows(N, order, b)
    powers = [(1 << b) // n**y for n in range(2, N + 1)]
    vals = [sum(map(mul, powers, row[:-1])) >> b for row in rows]  # n < N
    vals[0] += 1 << b
    poch = ([y, 1] + [0] * order)[: order + 1]
    bracket = [0] * (order + 1)
    for k in count(1):
        num, den = _bernoulli_weight(k)
        den *= N ** (2 * k - 1)
        terms = [(c * num << b) // den for c in poch]
        bracket = [a + t for a, t in zip(bracket, terms)]
        if max(map(abs, terms)) < N ** (y - 1):
            break
        for a in (y + 2 * k - 1, y + 2 * k):
            poch = [a * poch[0]] + [a * poch[r] + poch[r - 1] for r in range(1, order + 1)]
    if y > 1:  # the pole term N/(s-1)
        bracket = [((-1) ** r * N << b) // (y - 1) ** (r + 1) + c for r, c in enumerate(bracket)]
    bracket[0] += 1 << (b - 1)
    n_pow = [powers[-1] * row[-1] >> b for row in rows]  # N^(-s)
    jet = [v + (sum(map(mul, bracket[: r + 1], n_pow[r::-1])) >> b) for r, v in enumerate(vals)]
    if y == 1:  # N^(-tau) + tau (the rest)
        jet = [row[-1] + v for row, v in zip(rows, [0] + jet)]
    return tuple(v >> guard for v in jet)


def zeta_jet(y: int, order: int) -> Jet2:
    """zeta(y + tau) as a jet in tau (coefficients zeta^(r)(y) / r!), to
    about 10^-(digits+2) at the working digits, at an integer y >= 2; a fresh
    jet on every call."""
    bits = math.ceil((_working_dps() + 3) * math.log2(10))
    return Jet2([[mp.ldexp(c, -bits)] for c in _zeta_taylor(y, order, bits)])


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


def inverse_zeta_jet_at_2() -> Jet2:
    """Jet of 1/zeta(2 + tau) to order 2: the reciprocal of the
    Euler-Maclaurin jet of zeta at 2, taken 8 digits past the working ones."""
    with mp.workdps(_working_dps() + 8):
        return zeta_jet(2, 2).reciprocal()


def estermann_a_constants() -> tuple[mp.mpf, mp.mpf]:
    """(a', a'') with a' = -sum mu(n) log n / n^2, a'' = sum mu(n) log^2 n / n^2.

    Computed from the reciprocal-zeta jet at s = 2 (a' and a'' are its first
    and second derivatives); the direct Moebius sums serve as the
    independent cross-check in the tests.
    """
    jet = inverse_zeta_jet_at_2()
    return jet.partial(1, 0), jet.partial(2, 0)
