"""Coefficients of the asymptotic polynomial for shifted divisor correlations.

The sum of d_k(n+h) d_l(n,A) over n <= x equals x * P(log x) + (power-saving
error), where P has degree k+l-2.  P splits into a double ledger of
b-coefficients (from the completed Dirichlet-series residue) and a single
ledger of A-dependent a-coefficients (from the partial-range boundary):

    P(L) = sum_{m<=k-1, n<=l-1} A^n b_{m,n} L^(m+n) / (m! n!)
         + sum_{m<=k+l-3} a_{A,m} L^m / m!

Both ledgers are linear in the same mixed partials D[i][j] of
sum_q varphi(q,s) q^(-w) at (s,w) = (1,0): each b_{m,n}, and each A^e part
of a_{A,m}, is one contraction of D with weights built once per coefficient
context from the Taylor data a_r(j), c_n(j) of zeta powers at s = 1 and
exact integer collapses (`_ledger_weights`).  For k = l = 2, A = 1/2 the
assembled polynomial collapses to the classical Estermann expansion, whose
closed forms in gamma, a', a'' and the sigma moments of h give this module
its sharpest consistency check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

import mpmath as mp

from .arith import RationalExponent, dk_of_factored, factorize, sigma_minus1_moments
from .errors import ConsistencyError
from .euler import (
    DEFAULT_PRIME_CUTOFF,
    cf_euler_jet,
    dirichlet_partials,
    singular_constant,
    singular_shift_factor,
    _mpf_frac,
)
from .jets import Jet2
from .zeta_series import c_coeffs, estermann_a_constants, euler_gamma, zeta_power_coeffs


# ---------------------------------------------------------------------------
# exponents of distribution
# ---------------------------------------------------------------------------

# Largest proven exponents theta_{1,k} (theta_{g,3} holds for every g).
EXPONENT_TABLE: dict[int, Fraction] = {
    2: Fraction(2, 3),
    3: Fraction(21, 41),
    4: Fraction(1, 2),
    5: Fraction(9, 20),
    6: Fraction(5, 12),
}


def theta_base(k: int) -> Fraction:
    """theta_{1,k} from the table; 8/(3k) for k >= 7."""
    if k < 2:
        raise ValueError("theta_base is tabulated for k >= 2 only")
    if k in EXPONENT_TABLE:
        return EXPONENT_TABLE[k]
    return Fraction(8, 3 * k)


def theta_exponent(k: int, g_limsup: Fraction | float = 0) -> Fraction:
    """Combined exponent max(1/k, theta_{1,k} + (1 - k theta_{1,k}) * limsup).

    g_limsup is limsup log g / log x for the gcd parameter g; exact when fed
    a Fraction.  k = 3 is g-uniform, so the answer is 21/41 regardless.
    """
    if k < 2:
        raise ValueError("theta_exponent requires k >= 2")
    if k == 3:
        return Fraction(21, 41)
    g = Fraction(g_limsup) if not isinstance(g_limsup, Fraction) else g_limsup
    if not 0 <= g <= 1:
        raise ValueError("g_limsup must lie in [0, 1]")
    t1 = theta_base(k)
    return max(Fraction(1, k), t1 + (1 - k * t1) * g)


def _theta_for_validity(k: int) -> Fraction:
    """theta_k used in validity flags; d_1 is exactly equidistributed."""
    return Fraction(1) if k == 1 else theta_exponent(k, 0)


# ---------------------------------------------------------------------------
# coefficient ledgers
# ---------------------------------------------------------------------------


def _ledger_weights(k: int, l: int, a_l1: list, c_k: list) -> tuple[list, list]:
    """(W_b, W_a): both ledgers as one linear map on the partials D[i][j].

    b_{m,n} = sum_{i,j} W_b[m][n][i][j] D[i][j] over i < k-m, j < l-n, and
    a_{A,m} = sum_e A^e sum_{i,j} W_a[m][e][i][j] D[i][j] over e < l, i < k
    and j < l-e (0 <= m <= k+l-3; no a-ledger when l = 1), with v = l-1-e-j
    and max(0, m+1-e) <= r <= k-1-i:

      W_b[m][n][i][j] = a_{l-1-n-j}(l-1) c_{k-1-m-i}(k) / (l-1-n-j)!,
      W_a[m][e][i][j] = (-1)^(e+m) a_v(l-1) / v! sum_r C(-e, r) c_{k-1-i-r}(k).

    W_a is the sum in `a_coefficient` collected by e = l-1-v-w, on the cell
    (i-j, w) of its indices, with r its j.  Its inner collapse is closed: by
    Vandermonde, sum_mu C(r,mu) (x)_mu / (w-r+mu)! = (x+w)_r / w!, and
    x = v-l+1 = -e-w gives (-e)_r / w!.  So the w!/r! there make C(-e, r) =
    (-1)^r C(e+r-1, r), an integer, and every e <= 0 drops out (r > -e).
    """
    W_b = [[[[a_l1[l - 1 - n - j] * c_k[k - 1 - m - i] / mp.factorial(l - 1 - n - j)
              for j in range(l - n)] for i in range(k - m)]
            for n in range(l)] for m in range(k)]

    def w_a(m: int, e: int, i: int, j: int) -> mp.mpf:
        v = l - 1 - e - j
        s = sum((-1) ** r * comb(e + r - 1, r) * c_k[k - 1 - i - r]
                for r in range(max(0, m + 1 - e), k - i))
        return (-1) ** (e + m) * a_l1[v] / mp.factorial(v) * s

    W_a = [[[[w_a(m, e, i, j) for j in range(l - e)] for i in range(k)] for e in range(l)]
           for m in range(k + l - 2)] if l >= 2 else []
    return W_b, W_a


def _contract(W: list, D: Jet2) -> mp.mpf:
    """sum_{i,j} W[i][j] D[i, j], row by row."""
    if len(W) - 1 > D.order_t or len(W[0]) - 1 > D.order_w:
        raise ValueError("partials orders insufficient")
    total = mp.mpf(0)
    for i, row in enumerate(W):
        for j, w in enumerate(row):
            total += w * D[i, j]
    return total


@dataclass
class CoefficientContext:
    """Shared inputs for the b/a ledgers at fixed (h, k, l).

    partials holds the normalized mixed partials D[i][j] of the truncated
    (or tail-corrected) Dirichlet series; a_l1 and c_k are the zeta-power
    Taylor tables a_r(l-1) and c_n(k); w_b and w_a are the ledger weights
    that `_ledger_weights` builds from them, once.
    """

    h: int
    k: int
    l: int
    partials: Jet2
    a_l1: list
    c_k: list
    source: str = "euler"
    tail_bound: mp.mpf = mp.mpf(0)
    tails: list | None = None  # per-(i,j) truncation tails, when known
    w_b: list = field(init=False, repr=False)
    w_a: list = field(init=False, repr=False)

    def __post_init__(self):
        self.w_b, self.w_a = _ledger_weights(self.k, self.l, self.a_l1, self.c_k)

    def tail_for_orders(self, max_i: int, max_j: int) -> mp.mpf:
        """Largest truncation tail among the partials up to given orders."""
        if self.tails is None:
            return self.tail_bound
        return max(
            self.tails[i][j]
            for i in range(min(max_i, len(self.tails) - 1) + 1)
            for j in range(min(max_j, len(self.tails[0]) - 1) + 1)
        )

    @property
    def order_t(self) -> int:
        return self.partials.order_t

    @property
    def order_w(self) -> int:
        return self.partials.order_w


def coefficient_context(h, k: int, l: int, source: str = "euler",
                        Q: int = 10**6,
                        prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> CoefficientContext:
    """Build the shared inputs; source is "euler" (tail-corrected Euler
    product, essentially exact) or "dirichlet" (q <= Q truncation)."""
    if l < 1 or k < 1:
        raise ValueError("coefficient_context requires k, l >= 1")
    order_t = k
    order_w = max(l, k + l - 2)
    tails = None
    if source == "euler":
        jet, tail = cf_euler_jet(h, k, l, order_t, order_w, prime_cutoff)
    elif source == "dirichlet":
        dp = dirichlet_partials(h, k, l, Q, order_t, order_w)
        jet, tail, tails = dp.jet, dp.tail_bound(), dp.tails
    else:
        raise ValueError(f"unknown partials source {source!r}")
    return CoefficientContext(
        h=_shift_value(h), k=k, l=l, partials=jet,
        a_l1=zeta_power_coeffs(l - 1, max(l, k + l - 2) + 1),
        c_k=c_coeffs(k, k + 1),
        source=source, tail_bound=tail, tails=tails,
    )


def _shift_value(h) -> int:
    return int(h.value) if hasattr(h, "value") else int(h)


def _context_for(ctx: CoefficientContext | None, h, k: int, l: int, source: str,
                 Q: int) -> CoefficientContext:
    """ctx, or a fresh one when it is None; a ctx built for another (h, k, l)
    is refused."""
    if ctx is None:
        return coefficient_context(h, k, l, source=source, Q=Q)
    want = (_shift_value(h), k, l)
    if (ctx.h, ctx.k, ctx.l) != want:
        raise ValueError(f"context is for (h, k, l) = {(ctx.h, ctx.k, ctx.l)}, not {want}")
    return ctx


def b_coefficient(ctx: CoefficientContext, m: int, n: int) -> mp.mpf:
    """b_{h,k,l,m,n}: the completed-series ledger entry, 0<=m<k, 0<=n<l.

    b = sum_{i<=k-1-m} sum_{j<=l-1-n} a_{l-1-n-j}(l-1) c_{k-1-m-i}(k)
        / (l-1-n-j)! * D[i][j], the contraction of W_b[m][n].
    """
    if not (0 <= m <= ctx.k - 1 and 0 <= n <= ctx.l - 1):
        raise ValueError("b_coefficient needs 0 <= m < k, 0 <= n < l")
    return _contract(ctx.w_b[m][n], ctx.partials)


def a_coefficient(ctx: CoefficientContext, A: RationalExponent, m: int) -> mp.mpf:
    """a_{A,h,k,l,m}: the partial-range boundary ledger entry, 0<=m<=k+l-3.

    The log^m coefficient of the boundary residue expansion,

      a_m = -m! [lam^m] sum_i c_{k-1-i}(k) sum_j sum_w (w!/(j! m!))
            D[i-j][w] sum_v A^(l-1-v-w) (-1)^(l-v-m-w) a_v(l-1)/v!
            * sum_mu C(j,mu) (v-l+1)_mu / (w-j+mu)!

    with 0 <= w <= j+l-2-m and 0 <= v <= j+l-2-m-w (falling factorials and
    empty sums 0-clamped), is collected by powers of A into W_a[m] (see
    `_ledger_weights`): a_m = sum_e A^e (W_a[m][e] . D).  For l = 2 this
    reduces to the compact double-sum form with binomial {l-v-2 choose j-r};
    for l >= 3 the compact form loses terms, so the expanded collection is
    canonical here (cross-checked against the independent residue pipeline
    and an exact boundary-weight evaluation).
    """
    if ctx.l < 2:
        raise ValueError("a_coefficient requires l >= 2")
    if not 0 <= m <= ctx.k + ctx.l - 3:
        raise ValueError("a_coefficient needs 0 <= m <= k+l-3")
    Af = RationalExponent.parse(A).mpf()
    return sum(Af**e * _contract(W, ctx.partials) for e, W in enumerate(ctx.w_a[m]))


# ---------------------------------------------------------------------------
# the polynomial
# ---------------------------------------------------------------------------


@dataclass
class AsymptoticPolynomial:
    """P(L) = sum coeffs[d] L^d with per-degree provenance.

    provenance[d] lists ("b", m, n, value) and ("a", m, value) contributions;
    in_proven_range records whether A < theta_k held when assembled.
    """

    A: RationalExponent
    h: int
    k: int
    l: int
    coeffs: list
    provenance: list
    in_proven_range: bool
    source: str
    tail_bound: mp.mpf

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, logx) -> mp.mpf:
        logx = mp.mpf(logx)
        acc = mp.mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * logx + c
        return acc

    def leading(self) -> mp.mpf:
        return self.coeffs[-1]

    def to_json(self, digits: int = 25) -> str:
        payload = {
            "A": str(self.A),
            "h": self.h,
            "k": self.k,
            "l": self.l,
            "degree": self.degree,
            "coefficients": [mp.nstr(c, digits) for c in self.coeffs],
            "provenance": [
                [
                    {"term": t[0], "m": t[1], "n": t[2], "value": mp.nstr(t[3], digits)}
                    if t[0] == "b"
                    else {"term": t[0], "m": t[1], "value": mp.nstr(t[2], digits)}
                    for t in deg
                ]
                for deg in self.provenance
            ],
            "in_proven_range": self.in_proven_range,
            "partials_source": self.source,
            "tail_bound": mp.nstr(self.tail_bound, 8),
        }
        return json.dumps(payload, sort_keys=True)


def main_polynomial(A, h, k: int, l: int, ctx: CoefficientContext | None = None,
                    source: str = "euler", Q: int = 10**6) -> AsymptoticPolynomial:
    """Assemble the full degree-(k+l-2) polynomial with provenance; a ctx
    given must be the one for (h, k, l)."""
    A = RationalExponent.parse(A)
    ctx = _context_for(ctx, h, k, l, source, Q)
    Af = A.mpf()
    deg = k + l - 2
    coeffs = [mp.mpf(0)] * (deg + 1)
    prov = [[] for _ in range(deg + 1)]
    for m in range(k):
        for n in range(l):
            b = b_coefficient(ctx, m, n)
            contrib = Af**n * b / (mp.factorial(m) * mp.factorial(n))
            coeffs[m + n] += contrib
            prov[m + n].append(("b", m, n, contrib))
    if l >= 2:
        for m in range(k + l - 2):
            a = a_coefficient(ctx, A, m)
            contrib = a / mp.factorial(m)
            coeffs[m] += contrib
            prov[m].append(("a", m, contrib))
    in_range = A.as_fraction() < _theta_for_validity(k)
    return AsymptoticPolynomial(
        A=A, h=ctx.h, k=k, l=l, coeffs=coeffs, provenance=prov,
        in_proven_range=in_range, source=ctx.source, tail_bound=ctx.tail_bound,
    )


# ---------------------------------------------------------------------------
# predictions and closed forms
# ---------------------------------------------------------------------------


def conjecture_leading(h, k: int, l: int) -> mp.mpf:
    """C_{k,l} f_{k,l}(h) / ((k-1)! (l-1)!), the conjectured leading constant."""
    if k < 2 or l < 2:
        raise ValueError("conjecture_leading requires k, l >= 2")
    C, _ = singular_constant(k, l)
    f = singular_shift_factor(h, k, l)
    return C * _mpf_frac(f) / (mp.factorial(k - 1) * mp.factorial(l - 1))


def corollary_lower_bound(h, k: int, l: int) -> mp.mpf:
    """theta_k^(l-1) * C_{k,l} f_{k,l}(h) / ((k-1)! (l-1)!), the proven
    lower-bound constant for the correlation normalized by x log^(k+l-2) x."""
    th = theta_exponent(k, 0)
    thf = mp.mpf(th.numerator) / th.denominator
    return thf ** (l - 1) * conjecture_leading(h, k, l)


def correlation_leading(h, k: int, l: int, A, B) -> mp.mpf:
    """A^(k-1) B^(l-1) C_{k,l} f_{k,l}(h) / ((k-1)!(l-1)!): the leading
    constant for the doubly-partial correlation d_k(n+h,A) d_l(n,B)."""
    A = RationalExponent.parse(A)
    B = RationalExponent.parse(B)
    return A.mpf() ** (k - 1) * B.mpf() ** (l - 1) * conjecture_leading(h, k, l)


def partial_vs_full_leading_gap(h, k: int, l: int, A, B) -> mp.mpf:
    """Leading-coefficient gap of d_k(n+h,A)(d_l(n) - B^(1-l) d_l(n,B)).

    The two leading constants cancel algebraically; this returns the
    assembled difference, which should vanish to rounding.
    """
    B = RationalExponent.parse(B)
    full = correlation_leading(h, k, l, A, RationalExponent(1, 1))
    weighted = B.mpf() ** (1 - l) * correlation_leading(h, k, l, A, B)
    return full - weighted


def correlation_validity(k: int, l: int, A, B) -> bool:
    """Proven-range test B < min(theta_k, A theta_{k-1}) for the
    doubly-partial correlation (A <= 1 assumed by construction)."""
    A = RationalExponent.parse(A).as_fraction()
    B = RationalExponent.parse(B).as_fraction()
    return B < min(_theta_for_validity(k), A * _theta_for_validity(k - 1))


# ---------------------------------------------------------------------------
# Estermann closed forms (k = l = 2)
# ---------------------------------------------------------------------------


@dataclass
class EstermannCheck:
    """Two-route evaluation of the degree-2 expansion coefficients."""

    h: int
    closed: tuple
    assembled: tuple
    max_diff: mp.mpf
    tolerance: mp.mpf
    tail_bound: mp.mpf
    relaxed: bool

    @property
    def ok(self) -> bool:
        return self.max_diff <= self.tolerance


def estermann_closed_forms(h: int, dps: int | None = None) -> tuple:
    """(x log^2 x, x log x, x) coefficients of the classical expansion of
    sum d(n+h) d(n), in terms of gamma, a', a'' and sigma moments of h,
    at `dps` digits (default: the working precision, at least 30)."""
    dps = dps or max(30, mp.mp.dps)
    with mp.workdps(dps):
        g = euler_gamma(dps)
        ap, app = estermann_a_constants(dps)
        s0, s1, s2 = sigma_minus1_moments(h)
        six = 6 / mp.pi**2
        c2 = six * s0
        c1 = (2 * six * (2 * g - 1) + 4 * ap) * s0 - 4 * six * s1
        c0 = (
            (six * (2 * g - 1) ** 2 + six + 4 * ap * (2 * g - 1) + 4 * app) * s0
            - (4 * six * (2 * g - 1) + 8 * ap) * s1
            + 4 * six * s2
        )
        return (c2, c1, c0)


def estermann_assembled(h: int, ctx: CoefficientContext | None = None,
                        source: str = "euler", Q: int = 10**6) -> tuple:
    """The same three coefficients through the b/a ledgers at A = 1/2.

    The divisor symmetry about sqrt(n) doubles the partial-range polynomial
    into the full shifted-divisor one:
      [x log^2 x] = b_{1,1},
      [x log x]   = 2 b_{1,0} + b_{0,1} + 2 a_{1/2,1},
      [x]         = 2 (b_{0,0} + a_{1/2,0}),
    twice the coefficients of main_polynomial("1/2", h, 2, 2), top first.
    """
    poly = main_polynomial("1/2", h, 2, 2, ctx=ctx, source=source, Q=Q)
    return tuple(2 * c for c in reversed(poly.coeffs))


def estermann_coefficients(h: int, source: str = "euler", Q: int = 10**6,
                           tol: float = 1e-8,
                           ctx: CoefficientContext | None = None,
                           raise_on_fail: bool = True) -> EstermannCheck:
    """Both routes with a consistency gate.

    When the truncated-series route cannot reach `tol` (its reported tail
    bound exceeds it), the tolerance relaxes to that bound and the check is
    marked `relaxed`; a failure beyond the effective tolerance raises.
    """
    ctx = _context_for(ctx, h, 2, 2, source, Q)
    closed = estermann_closed_forms(h)
    assembled = estermann_assembled(h, ctx=ctx)
    max_diff = max(abs(c - a) for c, a in zip(closed, assembled))
    # the degree-2 assembly touches partials with i, j <= 1, combined with
    # O(1) weights; 8x covers the worst combination
    tail = 8 * ctx.tail_for_orders(1, 1)
    tol_eff = mp.mpf(tol)
    relaxed = False
    if tail > tol_eff:
        tol_eff = tail
        relaxed = True
    check = EstermannCheck(h=h, closed=closed, assembled=assembled,
                           max_diff=max_diff, tolerance=tol_eff,
                           tail_bound=tail, relaxed=relaxed)
    if raise_on_fail and not check.ok:
        raise ConsistencyError(
            f"estermann routes disagree at h={h}: max diff {mp.nstr(max_diff, 6)} "
            f"> tolerance {mp.nstr(tol_eff, 6)}"
        )
    return check


# ---------------------------------------------------------------------------
# distribution of partial-to-full divisor ratios
# ---------------------------------------------------------------------------


def bareikis_cdf(k: int, A) -> mp.mpf:
    """Limit of the mean of d_k(n,A)/d_k(n): the regularized incomplete
    beta I_A(1 - 1/k, 1/k); the normalizer is Gamma(1/k) Gamma(1-1/k)
    = pi / sin(pi/k) in closed form.
    """
    if k < 2:
        raise ValueError("bareikis_cdf requires k >= 2")
    A = RationalExponent.parse(A)
    x = A.mpf()
    if x == 0:
        return mp.mpf(0)
    if x == 1:
        return mp.mpf(1)
    a = 1 - mp.mpf(1) / k
    b = mp.mpf(1) / k
    unnorm = mp.betainc(a, b, 0, x)
    return unnorm * mp.sin(mp.pi / k) / mp.pi


# ---------------------------------------------------------------------------
# arithmetic-progression main term
# ---------------------------------------------------------------------------


@dataclass
class ApMainTerm:
    value: mp.mpf
    x: int
    q: int
    h: int
    k: int
    A: RationalExponent
    residue_ok: bool  # False when h = 0 mod q (outside the stated theorem)


def ap_main_term(x: int, q: int, h: int, k: int, A) -> ApMainTerm:
    """(x/q) * sum over n <= x^A with (n,q) | h of (n,q) d_{k-1}(n) / n.

    The n-sum is exact rational; d_{k-1} values come from factorization.
    h = 0 mod q is evaluated but flagged.
    """
    if q < 1 or x < 1 or k < 1:
        raise ValueError("ap_main_term requires x, q >= 1, k >= 1")
    A = RationalExponent.parse(A)
    cutoff = A.divisor_cutoff(x)
    total = Fraction(0)
    for n in range(1, cutoff + 1):
        g = gcd(n, q)
        if h % g != 0:
            continue
        d = dk_of_factored(k - 1, factorize(n)) if k > 1 else int(n == 1)
        total += Fraction(g * d, n)
    value = mp.mpf(x) / q * _mpf_frac(total)
    return ApMainTerm(value=value, x=x, q=q, h=h, k=k, A=A,
                      residue_ok=(h % q != 0))
