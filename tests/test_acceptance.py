"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Heavy sieves are shared through session fixtures; nothing
here depends on unproven constants, only on exact identities, two-route
consistency, and decade trends.

Criterion 6 checks the leading constant of the doubly-partial correlation,
which is what the theorem states (an asymptotic, with no rate).  The sums
over four decades are fitted by the main-term form c_0 + c_1/L + ... +
c_d/L^d (L = log x), and |c_0 - 1| must lie inside the 25% window.  The
raw ratio at a finite x is printed but not held to the window: its 1/log x
term has a fitted coefficient of 3.5..12, so for (k, l) = (3, 2) it stays
outside 25% far beyond any x a sieve reaches.
"""

import json
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from divcorr.arith import (
    RationalExponent,
    divisor_count_array,
    dk_partial,
    dk_prime_power,
    sieve_dk,
    sigma_minus1_exact,
)
from divcorr.asympt import (
    a_coefficient,
    ap_main_term,
    b_coefficient,
    bareikis_cdf,
    coefficient_context,
    conjecture_leading,
    correlation_leading,
    estermann_coefficients,
    main_polynomial,
    partial_vs_full_leading_gap,
    theta_base,
    theta_exponent,
)
from divcorr.euler import dirichlet_partials, singular_constant, singular_shift_factor
from divcorr.oracle import (
    brute_ap_sweep,
    brute_correlation_decades,
    empirical_distribution,
    partial_divisor_array,
)
from divcorr.zeta_series import c_coeffs, euler_gamma, zeta_power_coeffs
from second_routes import c_coeffs_via_division, fixed_context, residue_polynomial_routes

BIG_X = 10**7


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


class runtime_cap:
    """Stated per-criterion runtime budget; elapsed time is asserted."""

    def __init__(self, seconds: float):
        self.cap = seconds
        self.t0 = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.check()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.cap, (
            f"runtime {elapsed:.1f}s exceeded the stated cap {self.cap}s")


def _stamp(box: runtime_cap) -> str:
    elapsed = time.perf_counter() - box.t0
    return f" [{elapsed:.1f}s / cap {box.cap:.0f}s]"


@pytest.fixture(scope="module")
def d2_big():
    """d_2(n) for n <= BIG_X + 1 (shared by criteria 4 and 9)."""
    return divisor_count_array(BIG_X + 1, 2)


@pytest.fixture(scope="module")
def d2_half_big():
    """d_2(n, 1/2) for n <= BIG_X (shared by criteria 4 and 9)."""
    return partial_divisor_array(BIG_X, 2, RationalExponent(1, 2))


def test_criterion_1_singular_series_closed_form():
    """C_{2,2} f_{2,2}(h) = (6/pi^2) sigma_{-1}(h) to 1e-9 for h <= 50."""
    with runtime_cap(10) as box:
        C, _ = singular_constant(2, 2)
        six = 6 / mp.pi**2
        worst = mp.mpf(0)
        for h in range(1, 51):
            f = singular_shift_factor(h, 2, 2)
            sig = sigma_minus1_exact(h)
            lhs = C * mp.mpf(f.numerator) / f.denominator
            rhs = six * mp.mpf(sig.numerator) / sig.denominator
            worst = max(worst, abs(lhs - rhs))
        ok = worst < mp.mpf(10) ** -9
        report(1, ok, f"singular series closed form, worst |diff| = {mp.nstr(worst, 3)}"
                      + _stamp(box))
        assert ok


def test_criterion_2_zeta_power_ledger():
    """a_0(j) = c_0(j) = 1; c_1(2) = 2 gamma - 1 to 1e-12; alternating sum
    vs jet division to 1e-20 at 30-digit precision for j <= 5, n <= 6."""
    with runtime_cap(5) as box:
        ok = True
        for j in range(7):
            ok &= zeta_power_coeffs(j, 0)[0] == 1
            ok &= c_coeffs(j, 0)[0] == 1
        with mp.workdps(30):
            g = euler_gamma()
        c12_gap = abs(c_coeffs(2, 1)[1] - (2 * g - 1))
        ok &= c12_gap < mp.mpf(10) ** -12
        worst = mp.mpf(0)
        with mp.workdps(30):
            for j in range(6):
                alt = c_coeffs(j, 6)
                div = c_coeffs_via_division(j, 6)
                worst = max(worst, max(abs(a - b) for a, b in zip(alt, div)))
        ok &= worst < mp.mpf(10) ** -20
        report(2, ok, f"zeta-power ledger, |c_1(2)-(2g-1)| = {mp.nstr(c12_gap, 3)}, "
                      f"route gap = {mp.nstr(worst, 3)}" + _stamp(box))
        assert ok


def test_criterion_3_estermann_two_route():
    """Ledger assembly vs closed forms, h = 1..20, truncation Q = 1e6.

    Tolerance is max(1e-8, reported tail bound); the relaxation, when
    active, is stated per shift."""
    Q = 10**6
    with runtime_cap(300) as box:
        ok = True
        relaxed_any = False
        worst = mp.mpf(0)
        for h in range(1, 21):
            chk = estermann_coefficients(coefficient_context(h, 2, 2, source="dirichlet", Q=Q))
            ok &= chk.ok
            relaxed_any |= chk.relaxed
            worst = max(worst, chk.max_diff)
            if chk.relaxed:
                print(f"    h={h}: tolerance relaxed to reported tail bound "
                      f"{mp.nstr(chk.tolerance, 3)} (max diff {mp.nstr(chk.max_diff, 3)})")
        note = " [tolerances relaxed to reported tail bounds]" if relaxed_any else ""
        report(3, ok, f"two-route degree-2 coefficients, worst diff = "
                      f"{mp.nstr(worst, 3)} at Q={Q}{note}" + _stamp(box))
        assert ok


def test_criterion_4_decade_trend(d2_big, d2_half_big):
    """Theorem-2.3-type trend: ratios approach 1, |ratio-1| <= 0.05 at 1e7,
    strictly decreasing over the last two decades."""
    with runtime_cap(600) as box:
        poly = main_polynomial("1/2", coefficient_context(1, 2, 2, source="euler"))
        prod = d2_big[2 : BIG_X + 2] * d2_half_big[1 : BIG_X + 1]
        gaps = []
        running = 0
        prev = 0
        for x in (10**4, 10**5, 10**6, BIG_X):
            running += int(prod[prev:x].sum(dtype=np.int64))
            ratio = mp.mpf(running) / (x * poly(mp.log(x)))
            gaps.append(abs(ratio - 1))
            prev = x
        ok = gaps[-1] <= mp.mpf("0.05") and gaps[-1] < gaps[-2] < gaps[-3]
        report(4, ok, "decade ratios |r-1| = "
                      + ", ".join(mp.nstr(g, 3) for g in gaps) + _stamp(box))
        assert ok


def test_criterion_5_progression_main_term():
    """Progression sums vs the exact main term: the error constant fitted
    on k = 2 covers k = 3 with a 3x margin (x = 1e6, A = 1/2)."""
    x = 10**6
    with runtime_cap(300) as box:
        fits = {2: [], 3: []}
        for k in (2, 3):
            sums = brute_ap_sweep(k, "1/2", [(q, h) for q in (3, 5, 7, 12) for h in (1, 2)], [x])
            for q in (3, 5, 7, 12):
                for h in (1, 2):
                    [obs] = sums[q, h]
                    pred = ap_main_term(x, q, h, k, "1/2").value
                    scale = mp.mpf(x) * mp.log(x) ** (k - 2) / q
                    fits[k].append(abs(obs - pred) / scale)
        C2 = max(fits[2])
        C3 = max(fits[3])
        ok = C3 <= 3 * C2
        report(5, ok, f"fitted error constants: C(k=2) = {mp.nstr(C2, 4)}, "
                      f"C(k=3) = {mp.nstr(C3, 4)} <= 3*C(k=2)" + _stamp(box))
        assert ok


def _leading_fit(res, d: int, lead) -> tuple[list, mp.mpf]:
    """Raw ratios S(x) / (x log^d x * lead) and the fitted c_0 of
    c_0 + c_1/L + ... + c_d/L^d (least squares over the cutoffs)."""
    ratios = [mp.mpf(r.value) / (r.x * mp.log(r.x) ** d * lead) for r in res]
    design = mp.matrix([[mp.log(r.x) ** -j for j in range(d + 1)] for r in res])
    coeffs, _ = mp.qr_solve(design, mp.matrix(ratios))
    return ratios, coeffs[0]


def test_criterion_6_doubly_partial_leading():
    """Doubly-partial correlation vs its leading constant (A = 2/3, B = 1/4):
    25% window on the fitted leading coefficient plus monotone decade trend.

    The main term is x P_d(log x) with deg P_d = d = k + l - 2, the same
    structure as the one-sided polynomial of `main_polynomial`, so the ratio
    to x log^d x * correlation_leading is c_0 + c_1/L + ... + c_d/L^d up to
    a power-saving error.  c_0 is fitted over x = 1e4..1e7 and asserted
    within 25% of 1.  The raw ratios enter only the trend clause, not the
    window: they carry the c_j/L^j terms (fitted c_1 of 3.5..12), whose
    size the theorem does not bound.
    Negative controls refit against the constant with A^(k-1), then
    B^(l-1), dropped, and must fall outside the window.
    """
    window = mp.mpf("0.25")
    xs = [10**4, 10**5, 10**6, BIG_X]
    window_ok = controls_ok = trend_ok = True
    lines = []
    summary = []
    for (k, l) in ((2, 2), (3, 2)):
        sweep = brute_correlation_decades([1, 2], k, l, ["2/3"], ["1/4"], xs)
        for h in (1, 2):
            d = k + l - 2
            res = sweep[h, RationalExponent(2, 3), RationalExponent(1, 4)]
            ratios, c0 = _leading_fit(res, d, correlation_leading(h, k, l, "2/3", "1/4"))
            _, c0_no_a = _leading_fit(res, d, correlation_leading(h, k, l, 1, "1/4"))
            _, c0_no_b = _leading_fit(res, d, correlation_leading(h, k, l, "2/3", 1))
            in_window = abs(c0 - 1) <= window
            rejects = abs(c0_no_a - 1) > window and abs(c0_no_b - 1) > window
            gaps = [abs(r - 1) for r in ratios]
            monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
            window_ok &= in_window
            controls_ok &= rejects
            trend_ok &= monotone
            lines.append(f"(k={k},l={l},h={h}): ratios "
                         + ", ".join(mp.nstr(r, 5) for r in ratios)
                         + f"; c0 = {mp.nstr(c0, 4)}, |c0-1| = {mp.nstr(abs(c0 - 1), 3)}"
                         + f" window={'ok' if in_window else 'MISS'}"
                         + f"; controls c0(no A) = {mp.nstr(c0_no_a, 3)},"
                         + f" c0(no B) = {mp.nstr(c0_no_b, 3)}"
                         + f" {'rejected' if rejects else 'NOT REJECTED'}"
                         + f"; trend={'ok' if monotone else 'MISS'}")
            summary.append(f"({k},{l},{h}) r = "
                           + "/".join(mp.nstr(r, 3) for r in ratios)
                           + f" c0 = {mp.nstr(c0, 4)} (|c0-1| = {mp.nstr(abs(c0 - 1), 2)})")
    for line in lines:
        print("    " + line)
    ok = window_ok and controls_ok and trend_ok
    report(6, ok, "ratios at 1e4..1e7 and fitted c0: " + "; ".join(summary)
                  + f"; window {'met' if window_ok else 'MISSED'},"
                  + f" controls {'rejected' if controls_ok else 'NOT REJECTED'},"
                  + f" trend {'met' if trend_ok else 'MISSED'}")
    assert trend_ok, "decade trend clause failed"
    assert window_ok, "fitted leading coefficient outside the 25% window"
    assert controls_ok, "a constant with a dropped A or B factor fits inside the window"


def test_criterion_7_leading_cancellation():
    """Assembled prediction for the partial-vs-full difference has a
    vanishing top coefficient (<= 1e-9) on the criterion-6 grid."""
    worst = mp.mpf(0)
    for (k, l) in ((2, 2), (3, 2)):
        for h in (1, 2):
            worst = max(worst, abs(partial_vs_full_leading_gap(h, k, l, "2/3", "1/4")))
    ok = worst < mp.mpf(10) ** -9
    report(7, ok, f"leading-term cancellation, worst |gap| = {mp.nstr(worst, 3)}")
    assert ok


def test_criterion_8_residue_arbitration():
    """Residue pipeline vs coefficient ledgers at matched truncation
    Q = 1e4: 1e-6 relative, (k,l) in {(2,2),(3,2)}, h in {1,2}, A = 1/2."""
    Q = 10**4
    with runtime_cap(120) as box:
        worst = mp.mpf(0)
        A = RationalExponent(1, 2)
        Af = A.mpf()
        for (k, l) in ((2, 2), (3, 2)):
            for h in (1, 2):
                ctx = fixed_context(h, k, l, Q)
                rr = residue_polynomial_routes(h, k, l, A, Q, ctx=ctx)
                for d in range(k + l - 1):
                    target = mp.mpf(0)
                    for m in range(k):
                        for n in range(l):
                            if m + n == d:
                                target += (Af**n * b_coefficient(ctx, m, n)
                                           / (mp.factorial(m) * mp.factorial(n)))
                    worst = max(worst,
                                abs(rr.primary[d] - target) / max(abs(target), mp.mpf(1)))
                for d in range(k + l - 2):
                    target = a_coefficient(ctx, A, d) / mp.factorial(d)
                    worst = max(worst,
                                abs(rr.secondary[d] - target) / max(abs(target), mp.mpf(1)))
        ok = worst < mp.mpf(10) ** -6
        report(8, ok, f"residue pipeline vs ledgers, worst rel diff = "
                      f"{mp.nstr(worst, 3)}" + _stamp(box))
        assert ok


def test_criterion_9_distribution(d2_big, d2_half_big):
    """Mean of d_2(n,1/2)/d_2(n) at 1e7 in [0.50, 0.53]; beta law at
    (2, 1/4) equals 1/3 to 1e-10; scaling residual decade-stable."""
    box = runtime_cap(300)
    full = d2_big[1 : BIG_X + 1]
    part = d2_half_big[1 : BIG_X + 1]
    vmax = int(full.max())
    sums = np.bincount(full, weights=part.astype(np.float64), minlength=vmax + 1)
    ratio_sum = Fraction(0)
    for v in range(1, vmax + 1):
        sv = int(round(sums[v]))
        if sv:
            ratio_sum += Fraction(sv, v)
    mean = ratio_sum / BIG_X
    mean_ok = Fraction(1, 2) <= mean <= Fraction(53, 100)
    beta_gap = abs(bareikis_cdf(2, "1/4") - mp.mpf(1) / 3)
    beta_ok = beta_gap < mp.mpf(10) ** -10
    residuals = []
    for x in (10**5, 10**6, BIG_X):
        sp = int(part[:x].sum(dtype=np.int64))
        sf = int(full[:x].sum(dtype=np.int64))
        residuals.append(Fraction(abs(Fraction(sp) - Fraction(1, 2) * sf), x))
    stable = residuals[0] > residuals[1] > residuals[2]
    ok = mean_ok and beta_ok and stable
    report(9, ok, f"mean = {float(mean):.6f}, |beta(2,1/4)-1/3| = "
                  f"{mp.nstr(beta_gap, 3)}, residual/x decades = "
                  + ", ".join(f"{float(r):.2e}" for r in residuals) + _stamp(box))
    box.check()
    assert ok


def test_criterion_10_exact_identity_suite():
    """Exhaustive exact identities for n <= 1e4, spot-checked to 1e6."""
    N = 10**4
    box = runtime_cap(60)
    ok = True
    # convolution: sum_{d|n} d_{k-1}(d) = d_k(n) for k <= 5
    for k in range(2, 6):
        dk = divisor_count_array(N, k)
        dkm1 = divisor_count_array(N, k - 1)
        conv = np.zeros(N + 1, dtype=np.int64)
        for q in range(1, N + 1):
            conv[q::q] += dkm1[q]
        ok &= bool(np.array_equal(conv[1:], dk[1:]))
    # square pairing: d_2(n) = 2 d_2(n,1/2) - [square], vectorized
    d2 = divisor_count_array(N, 2)
    d2h = partial_divisor_array(N, 2, "1/2")
    squares = np.zeros(N + 1, dtype=np.int64)
    squares[np.arange(1, 101) ** 2] = 1
    ok &= bool(np.array_equal(d2[1:], 2 * d2h[1:] - squares[1:]))
    # A-monotonicity over a rational grid
    grid = [RationalExponent.parse(s) for s in ("0", "1/5", "1/3", "1/2", "3/5", "4/5", "1")]
    for n in (7, 96, 1024, 5040, 9999):
        vals = [dk_partial(n, 3, A) for A in grid]
        ok &= vals == sorted(vals)
    # multiplicativity on the big table, spot pairs up to 1e6
    big = sieve_dk(2, 1, 10**6)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        from math import gcd

        if gcd(m, n) == 1:
            ok &= big.dk(m * n) == big.dk(m) * big.dk(n)
            checked += 1
    # prime-power limit at p = 2, k = 3, A = 1/2
    for alpha in range(20, 40):
        val = dk_partial(2**alpha, 3, RationalExponent(1, 2))
        ratio = val / dk_prime_power(3, alpha)
        ok &= abs(ratio - 0.25) <= 3 / alpha
        ok &= val == dk_prime_power(3, alpha // 2)
    report(10, ok, "convolution, square-pairing, monotonicity, "
                   "multiplicativity, prime-power limit" + _stamp(box))
    box.check()
    assert ok


def test_criterion_11_exponent_table():
    """Tabulated exponents exact as rationals; the k = l = 3 lower-bound
    prefactor rounds to 0.262."""
    ok = (
        theta_base(2) == Fraction(2, 3)
        and theta_base(3) == Fraction(21, 41)
        and theta_base(4) == Fraction(1, 2)
        and theta_base(5) == Fraction(9, 20)
        and theta_base(6) == Fraction(5, 12)
        and all(theta_base(k) == Fraction(8, 3 * k) for k in range(7, 12))
        and theta_exponent(3, Fraction(1, 2)) == Fraction(21, 41)
    )
    pref = (mp.mpf(21) / 41) ** 2
    ok &= mp.nstr(pref, 3) == "0.262"
    report(11, ok, f"exponent table exact; (21/41)^2 = {mp.nstr(pref, 6)}")
    assert ok  # runtime negligible by construction (pure table lookups)


def test_criterion_12_determinism(tmp_path):
    """Byte-identical report files across thread counts for every report
    code path, at reduced scale (full-scale runs share these exact paths)."""
    from divcorr.cli import main

    def run_all(threads: int) -> dict:
        out = tmp_path / f"rep_t{threads}"
        cache = tmp_path / f"cache_t{threads}"
        common = ["--out-dir", str(out), "--cache-dir", str(cache),
                  "--threads", str(threads)]
        cmds = [
            ["sieve", "--k", "2", "--hi", "20000"],
            ["constants", "--k", "2", "--l", "2", "--h", "1,6",
             "--P", "2000", "--Q", "2000"],
            ["polynomial", "--k", "2", "--l", "2", "--h", "1", "--A", "1/2"],
            ["predict", "--k", "2,3", "--l", "2", "--h", "1"],
            ["estermann", "--h", "1..4", "--Q", "5000", "--source", "dirichlet"],
            ["verify", "theorem23", "--k", "2", "--l", "2", "--A", "1/2",
             "--h", "1", "--x", "1e3..1e5"],
            ["verify", "theorem21", "--k", "2", "--q", "5", "--h", "2",
             "--A", "1/2", "--x", "1e3..1e4"],
            ["verify", "theorem22", "--k", "2", "--l", "2", "--A", "2/3",
             "--B", "1/4", "--h", "1", "--x", "1e3..1e4"],
            ["verify", "corollary3", "--k", "2", "--l", "2", "--A", "2/3",
             "--B", "1/4", "--h", "1", "--x", "1e3..1e4"],
            ["distribution", "--k", "2", "--A", "1/2", "--x", "1e4"],
        ]
        for cmd in cmds:
            assert main(cmd + common) == 0, cmd
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    one = run_all(1)
    three = run_all(3)
    ok = set(one) == set(three) and all(one[k] == three[k] for k in one)
    report(12, ok, f"{len(one)} report files byte-identical across thread counts")
    assert ok
