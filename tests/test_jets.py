"""Truncated Taylor arithmetic: ring identities and derivative recovery."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcorr.jets import Jet2, JetSingularityError
from second_routes import jet_eval, jet_log, variable_t, variable_w

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def _close(a, b, tol="1e-30"):
    return abs(a - b) < mp.mpf(tol)


def test_mul_example():
    # (1 + t)(1 + w) has unit constant and unit cross terms
    a = Jet2([[1, 0], [1, 0]])
    b = Jet2([[1, 1], [0, 0]])
    prod = a * b
    assert prod[0, 0] == 1 and prod[1, 0] == 1
    assert prod[0, 1] == 1 and prod[1, 1] == 1


def test_div_identity():
    g = Jet2([[2, 3, -1], [1, 0.5, 2], [0, 1, -3]])
    one = g / g
    assert _close(one[0, 0], 1)
    for i in range(3):
        for j in range(3):
            if (i, j) != (0, 0):
                assert _close(one[i, j], 0)


def test_exp_log_roundtrip():
    g = Jet2([[2, 3, -1], [1, 0.5, 2], [0, 1, -3]])
    back = jet_log(g).exp()
    for i in range(3):
        for j in range(3):
            assert _close(back[i, j], g[i, j])


def test_partial_recovery():
    # F = exp(2t + 3w): d^i_t d^j_w F = 2^i 3^j
    f = (2 * variable_t(3, 3) + 3 * variable_w(3, 3)).exp()
    for i in range(4):
        for j in range(4):
            assert _close(f.partial(i, j), mp.mpf(2) ** i * mp.mpf(3) ** j, "1e-28")


def test_singularities():
    z = Jet2([[0, 1], [1, 0]])
    with pytest.raises(JetSingularityError):
        z.reciprocal()
    with pytest.raises(JetSingularityError):
        jet_log(z)
    neg = Jet2([[-1, 0], [0, 0]])
    with pytest.raises(JetSingularityError):
        jet_log(neg)


def test_pow_int():
    """Powers against repeated products, in two variables and in one."""
    for g in (Jet2([[1, 1], [2, 0]]), Jet2([[1], [2], [-0.5], [3]])):
        cells = [(i, j) for i in range(g.order_t + 1) for j in range(g.order_w + 1)]
        assert _close((g**3)[0, 0], 1)
        cube = g * g * g
        bin_pow = g**3
        for i, j in cells:
            assert _close(cube[i, j], bin_pow[i, j])
        inv2 = g**-2
        direct = (g * g).reciprocal()
        for i, j in cells:
            assert _close(inv2[i, j], direct[i, j])


def test_finite_difference_first_partials():
    """Jet first partials of exp/log/reciprocal match central differences.

    Step h = 1e-4; agreement within 10 h^2 at double working precision.
    """
    h = mp.mpf("1e-4")
    tol = 10 * h**2

    def scalar(fun, t, w):
        base = 1.3 + 0.7 * t - 0.4 * w + 0.2 * t * w
        return fun(base)

    for name, fun in (("exp", mp.exp), ("log", mp.log), ("recip", lambda v: 1 / v)):
        base_jet = (Jet2.constant(1.3, 2, 2) + 0.7 * variable_t(2, 2)
                    - 0.4 * variable_w(2, 2)
                    + 0.2 * variable_t(2, 2) * variable_w(2, 2))
        jet = {"exp": base_jet.exp(), "log": jet_log(base_jet),
               "recip": base_jet.reciprocal()}[name]
        fd_t = (scalar(fun, h, 0) - scalar(fun, -h, 0)) / (2 * h)
        fd_w = (scalar(fun, 0, h) - scalar(fun, 0, -h)) / (2 * h)
        assert abs(jet.partial(1, 0) - fd_t) < tol, name
        assert abs(jet.partial(0, 1) - fd_w) < tol, name


def test_one_variable_eval():
    e = variable_t(4, 0).exp()
    x = mp.mpf("0.1")
    assert _close(jet_eval(e, x, 0), sum(x**r / mp.factorial(r) for r in range(5)))


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3))
def test_product_quotient_roundtrip(ac, bc):
    a = Jet2([[c] for c in [2.0 + abs(ac[0])] + ac[1:]])
    b = Jet2([[c] for c in [1.5 + abs(bc[0])] + bc[1:]])
    back = (a * b) / b
    for r in range(3):
        assert abs(back[r, 0] - a[r, 0]) < mp.mpf("1e-25")


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=4, max_size=4))
def test_exp_log_roundtrip_one_variable(coeffs):
    f = Jet2([[c] for c in [1.0 + abs(coeffs[0])] + coeffs[1:]])
    back = jet_log(f).exp()
    for r in range(4):
        assert abs(back[r, 0] - f[r, 0]) < mp.mpf("1e-24")
