"""Truncated Taylor ("jet") arithmetic with mpmath coefficients.

Jet2 is the truncated bivariate series sum c[i][j] * t^i * w^j used for
expansions around (s, w) = (1, 0) with t = s - 1; with order_w = 0 it is the
one-variable series sum c[i][0] * t^i, built as Jet2([[c] for c in coeffs]).
Truncation commutes with the ring operations: multiplying two jets and
truncating equals truncating the full product, so retained coefficients are
exact (up to floating precision).  The (i, j) coefficient recovers the mixed
partial as i! * j! * c[i][j].
"""

from __future__ import annotations

import mpmath as mp

from .errors import DivcorrError


class JetSingularityError(DivcorrError):
    """Division or log applied to a jet with unusable constant term."""


def _num(x):
    return x if isinstance(x, (mp.mpf, mp.mpc)) else mp.mpf(x)


class Jet2:
    """Truncated bivariate Taylor series sum c[i][j] t^i w^j (one-variable
    in t when order_w = 0)."""

    __slots__ = ("coeffs", "order_t", "order_w")

    def __init__(self, coeffs):
        self.coeffs = [[_num(c) for c in row] for row in coeffs]
        self.order_t = len(self.coeffs) - 1
        self.order_w = len(self.coeffs[0]) - 1
        if any(len(row) != self.order_w + 1 for row in self.coeffs):
            raise ValueError("ragged coefficient matrix")

    @classmethod
    def constant(cls, c, order_t: int, order_w: int) -> "Jet2":
        rows = [[mp.mpf(0)] * (order_w + 1) for _ in range(order_t + 1)]
        rows[0][0] = _num(c)
        return cls(rows)

    @property
    def orders(self) -> tuple[int, int]:
        return (self.order_t, self.order_w)

    def __getitem__(self, ij):
        i, j = ij
        return self.coeffs[i][j]

    def partial(self, i: int, j: int):
        """Mixed partial d^i_t d^j_w at the expansion point: i! j! c[i][j]."""
        return mp.factorial(i) * mp.factorial(j) * self.coeffs[i][j]

    def _check_orders(self, other):
        if self.orders != other.orders:
            raise ValueError(f"jet order mismatch: {self.orders} vs {other.orders}")

    def __add__(self, other):
        if not isinstance(other, Jet2):
            out = Jet2(self.coeffs)
            out.coeffs[0][0] += _num(other)
            return out
        self._check_orders(other)
        return Jet2(
            [
                [self.coeffs[i][j] + other.coeffs[i][j] for j in range(self.order_w + 1)]
                for i in range(self.order_t + 1)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet2([[-c for c in row] for row in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -_num(other))

    def __rsub__(self, other):
        return (-self) + _num(other)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = _num(other)
            return Jet2([[a * c for a in row] for row in self.coeffs])
        self._check_orders(other)
        nt, nw = self.order_t, self.order_w
        out = [[mp.mpf(0)] * (nw + 1) for _ in range(nt + 1)]
        for i1 in range(nt + 1):
            row1 = self.coeffs[i1]
            for j1 in range(nw + 1):
                a = row1[j1]
                if a == 0:
                    continue
                for i2 in range(nt + 1 - i1):
                    row2 = other.coeffs[i2]
                    orow = out[i1 + i2]
                    for j2 in range(nw + 1 - j1):
                        b = row2[j2]
                        if b != 0:
                            orow[j1 + j2] += a * b
        return Jet2(out)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if not isinstance(m, int):
            raise TypeError("jet powers must have integer exponents")
        if m < 0:
            return (self**(-m)).reciprocal()
        out = Jet2.constant(1, self.order_t, self.order_w)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1 / _num(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * _num(other)

    def _nilpotent_steps(self) -> int:
        return self.order_t + self.order_w

    def reciprocal(self) -> "Jet2":
        c0 = self.coeffs[0][0]
        if c0 == 0:
            raise JetSingularityError("reciprocal of a jet with zero constant term")
        rest = Jet2([[c / c0 for c in row] for row in self.coeffs]) - 1  # 0 at (0, 0) exactly
        out = Jet2.constant(1, self.order_t, self.order_w)
        term = Jet2.constant(1, self.order_t, self.order_w)
        for r in range(self._nilpotent_steps()):
            term = term * rest
            out = out - term if r % 2 == 0 else out + term
        return out * (1 / c0)

    def exp(self) -> "Jet2":
        rest = self - self.coeffs[0][0]
        out = Jet2.constant(1, self.order_t, self.order_w)
        term = Jet2.constant(1, self.order_t, self.order_w)
        for r in range(1, self._nilpotent_steps() + 1):
            term = term * rest * (mp.mpf(1) / r)
            out = out + term
        return out * mp.exp(self.coeffs[0][0])

    def __repr__(self):
        rows = [[mp.nstr(c, 10) for c in row] for row in self.coeffs]
        return f"Jet2({rows})"

