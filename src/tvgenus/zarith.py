"""The exact carrier: elements of Q(zeta_{2r}) on integers.

A value is an integer coefficient vector plus one integer denominator.
Multiplication is an integer convolution followed by reduction with the
(integral) rows of x^k mod Phi_{2r}; this is an order of magnitude cheaper
than per-coefficient Fraction arithmetic and exactly equivalent.  Every
exact symbol (recoupling) and the exact state sum (statesum) are computed
on this carrier; CycNumber is the public value type, reached by to_cyc()
once a result leaves the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclotomic import CycNumber, _field


def _ints(row) -> tuple[int, ...]:
    assert all(c.denominator == 1 for c in row)
    return tuple(int(c) for c in row)


class ZField:
    """Shared integral data for one level: reduction rows, zeta powers and
    the exponents of the Galois automorphisms zeta -> zeta^k."""

    def __init__(self, r: int):
        base = _field(r)
        self.r = r
        self.degree = base.degree
        self.rows = [_ints(row) for row in base.reduction_rows]
        self.zeta_powers = [_ints(z) for z in base.zeta_powers]
        self.units = [k for k in range(2, base.n) if gcd(k, base.n) == 1]


@lru_cache(maxsize=None)
def zfield(r: int) -> ZField:
    return ZField(r)


class ZElt:
    """num (tuple of ints, length = field degree) over den (positive int)."""

    __slots__ = ("f", "num", "den")

    def __init__(self, f: ZField, num, den: int = 1):
        self.f = f
        self.num = tuple(num)
        self.den = den

    @staticmethod
    def const(f: ZField, n: int) -> "ZElt":
        return ZElt(f, (n,) + (0,) * (f.degree - 1))

    @staticmethod
    def zeta_power(f: ZField, k: int) -> "ZElt":
        """zeta^k for any integer k (negative allowed)."""
        return ZElt(f, f.zeta_powers[k % (2 * f.r)])

    def to_cyc(self, level: int) -> CycNumber:
        return CycNumber(level, [Fraction(n, self.den) for n in self.num])

    def normalized(self) -> "ZElt":
        g = self.den
        for n in self.num:
            g = gcd(g, n)
            if g == 1:
                return self
        if g > 1:
            return ZElt(self.f, tuple(n // g for n in self.num), self.den // g)
        return self

    def __mul__(self, other: "ZElt") -> "ZElt":
        f = self.f
        d = f.degree
        a, b = self.num, other.num
        conv = [0] * (2 * d - 1)
        for i in range(d):
            x = a[i]
            if x:
                for j in range(d):
                    y = b[j]
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = f.rows[k - d]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        res = ZElt(f, out, self.den * other.den)
        # keep numbers small without paying gcd on every step
        if res.den.bit_length() > 128:
            return res.normalized()
        return res

    def __add__(self, other: "ZElt") -> "ZElt":
        da, db = self.den, other.den
        if da == db:
            return ZElt(self.f, [x + y for x, y in zip(self.num, other.num)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return ZElt(self.f,
                    [x * ma + y * mb for x, y in zip(self.num, other.num)],
                    da * ma)

    def __neg__(self) -> "ZElt":
        return ZElt(self.f, [-n for n in self.num], self.den)

    def conjugate_by(self, k: int) -> "ZElt":
        """The Galois image under zeta -> zeta^k (k prime to 2r)."""
        f = self.f
        out = [0] * f.degree
        for i, c in enumerate(self.num):
            if c:
                row = f.zeta_powers[i * k % (2 * f.r)]
                for j in range(f.degree):
                    out[j] += c * row[j]
        return ZElt(f, out, self.den)

    def inverse(self) -> "ZElt":
        """1/x = (product of the other Galois conjugates of x) / N(x); the
        norm N(x) is that product times x, a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        rest = ZElt.const(self.f, 1)
        for k in self.f.units:
            rest = rest * self.conjugate_by(k)
        norm = (self * rest).normalized()
        n = norm.num[0]
        if n < 0:
            rest, n = -rest, -n
        return ZElt(self.f, [c * norm.den for c in rest.num],
                    rest.den * n).normalized()

    def __eq__(self, other):
        if not isinstance(other, ZElt):
            return NotImplemented
        a = self.normalized()
        b = other.normalized()
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        a = self.normalized()
        return hash((a.num, a.den))

    def is_zero(self) -> bool:
        return all(n == 0 for n in self.num)
