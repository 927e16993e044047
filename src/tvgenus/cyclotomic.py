"""Exact arithmetic in the cyclotomic field Q(zeta) with zeta = e^(i*pi/r).

zeta is a primitive 2r-th root of unity, so the field is Q[x]/(Phi_{2r}(x))
with Phi_{2r} the 2r-th cyclotomic polynomial.  An element is a polynomial
in zeta of degree below deg Phi_{2r}, stored as an integer numerator vector
over one positive integer denominator.  Multiplication is an integer
convolution followed by reduction with the integral rows of x^k mod
Phi_{2r}; the inverse is the product of the other Galois conjugates over
the norm.  No rational arithmetic runs inside: Fraction appears only at the
edges, in the constructor and in the coeffs view.

This one type carries every exact quantity the recoupling theory produces
at q = e^(i*pi/r): quantum integers, theta- and tetrahedral symbols, and
the state-sum values built from them, all without square roots.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (index = power), computed by exact division
    of x^n - 1 by the product of Phi_d over proper divisors d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod_int(num, den)
    if any(rem):
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(quot)


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    num = num[:]
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = num[i + dd]
        if c % den[dd] != 0 and c != 0:
            raise AssertionError("non-monic division")
        q = c // den[dd]
        quot[i] = q
        if q:
            for j in range(dd + 1):
                num[i + j] -= q * den[j]
    return quot, num


class _Field:
    """Integral data for Q[x]/(Phi_{2r}), shared by every CycNumber at level
    r: reduction rows, zeta powers and the exponents of the Galois
    automorphisms zeta -> zeta^k."""

    def __init__(self, r: int):
        if r < 3:
            raise ValueError("level must be >= 3")
        self.r = r
        self.n = 2 * r
        phi = cyclotomic_polynomial(self.n)
        d = self.degree = len(phi) - 1
        # x^k mod Phi for k = degree .. 2*degree-2 (Phi is monic)
        top = [-c for c in phi[:-1]]
        self.rows = [top]
        for _ in range(d - 2):
            self.rows.append(self._shift(self.rows[-1]))
        # zeta^k reduced, for k = 0 .. 2r-1
        cur = [1] + [0] * (d - 1)
        self.zeta_powers = []
        for _ in range(self.n):
            self.zeta_powers.append(tuple(cur))
            cur = self._shift(cur)
        self.units = [k for k in range(2, self.n) if gcd(k, self.n) == 1]
        self.zeta_complex = cmath.exp(1j * math.pi / r)

    def _shift(self, coeffs: list[int]) -> list[int]:
        """x * coeffs, reduced."""
        out = [0] + coeffs[:-1]
        lead = coeffs[-1]
        if lead:
            out = [a + lead * t for a, t in zip(out, self.rows[0])]
        return out


@lru_cache(maxsize=None)
def _field(r: int) -> _Field:
    return _Field(r)


def _make(f: _Field, num, den: int = 1) -> "CycNumber":
    """An element from integer data, without the constructor's checks."""
    x = object.__new__(CycNumber)
    x.f = f
    x.num = tuple(num)
    x.den = den
    return x


class CycNumber:
    """An element of Q(zeta_{2r}), zeta = e^(i*pi/r), at level r >= 3:
    num (one int per power of zeta below the field degree) over den > 0.

    Immutable by convention: every operation returns a new element.
    Supports +, -, *, /, ** and exact equality (also with ints and
    Fractions, which rational elements hash like, and between rational
    elements of different levels); * and / also take int and Fraction
    scalars.  Division by zero (the only non-invertible element, Phi_{2r}
    being irreducible) raises ZeroDivisionError.
    """

    __slots__ = ("f", "num", "den")

    def __init__(self, level: int, coeffs):
        f = _field(level)
        if len(coeffs) != f.degree:
            raise ValueError("coefficient vector has wrong length")
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self.f = f
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def level(self) -> int:
        return self.f.r

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    # --- constructors -----------------------------------------------------
    @staticmethod
    def zero(level: int) -> "CycNumber":
        return CycNumber.from_rational(level, 0)

    @staticmethod
    def one(level: int) -> "CycNumber":
        return CycNumber.from_rational(level, 1)

    @staticmethod
    def from_rational(level: int, value) -> "CycNumber":
        value = Fraction(value)
        f = _field(level)
        return _make(f, (value.numerator,) + (0,) * (f.degree - 1),
                     value.denominator)

    @staticmethod
    def zeta_power(level: int, k: int) -> "CycNumber":
        """zeta^k for any integer k (negative allowed)."""
        f = _field(level)
        return _make(f, f.zeta_powers[k % f.n])

    # --- ring operations ---------------------------------------------------
    def _check(self, other):
        if not isinstance(other, CycNumber):
            raise TypeError("expected CycNumber")
        if other.f is not self.f:
            raise ValueError("mixed levels")

    def normalized(self) -> "CycNumber":
        """The same element with gcd(num, den) = 1, the canonical form."""
        g = self.den
        for n in self.num:
            g = gcd(g, n)
            if g == 1:
                return self
        if g > 1:
            return _make(self.f, (n // g for n in self.num), self.den // g)
        return self

    def __add__(self, other):
        if other.__class__ is not CycNumber or other.f is not self.f:
            self._check(other)
        da, db = self.den, other.den
        if da == db:
            return _make(self.f, [x + y for x, y in zip(self.num, other.num)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _make(self.f,
                     [x * ma + y * mb for x, y in zip(self.num, other.num)],
                     da * ma)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _make(self.f, [-n for n in self.num], self.den)

    def __mul__(self, other):
        f = self.f
        if other.__class__ is not CycNumber or other.f is not f:
            if isinstance(other, (int, Fraction)):
                other = CycNumber.from_rational(f.r, other)
            else:
                self._check(other)
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
        res = _make(f, out, self.den * other.den)
        # keep numbers small without paying gcd on every step
        if res.den.bit_length() > 128:
            return res.normalized()
        return res

    __rmul__ = __mul__

    def conjugate_by(self, k: int) -> "CycNumber":
        """The Galois image under zeta -> zeta^k (k prime to 2r)."""
        f = self.f
        out = [0] * f.degree
        for i, c in enumerate(self.num):
            if c:
                row = f.zeta_powers[i * k % f.n]
                for j in range(f.degree):
                    out[j] += c * row[j]
        return _make(f, out, self.den)

    def inverse(self) -> "CycNumber":
        """1/x = (product of the other Galois conjugates of x) / N(x); the
        norm N(x) is that product times x, a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        rest = CycNumber.one(self.f.r)
        for k in self.f.units:
            rest = rest * self.conjugate_by(k)
        norm = (self * rest).normalized()
        n = norm.num[0]
        if n < 0:
            rest, n = -rest, -n
        return _make(self.f, [c * norm.den for c in rest.num],
                     rest.den * n).normalized()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        self._check(other)
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNumber.one(self.f.r)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- predicates and embeddings ------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(self.f.r, other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        if other.f is not self.f:
            # a rational element is the same number at every level
            return not any(self.num[1:]) and not any(other.num[1:]) and \
                self.num[0] * other.den == other.num[0] * self.den
        a, b = self.normalized(), other.normalized()
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        """A rational element hashes like the Fraction it equals."""
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        a = self.normalized()
        return hash((self.f.r, a.num, a.den))

    def conjugate(self) -> "CycNumber":
        """Complex conjugation, i.e. the field automorphism zeta -> zeta^(2r-1)."""
        return self.conjugate_by(self.f.n - 1)

    def is_real(self) -> bool:
        """Exact test: fixed by complex conjugation."""
        return self == self.conjugate()

    def to_rational(self) -> Fraction:
        """The rational number this element is; ValueError if it is not
        rational."""
        if any(self.num[1:]):
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def to_complex(self) -> complex:
        z = self.f.zeta_complex
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + complex(c)
        return out

    def to_float(self) -> float:
        """Real embedding; requires the element to be exactly real."""
        if not self.is_real():
            raise ValueError("element is not real")
        return self.to_complex().real

    def __repr__(self):
        return f"CycNumber(r={self.level}, {self})"

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mon = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{c}*{mon}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"
