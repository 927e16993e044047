"""Exact arithmetic in the cyclotomic field Q(zeta) with zeta = e^(i*pi/r).

zeta is a primitive 2r-th root of unity, so the field is Q[x]/(Phi_{2r}(x))
with Phi_{2r} the 2r-th cyclotomic polynomial.  An element is a polynomial
in zeta of degree below deg Phi_{2r}, stored as an integer numerator vector
over one positive integer denominator.  Each level's _Field generates one
straight-line product for its degree d: the d^2 integer products of the
convolution, and its reduction by the integral rows of x^k mod Phi_{2r}
with their constants folded in, as one Python function with no loop and no
branch.  CycNumber.__mul__ is the one entry point to it.  The inverse is
the product of the other Galois conjugates over the norm.

No rational arithmetic runs inside, and an element built from integers
never loads the fractions module: equality, hashing, division by an
integer, the printed form and the complex embedding all work on the
integers.  Fraction appears only at the edges: in the constructor (whose
coefficients may be any value Fraction takes), in from_rational of a value
that is neither an int nor a Fraction, and in the coeffs and to_rational
views, which return Fractions.

This one type carries every exact quantity the recoupling theory produces
at q = e^(i*pi/r): quantum integers, theta- and tetrahedral symbols, and
the state-sum values built from them, all without square roots.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from math import gcd


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (index = power): x^n - 1 divided, in place,
    by the monic Phi_d of each proper divisor d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            *low, _ = cyclotomic_polynomial(d)  # the lead is 1
            k = len(low)
            # poly[i] becomes the quotient's x^(i-k) coefficient, top down
            for i in range(len(poly) - 1, k - 1, -1):
                for j, c in enumerate(low):
                    poly[i - k + j] -= poly[i] * c
            del poly[:k]  # the remainder, zero
    return tuple(poly)


class _Field:
    """Integral data for Q[x]/(Phi_{2r}), shared by every CycNumber at level
    r: reduction rows, zeta powers, the exponents of the Galois
    automorphisms zeta -> zeta^k, and mul, the level's generated product of
    two numerator vectors."""

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
        self.mul = self._product()

    def _shift(self, coeffs: list[int]) -> list[int]:
        """x * coeffs, reduced."""
        out = [0] + coeffs[:-1]
        lead = coeffs[-1]
        if lead:
            out = [a + lead * t for a, t in zip(out, self.rows[0])]
        return out

    def _product(self):
        """The product of two numerator vectors as one generated function:
        h_k, the convolution's coefficient of x^k for k >= d, then each
        output coefficient as the convolution's coefficient plus the h_k
        times the entries of their rows, a 1 or -1 written as + or -, a 0
        left out.  For Phi_10 (d = 4; x^4 = x^3 - x^2 + x - 1, x^5 = -1
        and x^6 = -x):

            a0, a1, a2, a3, = a
            b0, b1, b2, b3, = b
            h4 = a1 * b3 + a2 * b2 + a3 * b1
            h5 = a2 * b3 + a3 * b2
            h6 = a3 * b3
            return (a0 * b0 - h4 - h5, a0 * b1 + a1 * b0 + h4 - h6, ...)"""
        d = self.degree

        def conv(k):  # the convolution's coefficient of x^k
            return " + ".join(f"a{i} * b{k - i}"
                              for i in range(max(0, k - d + 1), min(k, d - 1) + 1))

        out = []
        for i in range(d):
            terms = [conv(i)]
            for k in range(d, 2 * d - 1):
                c = self.rows[k - d][i]
                terms.append("" if not c else f" + h{k}" if c == 1 else
                             f" - h{k}" if c == -1 else f" + {c} * h{k}")
            out.append("".join(terms))
        lines = ["def mul(a, b):",
                 "    " + "".join(f"a{i}, " for i in range(d)) + "= a",
                 "    " + "".join(f"b{i}, " for i in range(d)) + "= b",
                 *(f"    h{k} = {conv(k)}" for k in range(d, 2 * d - 1)),
                 "    return (" + "".join(f"{x}, " for x in out) + ")"]
        namespace: dict = {}
        exec(compile("\n".join(lines), f"<Q(zeta_{self.n}) product>", "exec"),
             namespace)
        return namespace["mul"]


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


def _rational(value):
    """(numerator, denominator) of an int or a Fraction, else None.  A
    Fraction exists only once its module is loaded, so this loads none."""
    if isinstance(value, int):
        return value.numerator, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator, value.denominator
    return None


# a product or quotient whose denominator passes this many bits is reduced:
# numbers stay small without paying gcd on every step
_REDUCE_BITS = 128


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
        from fractions import Fraction  # the constructor is an edge
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
    def coeffs(self) -> tuple:
        """The coefficients of 1, zeta, zeta^2, ... as Fractions."""
        from fractions import Fraction
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
        """value, an int, a Fraction or anything Fraction takes, at level."""
        f = _field(level)
        ratio = _rational(value)
        if ratio is None:
            from fractions import Fraction
            value = Fraction(value)
            ratio = value.numerator, value.denominator
        num, den = ratio
        g = gcd(num, den)
        return _make(f, (num // g,) + (0,) * (f.degree - 1), den // g)

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
        return _make(self.f, (n // g for n in self.num), self.den // g)

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
            if _rational(other) is not None:
                other = CycNumber.from_rational(f.r, other)
            else:
                self._check(other)
        x = object.__new__(CycNumber)
        x.f, x.num, x.den = f, f.mul(self.num, other.num), self.den * other.den
        return x.normalized() if x.den.bit_length() > _REDUCE_BITS else x

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
        # positive: the field has no real embedding, so N(x) is a product
        # of |sigma(x)|^2
        return _make(self.f, [c * norm.den for c in rest.num],
                     rest.den * norm.num[0]).normalized()

    def __truediv__(self, other):
        ratio = _rational(other)
        if ratio is not None:
            # by n/d: the numerators times d over the denominator times n
            n, d = ratio
            if n == 0:
                raise ZeroDivisionError("division by zero")
            if n < 0:
                n, d = -n, -d
            x = _make(self.f, [c * d for c in self.num], self.den * n)
            return x.normalized() if x.den.bit_length() > _REDUCE_BITS else x
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
        ratio = _rational(other)
        if ratio is not None:
            return (not any(self.num[1:])
                    and self.num[0] * ratio[1] == ratio[0] * self.den)
        if not isinstance(other, CycNumber):
            return NotImplemented
        if other.f is not self.f:
            # a rational element is the same number at every level
            return not any(self.num[1:]) and not any(other.num[1:]) and \
                self.num[0] * other.den == other.num[0] * self.den
        a, b = self.normalized(), other.normalized()
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        """A rational element n/d hashes like the Fraction it equals: by
        Python's rule for rationals, |n| times the inverse of d modulo the
        hash modulus P, with n's sign (inf where P divides d)."""
        a = self.normalized()
        if any(a.num[1:]):
            return hash((self.f.r, a.num, a.den))
        n, d = a.num[0], a.den
        P = sys.hash_info.modulus
        h = sys.hash_info.inf if d % P == 0 else abs(n) * pow(d, -1, P) % P
        return hash(-h if n < 0 else h)

    def conjugate(self) -> "CycNumber":
        """Complex conjugation, i.e. the field automorphism zeta -> zeta^(2r-1)."""
        return self.conjugate_by(self.f.n - 1)

    def is_real(self) -> bool:
        """Exact test: fixed by complex conjugation."""
        return self == self.conjugate()

    def to_rational(self):
        """The rational number this element is, as a Fraction; ValueError
        if it is not rational."""
        if any(self.num[1:]):
            raise ValueError("element is not rational")
        from fractions import Fraction
        return Fraction(self.num[0], self.den)

    def to_complex(self) -> complex:
        """The embedding zeta -> e^(i*pi/r), by Horner's rule over the
        coefficients, each the correctly rounded quotient num[k] / den."""
        z, den = self.f.zeta_complex, self.den
        out = 0j
        for n in reversed(self.num):
            out = out * z + complex(n / den)
        return out

    def to_float(self) -> float:
        """Real embedding; requires the element to be exactly real."""
        if not self.is_real():
            raise ValueError("element is not real")
        return self.to_complex().real

    def __repr__(self):
        return f"CycNumber(r={self.level}, {self})"

    def __str__(self):
        """The sum of the nonzero terms c*z^k, each c in lowest terms."""
        terms = []
        den = self.den
        for k, n in enumerate(self.num):
            if not n:
                continue
            g = gcd(n, den)
            c = f"{n // g}" if g == den else f"{n // g}/{den // g}"
            if k == 0:
                terms.append(c)
            else:
                mon = "z" if k == 1 else f"z^{k}"
                if n == den:
                    terms.append(mon)
                elif n == -den:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{c}*{mon}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"
