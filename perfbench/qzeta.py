"""The benchmark's own arithmetic, written without the tvgenus package.

Elements of Q(zeta_2r), zeta = e^(i*pi/r), as rational polynomials reduced
modulo the cyclotomic polynomial Phi_2r; the parser for the polynomials
the program prints; the global dimension D; H_1 strings; and the
tetrahedron count in a signature's header.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients (constant term first) of Phi_n, from
    x^n - 1 = prod over d | n of Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _div_monic(poly, cyclotomic(d))
    return tuple(poly)


def _div_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        q = num[i + dd]
        quot[i] = q
        for j in range(dd + 1):
            num[i + j] -= q * den[j]
    if any(num[:dd]):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


class Cyc:
    """An element of Q(zeta_2r) in the power basis 1, z, ..., z^(deg-1)."""

    __slots__ = ("r", "c")

    def __init__(self, r: int, coeffs):
        self.r = r
        phi = cyclotomic(2 * r)
        deg = len(phi) - 1
        c = [Fraction(x) for x in coeffs]
        for k in range(len(c) - 1, deg - 1, -1):
            lead = c[k]
            if lead:
                for j in range(deg + 1):
                    c[k - deg + j] -= lead * phi[j]
        self.c = tuple(c[:deg] + [Fraction(0)] * (deg - len(c)))

    @staticmethod
    def zeta(r: int, k: int) -> "Cyc":
        k %= 2 * r
        return Cyc(r, [0] * k + [1])

    @staticmethod
    def const(r: int, x) -> "Cyc":
        return Cyc(r, [x])

    def __add__(self, other: "Cyc") -> "Cyc":
        return Cyc(self.r, [a + b for a, b in zip(self.c, other.c)])

    def __mul__(self, other: "Cyc") -> "Cyc":
        out = [Fraction(0)] * (2 * len(self.c))
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return Cyc(self.r, out)

    def __eq__(self, other):
        return isinstance(other, Cyc) and (self.r, self.c) == (other.r, other.c)

    def is_zero(self) -> bool:
        return not any(self.c)

    def real(self) -> float:
        return sum(float(a) * math.cos(math.pi * k / self.r)
                   for k, a in enumerate(self.c))

    def __repr__(self):
        return f"Cyc({self.r}, {[str(a) for a in self.c]})"


def parse_poly(r: int, text: str) -> Cyc:
    """Read a printed value such as '1/5 - 1/10*z^2 + 1/10*z^3'."""
    text = text.strip()
    coeffs: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        if "*" in term:
            coef, mono = term.split("*")
        elif "z" in term:
            coef, mono = ("-1", term[1:]) if term.startswith("-") else ("1", term)
        else:
            coef, mono = term, ""
        if mono == "":
            k = 0
        elif mono == "z":
            k = 1
        elif mono.startswith("z^"):
            k = int(mono[2:])
        else:
            raise ValueError(f"bad monomial in {text!r}")
        coeffs[k] = coeffs.get(k, Fraction(0)) + Fraction(coef)
    top = max(coeffs)
    return Cyc(r, [coeffs.get(k, 0) for k in range(top + 1)])


def qint(r: int, n: int) -> Cyc:
    """[n] = sum of zeta^(n-1-2k), k = 0..n-1."""
    out = Cyc.const(r, 0)
    for k in range(n):
        out = out + Cyc.zeta(r, n - 1 - 2 * k)
    return out


@lru_cache(maxsize=None)
def global_dim(r: int) -> Cyc:
    """D = sum of [i]^2 over i = 1..r-1."""
    out = Cyc.const(r, 0)
    for i in range(1, r):
        q = qint(r, i)
        out = out + q * q
    return out


def h1_terms(text: str) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of a printed H_1 such as '2 Z + Z_3'."""
    text = text.strip()
    free, torsion = 0, []
    if text == "0":
        return 0, ()
    for term in text.split("+"):
        parts = term.split()
        count = int(parts[0]) if len(parts) == 2 else 1
        base = parts[-1]
        if base == "Z":
            free += count
        elif base.startswith("Z_"):
            torsion += [int(base[2:])] * count
        else:
            raise ValueError(f"bad H_1 term {term!r}")
    return free, tuple(sorted(torsion))


def min_generators(h1_text: str) -> int:
    free, torsion = h1_terms(h1_text)
    return free + len(torsion)


def b1_mod2(h1_text: str) -> int:
    """dim H_1(M; Z_2) = free rank + number of even torsion factors."""
    free, torsion = h1_terms(h1_text)
    return free + sum(1 for d in torsion if d % 2 == 0)


def sig_size(sig: str) -> int:
    """Tetrahedron count from the size header of a signature (one
    character for fewer than 63 tetrahedra)."""
    alphabet = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                "0123456789+-")
    n = alphabet.index(sig[0])
    if n >= 63:
        raise ValueError("signature too large for the benchmark")
    return n
