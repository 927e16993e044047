"""Exact cyclotomic arithmetic: CycNumber on its own, and against the
Fraction-coefficient oracle (tests/oracles.py)."""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import FracCyc, schoolbook_mul
from tvgenus.cyclotomic import CycNumber, _field, _make, cyclotomic_polynomial


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # x^8 + 1
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("n", range(1, 40))
def test_cyclotomic_degree_is_totient(n):
    deg = len(cyclotomic_polynomial(n)) - 1
    totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert deg == totient


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 9, 12])
def test_zeta_power_embedding(r):
    for k in range(-2 * r, 2 * r + 1):
        z = CycNumber.zeta_power(r, k).to_complex()
        assert abs(z - cmath.exp(1j * math.pi * k / r)) < 1e-12


@pytest.mark.parametrize("r", [3, 5, 8])
def test_zeta_is_primitive_2r_th_root(r):
    one = CycNumber.one(r)
    z = CycNumber.zeta_power(r, 1)
    assert z ** (2 * r) == one
    for k in range(1, 2 * r):
        assert z ** k != one


def _elements(r):
    deg = len(CycNumber.zero(r).coeffs)
    coeff = st.integers(-6, 6).map(Fraction)
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: CycNumber(r, cs))


@settings(max_examples=80, deadline=None)
@given(_elements(5), _elements(5), _elements(5))
def test_field_axioms_r5(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == CycNumber.zero(5)


@settings(max_examples=60, deadline=None)
@given(_elements(5))
def test_inverse_roundtrip_r5(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == CycNumber.one(5)


@settings(max_examples=60, deadline=None)
@given(_elements(7), _elements(7))
def test_embedding_is_a_homomorphism(a, b):
    za, zb = a.to_complex(), b.to_complex()
    assert abs((a * b).to_complex() - za * zb) < 1e-9 * max(1.0, abs(za * zb))
    assert abs((a + b).to_complex() - (za + zb)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(_elements(6))
def test_conjugation_matches_complex_conjugate(a):
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9


def test_real_detection_is_exact():
    r = 5
    z = CycNumber.zeta_power(r, 1)
    assert not z.is_real()
    real = z + z.conjugate()  # 2 cos(pi/5)
    assert real.is_real()
    assert abs(real.to_float() - 2 * math.cos(math.pi / 5)) < 1e-12
    with pytest.raises(ValueError):
        z.to_float()


def test_mixed_levels_rejected():
    a, b = CycNumber.one(5), CycNumber.one(7)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()
    # non-rational elements of different levels stay unequal, even where
    # they embed as the same complex number (i at r=6 and at r=8)
    assert CycNumber.zeta_power(5, 1) != CycNumber.zeta_power(7, 1)
    assert CycNumber.zeta_power(6, 3) != CycNumber.zeta_power(8, 4)
    with pytest.raises(TypeError):
        a + 1


# --- against the Fraction-coefficient oracle ---------------------------------

def _coeffs(r):
    deg = len(cyclotomic_polynomial(2 * r)) - 1
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.lists(coeff, min_size=deg, max_size=deg)


@settings(max_examples=100, deadline=None)
@given(_coeffs(5), _coeffs(5))
def test_mul_matches_fraction_oracle_r5(a, b):
    assert ((CycNumber(5, a) * CycNumber(5, b)).coeffs
            == (FracCyc(5, a) * FracCyc(5, b)).coeffs)


@settings(max_examples=100, deadline=None)
@given(_coeffs(7), _coeffs(7))
def test_add_matches_fraction_oracle_r7(a, b):
    assert ((CycNumber(7, a) + CycNumber(7, b)).coeffs
            == (FracCyc(7, a) + FracCyc(7, b)).coeffs)


@settings(max_examples=60, deadline=None)
@given(_coeffs(6), _coeffs(6), _coeffs(6))
def test_long_products_stay_exact(a, b, c):
    x, y, z = (CycNumber(6, v) for v in (a, b, c))
    fx, fy, fz = (FracCyc(6, v) for v in (a, b, c))
    assert (x * y * z + x).coeffs == (fx * fy * fz + fx).coeffs


def test_roundtrip_and_normalization():
    x = CycNumber(5, [Fraction(6, 4), Fraction(0), Fraction(-2, 4), Fraction(2)])
    assert x.den == 2 and x.num == (3, 0, -1, 4)
    assert x.coeffs == (Fraction(3, 2), 0, Fraction(-1, 2), 2)
    assert CycNumber(5, x.coeffs) == x
    big = _make(_field(5), (2 ** 200, 0, 0, 0), 2 ** 199)
    assert big.normalized().num == (2, 0, 0, 0)
    assert big.normalized().den == 1
    assert big == 2 and str(big) == "2"
    # a product whose denominator passes 128 bits comes out reduced
    prod = CycNumber.one(5) * (2 ** 200) / (2 ** 199)
    assert (prod.num, prod.den) == ((2, 0, 0, 0), 1)


@settings(max_examples=60, deadline=None)
@given(_coeffs(6), _coeffs(7))
def test_neg_and_inverse_match_fraction_oracle(a, b):
    for v, r in ((a, 6), (b, 7)):
        x, fx = CycNumber(r, v), FracCyc(r, v)
        assert (-x).coeffs == (-fx).coeffs
        if not fx.is_zero():
            assert x.inverse().coeffs == fx.inverse().coeffs
            assert x * x.inverse() == 1


def test_rational_elements_hash_and_compare_like_fractions():
    for r in (3, 5, 8):
        for value in (0, 1, -3, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2)):
            x = CycNumber.from_rational(r, value)
            assert x == value and x == Fraction(value)
            assert hash(x) == hash(value) == hash(Fraction(value))
            assert len({x, value, Fraction(value)}) == 1
            assert x.to_rational() == value
        # an unreduced representation of 2 hashes like 2 too
        two = _make(_field(r), (6,) + (0,) * (_field(r).degree - 1), 3)
        assert two == 2 and hash(two) == hash(2)
        assert two.to_rational() == 2
        with pytest.raises(ValueError, match="not rational"):
            CycNumber.zeta_power(r, 1).to_rational()
        assert CycNumber.one(r) != Fraction(1, 2)
        assert CycNumber.zeta_power(r, 1) != 1
    assert len({CycNumber.one(5), 1}) == 1
    # equality stays transitive across levels, so no set order splits 1
    one5, one6 = CycNumber.one(5), CycNumber.one(6)
    assert one5 == one6 and CycNumber.zeta_power(5, 5) == -1 == -one6
    assert len({1, one5, one6}) == 1 and len({one5, one6, 1}) == 1
    assert CycNumber.from_rational(5, Fraction(1, 2)) != one6
    assert CycNumber.one(5) == Fraction(1)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError, match="positive"):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError, match="level must be >= 3"):
        CycNumber.zero(2)
    with pytest.raises(ValueError, match="wrong length"):
        CycNumber(5, [1, 2, 3])
    z = CycNumber.zeta_power(5, 1)
    with pytest.raises(ZeroDivisionError):
        z / 0
    assert z ** -1 == z.inverse() == CycNumber.zeta_power(5, -1)
    assert (z == "a") is False and z != "a"


@pytest.mark.parametrize("r", range(3, 10))
def test_inverse_keeps_a_positive_denominator(r):
    # the field has no real embedding, so every norm is positive and the
    # inverse divides by it as it stands
    z, one = CycNumber.zeta_power(r, 1), CycNumber.one(r)
    for x in (one * -3, -z, z - one * 2, z * z * 3 - z + one):
        inv = x.inverse()
        assert inv.den > 0 and x * inv == 1


def test_str_and_repr():
    z = CycNumber.zeta_power(5, 1)
    assert str(z) == "z" and str(-z) == "-z"
    assert repr(z) == "CycNumber(r=5, z)"
    x = CycNumber(5, [1, 0, -2, Fraction(1, 2)])
    assert str(x) == "1 - 2*z^2 + 1/2*z^3"
    assert str(CycNumber.zero(5)) == "0"


# --- the generated product and the integer paths -----------------------------

def _seeded(rng, f, density, bits):
    """An element of the field f: each numerator nonzero with probability
    density, of up to bits bits, over a denominator of up to bits bits."""
    num = [rng.randint(-2 ** bits, 2 ** bits) if rng.random() < density
           else 0 for _ in range(f.degree)]
    return _make(f, num, rng.randint(1, 2 ** bits))


@pytest.mark.parametrize("r", [*range(3, 13), 24])
def test_generated_product_equals_the_schoolbook_loop(r):
    f, rng = _field(r), random.Random(r)
    for density in (1.0, 0.3, 0.05):
        for bits in (6, 40, 90):  # 90: the product's denominator passes 128
            for _ in range(8):
                x, y = _seeded(rng, f, density, bits), _seeded(rng, f, 0.5, bits)
                num = schoolbook_mul(f, x.num, y.num)
                assert f.mul(x.num, y.num) == num
                want = _make(f, num, x.den * y.den)
                if want.den.bit_length() > 128:
                    want = want.normalized()
                got = x * y
                assert (got.num, got.den) == (want.num, want.den)


def _fraction_str(x):
    """CycNumber.__str__ as written over Fraction coefficients."""
    terms = []
    for k, c in enumerate(Fraction(n, x.den) for n in x.num):
        if c == 0:
            continue
        mon = "z" if k == 1 else f"z^{k}"
        terms.append(str(c) if k == 0 else mon if c == 1 else
                     f"-{mon}" if c == -1 else f"{c}*{mon}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _fraction_complex(x):
    out = 0j
    for n in reversed(x.num):
        out = out * x.f.zeta_complex + complex(Fraction(n, x.den))
    return out


@pytest.mark.parametrize("r", [3, 5, 6, 7, 12])
def test_integer_paths_equal_the_fraction_ones(r):
    f, rng = _field(r), random.Random(100 + r)
    modulus = sys.hash_info.modulus
    rational = [_make(f, (n,) + (0,) * (f.degree - 1), d) for n, d in (
        (0, 5), (6, 4), (-6, 4), (7, 1), (-1, 1), (3, modulus),
        (-2 * modulus, 6 * modulus), (5, modulus * 2 ** 70), (1, 2 ** 200))]
    for x in rational + [_seeded(rng, f, p, b) for p in (1.0, 0.4)
                         for b in (3, 70) for _ in range(6)]:
        scaled = _make(f, [3 * n for n in x.num], 3 * x.den)  # unreduced
        assert str(x) == str(scaled) == _fraction_str(x)
        assert x.to_complex() == _fraction_complex(x)
        assert hash(x) == hash(scaled)
        if not any(x.num[1:]):
            value = Fraction(x.num[0], x.den)
            assert hash(x) == hash(value)
            assert x == value and x == scaled and scaled == value
            assert (x == value + 1) is False
            if value.denominator == 1:
                assert x == value.numerator
        else:
            assert x == scaled and x != Fraction(x.num[0], x.den)


def test_from_rational_takes_what_fraction_takes():
    assert CycNumber.from_rational(5, "-6/8") == Fraction(-3, 4)
    assert CycNumber.from_rational(5, 0.5).den == 2


def test_division_by_an_integer_scales_the_denominator():
    x = _seeded(random.Random(7), _field(7), 1.0, 20)
    for n in (3, -4, 2 ** 130):
        assert x / n * n == x
        assert x / n == x * Fraction(1, n) == x / Fraction(n)
    assert (x / Fraction(-2, 3)).den > 0
    assert x / Fraction(-2, 3) == x * Fraction(-3, 2)

