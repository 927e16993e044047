"""The integer carrier must agree with CycNumber exactly."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from tvgenus.cyclotomic import CycNumber
from tvgenus.recoupling import (SymbolTables, _admissible_tet_tuples,
                                _exact, quantum_factorial)
from tvgenus.zarith import ZElt, zfield


def _z(x: CycNumber) -> ZElt:
    den = math.lcm(*(c.denominator for c in x.coeffs))
    return ZElt(zfield(x.level), [int(c * den) for c in x.coeffs], den).normalized()


def _cyc(r):
    deg = len(CycNumber.zero(r).coeffs)
    coeff = st.builds(Fraction, st.integers(-9, 9),
                      st.integers(1, 6))
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: CycNumber(r, cs))


@settings(max_examples=100, deadline=None)
@given(_cyc(5), _cyc(5))
def test_mul_matches_cycnumber_r5(a, b):
    assert (_z(a) * _z(b)).to_cyc(5) == a * b


@settings(max_examples=100, deadline=None)
@given(_cyc(7), _cyc(7))
def test_add_matches_cycnumber_r7(a, b):
    assert (_z(a) + _z(b)).to_cyc(7) == a + b


@settings(max_examples=60, deadline=None)
@given(_cyc(6), _cyc(6), _cyc(6))
def test_long_products_stay_exact(a, b, c):
    want = a * b * c + a
    got = _z(a) * _z(b) * _z(c) + _z(a)
    assert got.to_cyc(6) == want


def test_roundtrip_and_normalization():
    x = CycNumber(5, [Fraction(6, 4), Fraction(0), Fraction(-2, 4), Fraction(2)])
    z = _z(x)
    assert z.den == 2 and z.num == (3, 0, -1, 4)
    assert z.to_cyc(5) == x
    big = ZElt(zfield(5), (2 ** 200, 0, 0, 0), 2 ** 199)
    assert big.normalized().num == (2, 0, 0, 0)
    assert big.normalized().den == 1


@settings(max_examples=60, deadline=None)
@given(_cyc(6), _cyc(7))
def test_neg_and_inverse_match_cycnumber(a, b):
    for x, r in ((a, 6), (b, 7)):
        assert (-_z(x)).to_cyc(r) == -x
        if not x.is_zero():
            assert _z(x).inverse().to_cyc(r) == x.inverse()
            assert (_z(x) * _z(x).inverse()).to_cyc(r) == 1


def test_factorials_and_their_inverses():
    for r in range(3, 10):
        ex = _exact(r)
        for n in range(r):
            assert ex.fact[n] * ex.inv_fact[n] == ex.one, (r, n)
        assert all(ex.fact[n].is_zero() for n in range(r, 2 * r))
        assert quantum_factorial(r, r).is_zero()
        assert ex.dim * ex.dim_inv == ex.one


def test_exact_tables_match_fraction_oracle():
    """Every admissible Tet and 1/theta at r=3..6, against the Fraction
    formulas with CycNumber division."""
    for r in range(3, 7):
        tab = SymbolTables(r, "exact")
        for tup in _admissible_tet_tuples(r):
            assert tab.tet(*tup).to_cyc(r) == oracles.tet_exact(*tup, r), (r, tup)
        for tri in oracles.admissible_triples(r):
            want = oracles.theta_exact(*tri, r).inverse()
            assert tab.theta_inv(*tri).to_cyc(r) == want, (r, tri)
        assert [d.to_cyc(r) for d in tab.delta] == [
            oracles.theta_exact(a, a, 0, r) for a in range(r - 1)]
