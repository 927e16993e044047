"""Quantum integers, dimensions, theta and tetrahedral symbols."""

import itertools
import math
import random

import pytest

from tvgenus.recoupling import (SymbolTables, admissible, global_dim,
                                global_dim_f, qdim, qdim_f, quantum_factorial,
                                quantum_integer, quantum_integer_f,
                                tet_symbol, tet_symbol_f, theta, theta_f,
                                verify_identities, _admissible_tet_tuples)

import oracles

PHI = (1 + math.sqrt(5)) / 2


# --- quantum integers and factorials ---------------------------------------

def test_quantum_integer_identity_cases():
    for r in (3, 5, 8):
        assert quantum_integer(0, r).is_zero()
        assert quantum_integer(1, r) == 1
        assert quantum_integer(r, r).is_zero()  # sin(pi) = 0


def test_quantum_integer_golden_ratio():
    # [2] at r=5 is sin(2pi/5)/sin(pi/5) = golden ratio
    val = quantum_integer(2, 5)
    assert abs(val.to_float() - PHI) < 1e-12
    assert abs(val.to_float() - math.sin(2 * math.pi / 5) / math.sin(math.pi / 5)) < 1e-12


@pytest.mark.parametrize("r", range(3, 10))
def test_quantum_integer_reflection(r):
    for n in range(r + 1):
        a = abs(quantum_integer(n, r).to_float())
        b = abs(quantum_integer(r - n, r).to_float()) if r - n >= 0 else None
        assert abs(a - b) < 1e-12


def test_quantum_factorial():
    assert quantum_factorial(0, 5) == 1
    # [3]! = [1][2][3] = phi^2 at r=5 since [3] = [2] there
    assert abs(quantum_factorial(3, 5).to_float() - PHI ** 2) < 1e-12
    for r in (3, 5, 7):
        assert not quantum_factorial(r - 1, r).is_zero()
        assert quantum_factorial(r, r).is_zero()


# --- dimensions --------------------------------------------------------------

def test_qdim_values():
    assert qdim(0, 5) == 1
    assert abs(qdim(2, 5).to_float() - PHI) < 1e-12  # i even: positive
    for r in range(3, 10):
        top = qdim(r - 2, r).to_float()
        assert abs(abs(top) - 1.0) < 1e-12
        assert top * (-1) ** (r - 2) > 0
    with pytest.raises(ValueError):
        qdim(5, 5)
    with pytest.raises(ValueError):
        qdim(-1, 5)


def test_global_dim_small_levels():
    assert global_dim(3) == 2
    assert global_dim(4) == 4
    val5 = global_dim(5).to_float()
    assert abs(val5 - (5 + math.sqrt(5))) < 1e-12


@pytest.mark.parametrize("r", range(3, 13))
def test_global_dim_closed_form(r):
    # total dimension equals r / (2 sin^2(pi/r))
    want = r / (2 * math.sin(math.pi / r) ** 2)
    assert abs(global_dim(r).to_float() - want) < 1e-12
    assert abs(global_dim_f(r) - want) < 1e-12


# --- admissibility ------------------------------------------------------------

def test_admissible_cases():
    assert admissible(0, 0, 0, 5)
    assert not admissible(1, 1, 1, 5)  # parity
    assert admissible(2, 2, 2, 5)      # sum 6 == 2r-4
    assert not admissible(2, 3, 3, 5)  # sum 8 > 6
    assert not admissible(0, 0, 2, 5)  # triangle inequality


def test_admissible_symmetric():
    for (a, b, c) in itertools.product(range(6), repeat=3):
        vals = {admissible(x, y, z, 7)
                for (x, y, z) in itertools.permutations((a, b, c))}
        assert len(vals) == 1


# --- theta ---------------------------------------------------------------------

def test_theta_trivial():
    assert theta(0, 0, 0, 5) == 1


@pytest.mark.parametrize("r", range(3, 8))
def test_theta_bubble_is_dimension(r):
    for a in range(r - 1):
        assert theta(a, a, 0, r) == qdim(a, r)


@pytest.mark.parametrize("r", range(3, 8))
def test_theta_symmetry_exact(r):
    for (a, b, c) in oracles.admissible_triples(r):
        base = theta(a, b, c, r)
        for p in itertools.permutations((a, b, c)):
            assert theta(*p, r) == base


def test_theta_inadmissible_raises():
    with pytest.raises(ValueError):
        theta(1, 1, 1, 5)


def test_theta_equals_one_edge_zero_tet():
    # theta(1,1,2) at r=5 equals Tet[1 1 2; 1 1 0]
    assert theta(1, 1, 2, 5) == tet_symbol(1, 1, 1, 1, 2, 0, 5)


@pytest.mark.parametrize("r", (4, 5, 6, 7))
def test_theta_against_diagram_algebra(r):
    for (a, b, c) in oracles.admissible_triples(r):
        got = theta(a, b, c, r).to_float()
        want = oracles.theta_net(a, b, c, r)
        assert abs(got - want) < 1e-8, (r, a, b, c)


# --- tetrahedral symbol -----------------------------------------------------

def test_tet_all_zero():
    assert tet_symbol(0, 0, 0, 0, 0, 0, 5) == 1


@pytest.mark.parametrize("r", range(3, 8))
def test_tet_one_edge_zero_reduces_to_theta(r):
    # Tet[a b e; b a 0] = theta(a, b, e), checked exactly over all
    # admissible (a, b, e)
    for (a, b, e) in oracles.admissible_triples(r):
        assert tet_symbol(a, b, b, a, e, 0, r) == theta(a, b, e, r)


def test_tet_222222_frozen_value():
    # independent Temperley-Lieb evaluation of the all-2 tetrahedron at r=5,
    # computed by the diagram oracle and frozen: -(golden ratio)^-4
    frozen = -0.1458980337503155
    assert abs(tet_symbol_f(2, 2, 2, 2, 2, 2, 5) - frozen) < 1e-12
    assert abs(tet_symbol(2, 2, 2, 2, 2, 2, 5).to_float() - frozen) < 1e-12
    assert abs(oracles.tet_net(2, 2, 2, 2, 2, 2, 5) - frozen) < 1e-9
    assert abs(frozen + PHI ** -4) < 1e-12


@pytest.mark.parametrize("r", (4, 5))
def test_tet_against_diagram_algebra_exhaustive(r):
    count = 0
    for tup in _admissible_tet_tuples(r):
        got = tet_symbol(*tup, r).to_float()
        want = oracles.tet_net(*tup, r)
        assert abs(got - want) < 1e-7 * max(1.0, abs(want)), (r, tup)
        count += 1
    assert count > 0


def test_tet_against_diagram_algebra_sampled_r6():
    rng = random.Random(20260809)
    tuples = list(_admissible_tet_tuples(6))
    for tup in rng.sample(tuples, 40):
        got = tet_symbol(*tup, 6).to_float()
        want = oracles.tet_net(*tup, 6)
        assert abs(got - want) < 1e-7 * max(1.0, abs(want)), tup


def test_tet_inadmissible_face_raises():
    with pytest.raises(ValueError):
        tet_symbol(1, 1, 1, 1, 1, 0, 5)


# --- exact/float agreement ---------------------------------------------------

@pytest.mark.parametrize("r", range(3, 10))
def test_exact_float_agreement(r):
    for n in range(0, r + 2):
        assert abs(quantum_integer(n, r).to_float()
                   - quantum_integer_f(n, r)) <= 1e-9
    for i in range(r - 1):
        assert abs(qdim(i, r).to_float() - qdim_f(i, r)) <= 1e-9
    assert abs(global_dim(r).to_float() - global_dim_f(r)) <= 1e-9
    for (a, b, c) in oracles.admissible_triples(r):
        assert abs(theta(a, b, c, r).to_float() - theta_f(a, b, c, r)) <= 1e-9
    tuples = list(_admissible_tet_tuples(r))
    if r <= 6:
        sample = tuples
    else:
        sample = random.Random(r).sample(tuples, 120)
    for tup in sample:
        assert abs(tet_symbol(*tup, r).to_float()
                   - tet_symbol_f(*tup, r)) <= 1e-9


# --- identity suite -----------------------------------------------------------

@pytest.mark.parametrize("r", (3, 4, 5))
def test_verify_identities_pass(r):
    report = verify_identities(r)
    assert report.all_passed, [c for c in report.checks if not c.passed]


class _CorruptedTables(SymbolTables):
    """Tables with a deliberately wrong sign on one quantum dimension."""

    def __init__(self, r):
        super().__init__(r, "exact")
        self.delta = list(self.delta)
        self.delta[1] = -self.delta[1]


def test_corrupted_sign_breaks_orthogonality():
    report = verify_identities(5, tables_override=_CorruptedTables(5))
    by_name = {c.name: c for c in report.checks}
    orth = by_name["orthogonality"]
    assert not orth.passed
    assert orth.witness is not None
    assert not report.all_passed
