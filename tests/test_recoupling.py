"""Quantum integers, dimensions, theta and tetrahedral symbols."""

import gc
import hashlib
import itertools
import math
import random
import types
import weakref

import pytest

from tvgenus import kernel, recoupling
from tvgenus.complex3 import EDGES
from tvgenus.fixtures import fixture
from tvgenus.recoupling import (TET_ARG_EDGES, admissible, global_dim, qdim,
                                quantum_factorial, quantum_integer, tables,
                                tet_symbol, tet_symbol_f, theta, theta_f,
                                _carrier, _relabel_tet, _TET_FACES)
from tvgenus.statesum import _make_plan
from tvgenus.verify import verify_identities, _admissible_tet_tuples

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
    assert abs(tables(r, "float").dim - want) < 1e-12


def test_float_dims_are_added_left_to_right():
    # sum() compensates float rounding from Python 3.12 on (D at r=6 would
    # read 12.000000000000007); every pinned float bit divides by D^V
    for r in range(3, 41):
        lv = tables(r, "float")
        dim = dim_even = 0.0
        for c, d in enumerate(lv.delta):
            dim = dim + d ** 2
            if c % 2 == 0:
                dim_even = dim_even + d ** 2
        assert (repr(lv.dim), repr(lv.dim_even)) == (repr(dim),
                                                      repr(dim_even)), r


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


def test_tet_arg_edges_match_the_tet_faces():
    # each admissible triple of Tet is a face of the tetrahedron, and the
    # opposite argument pairs (A,C), (B,D), (E,F) are opposite edges
    edges = [EDGES[e] for e in TET_ARG_EDGES]
    assert sorted(TET_ARG_EDGES) == list(range(6))
    for face in _TET_FACES:
        assert len({v for i in face for v in edges[i]}) == 3
    for i, j in ((0, 2), (1, 3), (4, 5)):
        assert not set(edges[i]) & set(edges[j])


def test_relabel_tet_acts_as_the_tetrahedral_group():
    labels = tuple(range(6))
    images = {_relabel_tet(labels, sigma)
              for sigma in itertools.permutations(range(4))}
    assert len(images) == 24
    assert _relabel_tet(labels, (0, 1, 2, 3)) == labels


def test_tet_inadmissible_face_raises():
    with pytest.raises(ValueError):
        tet_symbol(1, 1, 1, 1, 1, 0, 5)


# --- exact/float agreement ---------------------------------------------------

@pytest.mark.parametrize("r", range(3, 10))
def test_exact_float_agreement(r):
    fl = tables(r, "float")
    for n in range(0, r + 2):
        assert abs(quantum_integer(n, r).to_float() - fl.qint[n]) <= 1e-9
    for i in range(r - 1):
        assert abs(qdim(i, r).to_float() - fl.delta[i]) <= 1e-9
    assert abs(global_dim(r).to_float() - fl.dim) <= 1e-9
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


# --- the two carriers' tables ---------------------------------------------

def test_factorials_and_their_inverses():
    for r in range(3, 10):
        ex = _carrier(r, True)
        for n in range(r):
            assert ex.fact[n] * ex.inv_fact[n] == ex.one, (r, n)
        assert all(ex.fact[n].is_zero() for n in range(r, 2 * r))
        assert quantum_factorial(r, r).is_zero()
        assert ex.dim * ex.dim.inverse() == ex.one


def test_exact_tables_match_fraction_oracle():
    """Every admissible Tet and 1/theta at r=3..6, against the Fraction
    formulas with Euclid division (oracles.FracCyc)."""
    for r in range(3, 7):
        tab = tables(r, "exact")
        for tup in _admissible_tet_tuples(r):
            want = oracles.tet_exact(*tup, r).coeffs
            assert tab.tet(*tup).coeffs == want, (r, tup)
        for a, b, c in oracles.admissible_triples(r):
            want = oracles.theta_exact(a, b, c, r).inverse().coeffs
            assert tab.theta_inv[a][b][c].coeffs == want, (r, (a, b, c))
        assert [d.coeffs for d in tab.delta] == [
            oracles.theta_exact(a, a, 0, r).coeffs for a in range(r - 1)]


def test_theta_inv_table_is_one_dense_table_per_level():
    """1/theta is None exactly at the inadmissible triples, and the
    permutations of a triple share one object; tables(r, mode) is one
    object per level and carrier, and rejects any other mode."""
    for r in range(3, 10):
        for mode in ("exact", "float"):
            tab = tables(r, mode)
            assert tables(r, mode) is tab
            cols = range(r - 1)
            for key in itertools.product(cols, repeat=3):
                val = tab.theta_inv[key[0]][key[1]][key[2]]
                assert (val is None) == (not admissible(*key, r)), (r, key)
                for a, b, c in itertools.permutations(key):
                    assert tab.theta_inv[a][b][c] is val, (r, mode, key)
    with pytest.raises(ValueError):
        tables(5, "fast")


def test_float_level_past_the_double_range_is_refused_before_its_table(
        monkeypatch):
    """From r=117 on some theta leaves the double range (from r=204 on
    even [r-1]! is inf): the float 1/theta table is refused, with the
    message the CLI prints, before its (r-1)^3 slots are allocated.  A
    tripwire on the fill loop fails the test at r=117 (1.5M slots) before
    a larger level is tried; r=116 still builds its table, every value in
    range.  theta_f and tet_symbol_f still evaluate what stays in range."""
    assert recoupling._Float(203).fact[202] < math.inf
    assert recoupling._Float(204).fact[203] == math.inf

    def tripwire(*args):
        raise AssertionError("the table was allocated before the refusal")
    monkeypatch.setattr(recoupling, "admissible", tripwire)
    for r in (117, 150, 203, 204, 1001):
        with pytest.raises(ValueError, match=f"r={r}; use --mode exact"):
            recoupling._Float(r).theta_inv
    monkeypatch.undo()
    table = recoupling._Float(116).theta_inv
    assert all(0 < abs(val) < math.inf for plane in table for row in plane
               for val in row if val is not None)
    assert theta_f(0, 0, 0, 1001) == tet_symbol_f(0, 0, 0, 0, 0, 0, 1001) == 1
    with pytest.raises(ValueError, match="r=1001; use --mode exact"):
        theta_f(999, 999, 0, 1001)


def test_carrier_cache_is_bounded():
    """A process that visits many levels keeps the tables of the last few
    carriers only; the bound holds a deep-search round's four float levels
    and the three carriers of a 'both' call."""
    bound = _carrier.cache_parameters()["maxsize"]
    assert bound is not None and 8 <= bound < 12
    for r in range(3, 15):
        assert tables(r, "float").third
    assert _carrier.cache_info().currsize <= bound


def test_evicted_level_releases_its_kernel_rows():
    """The compiled kernel's Tet rows live on the level's carrier, so they
    are released with it when the bounded cache evicts the level."""
    lv, every = tables(11, "float"), range(10)
    kernel.compile_kernel(_make_plan(fixture("rp3#l31")))(
        lv, every, every[:1], [lv.zero] * len(every), {})
    assert lv.tet_rows
    carrier = weakref.ref(lv)
    del lv
    for r in range(12, 12 + _carrier.cache_parameters()["maxsize"]):
        tables(r, "float")
    gc.collect()
    assert carrier() is None
    assert tables(11, "float").tet_rows == {}


_SYMBOLS = {
    "quantum_integer": lambda r: quantum_integer(1, r),
    "quantum_factorial": lambda r: quantum_factorial(1, r),
    "qdim": lambda r: qdim(0, r),
    "global_dim": global_dim,
    "theta": lambda r: theta(0, 0, 0, r),
    "tet_symbol": lambda r: tet_symbol(0, 0, 0, 0, 0, 0, r),
    # the float [n], delta and D are read off the float carrier
    "quantum_integer_f": lambda r: tables(r, "float").qint[1],
    "qdim_f": lambda r: tables(r, "float").delta[0],
    "global_dim_f": lambda r: tables(r, "float").dim,
    "theta_f": lambda r: theta_f(0, 0, 0, r),
    "tet_symbol_f": lambda r: tet_symbol_f(0, 0, 0, 0, 0, 0, r),
}


@pytest.mark.parametrize("name", sorted(_SYMBOLS))
@pytest.mark.parametrize("r", (1, 2))
def test_level_below_three_rejected_by_every_symbol(name, r):
    with pytest.raises(ValueError):
        _SYMBOLS[name](r)


def test_negative_index_rejected_in_both_carriers():
    for fn in (quantum_integer, quantum_factorial):
        with pytest.raises(ValueError):
            fn(-1, 5)
    # the float carrier is indexed by colors, and a negative one is refused
    with pytest.raises(ValueError):
        theta_f(-1, 1, 0, 5)


def _float_table_values(r):
    tab = tables(r, "float")
    yield from (tab.qint[n] for n in range(2 * r))
    yield from tab.delta
    yield tab.dim
    cols = range(r - 1)
    yield from (tab.theta_inv[a][b][c] for a in cols for b in cols for c in cols
                if a <= b <= c and admissible(a, b, c, r))
    yield from (tab.tet(*tup) for tup in _admissible_tet_tuples(r))


def test_float_symbol_bits_pinned():
    """The exact bits of every float [n] (n < 2r), delta, D, 1/theta and Tet
    at r=3..9 (6,489 values), hashed over their reprs.

    Float rounding noise decides visible outputs (the sign of a TV that is
    exactly 0, and so the zero note), so a refactor must keep every bit.
    A deliberate change of the float evaluation, such as certified float
    values (ROADMAP item 2), updates this digest and records that in
    CHANGES.md.
    """
    h = hashlib.sha256()
    count = 0
    for r in range(3, 10):
        for v in _float_table_values(r):
            h.update(repr(v).encode() + b"\n")
            count += 1
    assert count == 6489
    assert h.hexdigest() == (
        "3e396aae89986e181df175c4174d2812a787a0bb4ad012ce2eb8f71ba5ebf4e7")


# --- identity suite -----------------------------------------------------------

@pytest.mark.parametrize("r", (3, 4, 5))
def test_verify_identities_pass(r):
    report = verify_identities(r)
    assert report.all_passed, [c for c in report.checks if not c.passed]


def test_asymmetric_tet_breaks_tetrahedral_symmetry(monkeypatch):
    # the exact carrier fills Tet once per symmetry orbit, so the check
    # must compare the formula at every tuple, not the table with itself
    formula = recoupling._tet
    monkeypatch.setattr(recoupling, "_tet", lambda lv, labels: formula(
        lv, labels) * (labels[0] + 1))
    report = verify_identities(4, tables_override=recoupling._Exact(4))
    by_name = {c.name: c for c in report.checks}
    assert not by_name["tetrahedral symmetry of Tet"].passed


def _corrupted_tables(r):
    """The exact tables with a deliberately wrong sign on one quantum
    dimension."""
    tab = tables(r, "exact")
    delta = list(tab.delta)
    delta[1] = -delta[1]
    return types.SimpleNamespace(zero=tab.zero, delta=delta,
                                 theta_inv=tab.theta_inv, tet=tab.tet)


def test_corrupted_sign_breaks_orthogonality():
    report = verify_identities(5, tables_override=_corrupted_tables(5))
    by_name = {c.name: c for c in report.checks}
    orth = by_name["orthogonality"]
    assert not orth.passed
    assert orth.witness is not None
    assert not report.all_passed
