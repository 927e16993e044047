"""State-sum engine: anchors, oracles, move invariance, determinism."""

import math

import pytest

from tvgenus.complex3 import pachner_23
from tvgenus.cyclotomic import CycNumber
from tvgenus.fixtures import fixture, fixture_names
from tvgenus.homology import h1
from tvgenus.recoupling import SymbolTables, global_dim
from tvgenus.statesum import (SearchLimits, SearchVolumeError,
                              tv_anchor_checks, tv_invariant)

import oracles

SMALL = ("s3", "s3_double", "rp3", "l31", "s2xs1", "s2xts1", "q8")
FORCE = SearchLimits(force=True)


# --- anchors -----------------------------------------------------------------

@pytest.mark.parametrize("r", range(3, 9))
def test_sphere_value_is_inverse_global_dimension(r):
    res = tv_invariant(fixture("s3"), r, mode="both")
    assert res.value_exact == global_dim(r).inverse()
    want = 2 * math.sin(math.pi / r) ** 2 / r
    assert abs(res.value_float - want) <= 1e-9


@pytest.mark.parametrize("r", range(3, 9))
def test_s2xs1_value_is_one(r):
    res = tv_invariant(fixture("s2xs1"), r, mode="exact")
    assert res.value_exact == CycNumber.one(r)


def test_anchor_checks_report():
    checks = tv_anchor_checks(range(3, 7))
    assert checks and all(c.passed for c in checks)


def test_s3_presentation_independence():
    for r in (3, 4, 5, 6):
        a = tv_invariant(fixture("s3"), r, mode="exact").value_exact
        b = tv_invariant(fixture("s3_double"), r, mode="exact").value_exact
        assert a == b


def test_t3_value_16():
    res = tv_invariant(fixture("t3"), 5, mode="both")
    assert abs(res.value_float - 16.0) <= 1e-9


def test_rp3_against_naive_enumeration():
    # independent oracle: unpruned enumeration with its own weight formula
    for r in (4, 5, 6):
        got = tv_invariant(fixture("rp3"), r).value_float
        want = oracles.naive_tv(fixture("rp3"), r)
        assert abs(got - want) <= 1e-9
    # frozen: at r=4 the value is (2 - sqrt(2))/4; at r=5 it vanishes
    assert abs(tv_invariant(fixture("rp3"), 4).value_float
               - (2 - math.sqrt(2)) / 4) <= 1e-12
    assert abs(tv_invariant(fixture("rp3"), 5).value_float) <= 1e-12


@pytest.mark.parametrize("name", ("l31", "q8", "s2xts1"))
def test_small_fixtures_against_naive_enumeration(name):
    for r in (4, 5):
        got = tv_invariant(fixture(name), r).value_float
        want = oracles.naive_tv(fixture(name), r)
        assert abs(got - want) <= 1e-9


# --- enumeration --------------------------------------------------------------

def _naive_admissible_count(tri, r):
    import itertools
    faces = tri.face_edge_orbits()
    ne = len(tri.edge_orbits)
    count = 0
    for colors in itertools.product(range(r - 1), repeat=ne):
        ok = True
        for (x, y, z) in faces:
            a, b, c = colors[x], colors[y], colors[z]
            if not ((a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
                    and a + b + c <= 2 * r - 4):
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("r", (3, 4, 5))
def test_pruning_soundness(name, r):
    tri = fixture(name)
    assert (tv_invariant(tri, r).states_admissible
            == _naive_admissible_count(tri, r))


@pytest.mark.parametrize("name", fixture_names())
def test_r3_count_is_mod2_cocycle_count(name):
    # at r=3 the admissible colorings are the Z_2 1-cocycles, so their number
    # is 2^(b1(M;Z_2) + V - 1); b1(M;Z_2) counts free and even-torsion factors
    tri = fixture(name)
    homology = h1(tri)
    b1 = homology.free_rank + sum(1 for d in homology.torsion if d % 2 == 0)
    want = 2 ** (b1 + len(tri.vertex_orbits) - 1)
    assert tv_invariant(tri, 3, limits=FORCE).states_admissible == want


# --- move invariance -------------------------------------------------------------

@pytest.mark.parametrize("name", SMALL)
def test_pachner_invariance_exact_all_faces(name):
    tri = fixture(name)
    for fo in tri.face_orbits:
        if fo.slots[0][0] == fo.slots[1][0]:
            continue
        moved = pachner_23(tri, fo.index)
        for r in (3, 4, 5):
            a = tv_invariant(tri, r, mode="exact").value_exact
            b = tv_invariant(moved, r, mode="exact").value_exact
            assert a == b, (name, fo.index, r)


def test_pachner_twice_preserves_value():
    tri = fixture("s3")
    fo = next(f.index for f in tri.face_orbits
              if f.slots[0][0] != f.slots[1][0])
    once = pachner_23(tri, fo)
    fo2 = next(f.index for f in once.face_orbits
               if f.slots[0][0] != f.slots[1][0])
    twice = pachner_23(once, fo2)
    for r in (3, 5):
        assert (tv_invariant(twice, r, mode="exact").value_exact
                == tv_invariant(tri, r, mode="exact").value_exact)


# --- multiplicativity -----------------------------------------------------------

@pytest.mark.parametrize("r", (3, 4, 5))
def test_connected_sum_multiplicative_exact(r):
    sphere = tv_invariant(fixture("s3"), r, mode="exact").value_exact
    for total_name, a_name, b_name in (("rp3#rp3", "rp3", "rp3"),
                                       ("rp3#l31", "rp3", "l31")):
        lhs = tv_invariant(fixture(total_name), r, mode="exact",
                           limits=FORCE).value_exact * sphere
        rhs = (tv_invariant(fixture(a_name), r, mode="exact").value_exact
               * tv_invariant(fixture(b_name), r, mode="exact").value_exact)
        assert lhs == rhs, (total_name, r)


# --- general properties -----------------------------------------------------------

def test_nonnegativity():
    for name in fixture_names():
        for r in (3, 4, 5):
            res = tv_invariant(fixture(name), r, limits=FORCE)
            assert res.value_float >= -1e-12, (name, r)


def test_exact_values_are_real():
    for name in SMALL:
        res = tv_invariant(fixture(name), 5, mode="exact")
        assert res.value_exact.is_real()


def test_exact_float_agreement_fixtures():
    for name in fixture_names():
        r = 4 if "#" in name else 5
        res = tv_invariant(fixture(name), r, mode="both", limits=FORCE)
        assert abs(res.value_exact.to_float() - res.value_float) <= 1e-9


def test_determinism_bit_identical():
    for name in ("t3", "rp3#rp3"):
        tri = fixture(name)
        a = tv_invariant(tri, 5, limits=FORCE).value_float
        b = tv_invariant(tri, 5, limits=FORCE).value_float
        assert a == b


PINNED_FLOAT = {
    5: {"s3": "0.13819660112501048", "s3_double": "0.1381966011250105",
        "rp3": "-6.137161939757019e-17", "l31": "0.3618033988749894",
        "s2xs1": "1.0", "s2xts1": "1.0", "q8": "2.552786404500042",
        "t3": "16.0", "rp3#rp3": "1.1134889515993497e-17",
        "rp3#l31": "9.25953970277354e-17"},
    6: {"s3": "0.08333333333333327", "s3_double": "0.08333333333333313",
        "rp3": "0.04465819873852064", "l31": "0.24999999999999986",
        "s2xs1": "0.9999999999999991", "s2xts1": "0.9999999999999991",
        "q8": "2.33333333333333", "t3": "24.999999999999982",
        "rp3#rp3": "0.02393225657483024", "rp3#l31": "0.13397459621556082"},
}
PINNED_EXACT_R5 = {
    "s3": "1/5 - 1/10*z^2 + 1/10*z^3", "s3_double": "1/5 - 1/10*z^2 + 1/10*z^3",
    "rp3": "0", "l31": "3/10 + 1/10*z^2 - 1/10*z^3", "s2xs1": "1",
    "s2xts1": "1", "q8": "14/5 - 2/5*z^2 + 2/5*z^3", "t3": "16",
    "rp3#rp3": "0", "rp3#l31": "0",
}


@pytest.mark.parametrize("r", (5, 6))
def test_float_values_pinned(r):
    """repr(value_float) of every fixture, bit for bit.

    The noise is pinned too: rp3 at r=5 is exactly 0 and reads -6.1e-17
    (ROADMAP item 2).  A deliberate change of the float evaluation, such as
    that item's certified values, updates these strings and records that in
    CHANGES.md.
    """
    got = {name: repr(tv_invariant(fixture(name), r, limits=FORCE).value_float)
           for name in fixture_names()}
    assert got == PINNED_FLOAT[r]


def test_exact_strings_pinned():
    """str(value_exact) at r=5: the tv_exact text of the CLI reports, which
    readers such as perfbench/qzeta.parse_poly parse."""
    got = {name: str(tv_invariant(fixture(name), 5, mode="exact",
                                  limits=FORCE).value_exact)
           for name in fixture_names()}
    assert got == PINNED_EXACT_R5


def test_search_volume_guard():
    with pytest.raises(SearchVolumeError) as err:
        tv_invariant(fixture("rp3#rp3"), 7)
    assert err.value.estimate == float(6) ** 13
    # force overrides; a permissive cap also works
    res = tv_invariant(fixture("rp3#rp3"), 7,
                       limits=SearchLimits(max_states=1e11))
    assert res.value_float is not None


def test_nonorientable_warning():
    res = tv_invariant(fixture("s2xts1"), 4)
    assert "non-orientable input" in res.warnings
    assert abs(res.value_float - 1.0) <= 1e-9  # twisted bundle also gives 1


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        tv_invariant(fixture("s3"), 5, mode="fast")


def test_level_below_three_rejected():
    with pytest.raises(ValueError):
        tv_invariant(fixture("s3"), 2)
    with pytest.raises(ValueError):
        SymbolTables(2, "float")


def test_result_counters():
    res = tv_invariant(fixture("s3"), 5)
    assert res.states_admissible > 0
    assert res.states_visited >= res.states_admissible
    assert res.elapsed_seconds >= 0
    assert res.r == 5 and res.mode == "float"
