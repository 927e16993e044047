"""State-sum engine: anchors, oracles, move invariance, determinism."""

import csv
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from tvgenus import kernel, recoupling, statesum
from tvgenus.cyclotomic import CycNumber
from tvgenus.fixtures import fixture, fixture_names
from tvgenus.genus import genus_lower_bound, tv_s3
from tvgenus.gluing import pachner_23
from tvgenus.homology import h1, parse_h1
from tvgenus.isosig import decode_isosig
from tvgenus.kernel import _backtrack_sum
from tvgenus.recoupling import admissible, global_dim, tables, tet_symbol
from tvgenus.statesum import (SearchLimits, SearchVolumeError, _frontier_sum,
                              _make_plan, _run, estimated_states,
                              tv_invariant)
from tvgenus.verify import tv_anchor_checks

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


def test_invariant_checks_catch_a_faulty_search(monkeypatch):
    # the exact value must be real, and 'both' mode's two sums must agree;
    # each check is reached by a search that breaks it
    run = statesum._run
    monkeypatch.setattr(statesum, "_run", lambda tri, r, carrier, even=False: (
        CycNumber.zeta_power(r, 1), 0, 0))
    with pytest.raises(AssertionError, match="non-real"):
        tv_invariant(fixture("s3"), 4, mode="exact")

    def skewed(tri, r, carrier, even=False):
        total, visited, leaves = run(tri, r, carrier, even)
        return (total + 1e-6 if carrier == "float" else total), visited, leaves
    monkeypatch.setattr(statesum, "_run", skewed)
    with pytest.raises(AssertionError, match="disagree beyond 1e-9"):
        tv_invariant(fixture("s3"), 4, mode="both")


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


def _mod2_cocycle_count(tri):
    # at r=3 the admissible colorings are the Z_2 1-cocycles, so their number
    # is 2^(b1(M;Z_2) + V - 1); b1(M;Z_2) counts free and even-torsion factors
    homology = h1(tri)
    b1 = homology.free_rank + sum(1 for d in homology.torsion if d % 2 == 0)
    return 2 ** (b1 + len(tri.vertex_orbits) - 1)


@pytest.mark.parametrize("name", fixture_names())
def test_r3_count_is_mod2_cocycle_count(name):
    tri = fixture(name)
    assert (tv_invariant(tri, 3, limits=FORCE).states_admissible
            == _mod2_cocycle_count(tri))


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
    # tv_invariant asserts that the exact frontier sum and the float
    # backtracker agree within 1e-9
    tris = [fixture(name) for name in fixture_names()]
    tris += [_walk(*case) for case in FALLBACK_CASES.values()]
    for r in range(3, 7):
        for tri in tris:
            res = tv_invariant(tri, r, mode="both", limits=FORCE)
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
        "rp3": "0.04465819873852064", "l31": "0.2499999999999998",
        "s2xs1": "0.9999999999999991", "s2xts1": "0.9999999999999991",
        "q8": "2.33333333333333", "t3": "24.999999999999982",
        "rp3#rp3": "0.023932256574830207", "rp3#l31": "0.1339745962155607"},
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


PINNED_COUNTERS = {  # (states_visited, states_admissible) in float mode
    3: {"s3": (6, 1), "s3_double": (62, 8), "rp3": (10, 2), "l31": (6, 1),
        "s2xs1": (10, 2), "s2xts1": (10, 2), "q8": (14, 4), "t3": (94, 8),
        "rp3#rp3": (302, 16), "rp3#l31": (162, 8)},
    4: {"s3": (9, 1), "s3_double": (312, 36), "rp3": (24, 6), "l31": (9, 1),
        "s2xs1": (24, 4), "s2xts1": (24, 4), "q8": (39, 10), "t3": (573, 40),
        "rp3#rp3": (3426, 204), "rp3#l31": (1077, 44)},
    5: {"s3": (24, 5), "s3_double": (1076, 120), "rp3": (44, 10),
        "l31": (24, 5), "s2xs1": (44, 8), "s2xts1": (44, 8), "q8": (84, 20),
        "t3": (2260, 152), "rp3#rp3": (28052, 2240),
        "rp3#l31": (13844, 1024)},
    6: {"s3": (35, 10), "s3_double": (2950, 329), "rp3": (75, 19),
        "l31": (35, 10), "s2xs1": (75, 13), "s2xts1": (75, 13),
        "q8": (155, 35), "t3": (6845, 475), "rp3#rp3": (182775, 17971),
        "rp3#l31": (72960, 7746)},
}


@pytest.mark.parametrize("r", (3, 4, 5, 6))
def test_search_counters_pinned(r):
    """Every attempted color assignment counts as visited, every complete
    admissible coloring as admissible; a change of search order or pruning
    moves these and must say so in CHANGES.md."""
    got = {}
    for name in fixture_names():
        res = tv_invariant(fixture(name), r, limits=FORCE)
        got[name] = (res.states_visited, res.states_admissible)
    assert got == PINNED_COUNTERS[r]


# --- odd levels: TV_r = TV_3 * TV'_r in exact mode ------------------------------

SPLIT_CASES = [(name, r) for r in (5, 7) for name in fixture_names()]


@pytest.mark.parametrize("name, r", SPLIT_CASES)
def test_full_sum_equals_split(name, r):
    # the oracle: the search core over every color against the split
    tri = fixture(name)
    full, visited, leaves = _run(tri, r, "exact")
    tv3, visited3, leaves3 = _run(tri, 3, "exact")
    even, visited_e, leaves_e = _run(tri, r, "exact", even=True)
    assert full == even * tv3.to_rational()
    res = tv_invariant(tri, r, mode="exact", limits=FORCE)
    assert res.value_exact == full
    assert res.value_exact.level == r
    if tv3.is_zero():
        assert (res.states_visited, res.states_admissible) == (visited3,
                                                                leaves3)
    else:
        assert res.states_visited == visited3 + visited_e
        assert res.states_admissible == leaves3 + leaves_e
    if r == 5:
        assert (visited, leaves) == PINNED_COUNTERS[r][name]


@pytest.mark.parametrize("r", (3, 4, 6))
def test_exact_search_is_split_only_at_odd_levels_from_5(r):
    # r = 3 and even r run the one full search, with the float counters:
    # the exact frontier sum counts what the float backtracker counts
    for name in fixture_names():
        res = tv_invariant(fixture(name), r, mode="exact", limits=FORCE)
        assert (res.states_visited,
                res.states_admissible) == PINNED_COUNTERS[r][name]
    assert estimated_states(fixture("t3"), r, "exact") == float(r - 1) ** 7


@pytest.mark.parametrize("r", (4, 5))
def test_frontier_sum_equals_backtracker_exactly(r, monkeypatch):
    # the two engines over the exact carrier: the same CycNumber and the
    # same counts, on every plan shape the fixtures and fallback walks hold,
    # and on a walk whose search runs in the compiled kernel at both levels
    compiled = _count_kernels(monkeypatch)
    lv = tables(r, "exact")
    tris = [fixture(name) for name in fixture_names()]
    tris += [_walk(*case) for case in FALLBACK_CASES.values()]
    tris.append(_seeded_walk("rp3#rp3", 12))
    for tri in tris:
        plan = _make_plan(tri)
        for every in (range(r - 1), range(0, r - 1, 2)):
            assert (_frontier_sum(lv, plan, every)
                    == _backtrack_sum(lv, plan, every))
    assert compiled


def _count_kernels(monkeypatch) -> list:
    """The plans the searches compile from now on, one entry per call of
    the kernel builder."""
    calls = []
    build = kernel.compile_kernel
    monkeypatch.setattr(kernel, "compile_kernel",
                        lambda plan: calls.append(plan) or build(plan))
    return calls


def test_exact_tet_is_filled_once_per_symmetry_orbit(monkeypatch):
    # t3 at r=6 meets 329 Tet tuples in 40 orbits of the 24 relabelings;
    # a fresh exact carrier fills each orbit once, at its least tuple
    lv = recoupling._Exact(6)
    fills = []
    formula = recoupling._tet

    def counted(carrier, labels):
        fills.append(labels)
        return formula(carrier, labels)

    monkeypatch.setattr(recoupling, "_tet", counted)
    monkeypatch.setattr(statesum, "tables", lambda r, mode: lv)
    _run(fixture("t3"), 6, "exact")
    monkeypatch.undo()
    assert (len(fills), len(lv.tet_memo)) == (40, 329)
    assert all(val == tet_symbol(*key, 6) for key, val in lv.tet_memo.items())


@pytest.mark.parametrize("name, r", (("t3", 7), ("rp3", 4)))
def test_both_mode_adds_the_counters_of_both_carriers(name, r):
    flt, ext, both = (tv_invariant(fixture(name), r, mode=mode, limits=FORCE)
                      for mode in ("float", "exact", "both"))
    assert both.states_visited == flt.states_visited + ext.states_visited
    assert both.states_admissible == (flt.states_admissible
                                      + ext.states_admissible)
    if name == "t3":
        assert (both.states_visited, both.states_admissible) == (
            17394 + 961, 1280 + 168)


def test_even_search_walks_only_even_colors():
    # visited counts (r-1)/2 colors per entered step; every leaf of the
    # even search is an admissible even coloring
    tri = fixture("t3")
    _, visited, leaves = _run(tri, 7, "exact", even=True)
    assert visited % 3 == 0
    faces = tri.face_edge_orbits()
    want = sum(all(admissible(c[x], c[y], c[z], 7) for x, y, z in faces)
               for c in itertools.product((0, 2, 4), repeat=7))
    assert leaves == want


@pytest.mark.parametrize("r", (5, 7))
@pytest.mark.parametrize("name", ("rp3#rp3", "rp3#l31"))
def test_even_sum_pachner_invariance(name, r):
    # TV_3 = 0 on these, so criterion 4 compares two zeros at odd r; the
    # even-color sum TV'_r alone is an invariant too
    tri = fixture(name)
    face = next(f.index for f in tri.face_orbits
                if f.slots[0][0] != f.slots[1][0])
    moved = pachner_23(tri, face)
    a = _run(tri, r, "exact", even=True)[0]
    b = _run(moved, r, "exact", even=True)[0]
    assert not a.is_zero()
    assert a == b


@pytest.mark.parametrize("r", (5, 7, 9, 11))
def test_global_dim_is_twice_the_even_share(r):
    lv = tables(r, "exact")
    assert lv.dim == 2 * lv.dim_even


def _census():
    """The census pool's signatures by name, in file order."""
    path = (Path(__file__).parent.parent / "perfbench" / "data"
            / "census.txt")
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict((x.strip() for x in line.split(";")) for line in lines
                if line and not line.startswith("#"))


def _census_starts():
    return [sig for name, sig in _census().items() if ".v" not in name]


def test_r3_count_is_mod2_cocycle_count_over_the_census_pool():
    # the fixture check above, tying the search to H_1, on every distinct
    # signature of the census pool
    sigs = sorted(set(_census().values()))
    assert len(sigs) == 1142
    for sig in sigs:
        tri = decode_isosig(sig)
        assert (tv_invariant(tri, 3, limits=FORCE).states_admissible
                == _mod2_cocycle_count(tri)), sig


def test_tv3_is_rational():
    # a real element of Q(zeta_6) is rational, so the split lifts TV_3 to
    # any level as a rational number
    tris = [fixture(name) for name in fixture_names()]
    starts = _census_starts()
    assert len(starts) == 19
    tris += [decode_isosig(sig) for sig in starts]
    for tri in tris:
        tv3 = tv_invariant(tri, 3, mode="exact", limits=FORCE).value_exact
        assert tv3.level == 3
        assert CycNumber.from_rational(3, tv3.to_rational()) == tv3


def test_float_tv3_is_exact():
    # at r=3 every float [n] is 0 or +-1, so every float symbol, product and
    # sum is exact: the float TV_3 is the exact one, zeros and signs included
    tris = [fixture(name) for name in fixture_names()]
    tris += [decode_isosig(sig) for sig in _census_starts()]
    for tri in tris:
        res = tv_invariant(tri, 3, mode="both", limits=FORCE)
        assert Fraction(res.value_float) == res.value_exact.to_rational()


def test_guard_estimates_the_exact_split():
    tri = fixture("rp3#rp3")
    assert estimated_states(tri, 7, "exact") == 2.0 ** 13 + 3.0 ** 13
    assert estimated_states(tri, 7, "both") == 6.0 ** 13
    assert estimated_states(tri, 7) == 6.0 ** 13
    huge = SimpleNamespace(edge_orbits=range(2000))
    assert estimated_states(huge, 9, "exact") == math.inf


# --- candidate colors and the all-colors fallback ----------------------------

def _walk(name, moves):
    """The fixture after 2-3 moves on the given face indices, in turn."""
    tri = fixture(name)
    for face in moves:
        tri = pachner_23(tri, face)
    return tri


# (start fixture, 2-3 moves) whose plans hold steps that walk every color:
# a first face that repeats the step's edge orbit (at position 0 in l31
# and s3, at position 2 in the walks of q8 and s2xs1, at position 1 in
# rp3#l31 and its walk), and steps with no face (all but l31 and s3)
FALLBACK_CASES = {"l31": ("l31", ()), "s3": ("s3", ()),
                  "q8+2": ("q8", (0, 0)), "s2xs1+2": ("s2xs1", (1, 0)),
                  "rp3#l31": ("rp3#l31", ()), "rp3#l31+1": ("rp3#l31", (0,))}


@pytest.mark.parametrize("label", FALLBACK_CASES)
def test_fallback_cases_have_fallback_steps(label):
    # a step walks the colors its first face admits unless that face
    # names the step's own position twice
    plan = _make_plan(_walk(*FALLBACK_CASES[label]))
    repeats = [k for k, (faces, _, _) in enumerate(plan)
               if faces and faces[0].count(k) >= 2]
    assert repeats
    for k, (faces, _, pair) in enumerate(plan):
        assert (pair is None) == (not faces or k in repeats)
    if label not in ("l31", "s3"):
        assert max(repeats) > 0 and any(not faces for faces, _, _ in plan)


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("label", ("l31", "s3", "q8+2", "s2xs1+2"))
def test_fallback_steps_against_naive_enumeration(label, r):
    tri = _walk(*FALLBACK_CASES[label])
    got = tv_invariant(tri, r).value_float
    assert abs(got - oracles.naive_tv(tri, r)) <= 1e-9


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("label", ("rp3#l31", "rp3#l31+1"))
def test_fallback_steps_connected_sum(label, r):
    # the naive sum runs over (r-1)^E colorings with E >= 13: at r=3 it
    # runs on the whole manifold, above on the summands, through
    # TV(A # B) = D * TV(A) * TV(B)
    tri = _walk(*FALLBACK_CASES[label])
    got = tv_invariant(tri, r, limits=FORCE).value_float
    if r == 3:
        want = oracles.naive_tv(tri, r)
    else:
        want = (global_dim(r).to_float() * oracles.naive_tv(fixture("rp3"), r)
                * oracles.naive_tv(fixture("l31"), r))
    assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("label", FALLBACK_CASES)
def test_fallback_steps_exact_strings(label):
    start, moves = FALLBACK_CASES[label]
    res = tv_invariant(_walk(start, moves), 5, mode="exact", limits=FORCE)
    assert str(res.value_exact) == PINNED_EXACT_R5[start]


def test_states_visited_counts_every_color_of_each_entered_step():
    # states_visited = (r-1) * (1 + the admissible partial colorings that
    # are not leaves): every color of position 0 and of each position
    # entered below an admissible prefix counts, whichever the search tries
    r = 5
    tri = _walk("q8", (0, 0))
    plan = _make_plan(tri)
    inner = 0
    for m in range(1, len(plan)):
        faces = [f for faces, _, _ in plan[:m] for f in faces]
        inner += sum(all(admissible(cols[x], cols[y], cols[z], r)
                         for x, y, z in faces)
                     for cols in itertools.product(range(r - 1), repeat=m))
    res = tv_invariant(tri, r)
    assert res.states_visited == (r - 1) * (1 + inner)
    assert res.states_admissible == _naive_admissible_count(tri, r)


def _seeded_walk(name, tets):
    """The fixture after seeded 2-3 moves at faces joining two distinct
    tetrahedra, until it has the given number of tetrahedra."""
    tri, rng = fixture(name), random.Random(name)
    while tri.size < tets:
        tri = pachner_23(tri, rng.choice([fo.index for fo in tri.face_orbits
                                          if fo.slots[0][0] != fo.slots[1][0]]))
    return tri


def _census_walk(name):
    return decode_isosig(_census()[name], name=name)


# (triangulation, levels) on which the float engine must repeat the
# reference search's float operations: every fixture at r=3..8 (t3 to r=9,
# as deep-search runs it; the two 10-tetrahedron connected sums to r=7, as
# at r=8 the pair of searches takes 1.5-3 s each), the fallback walks,
# seeded walks, and lens spaces
# too deep for a kernel, which run interpreted even when forced (L(19,7),
# E = 21, the fewest edge orbits past the kernel's 20, L(20,9) and L(40,3)),
# and two census walks: one with a Tet at step 4 whose step color fills two
# arguments, so its row is keyed by both, and one whose last step reads only
# positions 1, 4 and 8 of 15, so the kernel looks its table up once per
# coloring of those three (at r=6 a table read under another color of
# position 8 moves the branch sums but not their total; at r=5 it moves both)
FLOAT_BIT_CASES = {
    **{name: (lambda name=name: fixture(name),
              range(3, 8 if "#" in name else 10 if name == "t3" else 9))
        for name in fixture_names()},
    **{f"fallback {label}": (lambda case=case: _walk(*case), range(3, 7))
       for label, case in FALLBACK_CASES.items()},
    "t3 walk t8": (lambda: _seeded_walk("t3", 8), (6, 8)),
    "t3 walk t11": (lambda: _seeded_walk("t3", 11), (8,)),
    "rp3#rp3 walk t12": (lambda: _seeded_walk("rp3#rp3", 12), (6,)),
    "L(19,7)": (lambda: fixture("L(19,7)"), (3,)),
    "L(20,9)": (lambda: fixture("L(20,9)"), (5,)),
    "L(40,3)": (lambda: fixture("L(40,3)"), (3,)),
    "cMcabbgig.v3.t10": (lambda: _census_walk("cMcabbgig.v3.t10"), (5, 6)),
    "rp3_rp3.v1.t12": (lambda: _census_walk("rp3_rp3.v1.t12"), (5, 6)),
}


@pytest.mark.parametrize("label", FLOAT_BIT_CASES)
def test_float_search_repeats_the_reference_bits(label, monkeypatch):
    # the last step read from its table, and the search after position 0's
    # first color run in the compiled kernel where the first branch is long
    # (and, forced, everywhere): the same total and partial sums by first
    # color to the last bit (a total can round two different sets of
    # partial sums alike), and the same entered positions and leaves, as
    # searching every step inline
    build, levels = FLOAT_BIT_CASES[label]
    plan = _make_plan(build())
    for r in levels:
        lv, every = tables(r, "float"), range(r - 1)
        want = repr(oracles.backtrack_sum(lv, plan, every))
        branches = repr(oracles.backtrack_branches(lv, plan, every)[0])
        for kernel_after in (kernel._KERNEL_MIN_ENTERED, -1):
            monkeypatch.setattr(kernel, "_KERNEL_MIN_ENTERED", kernel_after)
            assert repr(_backtrack_sum(lv, plan, every)) == want, (r,
                                                                   kernel_after)
            assert (repr(kernel._branches(lv, plan, every)[0])
                    == branches), (r, kernel_after)


@pytest.mark.parametrize("build, r", [
    (lambda: fixture("t3"), 8),
    (lambda: _seeded_walk("rp3#rp3", 12), 6),
    (lambda: fixture("L(18,5)"), 5),
    (lambda: _census_walk("rp3_rp3.v1.t12"), 6),
    (lambda: _seeded_walk("t3", 11), 8)],
    ids=["t3", "rp3#rp3 walk t12", "L(18,5)", "rp3_rp3.v1.t12", "t3 walk t11"])
def test_kernel_fills_the_last_step_table_as_step_entries(build, r):
    # every entry of a fresh table that the kernel alone fills (with 20
    # loops on L(18,5), the deepest kernel, and on rp3_rp3.v1.t12 looked up
    # once per coloring of positions 1, 4 and 8) is _step_entries's at the
    # coloring its key encodes: the same colors in its order, and each
    # factor the same float object
    plan = _make_plan(build())
    last = len(plan) - 1
    lv, every = tables(r, "float"), range(r - 1)
    table: dict = {}
    kernel.compile_kernel(plan)(lv, every, every, [lv.zero] * len(lv.delta),
                                table)
    assert table
    for key, entries in table.items():
        cols = [0] * len(plan)
        for p, c in zip(statesum._reads(plan, last), key):
            cols[p] = c
        want = statesum._step_entries(lv, every, plan[last], cols, last)
        assert [c for c, _ in entries] == [c for c, _ in want], key
        for (c, fs), (_, want_fs) in zip(entries, want):
            assert len(fs) == len(want_fs), (key, c)
            assert all(f is g for f, g in zip(fs, want_fs)), (key, c)


# (triangulation, level) of three plans whose kernels read Tet rows; at a
# case's level the other cases' plans and two fixtures fill rows first
ROW_CASES = {
    "rp3_rp3.v1.t12": (lambda: _census_walk("rp3_rp3.v1.t12"), 6),
    "t3 walk t8": (lambda: _seeded_walk("t3", 8), 8),
    "L(18,5)": (lambda: fixture("L(18,5)"), 5),
}


def _row_tuples(lv):
    """Each filled slot of the level's Tet rows with the Tet tuple its row
    key and color name: the key's mask marks the arguments that are the
    color, and the other arguments take the key's colors in order."""
    for (mask, *others), row in lv.tet_rows.items():
        for c, val in enumerate(row):
            if val is not None:
                rest = iter(others)
                yield val, tuple(c if mask >> i & 1 else next(rest)
                                 for i in range(6))


@pytest.mark.parametrize("label", ROW_CASES)
def test_kernel_rows_are_shared_by_the_searches_of_a_level(label,
                                                           monkeypatch):
    # the kernel keeps its Tet rows on the level's carrier: forced, the
    # branch sums, entered positions and leaves are the same on a fresh
    # carrier, on a rerun, and after other plans filled the level's rows;
    # a rerun creates no row, and each slot is the memo's own float
    monkeypatch.setattr(kernel, "_KERNEL_MIN_ENTERED", -1)
    build, r = ROW_CASES[label]
    plan, every = _make_plan(build()), range(r - 1)
    lv = recoupling._Float(r)
    want = repr(kernel._branches(lv, plan, every))
    own = dict(lv.tet_rows)
    assert own
    assert repr(kernel._branches(lv, plan, every)) == want
    assert lv.tet_rows.keys() == own.keys()
    assert all(lv.tet_rows[key] is row for key, row in own.items())
    lv = recoupling._Float(r)
    for other in [fixture("rp3#rp3"), fixture("rp3#l31"),
                  *(b() for name, (b, _) in ROW_CASES.items() if name != label)]:
        kernel.compile_kernel(_make_plan(other))(
            lv, every, every[:1], [lv.zero] * len(every), {})
    shared = own.keys() & lv.tet_rows.keys()
    assert shared
    assert repr(kernel._branches(lv, plan, every)) == want
    assert all(val is lv.tet_memo[key] for val, key in _row_tuples(lv))


def test_kernel_is_compiled_only_after_a_long_first_branch(monkeypatch):
    compiled = _count_kernels(monkeypatch)
    tv_invariant(fixture("s3"), 5)
    assert not compiled
    tv_invariant(_seeded_walk("rp3#rp3", 12), 6, limits=FORCE)
    assert len(compiled) == 1


def test_lens_space_search_too_deep_for_a_kernel_runs_interpreted(
        monkeypatch):
    # E = 22 positions need more loops than one compiled function may nest
    compiled = _count_kernels(monkeypatch)
    res = tv_invariant(fixture("L(20,9)"), 5, limits=FORCE)
    assert (repr(res.value_float), res.states_visited,
            res.states_admissible) == ("1.0000000000000009", 243300, 16844)
    assert not compiled


@pytest.mark.parametrize("name, positions, kernels", [
    ("L(18,5)", 20, 1), ("L(19,7)", 21, 0)], ids=["L(18,5)", "L(19,7)"])
def test_kernel_runs_plans_of_at_most_20_positions(name, positions, kernels,
                                                   monkeypatch):
    # forced, a plan of 20 positions compiles to one generated function;
    # one of 21 compiles nothing and is searched inline; both keep the
    # reference search's bits and counters
    sources = []
    monkeypatch.setattr(kernel, "compile", lambda text, *args: sources.append(
        text) or compile(text, *args), raising=False)
    monkeypatch.setattr(kernel, "_KERNEL_MIN_ENTERED", -1)
    plan = _make_plan(fixture(name))
    assert len(plan) == positions
    for r in (4, 5):
        lv, every = tables(r, "float"), range(r - 1)
        assert (repr(_backtrack_sum(lv, plan, every))
                == repr(oracles.backtrack_sum(lv, plan, every))), r
    assert len(sources) == 2 * kernels
    assert all(text.count("def ") == 1 for text in sources)


def test_search_volume_guard():
    with pytest.raises(SearchVolumeError) as err:
        tv_invariant(fixture("rp3#rp3"), 7)
    assert err.value.estimate == float(6) ** 13
    # force overrides; a permissive cap also works
    res = tv_invariant(fixture("rp3#rp3"), 7,
                       limits=SearchLimits(max_states=1e11))
    assert res.value_float is not None


def test_search_volume_guard_past_float_range():
    # 8^400 overflows a float: the estimate is inf and the guard names
    # the cap instead of raising OverflowError
    huge = SimpleNamespace(edge_orbits=range(400))
    assert estimated_states(huge, 9) == math.inf
    with pytest.raises(SearchVolumeError, match="inf exceeds cap 1e"):
        tv_invariant(huge, 9)


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
        tables(2, "float")


def test_result_counters():
    res = tv_invariant(fixture("s3"), 5)
    assert res.states_admissible > 0
    assert res.states_visited >= res.states_admissible
    assert res.elapsed_seconds >= 0
    assert res.r == 5 and res.mode == "float"


def test_float_matches_the_anchors_or_refuses_the_level():
    """Past the double range a float symbol would read 0, inf or nan, and
    the value goes wrong (s3 at r=72) or nan (s2xs1); float mode refuses
    such a level instead."""
    refused = {"s3": [], "s2xs1": []}
    for r in range(3, 81):
        for name, anchor in (("s3", tv_s3(r)), ("s2xs1", 1.0)):
            try:
                got = tv_invariant(fixture(name), r, limits=FORCE)
            except ValueError as exc:
                assert f"r={r}" in str(exc), str(exc)
                assert "--mode exact" in str(exc)
                refused[name].append(r)
            else:
                assert got.value_float == pytest.approx(anchor, rel=1e-9), (name, r)
    for levels in refused.values():
        assert levels and levels == list(range(levels[0], 81))


LENS = [(5, 2), (7, 2), (7, 3), (8, 3)]


@pytest.mark.parametrize("p, q", LENS)
def test_lens_space_equals_the_modular_oracle(p, q):
    """TV_r = |RT_r|^2 (Turaev-Walker), RT from the S and T matrices: a
    check that shares no convention with the state sum."""
    tri = fixture(f"L({p},{q})")
    assert len(tri.edge_orbits) == p + 2 and h1(tri).torsion == (p,)
    for r in range(3, 7):
        got = tv_invariant(tri, r, mode="exact").value_exact.to_float()
        assert got == pytest.approx(oracles.lens_tv(p, q, r), rel=1e-9,
                                    abs=1e-12), r


# the Euler characteristic of each closed base of the reference screen's
# SFS rows, by Regina's name for the base
SFS_BASE_CHI = {"S2": 2, "T": 0, "KB/n2": 0, "RP2/n2": 1}


def _reference_sfs_rows(bases):
    """The SFS [B: (a,b) ...] rows of the reference screen at r=5 whose
    base B is one of bases, as (name, B, fibres, TV_5, H_1 text, flag)."""
    path = Path(__file__).parent / "data" / "screen_reference_r5.csv"
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            match = re.fullmatch(r"SFS \[([^:]+): ([^\]]*)\]", row["name"])
            if match and match[1] in bases:
                fibres = [tuple(map(int, pair)) for pair in re.findall(
                    r"\((-?\d+),(-?\d+)\)", match[2])]
                out.append((row["name"], match[1], fibres, float(row["tv"]),
                            row["h1"], row["flagged"] == "1"))
    return out


def _screen_flag(tv, h1_text):
    """The screen's flag at r=5 of a TV value and an H_1 text."""
    return genus_lower_bound(tv, 5).genus_lb > parse_h1(h1_text).min_generators


def test_sfs_oracle_matches_the_reference_screen():
    rows = _reference_sfs_rows({"S2"})
    assert len(rows) == 63
    for name, _, fibres, tv, h1_text, flag in rows:
        assert len(fibres) >= 3, name
        got = oracles.sfs_tv(fibres, 5)
        assert got == pytest.approx(tv, abs=1e-6), name
        assert _screen_flag(got, h1_text) == flag, name
    assert sum(flag for *_, flag in rows) == 41


def test_sfs_oracle_matches_the_closed_base_reference_rows():
    """The rows over the torus, the Klein bottle and the projective plane:
    TV_5 from the oracle at the base's Euler characteristic, and the flag
    from that TV through genus_lower_bound and the H_1 column."""
    rows = _reference_sfs_rows({"T", "KB/n2", "RP2/n2"})
    bases = [base for _, base, _, _, _, _ in rows]
    assert [bases.count(b) for b in ("T", "KB/n2", "RP2/n2")] == [7, 7, 10]
    for name, base, fibres, tv, h1_text, flag in rows:
        got = oracles.sfs_tv(fibres, 5, chi=SFS_BASE_CHI[base])
        assert got == pytest.approx(tv, rel=1e-12), name
        assert _screen_flag(got, h1_text) == flag, name
    assert sum(flag for *_, flag in rows) == 11


def test_q8_equals_the_sfs_oracle():
    """q8 is SFS [S2: (2,1) (2,1) (2,-1)], the quaternionic space."""
    for r in range(3, 9):
        got = tv_invariant(fixture("q8"), r, mode="exact").value_exact
        assert got.to_float() == pytest.approx(
            oracles.sfs_tv([(2, 1), (2, 1), (2, -1)], r), rel=1e-9), r


@pytest.mark.parametrize("p, q", LENS)
def test_sfs_oracle_with_one_fibre_is_the_lens_oracle(p, q):
    # L(p,q) is SFS [S2: (q,p)]: the two oracles run different products
    for r in range(3, 7):
        assert oracles.sfs_tv([(q, p)], r) == pytest.approx(
            oracles.lens_tv(p, q, r), rel=1e-9, abs=1e-12), r


@pytest.mark.parametrize("p, q", LENS)
def test_lens_space_depends_on_q_up_to_sign_and_inverse(p, q):
    q_inv = pow(q, -1, p)
    tris = [fixture(f"L({p},{k % p})") for k in (q, -q, q_inv, -q_inv)]
    for r in range(3, 7):
        values = {tv_invariant(t, r, mode="exact").value_exact for t in tris}
        assert len(values) == 1, r


def test_lens_space_needs_coprime_p_and_q():
    with pytest.raises(ValueError, match="gcd"):
        fixture("L(30,2)")
