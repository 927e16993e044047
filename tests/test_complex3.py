"""Triangulation model, gluing parser, orbits, Pachner moves."""

import random

import pytest

from tvgenus.complex3 import (EDGES, FACE_SIDES, FACE_VERTS, Triangulation,
                              TriangulationError, perm_inverse)
from tvgenus.fixtures import fixture, fixture_gluing_text, fixture_names
from tvgenus.gluing import (GluingParseError, PachnerError, format_gluing_file,
                            pachner_23, parse_gluing_file)
from tvgenus.homology import boundary_matrices, h1
from tvgenus.isosig import encode_isosig

import oracles

S3_TEXT = fixture_gluing_text("s3")


def test_parse_s3_fixture():
    tri = parse_gluing_file(S3_TEXT, name="s3")
    assert tri.size == 2
    v, e, f, t = tri.counts()
    assert v - e + f - t == 0
    assert tri.orientable


def test_euler_characteristic_all_fixtures():
    for name in fixture_names():
        assert fixture(name).euler_characteristic == 0, name


def test_t3_single_vertex():
    t3 = fixture("t3")
    assert len(t3.vertex_orbits) == 1
    assert t3.counts() == (1, 7, 12, 6)


def test_orientability_detection():
    assert fixture("s2xs1").orientable
    assert not fixture("s2xts1").orientable


def test_edge_cycles_cover_orbits():
    for name in ("s3", "t3", "rp3#rp3"):
        tri = fixture(name)
        for orbit in tri.edge_orbits:
            # each incidence of the class once, in ascending slot order, with
            # the signs relative to the lowest slot
            slots = [(t, e) for (t, e, _s) in orbit.members]
            want = [(t, e) for t in range(tri.size) for e in range(6)
                    if tri.edge_orbit_index[6 * t + e] == orbit.index]
            assert slots == want
            assert [s for (t, e, s) in orbit.members] == \
                   [tri.edge_orbit_sign[6 * t + e] for (t, e) in slots]
            assert orbit.members[0][2] == 1
        assert sum(len(o.members) for o in tri.edge_orbits) == 6 * tri.size


def test_face_orbits_pair_two_slots():
    for name in fixture_names():
        tri = fixture(name)
        assert len(tri.face_orbits) == 2 * tri.size
        for fo in tri.face_orbits:
            (ta, fa), (tb, fb) = fo.slots
            t2, p = tri.gluing(ta, fa)
            assert (t2, p[fa]) == (tb, fb)


# --- parser rejection ----------------------------------------------------------

def test_self_glued_face_rejected():
    text = """tets 1
0: 0 0123 0 0123 0 0123 0 0123
"""
    with pytest.raises(GluingParseError, match="self-gluing"):
        parse_gluing_file(text)


def test_header_and_syntax_errors_located():
    with pytest.raises(GluingParseError, match="line 1"):
        parse_gluing_file("tetrahedra 2\n")
    with pytest.raises(GluingParseError, match="line 2"):
        parse_gluing_file("tets 1\n0: 0 0123 0 0123 0 0123\n")
    with pytest.raises(GluingParseError, match="bad permutation"):
        parse_gluing_file("tets 1\n0: 0 0120 0 0123 0 0123 0 0123\n")
    with pytest.raises(GluingParseError, match="out of range"):
        parse_gluing_file("tets 1\n2: 0 0123 0 0123 0 0123 0 0123\n")
    with pytest.raises(GluingParseError, match="missing gluing lines"):
        parse_gluing_file("tets 2\n0: 1 0123 1 0123 1 0123 1 0123\n")


@pytest.mark.parametrize("text, message, line", [
    ("tets x\n", "bad tetrahedron count 'x'", 1),
    ("# empty\ntets 0\n", "count must be positive", 2),
    ("tets 1\n0 0 0123 0 0123 0 0123 0 0123\n", "expected 'i: ...'", 2),
    ("tets 1\na: 0 0123 0 0123 0 0123 0 0123\n", "bad tetrahedron index 'a'",
     2),
    ("tets 2\n0: 1 0123 1 0123 1 0123 1 0123\n"
     "0: 1 0123 1 0123 1 0123 1 0123\n", "duplicate tetrahedron 0", 3),
    ("tets 1\n0: x 0123 0 0123 0 0123 0 0123\n", "bad target 'x'", 2),
    ("# nothing but\n\n# comments\n", "empty gluing file", None),
    # the count alone allocates nothing, and the message names at most 10
    ("tets 99999999999\n", r"tetrahedra \[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\] "
     r"and 99999999989 more$", None),
    ("tets 1000000\n0: 1 0123 1 0123 1 0123 1 0123\n",
     r"tetrahedra \[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\] and 999989 more$", None),
    ("tets 11\n0: 1 0123 1 0123 1 0123 1 0123\n",
     r"^missing gluing lines for tetrahedra \[1, 2, 3, 4, 5, 6, 7, 8, 9, "
     r"10\]$", None),
])
def test_each_gluing_file_check_rejects_its_line(text, message, line):
    with pytest.raises(GluingParseError, match=message) as err:
        parse_gluing_file(text)
    assert err.value.line == line


def test_dangling_gluing_located():
    text = "tets 2\n" \
           "0: 1 0123 1 0123 1 0123 5 0123\n" \
           "1: 0 0123 0 0123 0 0123 0 0123\n"
    with pytest.raises(GluingParseError, match="dangling") as err:
        parse_gluing_file(text)
    assert err.value.line == 2


def test_every_involutivity_breaking_mutation_is_rejected():
    """Retarget each gluing slot of a valid file to every other tetrahedron
    without fixing the reverse slot; all mutations must fail with a located
    error (either non-involutive or an invalid complex)."""
    base = parse_gluing_file(S3_TEXT)
    rows = [[base.gluing(t, f) for f in range(4)] for t in range(2)]
    mutations = 0
    for t in range(2):
        for f in range(4):
            t2, p = rows[t][f]
            for new_p in ((1, 0, 2, 3), (2, 1, 0, 3), (0, 2, 1, 3)):
                if new_p == p:
                    continue
                mutated = [row[:] for row in rows]
                mutated[t][f] = (t2, new_p)
                text = _to_text(mutated)
                with pytest.raises(GluingParseError) as err:
                    parse_gluing_file(text)
                assert err.value.line is not None
                mutations += 1
    assert mutations >= 16


def _to_text(rows):
    lines = [f"tets {len(rows)}"]
    for t, row in enumerate(rows):
        parts = []
        for (t2, p) in row:
            parts.append(f"{t2} {''.join(map(str, p))}")
        lines.append(f"{t}: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def test_disconnected_rejected():
    # two disjoint copies of the doubled tetrahedron
    ident = (0, 1, 2, 3)
    rows = [[(1, ident)] * 4, [(0, ident)] * 4,
            [(3, ident)] * 4, [(2, ident)] * 4]
    with pytest.raises(TriangulationError, match="not connected"):
        Triangulation(rows)


@pytest.mark.parametrize("rows, message", [
    ([], "empty triangulation"),
    ([[(0, (0, 1, 2, 3))] * 3], "exactly 4 gluings"),
    ([[(1, (0, 0, 1, 2))] * 4, [(0, (0, 1, 2, 3))] * 4],
     r"not a vertex permutation: \(0, 0, 1, 2\)"),
])
def test_malformed_rows_rejected(rows, message):
    with pytest.raises(TriangulationError, match=message):
        Triangulation(rows)


def test_repr_names_the_counts():
    assert repr(fixture("t3")) == "<Triangulation 't3': 6 tet, V=1 E=7 F=12>"
    tri = Triangulation([[(1, (0, 1, 2, 3))] * 4, [(0, (0, 1, 2, 3))] * 4])
    assert repr(tri) == "<Triangulation: 2 tet, V=4 E=6 F=4>"


def test_missing_gluing_rejected():
    rows = [[(1, (0, 1, 2, 3))] * 4, [(0, (0, 1, 2, 3))] * 3 + [None]]
    with pytest.raises(TriangulationError, match="not closed"):
        Triangulation(rows)


@pytest.mark.parametrize("gluing", [(1.9, (0, 1, 2, 3)), (1.0, (0, 1, 2, 3)),
                                     (1, (0.0, 1, 2, 3)), ("1", (0, 1, 2, 3)),
                                     (1, [0.0, 1, 2, 3])])
def test_non_integer_gluing_rejected(gluing):
    # a float would otherwise be truncated (1.9 -> 1) or pass the
    # permutation check, which looks permutations up by value, where
    # 0.0 == 0, and fail later with a bare TypeError
    rows = [[(1, (0, 1, 2, 3))] * 4, [(0, (0, 1, 2, 3))] * 3 + [gluing]]
    with pytest.raises(TriangulationError, match="not an integer"):
        Triangulation(rows)


def test_list_and_bool_permutations_stored_as_int_tuples():
    rows = [[(True, [0, 1, 2, 3])] * 4, [(False, (False, True, 2, 3))] * 4]
    tri = Triangulation(rows)
    plain = Triangulation([[(1, (0, 1, 2, 3))] * 4, [(0, (0, 1, 2, 3))] * 4])
    for t in range(2):
        for f in range(4):
            t2, p = tri.gluing(t, f)
            assert (t2, p) == plain.gluing(t, f)
            assert type(t2) is int and type(p) is tuple
            assert all(type(x) is int for x in p)
    assert tri.edge_orbit_index == plain.edge_orbit_index


def test_non_manifold_vertex_link_rejected():
    # the figure-eight knot complement: all faces glued, but the single
    # vertex link is a torus, so this is not a closed 3-manifold
    rows = [
        [(1, (0, 1, 2, 3)), (1, (1, 2, 0, 3)), (1, (1, 0, 3, 2)), (1, (3, 0, 2, 1))],
        [(0, (0, 1, 2, 3)), (0, (1, 3, 2, 0)), (0, (2, 0, 1, 3)), (0, (1, 0, 3, 2))],
    ]
    with pytest.raises(TriangulationError, match="not a sphere"):
        Triangulation(rows)


def _random_gluing(rng, n):
    """Pair the 4n faces at random, each pair by a random vertex bijection."""
    slots = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(slots)
    rows = [[None] * 4 for _ in range(n)]
    for (t, f), (t2, f2) in zip(slots[::2], slots[1::2]):
        image = list(FACE_VERTS[f2])
        rng.shuffle(image)
        p = [f2] * 4
        for u, v in zip(FACE_VERTS[f], image):
            p[u] = v
        rows[t][f] = (t2, tuple(p))
        rows[t2][f2] = (t, perm_inverse(tuple(p)))
    return rows


def _connected(rows):
    seen, stack = {0}, [0]
    while stack:
        for t2, _ in rows[stack.pop()]:
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    return len(seen) == len(rows)


def _assert_orbits_by_lowest_slot(tri):
    """Vertex, edge and face orbits are numbered in order of their lowest
    slot (the search plan breaks ties by that order), and each face orbit is
    (lower slot, partner)."""
    for index in (tri.vertex_orbit_index, tri.edge_orbit_index):
        firsts = [index.index(o) for o in range(max(index) + 1)]
        assert firsts == sorted(firsts), index
    lowest = [fo.slots[0] for fo in tri.face_orbits]
    assert lowest == sorted(lowest)
    for i, fo in enumerate(tri.face_orbits):
        assert fo.index == i
        (t, f), partner = fo.slots
        t2, p = tri.gluing(t, f)
        assert partner == (t2, p[f]) and (t, f) < partner, fo


def test_random_gluings_match_link_oracle():
    """2,000 seeded random closed gluings of 1-4 tetrahedra: a connected one
    is accepted exactly when no edge is identified with itself in reverse
    and every vertex link has chi = 2 (tests/oracles.py counts the link
    vertices as edge-end classes), each rejection names the first defect,
    and every accepted one has the H_1 of the minors oracle and the
    orientability of the double-cover oracle."""
    rng = random.Random(2026)
    outcomes = {}
    orientations = set()
    for _ in range(2000):
        rows = _random_gluing(rng, rng.randint(1, 4))
        chis, reversed_edge = oracles.vertex_links(rows)
        if not _connected(rows):
            want = "not connected"
        elif reversed_edge:
            want = "itself in reverse"
        elif any(chi != 2 for chi in chis):
            want = "is not a sphere"
        else:
            want = None
        try:
            tri = Triangulation(rows)
        except TriangulationError as exc:
            assert want is not None and want in str(exc), (rows, str(exc))
        else:
            assert want is None, rows
            assert len(tri.vertex_orbits) == len(chis)
            d1, d2 = boundary_matrices(tri)
            got = h1(tri)
            assert (got.free_rank, got.torsion) == \
                   oracles.h1_via_minors(d1.entries, d2.entries), rows
            assert tri.orientable == oracles.orientable(rows), rows
            _assert_orbits_by_lowest_slot(tri)
            orientations.add(tri.orientable)
        outcomes[want] = outcomes.get(want, 0) + 1
    # every branch is exercised
    assert len(outcomes) == 4 and min(outcomes.values()) >= 50, outcomes
    assert orientations == {True, False}


def test_format_roundtrip():
    tri = parse_gluing_file(S3_TEXT)
    again = parse_gluing_file(format_gluing_file(tri, "roundtrip"))
    assert [[again.gluing(t, f) for f in range(4)] for t in range(2)] == \
           [[tri.gluing(t, f) for f in range(4)] for t in range(2)]


# --- relabelling ---------------------------------------------------------------

def test_relabeled_preserves_structure():
    rng = random.Random(11)
    from tvgenus.homology import h1
    for name in ("rp3", "t3"):
        tri = fixture(name)
        n = tri.size
        perms = list(__import__("itertools").permutations(range(4)))
        tet_perm = list(range(n))
        rng.shuffle(tet_perm)
        vperms = [rng.choice(perms) for _ in range(n)]
        other = tri.relabeled(tet_perm, vperms)
        assert other.counts() == tri.counts()
        assert other.orientable == tri.orientable
        assert h1(other) == h1(tri)


# --- Pachner 2-3 ------------------------------------------------------------------

def test_pachner_counts():
    for name in ("s3", "rp3", "l31", "s2xs1", "s3_double", "t3"):
        tri = fixture(name)
        fo = next(f.index for f in tri.face_orbits
                  if f.slots[0][0] != f.slots[1][0])
        moved = pachner_23(tri, fo)
        assert moved.size == tri.size + 1
        assert len(moved.edge_orbits) == len(tri.edge_orbits) + 1
        assert len(moved.vertex_orbits) == len(tri.vertex_orbits)
        assert moved.euler_characteristic == 0
        assert moved.orientable == tri.orientable


def test_pachner_rejects_single_tet_face():
    tri = fixture("s3")  # has faces glued within one tetrahedron
    fo = next(f.index for f in tri.face_orbits
              if f.slots[0][0] == f.slots[1][0])
    with pytest.raises(PachnerError):
        pachner_23(tri, fo)


def test_pachner_twice_still_valid():
    tri = fixture("l31")
    for _ in range(2):
        fo = next(f.index for f in tri.face_orbits
                  if f.slots[0][0] != f.slots[1][0])
        tri = pachner_23(tri, fo)
    assert tri.size == 4
    assert tri.euler_characteristic == 0


# isosigs along seeded 8-step walks, choosing among the face orbits that
# join two distinct tetrahedra as perfbench/make_census.py does: the choice
# reads orbit indices, so these pin the labels that pachner_23 produces
PINNED_WALKS = {
    "s3": ["dLQbcccaacr", "eLAkbccddahgto", "fLAMcbccdeeaegtaf",
           "gLLAQcceeeffqfleeaf", "hLLMAkccdfefggdwvqiwxg",
           "iLLAzQccddefgghhhsvaoggig", "jLLLMAQbcgghhfgiilsmajjsvqv",
           "kLLLMzQkadeffgjjiijbamgwoacwjk"],
    "rp3": ["dLQbcccaicj", "eLAkbccddpenqv", "fLAMcbccdeeepbaab",
            "gLLAQbcedfefevpvakv", "hLLMAkbcedffgglspnabuc",
            "iLLLAQccefdfgghhaulglffdj", "jLLALPQccedghhhiiubaffddqio",
            "kLLPLzQkbcdehihijijpkfpaapqqjo"],
    "t3": ["hvLPQkcedgffggnnclmeiw", "iLvLQQcbdhghgfghafhxsjfoo",
           "jLvLQMQcfgehgihiiaiaxenirht", "kvLALMQkceffgijhijjnvqmmwokgco",
           "lLvLLAQQccfehihkhjjkkaiurbrhwnghd",
           "mLLvLAQPQcdhgfikhjllklarovfrivoelqr",
           "nLvAwLMPQkcdfeikhljkmlmmavalipbdknwsgs",
           "oLvAwLzMQQccdfeiklmjmlnnmnavalihhakwrnnnk"],
}


def test_pachner_walk_pinned():
    for name, want in PINNED_WALKS.items():
        rng = random.Random(f"walk:{name}")
        tri = fixture(name)
        got = []
        for _ in want:
            faces = [fo.index for fo in tri.face_orbits
                     if fo.slots[0][0] != fo.slots[1][0]]
            tri = pachner_23(tri, rng.choice(faces))
            got.append(encode_isosig(tri))
        assert got == want, name


def test_face_sides_are_the_oriented_boundary():
    for f, sides in enumerate(FACE_SIDES):
        assert {v for e, _ in sides for v in EDGES[e]} == set(FACE_VERTS[f])
        tally = [0] * 4  # the boundary of the boundary of the face is 0
        for e, s in sides:
            u, v = EDGES[e]
            tally[v] += s
            tally[u] -= s
        assert tally == [0] * 4


def test_perm_inverse():
    assert perm_inverse((2, 0, 1, 3)) == (1, 2, 0, 3)


# --- single-tetrahedron complexes ------------------------------------------------

ONE_TET_S3 = [[(0, (1, 0, 2, 3)), (0, (1, 0, 2, 3)),
               (0, (0, 1, 3, 2)), (0, (0, 1, 3, 2))]]


def test_one_tet_sphere_is_valid():
    tri = Triangulation(ONE_TET_S3, name="one-tet sphere")
    assert tri.counts() == (2, 3, 2, 1)
    assert tri.orientable
    from tvgenus.homology import format_h1, h1
    assert format_h1(h1(tri)) == "0"


def test_one_tet_sphere_invariant_values():
    from tvgenus.recoupling import global_dim
    from tvgenus.statesum import tv_invariant
    tri = Triangulation(ONE_TET_S3)
    for r in (3, 4, 5, 6):
        res = tv_invariant(tri, r, mode="exact")
        assert res.value_exact == global_dim(r).inverse()


def test_one_tet_all_faces_refuse_pachner():
    tri = Triangulation(ONE_TET_S3)
    for fo in tri.face_orbits:
        with pytest.raises(PachnerError):
            pachner_23(tri, fo.index)


def test_random_move_sequences_preserve_invariants():
    from tvgenus.homology import h1
    from tvgenus.statesum import tv_invariant
    rng = random.Random(424242)
    for name in ("l31", "s2xs1"):
        base = fixture(name)
        want_h1 = h1(base)
        want = {r: tv_invariant(base, r, mode="exact").value_exact
                for r in (3, 4)}
        tri = base
        for step in range(3):
            eligible = [f.index for f in tri.face_orbits
                        if f.slots[0][0] != f.slots[1][0]]
            tri = pachner_23(tri, rng.choice(eligible))
            assert h1(tri) == want_h1, (name, step)
            for r in (3, 4):
                got = tv_invariant(tri, r, mode="exact").value_exact
                assert got == want[r], (name, step, r)
        assert tri.size == base.size + 3
