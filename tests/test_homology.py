"""Smith normal form and first homology."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tvgenus.fixtures import fixture
from tvgenus.gluing import pachner_23
from tvgenus.homology import (H1Summary, IntMatrix, boundary_matrices,
                              format_h1, h1, h1_from_matrices, parse_h1,
                              rank_and_torsion, smith_normal_form)
from tvgenus.isosig import decode_isosig

import oracles

CENSUS = Path(__file__).parents[1] / "perfbench" / "data" / "census.txt"

# --- Smith normal form -----------------------------------------------------

def test_snf_identity():
    eye = IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert smith_normal_form(eye) == (1, 1, 1, 1)


def test_snf_single_entry():
    assert smith_normal_form([[2]]) == (2,)
    assert smith_normal_form([[0]]) == (0,)
    assert smith_normal_form([[-6]]) == (6,)


@pytest.mark.parametrize("entries", [[[2.5, 0], [0, 3.9]], [[2.0]], [["2"]]])
def test_non_integer_entries_rejected(entries):
    # truncating [[2.5, 0], [0, 3.9]] would give the Smith form (1, 6)
    with pytest.raises(ValueError, match="integers"):
        smith_normal_form(entries)


def test_snf_worked_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8, so diag(2, 4);
    # cross-checked by the determinantal-divisor oracle
    mat = [[2, 4], [6, 8]]
    assert smith_normal_form(mat) == (2, 4)
    assert oracles.snf_via_minors(mat) == (2, 4)


def _random_matrix(rng, max_dim=4, span=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def test_snf_random_matrices_divisibility_permutation_oracle():
    """1000 random small integer matrices: the divisibility chain holds, the
    factors are invariant under row/column permutation, and (on a subset,
    to keep the minors affordable) they match the determinantal divisors."""
    rng = random.Random(97)
    for trial in range(1000):
        mat = _random_matrix(rng)
        diag = smith_normal_form(mat)
        nonzero = [d for d in diag if d != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0, (mat, diag)
        assert all(d == 0 for d in diag[len(nonzero):])
        rows = list(range(len(mat)))
        cols = list(range(len(mat[0])))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[mat[i][j] for j in cols] for i in rows]
        assert smith_normal_form(shuffled) == diag, (mat, rows, cols)
        if trial % 5 == 0:
            assert oracles.snf_via_minors(mat) == diag, mat


@st.composite
def face_shaped_matrices(draw):
    """(rows, sparse columns) with at most three nonzeros per column, as a
    face has, in -3..3; with no_units the entries are +-2 and +-3 only, so
    every pivot is a least entry and most reduce to remainders."""
    rows = draw(st.integers(1, 8))
    no_units = draw(st.booleans())
    values = st.sampled_from((-3, -2, 2, 3) if no_units else (-3, -2, -1, 1, 2, 3))
    columns = []
    for _ in range(draw(st.integers(0, 12))):
        at = draw(st.lists(st.integers(0, rows - 1), max_size=3, unique=True))
        columns.append({i: draw(values) for i in at})
    return rows, columns


@settings(max_examples=400, deadline=None)
@given(face_shaped_matrices())
@example((2, [{}, {0: 1, 1: -1}, {}]))          # zero columns
@example((2, [{0: 2}, {0: 1, 1: 1}]))           # a face with two sides on one orbit
@example((3, [{0: 2, 1: 2}, {1: 3, 2: -3}, {0: 2, 2: -2}]))  # no unit entry
@example((2, [{0: 2, 1: 3}, {0: 3, 1: 2}]))     # no unit entry, invariant factors 1, 5
def test_unit_pivot_elimination_matches_dense_smith_form(matrix):
    """rank_and_torsion against the textbook dense reduction of
    tests/oracles.py."""
    rows, columns = matrix
    diag = oracles.snf_naive([[col.get(i, 0) for col in columns]
                              for i in range(rows)])
    rank, torsion = rank_and_torsion([dict(col) for col in columns])
    assert rank == sum(1 for d in diag if d)
    assert torsion == tuple(d for d in diag if d > 1)


def test_dense_matrices_match_naive_smith_form():
    """Dense matrices, where entries grow under reduction: a 6 x 6 one
    whose entries a row/column loop drove past 21 million bits, and seeded
    ones up to 7 x 7 with entries up to +-30."""
    mat = [[-2, 9, 8, -5, 2, 6], [9, -7, -9, 6, -1, 8], [-2, -3, 6, 8, 8, 6],
           [3, -5, -2, -5, 7, 3], [-9, -7, -4, 9, -8, 0], [-9, -1, 6, 3, 4, 3]]
    start = time.perf_counter()
    assert smith_normal_form(mat) == oracles.snf_naive(mat)
    assert time.perf_counter() - start < 1.0
    rng = random.Random(2026)
    for _ in range(1000):
        mat = _random_matrix(rng, max_dim=7, span=rng.choice((3, 9, 30)))
        assert smith_normal_form(mat) == oracles.snf_naive(mat), mat


# --- H1 ----------------------------------------------------------------------

EXPECTED_H1 = {
    "s3": "0",
    "s3_double": "0",
    "rp3": "Z_2",
    "l31": "Z_3",
    "s2xs1": "Z",
    "s2xts1": "Z",
    "q8": "2 Z_2",
    "t3": "3 Z",
    "rp3#rp3": "2 Z_2",
    "rp3#l31": "Z_6",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_H1))
def test_h1_fixture_values(name):
    assert format_h1(h1(fixture(name))) == EXPECTED_H1[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_H1))
def test_h1_matches_minors_oracle(name):
    tri = fixture(name)
    d1, d2 = boundary_matrices(tri)
    free, torsion = oracles.h1_via_minors(d1.entries, d2.entries)
    got = h1(tri)
    assert (got.free_rank, got.torsion) == (free, torsion)


def test_h1_of_census_pool_matches_naive_smith_form():
    """Every signature of the benchmark's census pool: h1 against the
    textbook reduction of d2 in tests/oracles.py."""
    checked = 0
    with open(CENSUS, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            name, _, sig = line.partition(";")
            tri = decode_isosig(sig.strip())
            d1, d2 = boundary_matrices(tri)
            diag = oracles.snf_naive(d2.entries)
            want = H1Summary(d2.rows - (d1.rows - 1) - sum(1 for d in diag if d),
                             tuple(d for d in diag if d > 1))
            assert h1(tri) == want, name
            checked += 1
    assert checked == 1379


def test_h1_min_generators():
    assert h1(fixture("t3")).min_generators == 3
    assert h1(fixture("rp3#rp3")).min_generators == 2
    assert h1(fixture("s3")).min_generators == 0


@pytest.mark.parametrize("name", ("s3", "rp3", "l31", "s2xs1", "t3"))
def test_h1_invariant_under_pachner(name):
    tri = fixture(name)
    fo = next(f.index for f in tri.face_orbits
              if f.slots[0][0] != f.slots[1][0])
    assert h1(pachner_23(tri, fo)) == h1(tri)


@pytest.mark.parametrize("name", sorted(EXPECTED_H1))
def test_h1_constant_along_walks(name):
    """Seeded 2-3 walks up to 12 tetrahedra keep H_1.  s3_double (V = 4)
    and the connected sums (V = 3) check the free rank E - (V - 1) - rank d2
    where V > 1."""
    rng = random.Random(name)
    tri = fixture(name)
    while tri.size < 12:
        faces = [fo.index for fo in tri.face_orbits
                 if fo.slots[0][0] != fo.slots[1][0]]
        tri = pachner_23(tri, rng.choice(faces))
        assert format_h1(h1(tri)) == EXPECTED_H1[name], (name, tri.size)


def test_h1_independent_of_orientation_conventions():
    rng = random.Random(5)
    for name in ("rp3", "t3", "rp3#l31"):
        tri = fixture(name)
        d1, d2 = boundary_matrices(tri)
        base = h1_from_matrices(d1, d2)
        for _ in range(5):
            f1 = [row[:] for row in d1.entries]
            f2 = [row[:] for row in d2.entries]
            for e in range(d1.cols):      # flip some edge orientations
                if rng.random() < 0.5:
                    for row in f1:
                        row[e] = -row[e]
                    f2[e] = [-x for x in f2[e]]
            for j in range(d2.cols):      # flip some face orientations
                if rng.random() < 0.5:
                    for row in f2:
                        row[j] = -row[j]
            assert h1_from_matrices(IntMatrix(f1), IntMatrix(f2)) == base


def test_h1_rejects_boundary_maps_that_do_not_compose_to_zero():
    # adding 1 to a face's coefficient on an edge between two distinct
    # vertices gives that face a boundary, on every such entry
    d1, d2 = boundary_matrices(fixture("rp3#l31"))
    assert h1_from_matrices(d1, d2) == H1Summary(0, (6,))
    checked = 0
    for e in range(d2.rows):
        if not any(row[e] for row in d1.entries):
            continue
        for f in range(d2.cols):
            broken = [row[:] for row in d2.entries]
            broken[e][f] += 1
            with pytest.raises(ValueError, match="d1 @ d2 != 0"):
                h1_from_matrices(d1, IntMatrix(broken))
            checked += 1
    assert checked == 10 * 20
    # a single edge from one vertex to another, bounding a face
    with pytest.raises(ValueError, match="d1 @ d2 != 0"):
        h1_from_matrices(IntMatrix([[-1], [1]]), IntMatrix([[1]]))
    # d2 with fewer or more edge rows than d1 has edge columns
    for d1, d2 in (([[0, 0]], [[2]]), ([[0]], [[2], [1]])):
        with pytest.raises(ValueError, match="d1 @ d2 undefined"):
            h1_from_matrices(IntMatrix(d1), IntMatrix(d2))


# --- summaries: formatting and parsing ------------------------------------

def test_format_h1_styles():
    assert format_h1(H1Summary(0, ())) == "0"
    assert format_h1(H1Summary(2, (3,))) == "2 Z + Z_3"
    assert format_h1(H1Summary(0, (2, 2, 4))) == "2 Z_2 + Z_4"
    assert format_h1(H1Summary(1, (2, 10))) == "Z + Z_2 + Z_10"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4),
       st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=3))
def test_parse_format_roundtrip(free, seeds):
    torsion = []
    cur = 1
    for s in sorted(seeds):
        cur *= s  # running product, so the chain d1 | d2 | ... holds
        torsion.append(cur)
    summary = H1Summary(free, tuple(torsion))
    assert parse_h1(format_h1(summary)) == summary


def test_h1_summary_validation():
    with pytest.raises(ValueError):
        H1Summary(0, (1,))
    with pytest.raises(ValueError):
        H1Summary(0, (4, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        H1Summary(-1, ())


def test_parse_h1_rejects_malformed_terms():
    with pytest.raises(ValueError, match="empty term"):
        parse_h1("Z + ")
    with pytest.raises(ValueError, match="bad H1 term"):
        parse_h1("2 Z 3")
    with pytest.raises(ValueError, match="bad H1 term"):
        parse_h1("Q")
    for text in ("x Z", "Z_y", "2 Z_", "99999999999 Z_2", "1000000 Z"):
        with pytest.raises(ValueError, match=f"^bad H1 term '{text}'$"):
            parse_h1(text)


def test_summary_and_matrix_text():
    assert str(H1Summary(1, (2, 10))) == "Z + Z_2 + Z_10"
    m = IntMatrix([[1, 2], [3, 4]])
    assert m == IntMatrix([[1, 2], [3, 4]])
    assert m != IntMatrix([[1, 2], [3, 5]]) and m != [[1, 2], [3, 4]]
    assert repr(m) == "IntMatrix([[1, 2], [3, 4]])"
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])


def test_parse_h1_examples():
    assert parse_h1("2 Z_2 + Z_4") == H1Summary(0, (2, 2, 4))
    assert parse_h1("3 Z") == H1Summary(3, ())
    assert parse_h1("0") == H1Summary(0, ())
    assert parse_h1("Z + 2 Z_2") == H1Summary(1, (2, 2))
