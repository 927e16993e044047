"""Isomorphism signature codec: round trips, canonicality, rejection."""

import itertools
import math
import random
import time
from pathlib import Path

import pytest

from tvgenus.cli import load_census
from tvgenus.complex3 import Triangulation
from tvgenus.fixtures import fixture, fixture_isosig, fixture_names
from tvgenus.homology import format_h1, h1
from tvgenus.isosig import (IsoSigError, _candidate, decode_isosig,
                            encode_isosig)

PERMS = list(itertools.permutations(range(4)))
CENSUS = Path(__file__).parents[1] / "perfbench" / "data" / "census.txt"


def test_roundtrip_all_fixtures():
    for name in fixture_names():
        tri = fixture(name)
        sig = encode_isosig(tri)
        back = decode_isosig(sig)
        assert encode_isosig(back) == sig  # encode o decode is the identity
        assert back.counts() == tri.counts()
        assert h1(back) == h1(tri)


def test_shipped_signatures_are_canonical():
    for name in ("t3", "rp3#rp3", "rp3#l31"):
        sig = fixture_isosig(name)
        assert encode_isosig(decode_isosig(sig)) == sig


def test_canonical_under_relabelling():
    rng = random.Random(2026)
    for name in ("s3", "rp3", "t3"):
        tri = fixture(name)
        sig = encode_isosig(tri)
        for _ in range(12):
            tet_perm = list(range(tri.size))
            rng.shuffle(tet_perm)
            vperms = [rng.choice(PERMS) for _ in range(tri.size)]
            assert encode_isosig(tri.relabeled(tet_perm, vperms)) == sig


def test_distinct_manifold_presentations_distinct_sigs():
    assert encode_isosig(fixture("s3")) != encode_isosig(fixture("rp3"))
    assert encode_isosig(fixture("s3")) != encode_isosig(fixture("s3_double"))


def test_regina_bytes_two_tet_sphere():
    # canonical signature of a 2-tetrahedron 3-sphere as printed by Regina;
    # the codec must reproduce it byte for byte, and the decoded complex
    # must evaluate downstream to the sphere value at r=5
    from tvgenus.statesum import tv_invariant
    sig = "cMcabbgqs"
    tri = decode_isosig(sig)
    assert tri.size == 2
    assert format_h1(h1(tri)) == "0"
    assert encode_isosig(tri) == sig
    assert abs(tv_invariant(tri, 5).value_float - 0.1381966011) <= 1e-9


def test_regina_bytes_ideal_complex_rejected():
    # Regina's signature for the two-tetrahedron figure-eight knot
    # complement: a valid signature, but its vertex link is a torus, so
    # decoding must reject it as non-closed
    with pytest.raises(IsoSigError, match="invalid"):
        decode_isosig("cPcbbbiht")


def test_malformed_signatures_rejected():
    with pytest.raises(IsoSigError, match="empty"):
        decode_isosig("")
    with pytest.raises(IsoSigError, match="character"):
        decode_isosig("cMcabb gqs")
    # a closed signature has one length for its size header, so a truncated
    # signature and trailing data both fail that check
    with pytest.raises(IsoSigError, match="length is inconsistent"):
        decode_isosig("cMcabbgq")      # truncated
    with pytest.raises(IsoSigError, match="length is inconsistent"):
        decode_isosig("cMcabbgqsa")    # trailing data
    sig = fixture_isosig("t3")
    with pytest.raises(IsoSigError, match="permutation"):
        decode_isosig(sig[:-1] + "8")  # gluing character with index >= 24


@pytest.mark.parametrize("sig", ("-ezzzzabc", "-f-----aabc"))
def test_huge_size_header_rejected_quickly(sig):
    # size headers claiming about 6.6e6 and 1.1e9 tetrahedra in front of a
    # few characters of data: the one length comparison rejects them before
    # anything of size n is built
    t0 = time.perf_counter()
    with pytest.raises(IsoSigError, match="length"):
        decode_isosig(sig)
    assert time.perf_counter() - t0 < 1.0


def test_census_pool_decodes():
    entries = load_census(str(CENSUS))
    assert len(entries) == 1379
    for name, sig in entries:
        assert decode_isosig(sig).size >= 2, name


def test_boundary_facets_rejected():
    # 'baaaaa': one simplex, all four facets boundary, padded to the length
    # of a closed one-tetrahedron signature
    with pytest.raises(IsoSigError, match="boundary"):
        decode_isosig("baaaaa")


def _closed_length(n):
    """The length of a closed n-tetrahedron signature: the size header,
    2n facet actions 3 to a character, and n + 1 joins."""
    nchars = 1
    while n >= (1 << (6 * nchars)):
        nchars += 1
    header = 1 if n < 63 else 2 + nchars
    return header + (2 * n + 2) // 3 + (n + 1) * (nchars + 1)


def _sphere_64():
    """A sphere grown by 2-3 moves beyond 62 tetrahedra, so that its
    signature needs the extended size header."""
    from tvgenus.complex3 import pachner_23
    tri = fixture("s3")
    while tri.size < 64:
        face = next(f.index for f in tri.face_orbits
                    if f.slots[0][0] != f.slots[1][0])
        tri = pachner_23(tri, face)
    return tri


def test_truncated_and_padded_signatures_fail_the_length_check():
    # every closed signature has the length _closed_length gives, so one
    # character less or more fails the length check, whatever the shorter
    # or longer string would read as
    tris = [fixture(name) for name in fixture_names()]
    tris += [fixture("L(7,2)"), _sphere_64()]
    sigs = [sig for _, sig in load_census(str(CENSUS))]
    for tri in tris:
        sigs.append(encode_isosig(tri))
        assert len(sigs[-1]) == _closed_length(tri.size)
    for sig in sigs:
        for bad in (sig[:-1], sig + "a"):
            with pytest.raises(IsoSigError, match="length is inconsistent"):
                decode_isosig(bad)


def _orbit_views(tri):
    return (tri.size, tri.vertex_orbit_index, tri.vertex_orbits,
            tri.edge_orbit_index, tri.edge_orbit_sign, tri.edge_orbits,
            tri.face_orbits, tri.orientable, tri.face_edge_orbits(),
            tri.tet_edge_orbits())


def test_decoder_hand_off_builds_what_the_rows_build():
    # decode_isosig hands Triangulation its checked (target, permutation
    # index) slots; the same gluings given as rows take the checking path,
    # and both must number, order and sign every orbit alike.  The lens
    # spaces are read from their signature rooted at tetrahedron 0, which
    # decodes as any other, at a hundredth of the canonical one's cost
    sigs = [encode_isosig(fixture(name)) for name in fixture_names()]
    sigs += [_candidate(fixture(f"L({p},{q})"), 0, (0, 1, 2, 3))
             for p in range(2, 20) for q in range(1, p) if math.gcd(p, q) == 1]
    sigs += [sig for _, sig in load_census(str(CENSUS))]
    for sig in sigs:
        tri = decode_isosig(sig)
        rows = [[tri.gluing(t, f) for f in range(4)] for t in range(tri.size)]
        assert _orbit_views(tri) == _orbit_views(Triangulation(rows)), sig


def test_large_triangulation_multibyte_size_header():
    sig = encode_isosig(_sphere_64())
    assert sig.startswith("-")  # size >= 63 marker
    back = decode_isosig(sig)
    assert back.size == 64
    assert encode_isosig(back) == sig
    # the traversal of L(80,31) rooted at tetrahedron 0 joins 26 times to a
    # tetrahedron past 63, so those destinations use their second character
    sig = _candidate(fixture("L(80,31)"), 0, (0, 1, 2, 3))
    assert _candidate(decode_isosig(sig), 0, (0, 1, 2, 3)) == sig


# every check that decode_isosig makes, each fed an input that reaches it:
# the inputs past the size header have the length of a closed signature
# (6 characters for one tetrahedron, 9 for two), and shorter ones fail the
# length check.  No input runs out of join data: by the counting argument
# at decode_isosig's joins, a traversal reads at most the n + 1 joins that
# a closed signature holds.
@pytest.mark.parametrize("sig, message", [
    ("-", "truncated signature"),
    ("-cz", "truncated signature"),
    ("-a", "bad size header"),
    ("a", "empty triangulation"),
    ("bdaaaa", "invalid facet action 3"),
    ("bcbaaa", "join destination not yet created"),
    ("cMcabbtdv", "inconsistent join"),
    ("cAcaabgdv", "disconnected complex"),
    ("bbaaaa", "too many tetrahedra"),
    ("bcaa8a", "invalid permutation index 60"),
    ("cMIabbgqs", "unused bits"),
    ("baa", "length is inconsistent"),
    ("bVV", "length is inconsistent"),
    ("bIBg", "length is inconsistent"),
    ("brM", "length is inconsistent"),
])
def test_each_decode_check_rejects_its_input(sig, message):
    with pytest.raises(IsoSigError, match=message):
        decode_isosig(sig)

