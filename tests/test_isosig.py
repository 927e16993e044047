"""Isomorphism signature codec: round trips, canonicality, rejection."""

import itertools
import random
import time
from pathlib import Path

import pytest

from tvgenus.cli import load_census
from tvgenus.fixtures import fixture, fixture_isosig, fixture_names
from tvgenus.homology import format_h1, h1
from tvgenus.isosig import IsoSigError, decode_isosig, encode_isosig

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
    with pytest.raises(IsoSigError):
        decode_isosig("cMcabbgq")      # truncated
    with pytest.raises(IsoSigError):
        decode_isosig("cMcabbgqsa")    # trailing/lengths inconsistent
    sig = fixture_isosig("t3")
    with pytest.raises(IsoSigError, match="permutation"):
        decode_isosig(sig[:-1] + "8")  # gluing character with index >= 24


@pytest.mark.parametrize("sig", ("-ezzzzabc", "-f-----aabc"))
def test_huge_size_header_rejected_quickly(sig):
    # size headers claiming about 6.6e6 and 1.1e9 tetrahedra in front of a
    # few characters of data: the length check must not walk every
    # candidate join count up to 2n
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
    # 'baa': one simplex, all four facets boundary
    with pytest.raises(IsoSigError, match="boundary"):
        decode_isosig("baa")


def test_large_triangulation_multibyte_size_header():
    # grow a sphere beyond 62 tetrahedra so the signature needs the
    # extended size header, then round-trip it
    from tvgenus.complex3 import pachner_23
    tri = fixture("s3")
    while tri.size < 64:
        face = next(f.index for f in tri.face_orbits
                    if f.slots[0][0] != f.slots[1][0])
        tri = pachner_23(tri, face)
    sig = encode_isosig(tri)
    assert sig.startswith("-")  # size >= 63 marker
    back = decode_isosig(sig)
    assert back.size == 64
    assert encode_isosig(back) == sig
