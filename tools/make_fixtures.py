"""Regenerate and re-verify the built-in fixtures from first principles.

Run from the repository root:  python tools/make_fixtures.py

The two-tetrahedron fixtures come from an exhaustive enumeration of all
closed connected two-tetrahedron gluings, identified by homology,
orientability and invariant values.  The 3-torus is the staircase
triangulation of the cube with opposite faces identified.  The connected
sums are built by cutting each summand along a fully embedded face (three
distinct vertex orbits and three distinct edge orbits, created where needed
by a vertex-insertion subdivision) and cross-gluing the two boundary
spheres; multiplicativity of the invariant over the sum is then checked
numerically against the summands.

Everything printed at the end must match src/tvgenus/fixtures.py; the
script exits nonzero on any mismatch so it can run as a consistency check.
"""

from __future__ import annotations

import itertools
import sys

sys.path.insert(0, "src")

from tvgenus.complex3 import (FACE_VERTS, Triangulation,
                              TriangulationError, format_gluing_file,
                              perm_inverse)
from tvgenus.fixtures import _GLUING_FIXTURES, _ISOSIG_FIXTURES
from tvgenus.homology import format_h1, h1
from tvgenus.isosig import encode_isosig
from tvgenus.statesum import SearchLimits, tv_invariant


# --------------------------------------------------------------------------
# exhaustive two-tetrahedron census
# --------------------------------------------------------------------------

def _perms_mapping(f1: int, f2: int):
    rest1 = [v for v in range(4) if v != f1]
    rest2 = [v for v in range(4) if v != f2]
    for images in itertools.permutations(rest2):
        p = [0] * 4
        p[f1] = f2
        for a, b in zip(rest1, images):
            p[a] = b
        yield tuple(p)


def enumerate_two_tet():
    """All valid closed connected 2-tetrahedron triangulations."""
    faces_all = [(t, f) for t in range(2) for f in range(4)]
    out = []

    def backtrack(gl, remaining):
        if not remaining:
            try:
                out.append(Triangulation([row[:] for row in gl]))
            except TriangulationError:
                pass
            return
        (t, f) = remaining[0]
        for (t2, f2) in remaining:
            if (t2, f2) == (t, f):
                continue
            for p in _perms_mapping(f, f2):
                gl[t][f] = (t2, p)
                gl[t2][f2] = (t, perm_inverse(p))
                backtrack(gl, [x for x in remaining if x not in ((t, f), (t2, f2))])
                gl[t][f] = None
                gl[t2][f2] = None

    backtrack([[None] * 4 for _ in range(2)], faces_all)
    return out


def classify(tri: Triangulation):
    hom = h1(tri)
    tvs = tuple(round(tv_invariant(tri, r).value_float, 9)
                for r in (4, 5, 6, 7))
    return (hom.free_rank, hom.torsion, tri.orientable, tvs)


WANTED = {
    # name: (free rank, torsion, orientable, vertex orbits)
    "s3": (0, (), True, 1),
    "s3_double": (0, (), True, 4),
    "rp3": (0, (2,), True, 1),
    "l31": (0, (3,), True, 1),
    "s2xs1": (1, (), True, 1),
    "s2xts1": (1, (), False, 1),
    "q8": (0, (2, 2), True, 1),
    "_rp3_v2": (0, (2,), True, 2),
    "_l31_v2": (0, (3,), True, 2),
}


def pick_two_tet_fixtures(census):
    """One representative per wanted manifold class, chosen deterministically
    as the one with the smallest canonical signature (the summand classes
    need two vertex orbits so that subdivision exposes an embedded face)."""
    found: dict[str, tuple[str, Triangulation]] = {}
    for tri in census:
        hom = h1(tri)
        key = (hom.free_rank, hom.torsion, tri.orientable,
               len(tri.vertex_orbits))
        for name, want in WANTED.items():
            if key == want:
                sig = encode_isosig(tri)
                if name not in found or sig < found[name][0]:
                    found[name] = (sig, tri)
    missing = set(WANTED) - set(found)
    if missing:
        raise SystemExit(f"enumeration did not find: {missing}")
    return {name: tri for name, (sig, tri) in found.items()}


# --------------------------------------------------------------------------
# 3-torus: staircase (Kuhn) triangulation of the identified cube
# --------------------------------------------------------------------------

def torus3() -> Triangulation:
    orders = list(itertools.permutations((0, 1, 2)))
    idx = {s: i for i, s in enumerate(orders)}
    rows = [[None] * 4 for _ in range(6)]
    for s in orders:
        i = idx[s]
        rows[i][1] = (idx[(s[1], s[0], s[2])], (0, 1, 2, 3))
        rows[i][2] = (idx[(s[0], s[2], s[1])], (0, 1, 2, 3))
        rows[i][0] = (idx[(s[1], s[2], s[0])], (3, 0, 1, 2))
        rows[i][3] = (idx[(s[2], s[0], s[1])], (1, 2, 3, 0))
    return Triangulation(rows, name="t3")


# --------------------------------------------------------------------------
# connected sums
# --------------------------------------------------------------------------

def subdivide_tet(tri: Triangulation, t: int) -> Triangulation:
    """Vertex insertion (1-4 move): split tetrahedron t into four around a
    new interior vertex.  New tetrahedron N_k keeps the labels of t except
    that vertex k becomes the centre."""
    survivors = [x for x in range(tri.size) if x != t]
    remap = {x: i for i, x in enumerate(survivors)}
    base = len(survivors)
    rows = [[None] * 4 for _ in range(base + 4)]
    for s in survivors:
        for f in range(4):
            t2, q = tri.gluing(s, f)
            if t2 == t:
                rows[remap[s]][f] = (base + q[f], q)
            else:
                rows[remap[s]][f] = (remap[t2], q)
    for k in range(4):
        t2, q = tri.gluing(t, k)
        if t2 == t:
            rows[base + k][k] = (base + q[k], q)
        else:
            rows[base + k][k] = (remap[t2], q)
        for m in range(4):
            if m == k:
                continue
            p = list(range(4))
            p[k], p[m] = m, k
            rows[base + k][m] = (base + m, tuple(p))
    return Triangulation(rows, name=tri.name)


def embedded_face(tri: Triangulation):
    """A face orbit joining two distinct tetrahedra whose three vertices lie
    in three distinct vertex orbits and whose three edges lie in three
    distinct edge orbits; cutting along such a face removes an open ball."""
    for fo, sides in zip(tri.face_orbits, tri.face_edge_orbits()):
        (ta, fa), (tb, fb) = fo.slots
        if ta == tb:
            continue
        vorbs = {tri.vertex_orbit_index[4 * ta + v] for v in FACE_VERTS[fa]}
        if len(vorbs) == 3 and len(set(sides)) == 3:
            return fo.index
    return None


def prepare_summand(tri: Triangulation) -> Triangulation:
    """Subdivide until the triangulation has an embedded face to cut."""
    if embedded_face(tri) is not None:
        return tri
    for t in range(tri.size):
        orbits = {tri.vertex_orbit_index[4 * t + v] for v in range(4)}
        if len(orbits) >= 2:
            out = subdivide_tet(tri, t)
            if embedded_face(out) is not None:
                return out
    raise SystemExit("no subdivision produced an embedded face")


def connected_sum(t1: Triangulation, t2: Triangulation,
                  name: str) -> Triangulation:
    """Cut both along embedded faces and cross-glue the boundary spheres."""
    f1 = embedded_face(t1)
    f2 = embedded_face(t2)
    if f1 is None or f2 is None:
        raise SystemExit("summand lacks an embedded face")
    (a, ia), (b, jb) = t1.face_orbits[f1].slots
    p = t1.gluing(a, ia)[1]
    (a2, ia2), (b2, jb2) = t2.face_orbits[f2].slots
    p2 = t2.gluing(a2, ia2)[1]
    n1 = t1.size
    rows = [[t1.gluing(t, f) for f in range(4)] for t in range(n1)]
    rows += [[(t + n1, q) for (t, q) in
              (t2.gluing(s, f) for f in range(4))] for s in range(t2.size)]
    # q2: face ia2 of a2 onto face jb of b (any aligned bijection); then
    # q1 := p2 o q2^{-1} o p makes the two new gluings carry each boundary
    # edge of one cut sphere onto a single boundary edge of the other.
    rest_src = [v for v in range(4) if v != ia2]
    rest_dst = [v for v in range(4) if v != jb]
    q2 = [0] * 4
    q2[ia2] = jb
    for u, v in zip(rest_src, rest_dst):
        q2[u] = v
    q2 = tuple(q2)
    q2_inv = perm_inverse(q2)
    q1 = tuple(p2[q2_inv[p[v]]] for v in range(4))
    rows[a][ia] = (b2 + n1, q1)
    rows[b2 + n1][jb2] = (a, perm_inverse(q1))
    rows[a2 + n1][ia2] = (b, q2)
    rows[b][jb] = (a2 + n1, perm_inverse(q2))
    return Triangulation(rows, name=name)


def check_multiplicative(total, part_a, part_b, sphere, rs=(3, 4, 5, 6)):
    limits = SearchLimits(force=True)
    for r in rs:
        lhs = (tv_invariant(total, r, limits=limits).value_float
               * tv_invariant(sphere, r).value_float)
        rhs = (tv_invariant(part_a, r).value_float
               * tv_invariant(part_b, r).value_float)
        if abs(lhs - rhs) > 1e-9:
            raise SystemExit(
                f"multiplicativity failed for {total.name} at r={r}: "
                f"{lhs} vs {rhs}")


def main() -> int:
    census = enumerate_two_tet()
    census_sigs = {encode_isosig(tri) for tri in census}
    found = pick_two_tet_fixtures(census)
    t3 = torus3()
    hom = format_h1(h1(t3))
    if hom != "3 Z" or len(t3.vertex_orbits) != 1:
        raise SystemExit(f"3-torus construction is wrong: h1={hom}")

    rp3_big = prepare_summand(found["_rp3_v2"])
    l31_big = prepare_summand(found["_l31_v2"])
    sums = {
        "rp3#rp3": connected_sum(rp3_big, rp3_big, "rp3#rp3"),
        "rp3#l31": connected_sum(rp3_big, l31_big, "rp3#l31"),
    }
    check_multiplicative(sums["rp3#rp3"], found["rp3"], found["rp3"], found["s3"])
    check_multiplicative(sums["rp3#l31"], found["rp3"], found["l31"], found["s3"])

    failures = 0
    print("# gluing-table fixtures: shipped tables must be valid 2-tet")
    print("# triangulations with the right invariants, present in the census")
    from tvgenus.fixtures import fixture
    for name in sorted(_GLUING_FIXTURES):
        tri = fixture(name)
        hom = h1(tri)
        key = (hom.free_rank, hom.torsion, tri.orientable,
               len(tri.vertex_orbits))
        ok = (key == WANTED[name] and encode_isosig(tri) in census_sigs)
        status = "ok" if ok else "MISMATCH"
        if not ok:
            failures += 1
        print(f"{status} {name}  h1={format_h1(hom)}")
    print("# canonical minimal representatives (for reference)")
    for name in sorted(WANTED):
        print(f"#   {name}: {encode_isosig(found[name])}")
        print(format_gluing_file(found[name]), end="")
    print("# isosig fixtures")
    for name, tri in [("t3", t3)] + sorted(sums.items()):
        sig = encode_isosig(tri)
        status = "ok" if _ISOSIG_FIXTURES.get(name) == sig else "MISMATCH"
        if status != "ok":
            failures += 1
        print(f"{status} {name} {sig}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
