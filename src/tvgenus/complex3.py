"""Closed 3-manifold triangulations presented by face gluings.

A triangulation is a list of tetrahedra; face k of a tetrahedron is the one
opposite vertex k, and a gluing of face k of tetrahedron t is a pair
(t', p) with p a permutation of {0,1,2,3} carrying the vertices of t into
the vertices of t' (so the target face is p[k]).  Construction validates
that the complex is a connected closed 3-manifold: gluings involutive and
free of face self-identifications, no edge identified with itself in
reverse, every vertex link a 2-sphere.  Non-orientable inputs are accepted
(the state sum is defined for them); orientability is recorded on the
triangulation.

Construction reads the gluings as face slots 4t + f holding (target,
permutation index).  Rows from users take one checking path that
normalizes each gluing; decode_isosig hands over the slots it already has,
as FaceSlots.  One pass over the slots checks each on its own, from one
table entry per (permutation, face), and at the lower slot of each glued
pair makes the pair a face orbit and joins its three vertex pairs in a
union-find whose roots are the lowest slots.  The tetrahedra are then
oriented outward from tetrahedron 0: a contradiction makes the complex
non-orientable, and one never reached makes it disconnected.  Each edge
slot lies in exactly two faces, so every edge orbit is one circle around
its edge (the edge link), walked from its lowest slot with each slot's
direction relative to it; a walk that comes back reversed is an edge
identified with itself in reverse.  Vertex, edge and face orbits are
numbered in order of their lowest slot; an edge orbit lists its slots in
ascending order, and its two ends are vertices of the vertex links.

The 6 edges of a tetrahedron are indexed by vertex pairs in lexicographic
order: 01, 02, 03, 12, 13, 23 (EDGES).  Opposite edge pairs are (01,23),
(02,13), (03,12); the state sum relies on this convention, as does the
codec in isosig.  The sides of face f with vertices a < b < c are ab, ac,
bc, with signs +1, -1, +1 in its boundary (FACE_SIDES); the validation
here, the state sum's face triples and d2 of homology all read them there.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

# edge index <-> vertex pair tables
EDGES: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX: dict[tuple[int, int], int] = {}
for _i, (_u, _v) in enumerate(EDGES):
    EDGE_INDEX[(_u, _v)] = _i
    EDGE_INDEX[(_v, _u)] = _i
FACE_VERTS: tuple[tuple[int, int, int], ...] = tuple(
    tuple(v for v in range(4) if v != f) for f in range(4))
# the sides ab, ac, bc of face f with vertices a < b < c: (edge index, sign
# in the boundary b c - a c + a b of the face a b c)
FACE_SIDES: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    ((EDGE_INDEX[a, b], 1), (EDGE_INDEX[a, c], -1), (EDGE_INDEX[b, c], 1))
    for a, b, c in FACE_VERTS)

Perm = tuple[int, int, int, int]
IDENTITY_PERM: Perm = (0, 1, 2, 3)


def perm_inverse(p: Perm) -> Perm:
    q = [0] * 4
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)[i] = p[q[i]]."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


# the 24 vertex permutations in lexicographic order, as the isosig codec
# indexes them, the index of each, and the index of each one's inverse
PERMS: tuple[Perm, ...] = tuple(itertools.permutations(range(4)))
PERM_INDEX: dict[Perm, int] = {p: i for i, p in enumerate(PERMS)}
PERM_INVERSE: tuple[int, ...] = tuple(PERM_INDEX[perm_inverse(p)] for p in PERMS)


def _glue_table():
    """Per (permutation index i, face f), at 4i + f: the target face, the
    inverse's index, the relative orientation (+1 iff p is odd), the vertex
    pairs (v - f, p[v] - p[f]) as offsets from the two face slots, and per
    edge e of the face the next step of a walk around e leaving through f:
    (image edge, its other face, -1 if the gluing reverses it else 1)."""
    table = []
    for i, p in enumerate(PERMS):
        odd = 1 if sum(p[u] > p[v] for u, v in EDGES) % 2 else -1
        for f, face in enumerate(FACE_VERTS):
            walk = [(EDGE_INDEX[p[u], p[v]], 6 - p[u] - p[v] - p[f],
                     1 if p[u] < p[v] else -1) if f not in (u, v) else None
                    for u, v in EDGES]
            table.append((p[f], PERM_INVERSE[i], odd,
                          tuple((v - f, p[v] - p[f]) for v in face), walk))
    return tuple(table)


_GLUE = _glue_table()


class TriangulationError(ValueError):
    """Invalid gluing data: not a connected closed 3-manifold.

    When the defect is attributable to one tetrahedron, its index is carried
    in .tet so error reporters (the gluing parser) can point at a source
    location."""

    def __init__(self, message: str, tet: int | None = None):
        self.tet = tet
        super().__init__(message)


class GluingParseError(TriangulationError):
    """Syntax or consistency error in a gluing file, with 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class EdgeOrbit(NamedTuple):
    """One edge class: members are (tet, edge index, sign) with sign the
    orientation of that slot relative to the representative members[0], the
    lowest slot 6*tet + edge of the class; members are in ascending slot
    order."""

    index: int
    members: tuple[tuple[int, int, int], ...]


class FaceOrbit(NamedTuple):
    """One face class: exactly two slots (tet, face) of a closed complex."""

    index: int
    slots: tuple[tuple[int, int], tuple[int, int]]


class FaceSlots(list):
    """Checked (target, permutation index) at each face slot 4t + f."""


class Triangulation:
    """Immutable validated triangulation of a connected closed 3-manifold."""

    def __init__(self, tetrahedra: list[list[tuple[int, Perm]]] | FaceSlots,
                 name: str | None = None):
        self.name = name
        glued = tetrahedra  # glued[4t + f]: (target, permutation index)
        if type(tetrahedra) is not FaceSlots:  # rows: check and normalize
            glued = []
            for row in tetrahedra:
                if len(row) != 4:
                    raise TriangulationError("tetrahedron needs exactly 4 gluings")
                for g in row:
                    if g is None:
                        raise TriangulationError("missing gluing: complex is not closed")
                    try:
                        t, p = operator.index(g[0]), tuple(map(operator.index, g[1]))
                    except TypeError:
                        raise TriangulationError(
                            f"gluing {g!r} is not an integer target and "
                            "permutation") from None
                    i = PERM_INDEX.get(p)
                    if i is None:
                        raise TriangulationError(f"not a vertex permutation: {p}")
                    glued.append((t, i))
        self._glued = glued
        n = self.size
        if not n:
            raise TriangulationError("empty triangulation")

        vparent = list(range(4 * n))  # parents lower than their children
        self.face_orbits = []
        for x, (t2, i) in enumerate(glued):
            t, f = divmod(x, 4)
            if not 0 <= t2 < n:
                raise TriangulationError(
                    f"face {f} of tetrahedron {t} glued to missing "
                    f"tetrahedron {t2} (dangling gluing)", tet=t)
            f2, inverse, _, verts, _ = _GLUE[4 * i + f]
            y = 4 * t2 + f2
            if y == x:
                raise TriangulationError(
                    f"invalid self-gluing: face {f} of tetrahedron {t} "
                    "glued to itself", tet=t)
            if glued[y] != (t, inverse):
                raise TriangulationError(
                    f"gluing of face {f} of tetrahedron {t} is not "
                    "involutive", tet=t)
            if y < x:
                continue  # the pair was joined at its lower slot
            self.face_orbits.append(
                FaceOrbit(len(self.face_orbits), ((t, f), (t2, f2))))
            for v, w in verts:
                a, b = x + v, y + w
                while vparent[a] != a:
                    a = vparent[a]
                while vparent[b] != b:
                    b = vparent[b]
                if a < b:
                    vparent[b] = a
                elif b < a:
                    vparent[a] = b
        # orient the tetrahedra outward from tetrahedron 0
        orient, todo, self.orientable = [1] + [0] * (n - 1), [0], True
        while todo:
            t = todo.pop()
            for t2, i in glued[4 * t:4 * t + 4]:
                o = orient[t] * _GLUE[4 * i][2]
                if not orient[t2]:
                    orient[t2] = o
                    todo.append(t2)
                elif orient[t2] != o:
                    self.orientable = False
        if not all(orient):
            raise TriangulationError("triangulation is not connected")

        # number in slot order, overwriting parents (numbered first) with numbers
        self.vertex_orbits = []
        for x, p in enumerate(vparent):
            if p == x:
                vparent[x] = len(self.vertex_orbits)
                self.vertex_orbits.append([])
            else:
                vparent[x] = vparent[p]
            self.vertex_orbits[vparent[x]].append(divmod(x, 4))
        self.vertex_orbit_index = vparent

        # walk each edge orbit's circle from its lowest slot; its ends are link vertices
        index = self.edge_orbit_index = [-1] * (6 * n)
        sign = self.edge_orbit_sign = [1] * (6 * n)
        self.edge_orbits = []
        link_vertices = [0] * len(self.vertex_orbits)
        for x in range(6 * n):
            if index[x] >= 0:
                continue
            o, (t, e), s, y = len(self.edge_orbits), divmod(x, 6), 1, x
            for v in EDGES[e]:
                link_vertices[self.vertex_orbit_index[4 * t + v]] += 1
            members, f = [], 0 if e > 2 else 1 if e else 2  # e's lowest face
            while not members or y != x:
                index[y], sign[y] = o, s
                members.append((t, e, s))
                t, i = glued[4 * t + f]
                e, f, rel = _GLUE[4 * i + f][4][e]
                s *= rel
                y = 6 * t + e
            if s < 0:
                raise TriangulationError(
                    "edge identified with itself in reverse (non-manifold)")
            self.edge_orbits.append(EdgeOrbit(o, tuple(sorted(members))))

        # each vertex link is connected (it is one orbit) and must have
        # chi = 2.  The links hold 2E vertices, 6T edges and 4T triangles,
        # so chi = 2 for each gives 2V = 2E - 2T: the complex has Euler
        # characteristic 0
        for o, corners in enumerate(map(len, self.vertex_orbits)):
            chi = link_vertices[o] - (3 * corners) // 2 + corners
            if chi != 2:
                raise TriangulationError(
                    f"link of vertex orbit {o} is not a sphere (chi={chi}); "
                    "not a closed 3-manifold")

    # -- basic accessors ----------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._glued) // 4

    def gluing(self, t: int, f: int) -> tuple[int, Perm]:
        """(target tetrahedron, vertex permutation) of face f of t."""
        t2, i = self._glued[4 * t + f]
        return t2, PERMS[i]

    @property
    def euler_characteristic(self) -> int:
        return (len(self.vertex_orbits) - len(self.edge_orbits)
                + len(self.face_orbits) - self.size)

    def counts(self) -> tuple[int, int, int, int]:
        """(vertices, edges, faces, tetrahedra) of the orbit CW structure."""
        return (len(self.vertex_orbits), len(self.edge_orbits),
                len(self.face_orbits), self.size)

    # -- derived views used by statesum and homology ------------------------
    def face_edge_orbits(self) -> list[tuple[int, int, int]]:
        """For each face orbit, the edge orbits of its three sides at the
        representative slot, in the order of FACE_SIDES."""
        index, out = self.edge_orbit_index, []
        for fo in self.face_orbits:
            t, f = fo.slots[0]
            (x, _), (y, _), (z, _) = FACE_SIDES[f]
            out.append((index[6 * t + x], index[6 * t + y], index[6 * t + z]))
        return out

    def tet_edge_orbits(self) -> list[tuple[int, ...]]:
        """For each tetrahedron, the edge orbits of its 6 edges in the fixed
        order 01, 02, 03, 12, 13, 23."""
        return [tuple(self.edge_orbit_index[6 * t + e] for e in range(6))
                for t in range(self.size)]

    # -- transformations ------------------------------------------------------
    def relabeled(self, tet_perm: list[int], vertex_perms: list[Perm]) -> "Triangulation":
        """The combinatorially isomorphic triangulation with tetrahedron t
        renamed tet_perm[t] and its vertices renamed by vertex_perms[t]."""
        n = self.size
        rows: list[list] = [[None] * 4 for _ in range(n)]
        for t in range(n):
            vp = vertex_perms[t]
            for f in range(4):
                t2, p = self.gluing(t, f)
                q = perm_compose(vertex_perms[t2], perm_compose(p, perm_inverse(vp)))
                rows[tet_perm[t]][vp[f]] = (tet_perm[t2], q)
        return Triangulation(rows, name=self.name)

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        v, e, f, t = self.counts()
        return f"<Triangulation{nm}: {t} tet, V={v} E={e} F={f}>"


# --------------------------------------------------------------------------
# gluing file format
# --------------------------------------------------------------------------

def parse_gluing_file(text: str, name: str | None = None) -> Triangulation:
    """Parse the plain-text gluing format.

    Format: comments start with '#'; the first data line is ``tets <N>``;
    then one line per tetrahedron, ``i: j0 p0 j1 p1 j2 p2 j3 p3`` where face
    k of tetrahedron i is glued to tetrahedron jk by the permutation pk,
    written as 4 digits giving the images of vertices 0123.
    """
    n = None
    rows: list[list[tuple[int, Perm]] | None] = []
    seen: set[int] = set()
    line_of_tet: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "tets":
                raise GluingParseError("expected header 'tets <N>'", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GluingParseError(f"bad tetrahedron count {parts[1]!r}", lineno)
            if n <= 0:
                raise GluingParseError("tetrahedron count must be positive", lineno)
            rows = [None] * n
            continue
        head, _, rest = line.partition(":")
        if not _:
            raise GluingParseError("expected 'i: ...' gluing line", lineno)
        try:
            idx = int(head.strip())
        except ValueError:
            raise GluingParseError(f"bad tetrahedron index {head.strip()!r}", lineno)
        if not 0 <= idx < n:
            raise GluingParseError(f"tetrahedron index {idx} out of range", lineno)
        if idx in seen:
            raise GluingParseError(f"duplicate tetrahedron {idx}", lineno)
        seen.add(idx)
        line_of_tet[idx] = lineno
        parts = rest.split()
        if len(parts) != 8:
            raise GluingParseError(
                f"expected 8 fields (4 target/permutation pairs), got {len(parts)}",
                lineno)
        row = []
        for k in range(4):
            try:
                tgt = int(parts[2 * k])
            except ValueError:
                raise GluingParseError(f"bad target {parts[2 * k]!r}", lineno)
            ps = parts[2 * k + 1]
            if len(ps) != 4 or not ps.isdigit() or sorted(ps) != ["0", "1", "2", "3"]:
                raise GluingParseError(f"bad permutation {ps!r}", lineno)
            row.append((tgt, tuple(int(c) for c in ps)))
        rows[idx] = row
    if n is None:
        raise GluingParseError("empty gluing file")
    missing = [i for i in range(n) if rows[i] is None]
    if missing:
        raise GluingParseError(f"missing gluing lines for tetrahedra {missing}")
    try:
        return Triangulation(rows, name=name)
    except TriangulationError as exc:
        raise GluingParseError(str(exc), line_of_tet.get(exc.tet)) from exc


def format_gluing_file(tri: Triangulation, header_comment: str | None = None) -> str:
    """Serialize to the gluing format parsed by parse_gluing_file."""
    lines = [f"# {ln}".rstrip() for ln in (header_comment or "").splitlines()]
    lines.append(f"tets {tri.size}")
    for t in range(tri.size):
        gluings = (tri.gluing(t, f) for f in range(4))
        lines.append(f"{t}: " + " ".join(f"{t2} {''.join(map(str, p))}"
                                         for t2, p in gluings))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Pachner 2-3 move
# --------------------------------------------------------------------------

class PachnerError(ValueError):
    """The requested bistellar move is not available at this face."""


def pachner_23(tri: Triangulation, face_orbit: int) -> Triangulation:
    """Replace the two tetrahedra sharing a face by three around a new edge.

    The face orbit must join two distinct tetrahedra.  The result is a valid
    triangulation of the same manifold with one more tetrahedron and one
    more edge; the Turaev-Viro invariant is unchanged (this is the move
    invariance that makes the state sum a manifold invariant).
    """
    fo = tri.face_orbits[face_orbit]
    (ta, fa), (tb, fb) = fo.slots
    if ta == tb:
        raise PachnerError(
            f"face orbit {face_orbit} is shared by a single tetrahedron")
    p = tri.gluing(ta, fa)[1]  # ta -> tb, p[fa] = fb
    bases = FACE_VERTS[fa]
    survivors = [t for t in range(tri.size) if t not in (ta, tb)]
    base_idx = len(survivors)

    # where[(t, f)] = (new tet, new face, chart from the new tet's vertices
    # to t's) for every old face slot but the shared pair.  New tetrahedron
    # N_i has vertices 0 = apex of ta (vertex fa), 1 = apex of tb (vertex
    # fb), and 2, 3 = the base vertices other than bases[i], in base order;
    # its face 1 is ta's face bases[i] and its face 0 is tb's face
    # p[bases[i]].  Survivors keep their vertices.
    where = {(t, f): (i, f, IDENTITY_PERM)
             for i, t in enumerate(survivors) for f in range(4)}
    labels = []  # per N_i: apex a, apex b, and the base indices it keeps
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        labels.append(("a", "b", j, k))
        where[(ta, bases[i])] = (base_idx + i, 1,
                                 (fa, bases[i], bases[j], bases[k]))
        where[(tb, p[bases[i]])] = (base_idx + i, 0,
                                    (p[bases[i]], fb, p[bases[j]], p[bases[k]]))

    rows: list[list] = [[None] * 4 for _ in range(base_idx + 3)]
    for (t, f), (nt, nf, chart) in where.items():
        t2, q = tri.gluing(t, f)
        nt2, _, chart2 = where[(t2, q[f])]
        rows[nt][nf] = (nt2, perm_compose(perm_inverse(chart2),
                                          perm_compose(q, chart)))

    # the faces around the new edge: face l of N_i (opposite base index m)
    # is N_m's face opposite base index i; the apexes and the base vertex
    # both keep match by label, and N_i's vertex l goes to N_m's base i
    for i in range(3):
        for l in (2, 3):
            m = labels[i][l]
            rows[base_idx + i][l] = (base_idx + m, tuple(
                labels[m].index(i if x == l else labels[i][x])
                for x in range(4)))

    return Triangulation(rows, name=tri.name)
