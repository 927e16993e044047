"""Triangulations as gluing text, and the Pachner moves that rewrite them.

The gluing file is the plain-text form of the gluing rows that
complex3.Triangulation takes: parse_gluing_file reads it, reporting a fault
with its line, and format_gluing_file writes it.  pachner_23 replaces the
two tetrahedra on a face by three around a new edge and builds the moved
triangulation from its rows.  None of this runs when a triangulation comes
from a signature or a fixture built in code, so `tvgenus compute --isosig`
never loads this module.
"""

from __future__ import annotations

from .complex3 import (FACE_VERTS, IDENTITY_PERM, Perm, Triangulation,
                       TriangulationError, perm_compose, perm_inverse)


class GluingParseError(TriangulationError):
    """Syntax or consistency error in a gluing file, with 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


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
