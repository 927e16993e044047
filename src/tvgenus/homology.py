"""Integer Smith normal form and first homology of a triangulation.

H_1 is ker d1 / im d2 of the orbit CW structure.  Since im d1 is free,
Z^E / im d2 (the cokernel of d2) is H_1 + im d1, so no kernel basis is
needed: the torsion of H_1 is the invariant factors of d2 greater than 1,
and its free rank is E - rank d1 - rank d2 = E - (V - 1) - rank d2, as d1
is the boundary map of a connected complex.  h1 checks d1 d2 = 0 on every
face but reduces d2's columns only at the faces off a spanning tree of the
dual graph: a tree face is a face of the tetrahedron it leads out to, so
by d2 d3 = 0 its column is a signed sum of that tetrahedron's other faces,
each kept or further out on the tree, and im d2 stays the same.  d2 is
kept as sparse columns, one per face with at most three nonzeros, and
rank_and_torsion is the one Smith reduction, for smith_normal_form and
h1_from_matrices too: it takes a +-1 entry as the pivot while there is
one, else an entry of least absolute value (on census triangulations,
only in the few columns, at most three over four rows, that the unit
pivots leave).  All arithmetic is exact (Python integers).
"""

from __future__ import annotations

import operator
import re
from math import gcd
from typing import NamedTuple

from .complex3 import EDGES, FACE_SIDES, Triangulation


class IntMatrix:
    """Dense integer matrix with exact (arbitrary precision) entries."""

    def __init__(self, entries: list[list[int]]):
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
        try:
            self.entries = [[operator.index(x) for x in row] for row in entries]
        except TypeError:
            raise ValueError("matrix entries must be integers") from None

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


def _columns(mat: IntMatrix) -> list[dict[int, int]]:
    """The sparse columns {row: nonzero entry} of mat."""
    return [{i: row[j] for i, row in enumerate(mat.entries) if row[j]}
            for j in range(mat.cols)]


def smith_normal_form(mat: IntMatrix | list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix over Z:
    nonnegative, zeros last, padded to min(rows, cols); rank_and_torsion
    reduces the matrix's sparse columns."""
    if not isinstance(mat, IntMatrix):
        mat = IntMatrix(mat)
    rank, torsion = rank_and_torsion(_columns(mat))
    return ((1,) * (rank - len(torsion)) + torsion
            + (0,) * (min(mat.rows, mat.cols) - rank))


class H1Summary(NamedTuple("H1Summary", [("free_rank", int),
                                          ("torsion", tuple[int, ...])])):
    """H_1 in invariant-factor form: free rank plus torsion d_1 | d_2 | ..."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...]):
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError("torsion factors must form a divisibility chain")
            prev = d
        return super().__new__(cls, free_rank, torsion)

    @property
    def min_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def __str__(self):
        return format_h1(self)


def format_h1(h: H1Summary) -> str:
    """Census-report style: free part first, torsion ascending,
    e.g. '2 Z + Z_3', 'Z_2 + Z_10', '0'."""
    terms = []
    if h.free_rank == 1:
        terms.append("Z")
    elif h.free_rank > 1:
        terms.append(f"{h.free_rank} Z")
    i = 0
    tor = h.torsion
    while i < len(tor):
        j = i
        while j < len(tor) and tor[j] == tor[i]:
            j += 1
        count = j - i
        terms.append(f"Z_{tor[i]}" if count == 1 else f"{count} Z_{tor[i]}")
        i = j
    return " + ".join(terms) if terms else "0"


def parse_h1(text: str) -> H1Summary:
    """Inverse of format_h1 (tolerant of whitespace)."""
    text = text.strip()
    if text == "0":
        return H1Summary(0, ())
    free = 0
    torsion: list[int] = []
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in H1 string {text!r}")
        # a count has at most 6 digits: its factors are held one by one
        match = re.fullmatch(r"(?:(\d{1,6})\s+)?Z(?:_(\d+))?", term)
        if not match:
            raise ValueError(f"bad H1 term {term!r}")
        count = int(match[1] or 1)
        if match[2] is None:
            free += count
        else:
            torsion.extend([int(match[2])] * count)
    return H1Summary(free, tuple(sorted(torsion)))


def _chain(tri: Triangulation):
    """d1 as dense rows (vertex orbits by edge orbits) and d2 as sparse
    columns {edge orbit: nonzero entry}, one per face orbit, with the
    orientations the orbits record; H_1 does not depend on them."""
    vertex, edge, sign = (tri.vertex_orbit_index, tri.edge_orbit_index,
                          tri.edge_orbit_sign)
    d1 = [[0] * len(tri.edge_orbits) for _ in tri.vertex_orbits]
    for o, members in tri.edge_orbits:
        t, e, _ = members[0]  # the orbit's reference slot: sign +1
        u, v = EDGES[e]
        d1[vertex[4 * t + v]][o] += 1
        d1[vertex[4 * t + u]][o] -= 1
    d2 = []
    for _, ((t, f), _) in tri.face_orbits:
        col: dict[int, int] = {}
        for e, s in FACE_SIDES[f]:
            o = edge[6 * t + e]
            c = col.pop(o, 0) + s * sign[6 * t + e]
            if c:
                col[o] = c
        d2.append(col)
    return d1, d2


def boundary_matrices(tri: Triangulation) -> tuple[IntMatrix, IntMatrix]:
    """(d1, d2) of the orbit CW chain complex: d1 maps edges to vertices,
    d2 maps faces to edges."""
    d1, d2 = _chain(tri)
    return IntMatrix(d1), IntMatrix([[col.get(e, 0) for col in d2]
                                     for e in range(len(tri.edge_orbits))])


def rank_and_torsion(columns: list[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion (the invariant factors above 1) of the integer
    matrix with these sparse columns, {row: nonzero entry} each; the list
    and its columns are consumed.

    The pivot is the first unit entry in column order, else an entry of
    least absolute value.  Column operations reduce its row in the other
    columns to remainders; once that row is clear, row operations reduce
    the pivot's own column modulo the pivot, touching no other column.  A
    pivot alone in its row and column splits off as |pivot|; otherwise the
    least remainder becomes the pivot.  A unit pivot clears its row and
    column at once.  The factors split off are folded pairwise into (gcd,
    lcm) until d_i | d_{i+1}."""
    rank, factors = 0, []
    while any(columns):
        for j, col in enumerate(columns):  # the first column with a unit
            for i, p in col.items():
                if p == 1 or p == -1:
                    break
            else:
                continue
            break
        else:
            _, j, i = min((abs(p), j, i) for j, col in enumerate(columns)
                          for i, p in col.items())
            col = columns[j]
            p = col[i]
        del columns[j]
        while True:
            for other in columns:  # other -= (its row-i entry // p) col
                if i in other:
                    q = other[i] // p
                    for r, w in col.items() if q else ():
                        x = other.get(r, 0) - q * w
                        if x:
                            other[r] = x
                        else:
                            del other[r]
            if p == 1 or p == -1:
                break
            row = [(abs(other[i]), k) for k, other in enumerate(columns)
                   if i in other]
            if row:  # the least remainder in row i is the next pivot
                k = min(row)[1]
                columns[k], col = col, columns[k]
            else:  # rows r -= (col[r] // p) row i, row i being clear
                rest = {r: w % p for r, w in col.items() if w % p}
                if not rest:
                    break
                rest[i], col = p, rest
                i = min(rest, key=lambda r: abs(rest[r]))
            p = col[i]
        rank += 1
        if p != 1 and p != -1:
            factors.append(abs(p))
        columns = [other for other in columns if other]
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] // g * factors[b]
    return rank, tuple(d for d in factors if d > 1)


def _h1(d1: list[list[int]], edges: int, d2: list[dict[int, int]],
        spanning: list[dict[int, int]]) -> H1Summary:
    """ker d1 / im d2 from d1's rows and d2's sparse columns, reducing only
    the columns spanning, which span im d2 (rank d1 = V - 1).  d1 @ d2 = 0
    is checked on every column of d2 and the nonzero rows of d1."""
    if any(sum(map(operator.mul, map(row.__getitem__, col), col.values()))
           for row in filter(any, d1) for col in d2):
        raise ValueError("d1 @ d2 != 0: inconsistent boundary maps")
    rank2, torsion = rank_and_torsion(spanning)
    return H1Summary(edges - (len(d1) - 1) - rank2, torsion)


def h1_from_matrices(d1: IntMatrix, d2: IntMatrix) -> H1Summary:
    """ker d1 / im d2 in invariant-factor form; d1 and d2 must be the
    boundary maps of a connected complex, so that rank d1 = V - 1."""
    if d2.rows != d1.cols:
        raise ValueError(f"d1 @ d2 undefined: d1 has {d1.cols} columns, "
                         f"d2 has {d2.rows} rows")
    cols = _columns(d2)
    return _h1(d1.entries, d1.cols, cols, cols)


def h1(tri: Triangulation) -> H1Summary:
    """First homology of the underlying closed manifold."""
    d1, d2 = _chain(tri)
    root, kept = list(range(tri.size)), []  # tetrahedra joined by the faces
    for face, col in zip(tri.face_orbits, d2):  # so far, and off-tree columns
        (a, _), (b, _) = face.slots
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a == b:
            kept.append(col)
        root[max(a, b)] = min(a, b)
    return _h1(d1, len(tri.edge_orbits), d2, kept)
