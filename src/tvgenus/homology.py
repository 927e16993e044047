"""Integer Smith normal form and first homology of a triangulation.

H_1 is ker d1 / im d2 of the orbit CW structure.  Since im d1 is free,
Z^E / im d2 (the cokernel of d2) is H_1 + im d1, so no kernel basis is
needed: the torsion of H_1 is the invariant factors of d2 greater than 1,
and its free rank is E - rank d1 - rank d2 = E - (V - 1) - rank d2, as d1
is the boundary map of a connected complex.  All arithmetic is exact
(Python integers), since intermediate entries blow up well before
census-sized matrices become large.
"""

from __future__ import annotations

import operator
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


def smith_normal_form(mat: IntMatrix | list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix over Z:
    nonnegative, zeros last, padded to min(rows, cols).

    Row/column reduction with smallest-pivot selection (the first unit met
    is taken); the diagonal left by it is then folded pairwise into
    (gcd, lcm) until d_i | d_{i+1}.
    """
    if not isinstance(mat, IntMatrix):
        mat = IntMatrix(mat)
    m = [row[:] for row in mat.entries]
    R, C = mat.rows, mat.cols

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    pivot = 0
    while pivot < R and pivot < C:
        best = None
        for i in range(pivot, R):
            for j in range(pivot, C):
                v = abs(m[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:      # nothing undercuts a unit
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        m[pivot], m[best[1]] = m[best[1]], m[pivot]
        col_swap(pivot, best[2])
        while True:
            dirty = False
            for i in range(pivot + 1, R):
                if m[i][pivot]:
                    q = m[i][pivot] // m[pivot][pivot]
                    mi, mp = m[i], m[pivot]
                    for k in range(C):
                        mi[k] -= q * mp[k]
                    if m[i][pivot]:
                        m[pivot], m[i] = m[i], m[pivot]
                        dirty = True
            for j in range(pivot + 1, C):
                if m[pivot][j]:
                    q = m[pivot][j] // m[pivot][pivot]
                    for row in m:
                        row[j] -= q * row[pivot]
                    if m[pivot][j]:
                        col_swap(pivot, j)
                        dirty = True
            if not dirty:
                break
        pivot += 1

    size = min(R, C)
    diag = [abs(m[i][i]) for i in range(size) if m[i][i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(diag) + (0,) * (size - len(diag))


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
        parts = term.split()
        if len(parts) == 2:
            count, base = int(parts[0]), parts[1]
        elif len(parts) == 1:
            count, base = 1, parts[0]
        else:
            raise ValueError(f"bad H1 term {term!r}")
        if base == "Z":
            free += count
        elif base.startswith("Z_"):
            torsion.extend([int(base[2:])] * count)
        else:
            raise ValueError(f"bad H1 term {term!r}")
    return H1Summary(free, tuple(sorted(torsion)))


def boundary_matrices(tri: Triangulation) -> tuple[IntMatrix, IntMatrix]:
    """(d1, d2) of the orbit CW chain complex: d1 maps edges to vertices,
    d2 maps faces to edges.  Orientations come from the per-incidence signs
    recorded on the orbits; H_1 does not depend on the choices."""
    ne = len(tri.edge_orbits)
    nf = len(tri.face_orbits)
    d1 = [[0] * ne for _ in tri.vertex_orbits]
    for orbit in tri.edge_orbits:
        t, e, _ = orbit.members[0]  # the orbit's reference slot: sign +1
        u, v = EDGES[e]
        d1[tri.vertex_orbit_index[4 * t + v]][orbit.index] += 1
        d1[tri.vertex_orbit_index[4 * t + u]][orbit.index] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for fo in tri.face_orbits:
        t, f = fo.slots[0]
        for e, s in FACE_SIDES[f]:
            slot = 6 * t + e
            d2[tri.edge_orbit_index[slot]][fo.index] += s * tri.edge_orbit_sign[slot]
    return IntMatrix(d1), IntMatrix(d2)


def h1_from_matrices(d1: IntMatrix, d2: IntMatrix) -> H1Summary:
    """ker d1 / im d2 in invariant-factor form.

    d1 and d2 must be the boundary maps of a connected complex: then
    rank d1 = V - 1, and only d2 needs a Smith form.  d1 @ d2 = 0 is
    checked, one face column (at most three nonzeros in a triangulation)
    at a time."""
    for col in zip(*d2.entries):
        nonzero = [(k, v) for k, v in enumerate(col) if v]
        if any(sum(row[k] * v for k, v in nonzero) for row in d1.entries):
            raise ValueError("d1 @ d2 != 0: inconsistent boundary maps")
    snf2 = smith_normal_form(d2)
    rank2 = sum(1 for d in snf2 if d)
    torsion = tuple(d for d in snf2 if d > 1)
    return H1Summary(d1.cols - (d1.rows - 1) - rank2, torsion)


def h1(tri: Triangulation) -> H1Summary:
    """First homology of the underlying closed manifold."""
    return h1_from_matrices(*boundary_matrices(tri))
