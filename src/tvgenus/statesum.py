"""The Turaev-Viro state sum over admissible edge colorings.

For a closed triangulation the invariant is

    TV_r = D^(-V) * sum over colorings of  prod_edges delta_c(e)
           * prod_faces theta(face triple)^(-1) * prod_tets Tet(six colors)

with D the global dimension, V the number of vertex orbits (the number of
balls in the dual-spine picture), and the symbols in the Kauffman-Lins
convention of the recoupling module.  Each face of a closed complex lies in
exactly two tetrahedra, which is what makes this square-root-free grouping
equal to the unitarized-6j formulation.

Both engines walk one static plan over edge orbits: a most-constrained-first
order (descending face-incidence degree, ties by index), each step listing
the face triples and Tet arguments that its edge completes.  Colors come
from a color set, every color or the even ones.  A step whose first face has
its two other edges colored takes only the third colors that face admits
(the carrier's table third; two even colors admit only even ones, by
parity); other steps take the color set.  A prefix is pruned as soon as a
completed face triple is inadmissible.

The float carrier sums by depth-first search (the backtracker), colors
ascending, accumulating the weight along the path one factor at a time:
inner steps are searched inline, and the last step's factors come from a
table of _step_entries, which tvgenus.kernel reads as its docstring
describes.  Each leaf's weight goes into the partial sum of its first
edge's color, and those are added in ascending color order.  That order
fixes every bit of the float values, and with them the sign of the
rounding noise of a TV that is exactly 0, which visible outputs read; so
float keeps the backtracker until those bits are pinned anew.

The backtracker lives in tvgenus.kernel, which float searches load: a long
search runs compiled there, in a kernel that tvgenus.kernel generates for
the plan and that makes the same float operations in the same order.
tvgenus.kernel describes when a search compiles, why its bits are the same
and why its limits are what they are.  No float is summed with sum(),
which compensates rounding from Python 3.12 on, so the bits are the same
under 3.10 to 3.13.

The exact carrier, where order cannot change a value, sums over the
frontier (_frontier_sum), at one multiplication per state and admissible
color.  Every state is the image of an admissible prefix, so the frontier
holds no more states than the backtracker visits, and the guard bounds
both.  Both engines build a step's table with _step_entries and report the
same counters: states_admissible counts the complete admissible colorings,
and states_visited every color of the set at each entered step (position
0, and the next position after each admissible proper prefix), as a search
that tries them all would.

In exact mode at odd r >= 5 the invariant factors as TV_r = TV_3 * TV'_r
(Detcherry-Kalfagianni-Yang, arXiv:1701.07818, Thm 2.9), where TV'_r is
the sum over even colorings normalized by D'^(-V), D' the sum of delta_c^2
over the even colors (D = 2 D').  TV_3 is searched first; it is real in
Q(zeta_6), hence rational.  If it is 0 the result is the zero of level r;
otherwise the even-color search runs and the result is their product.
states_visited and states_admissible then add up both searches, and the
guard estimates 2^E + ((r-1)/2)^E colorings.  Float mode, even r and r = 3
run the full search; in 'both' mode the full float sum is checked against
the split exact value.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from typing import NamedTuple

import tvgenus  # tvgenus.CycNumber loads cyclotomic on first use
from .complex3 import Triangulation
from .recoupling import TET_ARG_EDGES, tables


class SearchVolumeError(RuntimeError):
    """Estimated search volume exceeds the configured cap."""

    def __init__(self, estimate: float, cap: float):
        self.estimate = estimate
        self.cap = cap
        super().__init__(
            f"estimated search volume {estimate:.3g} exceeds cap {cap:.3g}; "
            "raise max_states or pass force=True")


class SearchLimits(NamedTuple):
    max_states: float = 1e9
    force: bool = False


class TvResult(NamedTuple):
    """Outcome of one invariant computation.  states_visited and
    states_admissible add up every search the mode ran: in 'both' mode the
    float search and the exact one (or two, where exact mode splits off
    TV_3)."""

    r: int
    mode: str
    value_float: float | None = None
    value_exact: tvgenus.CycNumber | None = None
    states_visited: int = 0
    states_admissible: int = 0
    elapsed_seconds: float = 0.0
    warnings: tuple[str, ...] = ()


def _make_plan(tri: Triangulation) -> list[tuple[list, list, tuple | None]]:
    """Static search schedule: one (faces, tets, pair) step per position of
    the assignment order.  faces and tets list the face triples and the Tet
    arguments that the edge at that position completes; pair holds the two
    other positions of the first face when both come earlier, so that the
    step's colors are those the first face admits, and is None otherwise
    (no face, or a first face that repeats the step's edge).  All name
    edges by position."""
    ne = len(tri.edge_orbits)
    face_triples = tri.face_edge_orbits()
    # an orbit's face-incidence degree is its slot count (a slot lies in two
    # faces, a face orbit in two slots); descending, ties by index
    degree = [len(orbit.members) for orbit in tri.edge_orbits]
    order = sorted(range(ne), key=degree.__getitem__, reverse=True)
    position = sorted(range(ne), key=order.__getitem__)  # order's inverse
    faces, tets = [[] for _ in range(ne)], [[] for _ in range(ne)]
    for x, y, z in face_triples:
        pos = (position[x], position[y], position[z])
        faces[max(pos)].append(pos)
    # a tetrahedron completes when the last of its 6 edge orbits is colored;
    # store the positions in the argument order A..F of the tables' tet
    slot_pos = [position[o] for o in tri.edge_orbit_index]
    for pos in zip(*(slot_pos[e::6] for e in TET_ARG_EDGES)):
        tets[max(pos)].append(pos)
    plan = []
    for k in range(ne):
        others = [p for p in faces[k][0] if p != k] if faces[k] else []
        pair = tuple(others) if len(others) == 2 else None
        plan.append((faces[k], tets[k], pair))
    return plan


def _splits(r: int, carrier: str) -> bool:
    """Whether the carrier's TV_r is computed as TV_3 * TV'_r."""
    return carrier == "exact" and r % 2 == 1 and r > 3


def estimated_states(tri: Triangulation, r: int, mode: str = "float") -> float:
    """The colorings the searches of the mode may walk: (r-1)^E, or
    2^E + ((r-1)/2)^E where exact mode splits off TV_3; inf once that
    passes the float range."""
    ne = len(tri.edge_orbits)
    try:
        if _splits(r, mode):
            return 2.0 ** ne + float((r - 1) // 2) ** ne
        return float(r - 1) ** ne
    except OverflowError:
        return math.inf


def tv_invariant(tri: Triangulation, r: int, mode: str = "float",
                 limits: SearchLimits | None = None) -> TvResult:
    """Compute TV_r of a closed triangulation.

    mode is 'float', 'exact' or 'both'.  In 'both' mode the two carriers are
    run independently and their agreement within 1e-9 is asserted.  The
    float value is always filled in (from the exact value when mode='exact').
    """
    if mode not in ("float", "exact", "both"):
        raise ValueError("mode must be 'float', 'exact' or 'both'")
    limits = limits or SearchLimits()
    estimate = estimated_states(tri, r, mode)
    if estimate > limits.max_states and not limits.force:
        raise SearchVolumeError(estimate, limits.max_states)

    warnings = ()
    if not tri.orientable:
        warnings = ("non-orientable input",)

    start = time.perf_counter()
    value = value_e = None
    visited = leaves = 0
    if mode in ("float", "both"):
        value, visited, leaves = _run(tri, r, "float")
    if mode in ("exact", "both"):
        value_e, visited_e, leaves_e = (_run_split(tri, r)
                                        if _splits(r, "exact")
                                        else _run(tri, r, "exact"))
        visited += visited_e
        leaves += leaves_e
        if not value_e.is_real():
            raise AssertionError("state sum produced a non-real exact value")
        if mode == "exact":
            value = value_e.to_float()
        elif abs(value_e.to_float() - value) > 1e-9:
            raise AssertionError(
                "exact and float state sums disagree beyond 1e-9")
    return TvResult(r, mode, value, value_e, visited, leaves,
                    time.perf_counter() - start, warnings)


def _run_split(tri: Triangulation, r: int):
    """Exact TV_r at odd r >= 5 as TV_3 * TV'_r, and the counts of both
    searches.  TV_3 is real in Q(zeta_6), hence rational; when it is 0 the
    even-color search is skipped and the result is the zero of level r."""
    tv3, visited, leaves = _run(tri, 3, "exact")
    if tv3.is_zero():
        return tv3.zero(r), visited, leaves
    tv_even, visited_e, leaves_e = _run(tri, r, "exact", even=True)
    # TV_3 = num[0] / den, its other coefficients being 0
    return (tv_even * tv3.num[0] / tv3.den, visited + visited_e,
            leaves + leaves_e)


def _run(tri: Triangulation, r: int, carrier: str, even: bool = False):
    """The state sum divided by D^V, and the (visited, admissible) counts
    (a zero float sum gives +0.0).  With even, only the even colors are
    walked and the sum is divided by D'^V."""
    lv = tables(r, carrier)
    plan = _make_plan(tri)
    # the color set; a paired step whose pair is even admits only even
    # colors, by parity, so third needs no filter
    every = range(0, len(lv.delta), 2 if even else 1)
    if carrier == "exact":
        search = _frontier_sum
    else:  # float keeps the backtracker, whose order fixes every float bit
        from .kernel import _backtrack_sum as search
    total, entered, leaves = search(lv, plan, every)
    # every color of the set per entered position, position 0 included
    visited = len(every) * (entered + 1)
    dim = lv.dim_even if even else lv.dim
    return total / dim ** len(tri.vertex_orbits), visited, leaves


def _reads(plan, k):
    """The positions step k reads besides its own, ascending."""
    faces, tets, _ = plan[k]
    return sorted({*itertools.chain(*faces, *tets)} - {k})


def _frontier_sum(lv, plan, every):
    """The same sum and counts as _backtrack_sum, step by step over the
    plan.  After step k one state stands for each coloring of the frontier
    (the positions up to k that a later step reads): the sum of the weights
    of the admissible prefixes that agree with it there, and their number.
    Each state reads its step's table (per coloring of the positions the
    step reads, the product of each admissible color's factors), at one
    multiplication per admissible color."""
    last = len(plan) - 1
    last_read = list(range(len(plan)))  # the last step reading a position
    for k, (faces, tets, _) in enumerate(plan):
        for p in itertools.chain(*faces, *tets):
            last_read[p] = k  # steps run in order and read no later position
    live: list[int] = []  # the frontier; a state's key holds their colors
    states = {(): [lv.one, 1]}
    entered = 0
    for k, (faces, tets, pair) in enumerate(plan):
        # a state's key plus the color of position k, indexed by position
        at = {p: i for i, p in enumerate(live + [k])}
        faces = [tuple(at[p] for p in face) for face in faces]
        tets = [tuple(at[p] for p in tet) for tet in tets]
        reads = _picker([at[p] for p in _reads(plan, k)])
        step = (faces, tets, pair and tuple(at[p] for p in pair))
        live = [p for p in live + [k] if last_read[p] > k]
        project = _picker([at[p] for p in live])
        table: dict = {}
        following: dict = {}
        admitted = 0
        for key, (part, count) in states.items():
            read = reads(key)
            entries = table.get(read)
            if entries is None:
                entries = table[read] = [
                    (c, functools.reduce(operator.mul, fs))
                    for c, fs in _step_entries(lv, every, step,
                                               list(key) + [0], at[k])]
            admitted += count * len(entries)
            for c, f in entries:
                w = part * f
                nxt = project(key + (c,))
                slot = following.get(nxt)
                if slot is None:
                    following[nxt] = [w, count]
                else:
                    slot[0] += w
                    slot[1] += count
        states = following
        if k < last:
            entered += admitted
    # nothing is read after the last step, so one state at most remains
    total, leaves = states.get((), (lv.zero, 0))
    return total, entered, leaves


def _step_entries(lv, every, step, cols, k):
    """A step's admissible colors c in search order, each with its factors
    [delta_c, 1/theta of each face, Tet of each tet] in plan order.  step
    is (faces, tets, pair), indices into cols, the colors before the step;
    cols[k], the step's own, is overwritten."""
    faces, tets, pair = step
    delta, theta_inv, memo, fill = lv.delta, lv.theta_inv, lv.tet_memo.get, lv.tet
    entries = []
    for col in every if pair is None else lv.third[cols[pair[0]]][cols[pair[1]]]:
        cols[k] = col
        fs = [delta[col]]
        for x, y, z in faces:
            inv = theta_inv[cols[x]][cols[y]][cols[z]]
            if inv is None:
                break  # prune: the face triple is inadmissible
            fs.append(inv)
        else:
            for a, b, c, d, e, f in tets:
                key = cols[a], cols[b], cols[c], cols[d], cols[e], cols[f]
                val = memo(key)
                fs.append(fill(*key) if val is None else val)
            entries.append((col, fs))
    return entries


def _picker(indices):
    """The function from a sequence to the tuple of its entries at indices."""
    if len(indices) == 1:
        i = indices[0]
        return lambda t: (t[i],)
    return operator.itemgetter(*indices) if indices else lambda t: ()
