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

One helper, _step_entries, builds a step's table for both engines: per
coloring of the positions the step reads, its own excepted, the admissible
colors in search order, each with delta_c, 1/theta per face, Tet per tet.
The compiled kernel below generates the same fill in its own code.

The float carrier sums by depth-first search (the backtracker), colors
ascending, accumulating the weight along the path: inner steps are searched
inline, one pass over a step's faces checking each and multiplying its
1/theta in; the last step's table is read once per admissible prefix, each
leaf multiplying the factors in one by one, as a search would.  Each leaf's
weight goes into the partial sum of its first edge's color, and those are
added in ascending color order.  That order fixes every bit of the float
values, and with them the sign of the rounding noise of a TV that is exactly
0, which visible outputs read; so float keeps the backtracker until those
bits are pinned anew.

A long search runs compiled: if position 0's first color, searched in the
loop above, entered more than _KERNEL_MIN_ENTERED (300) prefixes, its
other colors are searched in a kernel, Python source that tvgenus.kernel
generates for the plan and that makes the same float operations in the
same order; a plan of more than _KERNEL_MAX_POSITIONS (20) positions runs
interpreted.  tvgenus.kernel describes the kernel, why its bits are the
same and why the limits are 300 and 20.  No float is summed with sum(),
which compensates rounding from Python 3.12 on, so the bits are the same
under 3.10 to 3.13.

The exact carrier, where order cannot change a value,
sums over the frontier: after each step, one state per coloring of the
positions a later step still reads, holding the summed weight of the
admissible prefixes that agree there and their number.  Each state reads
its step's table, whose factors are multiplied out once per entry, so it
costs one multiplication per admissible color; the backtracker multiplies
every factor into every admissible prefix.
Every state is the image of an admissible prefix, so the frontier holds no
more states than the backtracker visits, and the guard bounds both.  The
engines report the same counters: states_admissible counts the complete
admissible colorings, and states_visited every color of the set at each
entered step (position 0, and the next position after each admissible
proper prefix), as a search that tries them all would.

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

from .complex3 import Triangulation
from .cyclotomic import CycNumber
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
    value_exact: CycNumber | None = None
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
    degree = [0] * ne
    for tri_edges in face_triples:
        for e in tri_edges:
            degree[e] += 1
    order = sorted(range(ne), key=lambda e: (-degree[e], e))
    position = [0] * ne
    for k, e in enumerate(order):
        position[e] = k
    faces: list[list] = [[] for _ in range(ne)]
    tets: list[list] = [[] for _ in range(ne)]
    for (x, y, z) in face_triples:
        pos = (position[x], position[y], position[z])
        faces[max(pos)].append(pos)
    # a tetrahedron completes when the last of its 6 edge orbits is colored;
    # store the positions in the argument order A..F of the tables' tet
    for tet_edges in tri.tet_edge_orbits():
        arg_pos = tuple(position[tet_edges[e]] for e in TET_ARG_EDGES)
        tets[max(arg_pos)].append(arg_pos)
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
        return CycNumber.zero(r), visited, leaves
    tv_even, visited_e, leaves_e = _run(tri, r, "exact", even=True)
    return tv_even * tv3.to_rational(), visited + visited_e, leaves + leaves_e


def _run(tri: Triangulation, r: int, carrier: str, even: bool = False):
    """The state sum divided by D^V, and the (visited, admissible) counts
    (a zero float sum gives +0.0).  With even, only the even colors are
    walked and the sum is divided by D'^V."""
    lv = tables(r, carrier)
    plan = _make_plan(tri)
    # the color set; a paired step whose pair is even admits only even
    # colors, by parity, so third needs no filter
    every = range(0, len(lv.delta), 2 if even else 1)
    # Exact sums run over the frontier, one multiplication per state.  The
    # float carrier keeps the backtracker: its summation order fixes every
    # float bit, and with them the pinned float values and the sign of the
    # rounding noise of a TV that is exactly 0, which visible outputs read.
    search = _frontier_sum if carrier == "exact" else _backtrack_sum
    total, entered, leaves = search(lv, plan, every)
    # every color of the set per entered position, position 0 included
    visited = len(every) * (entered + 1)
    dim = lv.dim_even if even else lv.dim
    return total / dim ** len(tri.vertex_orbits), visited, leaves


# a first branch (position 0's first color) that entered more prefixes than
# this has the other branches searched by the compiled kernel: near the
# break-even of compile cost and saving at r=5 (see tvgenus.kernel)
_KERNEL_MIN_ENTERED = 300
# the most positions a kernel nests a loop for: CPython 3.10-3.12 compile
# at most 20 nested blocks, so a deeper plan is searched inline throughout
_KERNEL_MAX_POSITIONS = 20


def _backtrack_sum(lv, plan, every):
    """The sum over the colorings by depth-first search, and the numbers of
    entered positions and of leaves: the partial sums of _branches added
    in ascending color order."""
    branch, entered, leaves = _branches(lv, plan, every)
    total = lv.zero
    for part in branch:  # ascending color order: deterministic floats
        total += part
    return total, entered, leaves


def _branches(lv, plan, every):
    """The sums of the colorings by the color of position 0, and the numbers
    of entered positions and of leaves.  Position 0's first color is
    searched inline; if that branch entered more than _KERNEL_MIN_ENTERED
    prefixes and the plan has at most _KERNEL_MAX_POSITIONS positions, its
    other colors run in the plan's compiled kernel, which makes the same
    float operations in the same order.  Both add into the same partial
    sums and read the same last-step table."""
    table: dict = {}  # the last step's entries by the colors it reads
    branch = [lv.zero] * len(lv.delta)
    entered, leaves = _search_inline(lv, plan, every, every[:1], branch, table)
    if (entered > _KERNEL_MIN_ENTERED
            and len(plan) <= _KERNEL_MAX_POSITIONS):
        from . import kernel  # loaded only where a search is this long
        rest = kernel.compile_kernel(plan)(lv, every, every[1:], branch, table)
    else:
        rest = _search_inline(lv, plan, every, every[1:], branch, table)
    return branch, entered + rest[0], leaves + rest[1]


def _search_inline(lv, plan, every, firsts, branch, table):
    """Search the colorings whose position 0 takes a color of firsts, adding
    each leaf into branch; return the entered positions and the leaves.
    Each admissible prefix of the last step folds that step's table
    entries into its branch, leaf by leaf."""
    delta, theta_inv, third = lv.delta, lv.theta_inv, lv.third
    memo, fill = lv.tet_memo.get, lv.tet
    last = len(plan) - 1  # closed: E = V + n >= 2, so last >= 1
    last_reads = _picker(_reads(plan, last))
    colors = [0] * len(plan)
    weights = [lv.one] * len(plan)  # weights[k]: product before position k
    untried = [iter(firsts)] + [None] * last  # colors left at each position
    entered = leaves = 0
    k = 0
    while k >= 0:
        faces, tets, _ = plan[k]
        before = weights[k]
        for c in untried[k]:
            colors[k] = c
            w = before * delta[c]
            for (px, py, pz) in faces:
                inv = theta_inv[colors[px]][colors[py]][colors[pz]]
                if inv is None:
                    break  # prune: the face triple is inadmissible
                w = w * inv
            else:
                for (p0, p1, p2, p3, p4, p5) in tets:
                    key = (colors[p0], colors[p1], colors[p2], colors[p3],
                           colors[p4], colors[p5])
                    val = memo(key)
                    w = w * (fill(*key) if val is None else val)
                entered += 1
                if k < last - 1:
                    weights[k + 1] = w
                    k += 1
                    pair = plan[k][2]
                    untried[k] = iter(every if pair is None else
                                      third[colors[pair[0]]][colors[pair[1]]])
                    break
                read = last_reads(colors)
                entries = table.get(read)
                if entries is None:
                    entries = table[read] = _step_entries(
                        lv, every, plan[last], colors, last)
                leaves += len(entries)
                part = branch[colors[0]]
                for _, fs in entries:
                    leaf = w
                    for f in fs:
                        leaf = leaf * f
                    part += leaf
                branch[colors[0]] = part
        else:
            k -= 1
    return entered, leaves


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
    entries = []
    for c in every if pair is None else lv.third[cols[pair[0]]][cols[pair[1]]]:
        cols[k] = c
        fs = [lv.delta[c]]
        for (x, y, z) in faces:
            inv = lv.theta_inv[cols[x]][cols[y]][cols[z]]
            if inv is None:
                break  # prune: the face triple is inadmissible
            fs.append(inv)
        else:
            fs += [lv.tet(*(cols[i] for i in tet)) for tet in tets]
            entries.append((c, fs))
    return entries


def _picker(indices):
    """The function from a sequence to the tuple of its entries at indices."""
    if len(indices) == 1:
        i = indices[0]
        return lambda t: (t[i],)
    return operator.itemgetter(*indices) if indices else lambda t: ()
