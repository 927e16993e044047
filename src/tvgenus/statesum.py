"""The Turaev-Viro state sum over admissible edge colorings.

For a closed triangulation the invariant is

    TV_r = D^(-V) * sum over colorings of  prod_edges delta_c(e)
           * prod_faces theta(face triple)^(-1) * prod_tets Tet(six colors)

with D the global dimension, V the number of vertex orbits (the number of
balls in the dual-spine picture), and the symbols in the Kauffman-Lins
convention of the recoupling module.  Each face of a closed complex lies in
exactly two tetrahedra, which is what makes this square-root-free grouping
equal to the unitarized-6j formulation.

Enumeration is one iterative depth-first search over edge orbits in a
static most-constrained-first order (descending face-incidence degree, ties
by index), colors ascending, pruning as soon as a completed face triple is
inadmissible.  Weights are accumulated incrementally along the search path.
The weight of each complete coloring is added to the partial sum of its
first edge's color, and those partial sums are added in ascending color
order, so float results are bit-identical across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .complex3 import Triangulation
from .cyclotomic import CycNumber
from .recoupling import tables


class SearchVolumeError(RuntimeError):
    """Estimated search volume exceeds the configured cap."""

    def __init__(self, estimate: float, cap: float):
        self.estimate = estimate
        self.cap = cap
        super().__init__(
            f"estimated search volume {estimate:.3g} exceeds cap {cap:.3g}; "
            "raise max_states or pass force=True")


@dataclass(frozen=True)
class SearchLimits:
    max_states: float = 1e9
    force: bool = False


@dataclass
class TvResult:
    """Outcome of one invariant computation."""

    r: int
    mode: str
    value_float: float | None = None
    value_exact: CycNumber | None = None
    states_visited: int = 0
    states_admissible: int = 0
    elapsed_seconds: float = 0.0
    warnings: tuple[str, ...] = ()


def _make_plan(tri: Triangulation) -> list[tuple[list, list]]:
    """Static search schedule: one (faces, tets) step per position of the
    assignment order, listing the face triples and the Tet arguments that
    the edge at that position completes.  Both name edges by position."""
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
    plan: list[tuple[list, list]] = [([], []) for _ in range(ne)]
    for (x, y, z) in face_triples:
        pos = (position[x], position[y], position[z])
        plan[max(pos)][0].append(pos)
    # a tetrahedron completes when the last of its 6 edge orbits is colored;
    # store the positions in the argument order of the tables' tet:
    # (A,B,C,D,E,F) = (c01, c02, c23, c13, c12, c03)
    for tet_edges in tri.tet_edge_orbits():
        e01, e02, e03, e12, e13, e23 = tet_edges
        arg_pos = tuple(position[e] for e in (e01, e02, e23, e13, e12, e03))
        plan[max(arg_pos)][1].append(arg_pos)
    return plan


def estimated_states(tri: Triangulation, r: int) -> float:
    """(r-1)^E, or inf once that passes the float range."""
    try:
        return float(r - 1) ** len(tri.edge_orbits)
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
    estimate = estimated_states(tri, r)
    if estimate > limits.max_states and not limits.force:
        raise SearchVolumeError(estimate, limits.max_states)

    warnings = ()
    if not tri.orientable:
        warnings = ("non-orientable input",)

    start = time.perf_counter()
    result = TvResult(r=r, mode=mode, warnings=warnings)
    if mode in ("float", "both"):
        value, visited, leaves = _run(tri, r, "float")
        result.value_float = value
        result.states_visited = visited
        result.states_admissible = leaves
    if mode in ("exact", "both"):
        value_e, visited, leaves = _run(tri, r, "exact")
        result.value_exact = value_e
        result.states_visited = visited
        result.states_admissible = leaves
        if not value_e.is_real():
            raise AssertionError("state sum produced a non-real exact value")
        if mode == "exact":
            result.value_float = value_e.to_float()
        else:
            if abs(value_e.to_float() - result.value_float) > 1e-9:
                raise AssertionError(
                    "exact and float state sums disagree beyond 1e-9")
    result.elapsed_seconds = time.perf_counter() - start
    return result


def _run(tri: Triangulation, r: int, carrier: str):
    """The state sum divided by D^V, and the (visited, admissible) counts;
    the same code for both carriers (a zero float sum gives +0.0)."""
    lv = tables(r, carrier)
    delta, theta_inv, tet = lv.delta, lv.theta_inv, lv.tet
    plan = _make_plan(tri)
    last = len(plan) - 1  # closed: E = V + n >= 2, so the plan is never empty
    ncolors = len(delta)
    colors = [0] * len(plan)
    next_color = [0] * len(plan)
    weights = [lv.one] * len(plan)  # weights[k]: product before position k
    branch = [lv.zero] * ncolors  # partial sums by first-edge color
    visited = leaves = 0
    k = 0
    while k >= 0:
        c = next_color[k]
        if c == ncolors:
            next_color[k] = 0
            k -= 1
            continue
        next_color[k] = c + 1
        colors[k] = c
        visited += 1
        faces, tets = plan[k]
        for (px, py, pz) in faces:
            if theta_inv[colors[px]][colors[py]][colors[pz]] is None:
                break  # prune: the face triple is inadmissible
        else:
            w = weights[k] * delta[c]
            for (px, py, pz) in faces:
                w = w * theta_inv[colors[px]][colors[py]][colors[pz]]
            for (p0, p1, p2, p3, p4, p5) in tets:
                w = w * tet(colors[p0], colors[p1], colors[p2], colors[p3],
                            colors[p4], colors[p5])
            if k == last:
                leaves += 1
                branch[colors[0]] += w
            else:
                weights[k + 1] = w
                k += 1
    total = lv.zero
    for part in branch:  # ascending color order: deterministic floats
        total += part
    return total / lv.dim ** len(tri.vertex_orbits), visited, leaves


@dataclass
class AnchorCheck:
    name: str
    r: int
    passed: bool
    detail: str = ""


def tv_anchor_checks(r_values=(3, 4, 5, 6, 7, 8)) -> list[AnchorCheck]:
    """Exact-mode anchors that pin the normalization and sign conventions:
    the 3-sphere evaluates to 1/dim(C) and S^2 x S^1 to 1, at every level."""
    from .fixtures import fixture
    from .recoupling import global_dim

    sphere = fixture("s3")
    s2xs1 = fixture("s2xs1")
    checks = []
    for r in r_values:
        want = global_dim(r).inverse()
        got = tv_invariant(sphere, r, mode="exact").value_exact
        checks.append(AnchorCheck("TV(S^3) = 1/dim(C)", r, got == want,
                                  f"got {got.to_float():.12g}"))
        got1 = tv_invariant(s2xs1, r, mode="exact").value_exact
        checks.append(AnchorCheck("TV(S^2 x S^1) = 1", r,
                                  got1 == CycNumber.one(r),
                                  f"got {got1.to_float():.12g}"))
    return checks
