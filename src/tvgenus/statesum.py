"""The Turaev-Viro state sum over admissible edge colorings.

For a closed triangulation the invariant is

    TV_r = D^(-V) * sum over colorings of  prod_edges delta_c(e)
           * prod_faces theta(face triple)^(-1) * prod_tets Tet(six colors)

with D the global dimension, V the number of vertex orbits (the number of
balls in the dual-spine picture), and the symbols in the Kauffman-Lins
convention of the recoupling module.  Each face of a closed complex lies in
exactly two tetrahedra, which is what makes this square-root-free grouping
equal to the unitarized-6j formulation.

Enumeration is a backtracking search over edge orbits in a static
most-constrained-first order (descending face-incidence degree, ties by
index), colors ascending, pruning as soon as a completed face triple is
inadmissible.  Weights are accumulated incrementally along the search path.
Float mode partitions the sum by the first edge's color and combines the
per-branch partial sums in ascending order, so results are bit-identical
across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .complex3 import Triangulation
from .cyclotomic import CycNumber
from .recoupling import SymbolTables, tables


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

    @property
    def value(self) -> float:
        if self.value_float is not None:
            return self.value_float
        return self.value_exact.to_float()


@dataclass(frozen=True)
class _Plan:
    """Static search schedule for one triangulation."""

    order: tuple[int, ...]                 # edge orbits in assignment order
    position: tuple[int, ...]              # inverse of order
    faces_at: tuple[tuple[tuple[int, int, int], ...], ...]
    tets_at: tuple[tuple[tuple[int, ...], ...], ...]
    n_edges: int


def _make_plan(tri: Triangulation) -> _Plan:
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
    faces_at: list[list[tuple[int, int, int]]] = [[] for _ in range(ne)]
    for (x, y, z) in face_triples:
        px, py, pz = position[x], position[y], position[z]
        faces_at[max(px, py, pz)].append((px, py, pz))
    # a tetrahedron completes when the last of its 6 edge orbits is colored;
    # store the positions in the argument order of SymbolTables.tet:
    # (A,B,C,D,E,F) = (c01, c02, c23, c13, c12, c03)
    tets_at: list[list[tuple[int, ...]]] = [[] for _ in range(ne)]
    for tet_edges in tri.tet_edge_orbits():
        e01, e02, e03, e12, e13, e23 = tet_edges
        arg_pos = tuple(position[e] for e in (e01, e02, e23, e13, e12, e03))
        tets_at[max(arg_pos)].append(arg_pos)
    return _Plan(tuple(order), tuple(position),
                 tuple(tuple(f) for f in faces_at),
                 tuple(tuple(t) for t in tets_at), ne)


def estimated_states(tri: Triangulation, r: int) -> float:
    return float(r - 1) ** len(tri.edge_orbits)


def _branch_sum(plan: _Plan, tab: SymbolTables, first_color: int):
    """Sum of weights over all admissible colorings with the first edge in
    the static order set to first_color.  Returns (sum, visited, leaves)."""
    ne = plan.n_edges
    ncolors = len(tab.delta)
    adm = tab.adm
    delta = tab.delta
    theta_inv = tab.theta_inv
    tet = tab.tet
    faces_at = plan.faces_at
    tets_at = plan.tets_at
    colors = [0] * ne
    weights = [tab.one] * (ne + 1)  # weights[k] = product after k assignments
    total = None
    visited = 0
    leaves = 0

    def weight_after(k: int, c: int):
        """Weight update assigning color c at position k, or None if pruned."""
        for (px, py, pz) in faces_at[k]:
            if not adm[colors[px]][colors[py]][colors[pz]]:
                return None
        w = weights[k] * delta[c]
        for (px, py, pz) in faces_at[k]:
            w = w * theta_inv(colors[px], colors[py], colors[pz])
        for arg_pos in tets_at[k]:
            w = w * tet(colors[arg_pos[0]], colors[arg_pos[1]],
                        colors[arg_pos[2]], colors[arg_pos[3]],
                        colors[arg_pos[4]], colors[arg_pos[5]])
        return w

    # iterative DFS over positions 1..ne-1; position 0 fixed to first_color
    colors[0] = first_color
    visited += 1
    w0 = weight_after(0, first_color)
    if w0 is None:
        return None, visited, leaves
    weights[1] = w0
    if ne == 1:
        return w0, visited, 1

    stack_color = [0] * ne  # next color to try at each depth
    depth = 1
    while depth >= 1:
        c = stack_color[depth]
        if c >= ncolors:
            stack_color[depth] = 0
            depth -= 1
            if depth == 0:
                break
            stack_color[depth] += 1
            continue
        colors[depth] = c
        visited += 1
        w = weight_after(depth, c)
        if w is None:
            stack_color[depth] += 1
            continue
        if depth == ne - 1:
            leaves += 1
            total = w if total is None else total + w
            stack_color[depth] += 1
            continue
        weights[depth + 1] = w
        depth += 1
        stack_color[depth] = 0
    return total, visited, leaves


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
    """Sum over all branches of the first edge, then divide by D^V; the
    same code for both carriers (an empty or zero float sum gives +0.0)."""
    tab = tables(r, carrier)
    plan = _make_plan(tri)
    total = None
    visited = 0
    leaves = 0
    for c in range(r - 1):  # ascending branch order: deterministic floats
        part, v, l = _branch_sum(plan, tab, c)
        visited += v
        leaves += l
        if part is not None:
            total = part if total is None else total + part
    value = (total or tab.zero) / tab.dim ** len(tri.vertex_orbits)
    return value, visited, leaves


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
