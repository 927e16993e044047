"""The self-verification suite of ``tvgenus verify``: recoupling identities,
anchors, 2-3 move invariance, exact/float agreement and fixture homology.
No other command runs it, so the CLI imports it only for verify."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .fixtures import fixture
from .gluing import pachner_23
from .homology import format_h1, h1
from .recoupling import _tet, admissible, tables, theta
from .statesum import tv_invariant


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    witness: tuple | None = None


class IdentityReport(NamedTuple):
    r: int
    checks: list[IdentityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_identities(r: int, tables_override=None) -> IdentityReport:
    """Exhaustive exact checks of the recoupling identities at one level.

    Checks, over all admissible tuples:
      * theta(a, a, 0) = delta_a;
      * invariance of Tet under the 24 edge relabelings induced by vertex
        permutations of the tetrahedron: every carrier fills Tet once per
        orbit of these, at its least relabeling, as it fills theta once per
        sorted triple, so the formula, evaluated at every tuple, must equal
        the table's value there;
      * orthogonality of the recoupling transform:
          sum_j delta_j Tet[a b i; c d j] Tet[a b i'; c d j]
                / (theta(a,d,j) theta(b,c,j))
          = delta_{i,i'} theta(a,b,i) theta(c,d,i) / delta_i;
      * the Biedenharn-Elliott (pentagon) identity for the normalized
        coefficient N[a b i; c d j] = delta_j Tet[a b i; c d j]
                                      / (theta(a,d,j) theta(b,c,j)):
          sum_z N[a b x; c y z] N[a z y; d t v] N[b c z; d v w]
          = N[x c y; d t w] N[a b x; w t v].

    The sums run on the exact tables (or a substitute with their zero,
    delta, theta_inv and tet); orthogonality is checked with both sides
    multiplied by delta_i (nonzero for every color).
    Failures are reported with the first counterexample tuple.
    """
    exact = tables(r, "exact")
    tab = tables_override if tables_override is not None else exact
    cols = list(range(r - 1))
    zero, delta, inv, tet = tab.zero, tab.delta, tab.theta_inv, tab.tet

    def adm(*triples):
        return all(inv[a][b][c] is not None for a, b, c in triples)

    def orthogonality_failures():
        for a, b, c, d in itertools.product(cols, repeat=4):
            i_vals = [i for i in cols if adm((a, b, i), (c, d, i))]
            j_vals = [j for j in cols if adm((a, d, j), (b, c, j))]
            for i, i2 in itertools.product(i_vals, repeat=2):
                acc = zero
                for j in j_vals:
                    acc = acc + (delta[j] * tet(a, b, c, d, i, j)
                                 * tet(a, b, c, d, i2, j)
                                 * inv[a][d][j] * inv[b][c][j])
                if i == i2:
                    ok = (acc * delta[i]
                          == theta(a, b, i, r) * theta(c, d, i, r))
                else:
                    ok = acc.is_zero()
                if not ok:
                    yield (a, b, c, d, i, i2)

    def N(a, b, i, c, d, j):
        return delta[j] * tet(a, b, c, d, i, j) * inv[a][d][j] * inv[b][c][j]

    def pentagon_failures():
        for a, b, c, d, t in itertools.product(cols, repeat=5):
            for x in cols:
                if not adm((a, b, x)):
                    continue
                for y in cols:
                    if not adm((x, c, y), (y, d, t)):
                        continue
                    for w in cols:
                        if not adm((c, d, w), (x, w, t)):
                            continue
                        for v in cols:
                            if not adm((b, w, v), (a, v, t)):
                                continue
                            lhs = zero
                            for z in cols:
                                if adm((b, c, z), (a, z, y), (z, d, v)):
                                    lhs = lhs + (N(a, b, x, c, y, z)
                                                 * N(a, z, y, d, t, v)
                                                 * N(b, c, z, d, v, w))
                            rhs = N(x, c, y, d, t, w) * N(a, b, x, w, t, v)
                            if not lhs == rhs:
                                yield (a, b, c, d, t, x, y, w, v)

    checks = (
        ("theta(a,a,0) = delta_a",
         ((a,) for a in cols if not delta[a] == theta(a, a, 0, r))),
        ("tetrahedral symmetry of Tet",
         (tup for tup in _admissible_tet_tuples(r)
          if not tet(*tup) == _tet(exact, tup))),
        ("orthogonality", orthogonality_failures()),
        ("Biedenharn-Elliott (pentagon)", pentagon_failures()),
    )
    results = []
    for name, failures in checks:
        witness = next(failures, None)
        results.append(IdentityCheck(name, witness is None, witness))
    return IdentityReport(r, results)


def _admissible_tet_tuples(r: int):
    cols = range(r - 1)
    for A, B, E in itertools.product(cols, repeat=3):
        if not admissible(A, B, E, r):
            continue
        for C, D in itertools.product(cols, repeat=2):
            if not admissible(C, D, E, r):
                continue
            for F in cols:
                if admissible(A, D, F, r) and admissible(B, C, F, r):
                    yield (A, B, C, D, E, F)


class AnchorCheck(NamedTuple):
    name: str
    r: int
    passed: bool
    detail: str = ""


def tv_anchor_checks(r_values=(3, 4, 5, 6, 7, 8)) -> list[AnchorCheck]:
    """Exact-mode anchors that pin the normalization and sign conventions:
    the 3-sphere evaluates to 1/dim(C) and S^2 x S^1 to 1, at every level."""
    checks = []
    for r in r_values:
        lv = tables(r, "exact")
        got = tv_invariant(fixture("s3"), r, mode="exact").value_exact
        checks.append(AnchorCheck("TV(S^3) = 1/dim(C)", r,
                                  got == lv.dim.inverse(),
                                  f"got {got.to_float():.12g}"))
        got1 = tv_invariant(fixture("s2xs1"), r, mode="exact").value_exact
        checks.append(AnchorCheck("TV(S^2 x S^1) = 1", r, got1 == lv.one,
                                  f"got {got1.to_float():.12g}"))
    return checks


def run(r_max: int, out) -> int:
    """Write one ok/FAIL line per check to out; 1 if any check failed."""
    failures = 0

    def check(label: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        out.write(f"{status:4s} {label}{suffix}\n")
        if not ok:
            failures += 1

    for r in range(3, r_max + 1):
        report = verify_identities(r)
        for c in report.checks:
            check(f"identities r={r}: {c.name}", c.passed,
                  "" if c.passed else f"witness {c.witness}")
    for a in tv_anchor_checks(range(3, max(r_max, 6) + 1)):
        check(f"anchor r={a.r}: {a.name}", a.passed, a.detail)
    # move invariance and exact/float agreement on the small fixtures
    for name in ("s3", "rp3", "l31", "s2xs1"):
        tri = fixture(name)
        fo = next(f.index for f in tri.face_orbits
                  if f.slots[0][0] != f.slots[1][0])
        moved = pachner_23(tri, fo)
        for r in (3, 4, 5):
            a = tv_invariant(tri, r, mode="exact").value_exact
            b = tv_invariant(moved, r, mode="exact").value_exact
            check(f"pachner 2-3 invariance {name} r={r}", a == b)
        # two searches, not mode 'both', which raises on a disagreement
        exact = tv_invariant(tri, 5, mode="exact").value_exact.to_float()
        check(f"exact/float agreement {name} r=5",
              abs(exact - tv_invariant(tri, 5).value_float) <= 1e-9)
    check("homology s3 = 0", format_h1(h1(fixture("s3"))) == "0")
    check("homology rp3 = Z_2", format_h1(h1(fixture("rp3"))) == "Z_2")
    check("homology t3 = 3 Z", format_h1(h1(fixture("t3"))) == "3 Z")
    out.write(f"# verify: {failures} failure(s)\n")
    return 1 if failures else 0
