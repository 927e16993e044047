"""Quantum integers, dimensions, theta- and tetrahedral symbols at q = e^(i*pi/r).

All quantities follow the Kauffman-Lins sign convention: the loop value of a
strand of twice-color i is the signed dimension delta_i = (-1)^i [i+1], and
theta and the tetrahedral symbol carry the signs this induces.  With these
conventions the state sum over a closed triangulation needs no square roots
and no per-tetrahedron sign bookkeeping; the convention is pinned end to end
by the known values of the sphere and of S^2 x S^1 (see statesum).

Every symbol exists in two carriers.  Exact symbols are computed on the
integer carrier ZElt (zarith): per level, [n]! and 1/[n]! are cached, the
latter inverted once each, so Tet and 1/theta are filled by multiplication
and addition only; the public functions return CycNumber, converted once.
Float symbols are the same formulas evaluated in doubles at
zeta = e^(i*pi/r).  SymbolTables memoizes either carrier.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .cyclotomic import CycNumber

if TYPE_CHECKING:
    from .zarith import ZElt


# --------------------------------------------------------------------------
# exact carrier: every formula evaluated once, on ZElt; the public functions
# convert their result to CycNumber
# --------------------------------------------------------------------------

class _Exact:
    """Per-level constants on the integer carrier: [n] and [n]! for n < 2r
    ([n] has period 2r; [n]! = 0 from n = r on, as [r] = 0), 1/[n]! for
    n < r, each inverted once, delta_i, D and 1/D."""

    def __init__(self, r: int):
        # imported here so that float-only processes never load the carrier
        from .zarith import ZElt, zfield
        f = zfield(r)
        self.zero, self.one = ZElt.const(f, 0), ZElt.const(f, 1)
        # [n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) = sum of zeta^(n-1-2k)
        self.qint = [sum((ZElt.zeta_power(f, n - 1 - 2 * k) for k in range(n)),
                         self.zero) for n in range(2 * r)]
        self.fact = list(itertools.accumulate(self.qint[1:], operator.mul,
                                              initial=self.one))
        self.inv_fact = [x.inverse() for x in self.fact[:r]]
        self.delta = [-d if i % 2 else d for i, d in enumerate(self.qint[1:r])]
        self.dim = sum((d * d for d in self.delta), self.zero)
        self.dim_inv = self.dim.inverse()


@lru_cache(maxsize=None)
def _exact(r: int) -> _Exact:
    return _Exact(r)


def quantum_integer(n: int, r: int) -> CycNumber:
    """[n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) = sum of zeta^(n-1-2k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact(r).qint[n % (2 * r)].to_cyc(r)


def quantum_factorial(n: int, r: int) -> CycNumber:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact(r).fact[min(n, r)].to_cyc(r)


def qdim(i: int, r: int) -> CycNumber:
    """Signed quantum dimension delta_i = (-1)^i [i+1]."""
    if not 0 <= i <= r - 2:
        raise ValueError(f"color {i} out of range 0..{r - 2}")
    return _exact(r).delta[i].to_cyc(r)


def global_dim(r: int) -> CycNumber:
    """dim(C) = sum of delta_i^2 = sum of [i+1]^2 over the color set."""
    return _exact(r).dim.to_cyc(r)


def admissible(i: int, j: int, k: int, r: int) -> bool:
    """Parity, triangle inequality, and the level cutoff i+j+k <= 2r-4."""
    return ((i + j + k) % 2 == 0
            and abs(i - j) <= k <= i + j
            and i + j + k <= 2 * r - 4)


def _theta_z(a: int, b: int, c: int, r: int, inverse: bool = False) -> ZElt:
    """theta(a, b, c), or 1/theta(a, b, c) when inverse is set."""
    if not admissible(a, b, c, r):
        raise ValueError(f"inadmissible triple {(a, b, c)} at r={r}")
    ex = _exact(r)
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    p = (a + c - b) // 2
    up, down = (m + n + p + 1, m, n, p), (m + n, n + p, m + p)
    if inverse:
        up, down = down, up
    val = ex.one
    for k in up:
        val = val * ex.fact[k]
    for k in down:
        val = val * ex.inv_fact[k]
    return (-val if (m + n + p) % 2 else val).normalized()


def theta(a: int, b: int, c: int, r: int) -> CycNumber:
    """Theta network value; symmetric in a, b, c; nonzero when admissible."""
    return _theta_z(a, b, c, r).to_cyc(r)


# faces of Tet[A B E; C D F]; opposite edge pairs are (A,C), (B,D), (E,F)
_TET_FACES = ((0, 1, 4), (2, 3, 4), (0, 3, 5), (1, 2, 5))


def _tet_z(labels: tuple[int, ...], r: int) -> ZElt:
    """Tet = prod [b_j - a_i]! / prod [x]! * sum_s (-1)^s [s+1]!
    / (prod [s - a_i]! prod [b_j - s]!), multiplications only."""
    for fa in _TET_FACES:
        tri = tuple(labels[i] for i in fa)
        if not admissible(*tri, r):
            raise ValueError(f"inadmissible face {tri} at r={r}")
    A, B, C, D, E, F = labels
    a_half = [(labels[i] + labels[j] + labels[k]) // 2 for (i, j, k) in _TET_FACES]
    b_half = [(A + B + C + D) // 2, (A + C + E + F) // 2, (B + D + E + F) // 2]
    ex = _exact(r)
    fact, inv_fact = ex.fact, ex.inv_fact
    total = ex.zero
    for s in range(max(a_half), min(b_half) + 1):
        term = fact[s + 1]
        for ai in a_half:
            term = term * inv_fact[s - ai]
        for bj in b_half:
            term = term * inv_fact[bj - s]
        total = total + (-term if s % 2 else term)
    for bj in b_half:
        for ai in a_half:
            total = total * fact[bj - ai]
    for x in labels:
        total = total * inv_fact[x]
    return total.normalized()


def tet_symbol(A: int, B: int, C: int, D: int, E: int, F: int, r: int) -> CycNumber:
    """Tetrahedral network Tet[A B E; C D F].

    The four vertices carry the admissible triples (A,B,E), (C,D,E), (A,D,F)
    and (B,C,F); the value is invariant under the order-24 symmetry group of
    the tetrahedron acting on the edge labels.
    """
    return _tet_z((A, B, C, D, E, F), r).to_cyc(r)


# --------------------------------------------------------------------------
# float carrier: the same formulas evaluated at zeta = e^(i*pi/r) in doubles
# --------------------------------------------------------------------------

def quantum_integer_f(n: int, r: int) -> float:
    z = cmath.exp(1j * math.pi / r)
    if n == 0:
        return 0.0
    return ((z ** n - z ** (-n)) / (z - z ** (-1))).real


@lru_cache(maxsize=None)
def _qfact_f(r: int, n: int) -> float:
    if n <= 0:
        return 1.0
    return _qfact_f(r, n - 1) * quantum_integer_f(n, r)


def qdim_f(i: int, r: int) -> float:
    if not 0 <= i <= r - 2:
        raise ValueError(f"color {i} out of range 0..{r - 2}")
    d = quantum_integer_f(i + 1, r)
    return -d if i % 2 else d


def global_dim_f(r: int) -> float:
    return sum(quantum_integer_f(i + 1, r) ** 2 for i in range(r - 1))


def theta_f(a: int, b: int, c: int, r: int) -> float:
    if not admissible(a, b, c, r):
        raise ValueError(f"inadmissible triple {(a, b, c)} at r={r}")
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    p = (a + c - b) // 2
    val = (_qfact_f(r, m + n + p + 1) * _qfact_f(r, m) * _qfact_f(r, n)
           * _qfact_f(r, p) / (_qfact_f(r, m + n) * _qfact_f(r, n + p)
                               * _qfact_f(r, m + p)))
    return -val if (m + n + p) % 2 else val


def tet_symbol_f(A: int, B: int, C: int, D: int, E: int, F: int, r: int) -> float:
    labels = (A, B, C, D, E, F)
    for fa in _TET_FACES:
        tri = tuple(labels[i] for i in fa)
        if not admissible(*tri, r):
            raise ValueError(f"inadmissible face {tri} at r={r}")
    a_half = [(labels[i] + labels[j] + labels[k]) // 2 for (i, j, k) in _TET_FACES]
    b_half = [(A + B + C + D) // 2, (A + C + E + F) // 2, (B + D + E + F) // 2]
    interior = 1.0
    for bj in b_half:
        for ai in a_half:
            interior *= _qfact_f(r, bj - ai)
    exterior = 1.0
    for x in labels:
        exterior *= _qfact_f(r, x)
    total = 0.0
    for s in range(max(a_half), min(b_half) + 1):
        term = _qfact_f(r, s + 1)
        for ai in a_half:
            term /= _qfact_f(r, s - ai)
        for bj in b_half:
            term /= _qfact_f(r, bj - s)
        total += -term if s % 2 else term
    return interior / exterior * total


# --------------------------------------------------------------------------
# memoized tables for the state sum
# --------------------------------------------------------------------------

class SymbolTables:
    """Per-level caches of delta, 1/theta and Tet, in one carrier: ZElt
    values and 1/D (dim_inv) in exact mode, floats and D (dim_total) in
    float mode.

    Values are filled on first use (precompute() forces the full Tet table;
    for the state sum the lazy fill touches exactly the tuples that occur,
    which keeps small runs fast while still evaluating each symbol once).
    Entries are never mutated once written.  Every state sum and identity
    check builds its tables through this class, so r >= 3 is checked here.
    """

    def __init__(self, r: int, mode: str = "exact"):
        if r < 3:
            raise ValueError("level r must be >= 3")
        if mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        self.r = r
        self.mode = mode
        self.adm = [[[admissible(a, b, c, r) for c in range(r - 1)]
                     for b in range(r - 1)] for a in range(r - 1)]
        if mode == "exact":
            ex = _exact(r)
            self.delta = list(ex.delta)
            self.one = ex.one
            self.dim_inv = ex.dim_inv
        else:
            self.delta = [qdim_f(i, r) for i in range(r - 1)]
            self.one = 1.0
            self.dim_total = global_dim_f(r)
        self._theta_inv: dict = {}
        self._tet: dict = {}

    def theta_inv(self, a: int, b: int, c: int):
        key = (a, b, c) if a <= b <= c else tuple(sorted((a, b, c)))
        val = self._theta_inv.get(key)
        if val is None:
            if self.mode == "exact":
                val = _theta_z(*key, self.r, inverse=True)
            else:
                val = 1.0 / theta_f(*key, self.r)
            self._theta_inv[key] = val
        return val

    def tet(self, A: int, B: int, C: int, D: int, E: int, F: int):
        key = (A, B, C, D, E, F)
        val = self._tet.get(key)
        if val is None:
            if self.mode == "exact":
                val = _tet_z(key, self.r)
            else:
                val = tet_symbol_f(*key, self.r)
            self._tet[key] = val
        return val

    def precompute(self):
        """Force the full Tet table over all admissible 6-tuples (O(r^6))."""
        for tup in _admissible_tet_tuples(self.r):
            self.tet(*tup)
        return self


@lru_cache(maxsize=32)
def tables(r: int, mode: str) -> SymbolTables:
    """Shared memoized tables; keyed by (r, mode)."""
    return SymbolTables(r, mode)


# --------------------------------------------------------------------------
# identity self-verification
# --------------------------------------------------------------------------

# the 6 edges of the reference tetrahedron as vertex pairs, in the argument
# order (A, B, C, D, E, F) of tet_symbol
_EDGE_OF_ARG = ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4))


@dataclass
class IdentityCheck:
    name: str
    passed: bool
    witness: tuple | None = None


@dataclass
class IdentityReport:
    r: int
    checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_identities(r: int, tables_override: SymbolTables | None = None) -> IdentityReport:
    """Exhaustive exact checks of the recoupling identities at one level.

    Checks, over all admissible tuples:
      * theta(a, a, 0) = delta_a;
      * invariance of Tet under the 24 edge relabelings induced by vertex
        permutations of the tetrahedron;
      * orthogonality of the recoupling transform:
          sum_j delta_j Tet[a b i; c d j] Tet[a b i'; c d j]
                / (theta(a,d,j) theta(b,c,j))
          = delta_{i,i'} theta(a,b,i) theta(c,d,i) / delta_i;
      * the Biedenharn-Elliott (pentagon) identity for the normalized
        coefficient N[a b i; c d j] = delta_j Tet[a b i; c d j]
                                      / (theta(a,d,j) theta(b,c,j)):
          sum_z N[a b x; c y z] N[a z y; d t v] N[b c z; d v w]
          = N[x c y; d t w] N[a b x; w t v].

    The sums run on the integer carrier of the tables; orthogonality is
    checked with both sides multiplied by delta_i (nonzero for every color).
    Failures are reported with the first counterexample tuple.
    """
    tab = tables_override if tables_override is not None else SymbolTables(r, "exact")
    report = IdentityReport(r=r)
    cols = list(range(r - 1))
    zero = _exact(r).zero
    adm = tab.adm

    def orthogonality_failures():
        for a, b, c, d in itertools.product(cols, repeat=4):
            i_vals = [i for i in cols if adm[a][b][i] and adm[c][d][i]]
            j_vals = [j for j in cols if adm[a][d][j] and adm[b][c][j]]
            for i, i2 in itertools.product(i_vals, repeat=2):
                acc = zero
                for j in j_vals:
                    acc = acc + (tab.delta[j] * tab.tet(a, b, c, d, i, j)
                                 * tab.tet(a, b, c, d, i2, j)
                                 * tab.theta_inv(a, d, j) * tab.theta_inv(b, c, j))
                if i == i2:
                    ok = (acc * tab.delta[i]
                          == _theta_z(a, b, i, r) * _theta_z(c, d, i, r))
                else:
                    ok = acc.is_zero()
                if not ok:
                    yield (a, b, c, d, i, i2)

    def N(a, b, i, c, d, j):
        return (tab.delta[j] * tab.tet(a, b, c, d, i, j)
                * tab.theta_inv(a, d, j) * tab.theta_inv(b, c, j))

    def pentagon_failures():
        for a, b, c, d, t in itertools.product(cols, repeat=5):
            for x in cols:
                if not adm[a][b][x]:
                    continue
                for y in cols:
                    if not (adm[x][c][y] and adm[y][d][t]):
                        continue
                    for w in cols:
                        if not (adm[c][d][w] and adm[x][w][t]):
                            continue
                        for v in cols:
                            if not (adm[b][w][v] and adm[a][v][t]):
                                continue
                            lhs = zero
                            for z in cols:
                                if adm[b][c][z] and adm[a][z][y] and adm[z][d][v]:
                                    lhs = lhs + (N(a, b, x, c, y, z)
                                                 * N(a, z, y, d, t, v)
                                                 * N(b, c, z, d, v, w))
                            rhs = N(x, c, y, d, t, w) * N(a, b, x, w, t, v)
                            if not lhs == rhs:
                                yield (a, b, c, d, t, x, y, w, v)

    checks = (
        ("theta(a,a,0) = delta_a",
         ((a,) for a in cols if not tab.delta[a] == _theta_z(a, a, 0, r))),
        ("tetrahedral symmetry of Tet",
         ((tup, sigma) for tup in _admissible_tet_tuples(r)
          for sigma in itertools.permutations((1, 2, 3, 4))
          if not tab.tet(*_relabel_tet(tup, sigma)) == tab.tet(*tup))),
        ("orthogonality", orthogonality_failures()),
        ("Biedenharn-Elliott (pentagon)", pentagon_failures()),
    )
    for name, failures in checks:
        witness = next(failures, None)
        report.checks.append(IdentityCheck(name, witness is None, witness))
    return report


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


def _relabel_tet(tup, sigma):
    """Edge labels after the vertex permutation sigma of {1,2,3,4}."""
    lookup = {}
    for idx, (u, v) in enumerate(_EDGE_OF_ARG):
        lookup[frozenset((u, v))] = tup[idx]
    out = []
    for (u, v) in _EDGE_OF_ARG:
        out.append(lookup[frozenset((sigma[u - 1], sigma[v - 1]))])
    return tuple(out)
