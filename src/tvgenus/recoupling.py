"""Quantum integers, dimensions, theta- and tetrahedral symbols at q = e^(i*pi/r).

All quantities follow the Kauffman-Lins sign convention: the loop value of a
strand of twice-color i is the signed dimension delta_i = (-1)^i [i+1], and
theta and the tetrahedral symbol carry the signs this induces.  With these
conventions the state sum over a closed triangulation needs no square roots
and no per-tetrahedron sign bookkeeping; the convention is pinned end to end
by the known values of the sphere and of S^2 x S^1 (see statesum).

Each formula is written once, over the per-level constants of a carrier:
[n] and [n]! for n < 2r, delta_i and D, and three operations (a quotient
of factorial products, division by one factorial, and an inverse).  The
exact carrier is CycNumber; it also caches 1/[n]! for n < r, each inverted
once, so Tet and theta are built by multiplication and addition only.  The
float carrier evaluates the same expressions in doubles at
zeta = e^(i*pi/r).  The public *_f functions are the float wrappers of the
same formulas.  SymbolTables memoizes either carrier.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

from .cyclotomic import CycNumber


# --------------------------------------------------------------------------
# per-level constants of the two carriers
# --------------------------------------------------------------------------

class _Carrier:
    """[n] and [n]! for n < 2r ([n] has period 2r; [n]! = 0 from n = r on,
    as [r] = 0), delta_i and D, in one carrier."""

    def __init__(self, r: int, qint: list, zero, one):
        self.r, self.zero, self.one, self.qint = r, zero, one, qint
        self.fact = list(itertools.accumulate(qint[1:], operator.mul,
                                              initial=one))
        self.delta = [-d if i % 2 else d for i, d in enumerate(qint[1:r])]
        # d ** 2, not d * d: for doubles the two can differ in the last bit
        self.dim = sum((d ** 2 for d in self.delta), zero)


class _Exact(_Carrier):
    """CycNumber constants, plus 1/[n]! for n < r, each inverted once."""

    def __init__(self, r: int):
        zero = CycNumber.zero(r)
        # [n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) = sum of zeta^(n-1-2k)
        super().__init__(r, [sum((CycNumber.zeta_power(r, n - 1 - 2 * k)
                                  for k in range(n)), zero)
                             for n in range(2 * r)], zero, CycNumber.one(r))
        self.inv_fact = [x.inverse() for x in self.fact[:r]]

    def quot(self, x, up, down):
        """x * prod [u]! / prod [d]!, in canonical form."""
        for k in up:
            x = x * self.fact[k]
        for k in down:
            x = x * self.inv_fact[k]
        return x.normalized()

    def div_fact(self, x, n: int):
        return x * self.inv_fact[n]

    @staticmethod
    def inverse(x):
        return x.inverse()


class _Float(_Carrier):
    """The same constants in doubles, [n] evaluated at zeta = e^(i*pi/r)."""

    def __init__(self, r: int):
        z = cmath.exp(1j * math.pi / r)
        super().__init__(r, [((z ** n - z ** (-n)) / (z - z ** (-1))).real
                             if n else 0.0 for n in range(2 * r)], 0.0, 1.0)

    def quot(self, x, up, down):
        """x * prod [u]! / prod [d]!.  This evaluation order fixes every bit
        of the float symbols, and float noise decides visible outputs (the
        sign of a TV that is exactly 0)."""
        num = den = 1.0
        for k in up:
            num *= self.fact[k]
        for k in down:
            den *= self.fact[k]
        return num / den * x

    def div_fact(self, x, n: int):
        return x / self.fact[n]

    @staticmethod
    def inverse(x):
        return 1.0 / x


def _at(r: int, exact: bool, n: int = 0) -> _Carrier:
    """The per-level constants of one carrier; the one place that rejects
    a level r < 3 and an index n < 0."""
    if r < 3:
        raise ValueError("level r must be >= 3")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _carrier(r, exact)


@lru_cache(maxsize=None)
def _carrier(r: int, exact: bool) -> _Carrier:
    return _Exact(r) if exact else _Float(r)


# --------------------------------------------------------------------------
# the formulas, written once over a carrier
# --------------------------------------------------------------------------

def admissible(i: int, j: int, k: int, r: int) -> bool:
    """Parity, triangle inequality, and the level cutoff i+j+k <= 2r-4."""
    return ((i + j + k) % 2 == 0
            and abs(i - j) <= k <= i + j
            and i + j + k <= 2 * r - 4)


def _qdim(lv: _Carrier, i: int):
    if not 0 <= i <= lv.r - 2:
        raise ValueError(f"color {i} out of range 0..{lv.r - 2}")
    return lv.delta[i]


def _theta(lv: _Carrier, a: int, b: int, c: int):
    """theta(a, b, c) = (-1)^(m+n+p) [m+n+p+1]! [m]! [n]! [p]!
    / ([m+n]! [n+p]! [m+p]!)."""
    if not admissible(a, b, c, lv.r):
        raise ValueError(f"inadmissible triple {(a, b, c)} at r={lv.r}")
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    p = (a + c - b) // 2
    val = lv.quot(lv.one, (m + n + p + 1, m, n, p), (m + n, n + p, m + p))
    return -val if (m + n + p) % 2 else val


# faces of Tet[A B E; C D F]; opposite edge pairs are (A,C), (B,D), (E,F)
_TET_FACES = ((0, 1, 4), (2, 3, 4), (0, 3, 5), (1, 2, 5))


def _tet(lv: _Carrier, labels: tuple[int, ...]):
    """Tet = prod [b_j - a_i]! / prod [x]! * sum_s (-1)^s [s+1]!
    / (prod [s - a_i]! prod [b_j - s]!)."""
    for fa in _TET_FACES:
        tri = tuple(labels[i] for i in fa)
        if not admissible(*tri, lv.r):
            raise ValueError(f"inadmissible face {tri} at r={lv.r}")
    A, B, C, D, E, F = labels
    a_half = [(labels[i] + labels[j] + labels[k]) // 2 for (i, j, k) in _TET_FACES]
    b_half = [(A + B + C + D) // 2, (A + C + E + F) // 2, (B + D + E + F) // 2]
    total = lv.zero
    for s in range(max(a_half), min(b_half) + 1):
        term = lv.fact[s + 1]
        for ai in a_half:
            term = lv.div_fact(term, s - ai)
        for bj in b_half:
            term = lv.div_fact(term, bj - s)
        total = total + (-term if s % 2 else term)
    return lv.quot(total, [bj - ai for bj in b_half for ai in a_half], labels)


# --------------------------------------------------------------------------
# public symbols: exact (CycNumber) and float wrappers of the formulas
# --------------------------------------------------------------------------

def quantum_integer(n: int, r: int) -> CycNumber:
    """[n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) = sum of zeta^(n-1-2k)."""
    return _at(r, True, n).qint[n % (2 * r)]


def quantum_factorial(n: int, r: int) -> CycNumber:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    return _at(r, True, n).fact[min(n, r)]


def qdim(i: int, r: int) -> CycNumber:
    """Signed quantum dimension delta_i = (-1)^i [i+1]."""
    return _qdim(_at(r, True), i)


def global_dim(r: int) -> CycNumber:
    """dim(C) = sum of delta_i^2 = sum of [i+1]^2 over the color set."""
    return _at(r, True).dim


def theta(a: int, b: int, c: int, r: int) -> CycNumber:
    """Theta network value; symmetric in a, b, c; nonzero when admissible."""
    return _theta(_at(r, True), a, b, c)


def tet_symbol(A: int, B: int, C: int, D: int, E: int, F: int, r: int) -> CycNumber:
    """Tetrahedral network Tet[A B E; C D F].

    The four vertices carry the admissible triples (A,B,E), (C,D,E), (A,D,F)
    and (B,C,F); the value is invariant under the order-24 symmetry group of
    the tetrahedron acting on the edge labels.
    """
    return _tet(_at(r, True), (A, B, C, D, E, F))


def quantum_integer_f(n: int, r: int) -> float:
    return _at(r, False, n).qint[n % (2 * r)]


def qdim_f(i: int, r: int) -> float:
    return _qdim(_at(r, False), i)


def global_dim_f(r: int) -> float:
    return _at(r, False).dim


def theta_f(a: int, b: int, c: int, r: int) -> float:
    return _theta(_at(r, False), a, b, c)


def tet_symbol_f(A: int, B: int, C: int, D: int, E: int, F: int, r: int) -> float:
    return _tet(_at(r, False), (A, B, C, D, E, F))


# --------------------------------------------------------------------------
# memoized tables for the state sum
# --------------------------------------------------------------------------

class SymbolTables:
    """Per-level caches of delta, 1/theta and Tet in one carrier (CycNumber
    in exact mode, floats in float mode), with that carrier's zero, one and
    global dimension D (dim).

    Values are filled on first use (precompute() forces the full Tet table;
    for the state sum the lazy fill touches exactly the tuples that occur,
    which keeps small runs fast while still evaluating each symbol once).
    Entries are never mutated once written.
    """

    def __init__(self, r: int, mode: str = "exact"):
        if mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        self._lv = lv = _at(r, mode == "exact")
        self.r = r
        self.mode = mode
        self.adm = [[[admissible(a, b, c, r) for c in range(r - 1)]
                     for b in range(r - 1)] for a in range(r - 1)]
        self.delta = list(lv.delta)
        self.zero, self.one, self.dim = lv.zero, lv.one, lv.dim
        self._theta_inv: dict = {}
        self._tet: dict = {}

    def theta_inv(self, a: int, b: int, c: int):
        key = (a, b, c) if a <= b <= c else tuple(sorted((a, b, c)))
        val = self._theta_inv.get(key)
        if val is None:
            val = self._lv.inverse(_theta(self._lv, *key))
            self._theta_inv[key] = val
        return val

    def tet(self, A: int, B: int, C: int, D: int, E: int, F: int):
        key = (A, B, C, D, E, F)
        val = self._tet.get(key)
        if val is None:
            val = _tet(self._lv, key)
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

    The sums run on the exact tables; orthogonality is checked with both
    sides multiplied by delta_i (nonzero for every color).
    Failures are reported with the first counterexample tuple.
    """
    tab = tables_override if tables_override is not None else SymbolTables(r, "exact")
    report = IdentityReport(r=r)
    cols = list(range(r - 1))
    zero = tab.zero
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
                          == theta(a, b, i, r) * theta(c, d, i, r))
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
         ((a,) for a in cols if not tab.delta[a] == theta(a, a, 0, r))),
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
