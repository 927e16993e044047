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
zeta = e^(i*pi/r), with each [n] rounded to the integer it is at r=3, so
that every float value there is exact; theta_f and tet_symbol_f are the
float wrappers of the same formulas.  tables(r, mode) is the one carrier object of a level, with
the state sum's dense 1/theta table theta_inv, the table third of the
colors each pair admits, read off theta_inv, the Tet memo tet_memo, and
tet_rows, the rows of tet_memo that the compiled float kernel reads,
shared by every search of the level; the exact carrier fills Tet once per
orbit of the 24 tetrahedral relabelings, and its float twin once per
tuple, since its argument order fixes its bits.
D', the even colors' share of D, normalizes the even-color state sum at
odd r.  TET_ARG_EDGES places the arguments A..F of Tet on the edges 01,
02, 23, 13, 12, 03 of a tetrahedron; the state sum's plan and the symmetry
check of verify.verify_identities both read it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from functools import cached_property, lru_cache, reduce

import tvgenus  # tvgenus.CycNumber loads cyclotomic on first use
from .complex3 import EDGE_INDEX, EDGES


# --------------------------------------------------------------------------
# per-level constants of the two carriers
# --------------------------------------------------------------------------

class _Carrier:
    """[n] and [n]! for n < 2r ([n] has period 2r; [n]! = 0 from n = r on,
    as [r] = 0), delta_i, D and D', in one carrier, and the memoized symbols
    of the state sum.  Entries are never mutated once written."""

    def __init__(self, r: int, qint: list, zero, one):
        self.r, self.zero, self.one, self.qint = r, zero, one, qint
        self.fact = list(itertools.accumulate(qint[1:], operator.mul,
                                              initial=one))
        self.delta = [-d if i % 2 else d for i, d in enumerate(qint[1:r])]
        # d ** 2, not d * d: for doubles the two can differ in the last bit;
        # added left to right, as sum() compensates float rounding from
        # Python 3.12 on, which would move the last bit with the version
        self.dim = reduce(operator.add, (d ** 2 for d in self.delta), zero)
        self.tet_memo: dict = {}
        # the compiled kernel's Tet rows (kernel.py): views of tet_memo,
        # shared by every float search of the level
        self.tet_rows: dict = {}

    @cached_property
    def dim_even(self):
        """D' = the sum of delta_c^2 over the even colors c; at odd r it
        normalizes the even-color state sum, and D = 2 D'."""
        return reduce(operator.add, (d ** 2 for d in self.delta[::2]),
                      self.zero)

    @cached_property
    def theta_inv(self) -> list:
        """theta_inv[a][b][c] = 1/theta(a, b, c), None where the triple is
        inadmissible.  Each value is computed once, at the sorted triple,
        and shared by its permutations."""
        cols = range(self.r - 1)
        table = [[[None] * len(cols) for _ in cols] for _ in cols]
        for key in itertools.combinations_with_replacement(cols, 3):
            if admissible(*key, self.r):
                val = self.inverse(_theta(self, *key))
                for a, b, c in itertools.permutations(key):
                    table[a][b][c] = val
        return table

    @cached_property
    def third(self) -> list:
        """third[a][b] = the ascending tuple of colors c for which
        theta_inv[a][b][c] is not None."""
        return [[tuple(c for c, val in enumerate(row) if val is not None)
                 for row in plane] for plane in self.theta_inv]

    def tet(self, A: int, B: int, C: int, D: int, E: int, F: int):
        """Tet[A B E; C D F], filled into tet_memo on first use: the state
        sum touches only the tuples that occur."""
        key = (A, B, C, D, E, F)
        val = self.tet_memo.get(key)
        if val is None:
            val = self.tet_memo[key] = _tet(self, key)
        return val


class _Exact(_Carrier):
    """CycNumber constants, plus 1/[n]! for n < r, each inverted once."""

    def __init__(self, r: int):
        from .cyclotomic import CycNumber  # float processes never load it
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

    def tet(self, A: int, B: int, C: int, D: int, E: int, F: int):
        """Tet[A B E; C D F] from tet_memo.  On a miss it is read, or
        filled, at the least of the 24 relabelings of the tuple, so each
        symmetry orbit is computed once, and stored under this key too."""
        key = (A, B, C, D, E, F)
        val = self.tet_memo.get(key)
        if val is None:
            orbit_key = min(relabel(key) for relabel in _TET_RELABELINGS)
            val = self.tet_memo.get(orbit_key)
            if val is None:
                val = self.tet_memo[orbit_key] = _tet(self, orbit_key)
            self.tet_memo[key] = val
        return val

    @staticmethod
    def inverse(x):
        return x.inverse()


class _Float(_Carrier):
    """The same constants in doubles, [n] evaluated at zeta = e^(i*pi/r)."""

    def __init__(self, r: int):
        z = cmath.exp(1j * math.pi / r)
        qint = [((z ** n - z ** (-n)) / (z - z ** (-1))).real if n else 0.0
                for n in range(2 * r)]
        if r == 3:
            # each [n] is 0 or +-1; as exact doubles, every symbol, product
            # and sum at r=3 is exact, so TV_3 carries no rounding noise
            qint = [float(round(x)) for x in qint]
        super().__init__(r, qint, 0.0, 1.0)

    def quot(self, x, up, down):
        """x * prod [u]! / prod [d]!.  This evaluation order fixes every bit
        of the float symbols, and float noise decides visible outputs (the
        sign of a TV that is exactly 0).  A product past the double range
        is refused: the quotient would read 0, inf or nan."""
        num = den = 1.0
        for k in up:
            num *= self.fact[k]
        for k in down:
            den *= self.fact[k]
        if max(num, den) == math.inf:
            raise ValueError(f"float symbols leave the double range at "
                             f"r={self.r}; use --mode exact")
        return num / den * x

    def div_fact(self, x, n: int):
        return x / self.fact[n]

    @cached_property
    def theta_inv(self) -> list:
        """The table, refused before its (r-1)^3 slots are allocated where
        a theta of the level is past the double range: from r=117 on.  With
        m, n, p as in _theta, [k] >= 1 for 1 <= k <= r-1, so raising m, n
        or p raises both factorial products of theta, and the triples with
        m+n+p = r-2 decide."""
        s = self.r - 2
        for m in range(s + 1):
            for n in range(s + 1 - m):
                p = s - m - n
                self.quot(self.one, (s + 1, m, n, p), (m + n, n + p, m + p))
        return super().theta_inv

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


# bounded: a carrier's tables grow as r^3 (unbounded, float s3 and s2xs1
# at r=3..80 kept 280 MB); 8 holds the levels of a deep-search round (float
# r=3, 6, 8, 9) and the three carriers of a 'both' call at odd r
@lru_cache(maxsize=8)
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
# the tetrahedron edge of each argument A..F of Tet, as an index into
# complex3.EDGES: A, B, C, D, E, F = 01, 02, 23, 13, 12, 03
TET_ARG_EDGES = (0, 1, 5, 4, 3, 2)


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

def quantum_integer(n: int, r: int) -> tvgenus.CycNumber:
    """[n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) = sum of zeta^(n-1-2k)."""
    return _at(r, True, n).qint[n % (2 * r)]


def quantum_factorial(n: int, r: int) -> tvgenus.CycNumber:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    return _at(r, True, n).fact[min(n, r)]


def qdim(i: int, r: int) -> tvgenus.CycNumber:
    """Signed quantum dimension delta_i = (-1)^i [i+1]."""
    lv = _at(r, True)
    if not 0 <= i <= r - 2:
        raise ValueError(f"color {i} out of range 0..{r - 2}")
    return lv.delta[i]


def global_dim(r: int) -> tvgenus.CycNumber:
    """dim(C) = sum of delta_i^2 = sum of [i+1]^2 over the color set."""
    return _at(r, True).dim


def theta(a: int, b: int, c: int, r: int) -> tvgenus.CycNumber:
    """Theta network value; symmetric in a, b, c; nonzero when admissible."""
    return _theta(_at(r, True), a, b, c)


def tet_symbol(A: int, B: int, C: int, D: int, E: int, F: int,
               r: int) -> tvgenus.CycNumber:
    """Tetrahedral network Tet[A B E; C D F].

    The four vertices carry the admissible triples (A,B,E), (C,D,E), (A,D,F)
    and (B,C,F); the value is invariant under the order-24 symmetry group of
    the tetrahedron acting on the edge labels.
    """
    return _tet(_at(r, True), (A, B, C, D, E, F))


def theta_f(a: int, b: int, c: int, r: int) -> float:
    return _theta(_at(r, False), a, b, c)


def tet_symbol_f(A: int, B: int, C: int, D: int, E: int, F: int, r: int) -> float:
    return _tet(_at(r, False), (A, B, C, D, E, F))


# --------------------------------------------------------------------------
# the tables of the state sum
# --------------------------------------------------------------------------

def tables(r: int, mode: str) -> _Carrier:
    """The shared carrier of level r: CycNumber ('exact') or float."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    return _at(r, mode == "exact")


def _relabel_tet(tup, sigma):
    """Edge labels after the vertex permutation sigma of {0,1,2,3}."""
    label = dict(zip(TET_ARG_EDGES, tup))  # EDGES index -> label
    return tuple(label[EDGE_INDEX[sigma[u], sigma[v]]]
                 for u, v in (EDGES[e] for e in TET_ARG_EDGES))


# the 24 relabelings of a Tet argument tuple, as functions of the tuple
_TET_RELABELINGS = tuple(
    operator.itemgetter(*_relabel_tet(range(6), sigma))
    for sigma in itertools.permutations(range(4)))
