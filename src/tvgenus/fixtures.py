"""Built-in triangulations for tests, anchors and offline CLI runs.

The two-tetrahedron manifolds ship as gluing tables in the text format of
complex3.parse_gluing_file (doubling as format examples); the larger ones
ship as isomorphism signatures produced by this package's own canonical
encoder.  tools/make_fixtures.py regenerates everything from scratch and
re-verifies the identifications (homology, orientability, invariant values).
The lens spaces L(p,q) are built on demand by their Seifert-Threlfall gluing.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .complex3 import Triangulation, parse_gluing_file
from .isosig import decode_isosig

_GLUING_FIXTURES = {
    "s3": """\
# 3-sphere: two tetrahedra, one vertex (minimal-size presentation).
tets 2
0: 0 1023 0 1023 1 1203 1 0231
1: 0 2013 0 0312 1 0132 1 0132
""",
    "s3_double": """\
# 3-sphere as the double of a tetrahedron: two tetrahedra glued along all
# four faces by the identity; four vertices.
tets 2
0: 1 0123 1 0123 1 0123 1 0123
1: 0 0123 0 0123 0 0123 0 0123
""",
    "rp3": """\
# real projective 3-space (H1 = Z_2), two tetrahedra, one vertex.
tets 2
0: 0 1023 0 1023 1 1203 1 3021
1: 0 2013 0 1320 1 2031 1 1302
""",
    "l31": """\
# lens space L(3,1) (H1 = Z_3), two tetrahedra, one vertex.
tets 2
0: 0 1023 0 1023 1 1203 1 1203
1: 0 2013 1 1230 1 3012 0 2013
""",
    "s2xs1": """\
# S^2 x S^1 (orientable, H1 = Z), two tetrahedra, one vertex.
tets 2
0: 0 1230 0 3012 1 1203 1 1203
1: 0 2013 1 3201 1 2310 0 2013
""",
    "s2xts1": """\
# twisted S^2 bundle over S^1 (non-orientable, H1 = Z), two tetrahedra.
tets 2
0: 1 0123 1 0123 1 1230 1 3012
1: 0 0123 0 0123 0 1230 0 3012
""",
    "q8": """\
# quaternionic spherical space form S^3/Q8 (H1 = Z_2 + Z_2), two tetrahedra.
tets 2
0: 1 0123 1 3210 1 1032 1 2301
1: 0 0123 0 2301 0 3210 0 1032
""",
}

# 6-tetrahedron one-vertex 3-torus (staircase triangulation of the cube with
# opposite faces identified); the connected sums are built by tools/
# make_fixtures.py from the two-tetrahedron summands above.
_ISOSIG_FIXTURES = {
    "t3": "gvLQQedfedffrwawrhh",
    "rp3#rp3": "kvLMALQkdedeehijijjjvcframeovw",
    "rp3#l31": "kvLMALQkdedeehijijjjvcframtorb",
}

FIXTURE_NAMES = tuple(sorted(_GLUING_FIXTURES) + sorted(_ISOSIG_FIXTURES))


def fixture_names() -> tuple[str, ...]:
    return FIXTURE_NAMES


@lru_cache(maxsize=None)
def fixture(name: str) -> Triangulation:
    """A built-in triangulation by name, or the lens space "L(p,q)"
    (triangulations are immutable, so the cached instance is shared)."""
    if name in _GLUING_FIXTURES:
        return parse_gluing_file(_GLUING_FIXTURES[name], name=name)
    if name in _ISOSIG_FIXTURES:
        return decode_isosig(_ISOSIG_FIXTURES[name], name=name)
    if name.startswith("L(") and name.endswith(")"):
        p, q = map(int, name[2:-1].split(","))
        return _lens(p, q, name)
    raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


def _lens(p: int, q: int, name: str) -> Triangulation:
    """L(p,q) from p tetrahedra: tetrahedron i has faces 0, 1, 2, 3 glued to
    tetrahedra i-q, i+q, i+1, i-1 (mod p) by 1023, 1023, 0132, 0132."""
    if p < 2 or gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) needs p >= 2 and gcd(p, q) = 1")
    swap, turn = (1, 0, 2, 3), (0, 1, 3, 2)
    return Triangulation([[((i - q) % p, swap), ((i + q) % p, swap),
                           ((i + 1) % p, turn), ((i - 1) % p, turn)]
                          for i in range(p)], name=name)


def fixture_gluing_text(name: str) -> str:
    """The gluing-format source of a table-backed fixture."""
    return _GLUING_FIXTURES[name]


def fixture_isosig(name: str) -> str:
    """The shipped signature of an isosig-backed fixture."""
    return _ISOSIG_FIXTURES[name]
