"""Write the benchmark's offline census pool, or check the committed one.

    python3 perfbench/make_census.py --seed 2026           # (re)write the pool
    python3 perfbench/make_census.py --seed 2026 --check   # compare, no write

Run from the repository root.  The starts are the 16 orientable
two-tetrahedron triangulations of the exhaustive enumeration in
tools/make_fixtures.py, plus the larger built-in fixtures (t3, rp3#rp3,
rp3#l31).  From each start the script takes WALK_VARIANTS seeded walks of
random 2-3 moves up to MAX_TETS tetrahedra, written as ``name ; isosig``
lines with canonical signatures.  Each start also gets a reference row
(a '#' comment line, so the file is a valid screen input):

    # ref | <start> | tets=<T> | verts=<V> | h1=<H_1> | genus=<g or -> | tv5=<exact TV at r=5>

Names use '_' for '#' and never contain '#'.  Before writing, every
reference row is re-checked against computations made apart from the
program: the naive unpruned state sum and the minors-based H_1 of
tests/oracles.py on the small starts, the anchors TV(S^3) = 1/D,
TV(S^2 x S^1) = 1, TV(T^3) = 16 and connected-sum multiplicativity in the
benchmark's own arithmetic, and the H_1 column of the fixture table in
README.md.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL = os.path.join(HERE, "data", "census.txt")
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"),
                os.path.join(ROOT, "tests")]

from qzeta import Cyc, global_dim, parse_poly  # noqa: E402

WALK_VARIANTS = 8
MAX_TETS = 12
# Heegaard genus of the fixture manifolds: S^3 0; lens spaces and
# S^2 x S^1 1; S^3/Q8 and connected sums of two lens spaces 2; T^3 3.
KNOWN_GENUS = {"s3": 0, "s3_double": 0, "rp3": 1, "l31": 1, "s2xs1": 1,
               "q8": 2, "t3": 3, "rp3#rp3": 2, "rp3#l31": 2}


def vertex_count(tri) -> int:
    """Vertex classes by union-find over the face gluings."""
    parent = list(range(4 * tri.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in range(tri.size):
        for f in range(4):
            t2, p = tri.gluing(t, f)
            for v in range(4):
                if v != f:
                    parent[find(4 * t + v)] = find(4 * t2 + p[v])
    return len({find(x) for x in range(4 * tri.size)})


def readme_h1() -> dict[str, str]:
    table = {}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            m = re.match(r"\|\s*`([^`]+)`\s*\|[^|]*\|\s*(\d+)\s*\|\s*([^|]+?)\s*\|",
                         line)
            if m:
                table[m.group(1)] = m.group(3)
    return table


def starts():
    from make_fixtures import enumerate_two_tet
    from tvgenus import encode_isosig, fixture, fixture_names

    by_sig = {encode_isosig(fixture(n)): n for n in fixture_names()}
    out = {}
    for tri in enumerate_two_tet():
        if tri.orientable:
            sig = encode_isosig(tri)
            out.setdefault(by_sig.get(sig, sig), tri)
    for name in ("t3", "rp3#rp3", "rp3#l31"):
        out[name] = fixture(name)
    return out


def walk(tri, steps: int, rng: random.Random):
    from tvgenus import pachner_23
    for _ in range(steps):
        faces = [fo.index for fo in tri.face_orbits
                 if fo.slots[0][0] != fo.slots[1][0]]
        tri = pachner_23(tri, rng.choice(faces))
        yield tri


def build(seed: int) -> tuple[str, list[str]]:
    from tvgenus import H1Summary, encode_isosig, format_h1, h1, tv_invariant
    from tvgenus.homology import boundary_matrices
    from oracles import h1_via_minors, naive_tv

    problems = []
    readme = readme_h1()
    refs, lines = {}, []
    for name, tri in sorted(starts().items()):
        label = name.replace("#", "_")
        hom = format_h1(h1(tri))
        tv5 = str(tv_invariant(tri, 5, mode="exact").value_exact)
        refs[name] = (tri, hom, tv5)
        genus = KNOWN_GENUS.get(name, "-")
        lines.append(f"# ref | {label} | tets={tri.size} | "
                     f"verts={vertex_count(tri)} | h1={hom} | genus={genus} | "
                     f"tv5={tv5}")
        lines.append(f"{label} ; {encode_isosig(tri)}")
        for k in range(WALK_VARIANTS):
            rng = random.Random(f"{seed}:{name}:{k}")
            for w in walk(tri, MAX_TETS - tri.size, rng):
                lines.append(f"{label}.v{k}.t{w.size} ; {encode_isosig(w)}")
        # independent re-checks of this reference row
        if tri.size <= 6:
            d1, d2 = boundary_matrices(tri)
            free, torsion = h1_via_minors(d1.entries, d2.entries)
            if format_h1(H1Summary(free, tuple(sorted(torsion)))) != hom:
                problems.append(f"{name}: h1 {hom} vs minors oracle")
            naive = naive_tv(tri, 5)
            if abs(naive - parse_poly(5, tv5).real()) > 1e-9 * max(1.0, naive):
                problems.append(f"{name}: tv5 {tv5} vs naive {naive}")
        if name in readme and readme[name] != hom:
            problems.append(f"{name}: h1 {hom} vs README {readme[name]}")
    d = global_dim(5)
    one = Cyc.const(5, 1)
    val = {n: parse_poly(5, ref[2]) for n, ref in refs.items()}
    anchors = [("s3", val["s3"] * d == one), ("s3_double", val["s3_double"] * d == one),
               ("s2xs1", val["s2xs1"] == one), ("t3", val["t3"] == Cyc.const(5, 16)),
               ("rp3#rp3", val["rp3#rp3"] == d * val["rp3"] * val["rp3"]),
               ("rp3#l31", val["rp3#l31"] == d * val["rp3"] * val["l31"])]
    problems += [f"anchor {n} fails" for n, ok in anchors if not ok]
    missing = set(KNOWN_GENUS) - set(refs)
    problems += [f"fixture {n} missing from the starts" for n in sorted(missing)]
    header = [f"# tvgenus benchmark census pool: {len(refs)} orientable starts, "
              f"{WALK_VARIANTS} walks each up to {MAX_TETS} tetrahedra.",
              f"# Written by: python3 perfbench/make_census.py --seed {seed}"]
    return "\n".join(header + lines) + "\n", problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true",
                    help="regenerate and compare with the committed pool")
    args = ap.parse_args(argv)
    text, problems = build(args.seed)
    for p in problems:
        print("MISMATCH", p)
    if args.check:
        with open(POOL, encoding="utf-8") as fh:
            if fh.read() != text:
                print("MISMATCH committed pool differs from a fresh generation")
                problems.append("pool")
    elif not problems:
        os.makedirs(os.path.dirname(POOL), exist_ok=True)
        with open(POOL, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"{'FAILED' if problems else 'ok'}: {text.count(chr(10))} lines")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
