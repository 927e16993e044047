"""Acceptance suite: one test per release criterion, one printed line each.

Criterion 7 (reproducing the full census screen) needs the external census
file of closed orientable manifolds; point TVGENUS_CENSUS at a text file of
``name ; isosig`` lines to enable it.  Everything else runs offline on the
built-in fixtures and the frozen reference table.
"""

import csv
import math
import os
import time
from pathlib import Path

import pytest

from tvgenus.cli import load_census
from tvgenus.cyclotomic import CycNumber
from tvgenus.fixtures import fixture, fixture_names
from tvgenus.genus import genus_lower_bound, screen
from tvgenus.gluing import pachner_23
from tvgenus.homology import boundary_matrices, format_h1, h1, parse_h1
from tvgenus.recoupling import global_dim
from tvgenus.statesum import SearchLimits, tv_invariant
from tvgenus.verify import verify_identities

import oracles

DATA = Path(__file__).parent / "data"
FORCE = SearchLimits(force=True)


def _report(num, text, t0):
    print(f"criterion {num}: {text}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_sphere_anchor():
    t0 = time.perf_counter()
    sphere = fixture("s3")
    for r in range(3, 9):
        res = tv_invariant(sphere, r, mode="both")
        assert res.value_exact == global_dim(r).inverse(), r
        assert abs(res.value_float - 2 * math.sin(math.pi / r) ** 2 / r) <= 1e-9
    _report(1, "TV(S^3) = 2 sin^2(pi/r)/r for r=3..8, exact and float", t0)


def test_criterion_02_s2xs1_anchor():
    t0 = time.perf_counter()
    tri = fixture("s2xs1")
    for r in range(3, 9):
        assert tv_invariant(tri, r, mode="exact").value_exact == CycNumber.one(r)
    _report(2, "TV(S^2 x S^1) = 1 exactly for r=3..8", t0)


def test_criterion_03_torus():
    t0 = time.perf_counter()
    tri = fixture("t3")
    res = tv_invariant(tri, 5, mode="both")
    assert abs(res.value_float - 16.0) <= 1e-9
    assert abs(res.value_float - 15.999999999999984) <= 1e-6  # tabulated
    assert format_h1(h1(tri)) == "3 Z"
    _report(3, "TV_5(3-torus) = 16 within 1e-9 and H1 = 3 Z", t0)


def test_criterion_04_pachner_invariance():
    t0 = time.perf_counter()
    for name in fixture_names():
        tri = fixture(name)
        face = next(f.index for f in tri.face_orbits
                    if f.slots[0][0] != f.slots[1][0])
        moved = pachner_23(tri, face)
        assert moved.size == tri.size + 1
        for r in range(3, 8):
            a = tv_invariant(tri, r, mode="exact", limits=FORCE).value_exact
            b = tv_invariant(moved, r, mode="exact", limits=FORCE).value_exact
            assert a == b, (name, r)
    _report(4, "exact 2-3 move invariance on every fixture, r=3..7", t0)


def test_criterion_05_recoupling_identities():
    t0 = time.perf_counter()
    for r in range(3, 8):
        report = verify_identities(r)
        assert report.all_passed, (r, [c.name for c in report.checks
                                       if not c.passed])
    _report(5, "bubble, symmetry, orthogonality, pentagon exact for r=3..7", t0)


def test_criterion_06_connected_sum_multiplicativity():
    t0 = time.perf_counter()
    sums = (("rp3#rp3", "rp3", "rp3"), ("rp3#l31", "rp3", "l31"))
    for r in (3, 4, 5):
        sphere = tv_invariant(fixture("s3"), r, mode="exact").value_exact
        for total, a, b in sums:
            lhs = tv_invariant(fixture(total), r, mode="exact",
                               limits=FORCE).value_exact * sphere
            rhs = (tv_invariant(fixture(a), r, mode="exact").value_exact
                   * tv_invariant(fixture(b), r, mode="exact").value_exact)
            assert lhs == rhs, (total, r)
    for r in (6, 7):
        s3v = tv_invariant(fixture("s3"), r).value_float
        for total, a, b in sums:
            lhs = tv_invariant(fixture(total), r, limits=FORCE).value_float * s3v
            rhs = (tv_invariant(fixture(a), r).value_float
                   * tv_invariant(fixture(b), r).value_float)
            assert abs(lhs - rhs) <= 1e-9, (total, r)
    _report(6, "TV(M#N) TV(S^3) = TV(M) TV(N): exact r=3..5, float r=6..7", t0)


CENSUS_ENV = "TVGENUS_CENSUS"
SPOT_VALUES = (13.105572809000083, 7.999999999999994,
               9.919349550499517, 7.2360679774997605)


def _load_reference():
    rows = []
    with open(DATA / "screen_reference_r5.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((row["name"], float(row["tv"]), row["h1"],
                         row["flagged"] == "1"))
    return rows


def test_criterion_07_census_screen():
    path = os.environ.get(CENSUS_ENV) or str(DATA / "census_closed_or.txt")
    if not os.path.exists(path):
        pytest.skip(
            f"external census file not available; set {CENSUS_ENV} to the "
            "closed orientable census ('name ; isosig' lines) to run the "
            "full screen reproduction")
    t0 = time.perf_counter()
    records = screen(load_census(path), r=5,
                     limits=SearchLimits(max_states=1e12, force=True))
    by_name = {}
    for rec in records:
        assert rec.tv_value is not None, rec.notes
        by_name.setdefault(rec.name, []).append(rec)
    reference = _load_reference()
    for name, tv, h1_text, flagged in reference:
        assert name in by_name, f"census is missing {name!r}"
        matches = [rec for rec in by_name[name]
                   if abs(rec.tv_value - tv) <= 1e-6]
        assert matches, (name, tv, [r.tv_value for r in by_name[name]])
        rec = matches[0]
        assert rec.flagged == flagged, name
        assert rec.h1 == parse_h1(h1_text), name
    got_flagged = {rec.name for rec in records
                   if rec.tv_value >= 7.235 and rec.flagged}
    want_flagged = {name for name, tv, h1s, fl in reference if fl}
    assert got_flagged == want_flagged
    for spot in SPOT_VALUES:
        assert any(abs(rec.tv_value - spot) <= 1e-6 for rec in records), spot
    _report(7, f"census screen matches the reference table "
               f"({len(reference)} rows)", t0)


def test_criterion_08_screen_flag_rule_reference_table():
    t0 = time.perf_counter()
    rows = _load_reference()
    assert len(rows) == 168
    flagged_count = 0
    for name, tv, h1_text, flagged in rows:
        lb = genus_lower_bound(tv, 5).genus_lb
        gens = parse_h1(h1_text).min_generators
        assert (lb > gens) == flagged, (name, tv, h1_text, lb, gens)
        flagged_count += flagged
    assert flagged_count == 92
    for spot in SPOT_VALUES:
        assert any(abs(tv - spot) <= 1e-12 for _, tv, _, _ in rows)
    _report(8, "flag rule reproduces all 168 reference rows (92 flagged)", t0)


def test_criterion_09_homology_oracle():
    t0 = time.perf_counter()
    for name in fixture_names():
        tri = fixture(name)
        d1, d2 = boundary_matrices(tri)
        got = h1(tri)
        free, torsion = oracles.h1_via_minors(d1.entries, d2.entries)
        assert (got.free_rank, got.torsion) == (free, torsion), name
    import random
    from tvgenus.homology import smith_normal_form
    rng = random.Random(1234)
    for _ in range(1000):
        R, C = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(C)] for _ in range(R)]
        diag = smith_normal_form(mat)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0, mat
        rows = list(range(R))
        cols = list(range(C))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert smith_normal_form([[mat[i][j] for j in cols]
                                  for i in rows]) == diag, mat
    _report(9, "homology matches the minors oracle; SNF properties on 1000 "
               "random matrices", t0)


def test_criterion_10_agreement_and_determinism():
    t0 = time.perf_counter()
    for name in fixture_names():
        tri = fixture(name)
        r = 4 if "#" in name else 5
        res = tv_invariant(tri, r, mode="both", limits=FORCE)
        assert abs(res.value_exact.to_float() - res.value_float) <= 1e-9, name
        rerun = tv_invariant(tri, r, limits=FORCE).value_float
        assert rerun == res.value_float, name
    _report(10, "exact/float within 1e-9 and bit-identical reruns", t0)
