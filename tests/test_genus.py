"""Genus lower bounds and the counterexample screen."""

import pytest
from hypothesis import given, settings, strategies as st

from tvgenus import genus
from tvgenus.fixtures import fixture, fixture_isosig
from tvgenus.genus import (ACTIONABLE_NOTE, BELOW_ACTIONABLE_NOTE,
                           FLAG_DISCLAIMER, PAPER_MODE_THRESHOLD, ScreenRecord,
                           genus_lower_bound, screen, screen_record,
                           trivial_exclusions, tv_s3)
from tvgenus.homology import parse_h1
from tvgenus.statesum import SearchLimits, tv_invariant


def test_tv_s3_closed_form():
    assert abs(tv_s3(3) - 0.5) < 1e-15
    assert abs(tv_s3(4) - 0.25) < 1e-15
    assert abs(tv_s3(5) - 0.1381966011250105) < 1e-15
    for r in range(3, 20):
        assert 0 < tv_s3(r) < 1


def test_tv_s3_rejects_levels_below_3():
    with pytest.raises(ValueError, match="r must be >= 3"):
        tv_s3(2)


def test_bound_at_one():
    b = genus_lower_bound(1.0, 5)
    assert b.raw == 0.0
    assert b.genus_lb == 1


def test_bound_on_tabulated_values():
    b = genus_lower_bound(13.105572809, 5)
    assert abs(b.raw - 1.3001) < 1e-3
    assert b.genus_lb == 3
    assert genus_lower_bound(16.0, 5).genus_lb == 3
    assert genus_lower_bound(7.999999999999994, 5).genus_lb == 3


def test_bound_of_sphere_itself():
    b = genus_lower_bound(tv_s3(5), 5)
    assert abs(b.raw + 1.0) < 1e-12
    assert b.genus_lb == 0


def test_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        genus_lower_bound(0.0, 5)
    with pytest.raises(ValueError):
        genus_lower_bound(-1.0, 5)


def test_exact_power_boundary_not_inflated():
    # tv equal to dim(C)^k gives raw = k (up to float noise far below the
    # guard) and the bound k+1, never k+2
    dim = 1.0 / tv_s3(5)
    for k in (1, 2, 3):
        b = genus_lower_bound(dim ** k, 5)
        assert abs(b.raw - k) < 1e-9
        assert b.genus_lb == k + 1


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6))
def test_monotone_in_tv(a, b):
    lo, hi = sorted((a, b))
    assert (genus_lower_bound(lo, 5).genus_lb
            <= genus_lower_bound(hi, 5).genus_lb)


# --- soundness on manifolds of known genus ---------------------------------

KNOWN_GENUS = {
    "s3": (0, (3, 4, 5, 6, 7, 8)),
    "rp3": (1, (4, 6)),          # levels where the value is nonzero
    "l31": (1, (4, 5, 6)),
    "s2xs1": (1, (3, 4, 5, 6)),
    "q8": (2, (4, 5, 6)),
    "t3": (3, (5,)),
}


@pytest.mark.parametrize("name", sorted(KNOWN_GENUS))
def test_bound_never_exceeds_known_genus(name):
    genus, levels = KNOWN_GENUS[name]
    for r in levels:
        tv = tv_invariant(fixture(name), r).value_float
        assert tv > 0, (name, r)
        assert genus_lower_bound(tv, r).genus_lb <= genus, (name, r)


def test_bound_tight_on_torus():
    tv = tv_invariant(fixture("t3"), 5).value_float
    assert genus_lower_bound(tv, 5).genus_lb == 3


# --- flag rule ----------------------------------------------------------------

def _record(tv, h1_text, r=5):
    h = parse_h1(h1_text)
    lb = genus_lower_bound(tv, r).genus_lb
    return ScreenRecord(name="x", isosig=None, tv_value=tv, genus_lb=lb,
                        h1=h, flagged=lb > h.min_generators)


def test_flag_rule_examples():
    rec = _record(7.999999999999994, "Z_2 + Z_10")
    assert rec.genus_lb == 3 and rec.min_generators == 2 and rec.flagged
    rec = _record(13.105572809000083, "2 Z_2 + Z_4")
    assert rec.genus_lb == 3 and rec.min_generators == 3 and not rec.flagged
    rec = _record(1.0, "Z_2")
    assert rec.genus_lb == 1 and not rec.flagged


def test_flag_equals_definition():
    for tv, h1s in ((7.5, "Z_4 + Z_12"), (9.2, "2 Z + Z_7"), (16.0, "3 Z")):
        rec = _record(tv, h1s)
        assert rec.flagged == (rec.genus_lb > rec.h1.min_generators)


# --- trivial exclusions ---------------------------------------------------------

def test_trivial_exclusions_below_window():
    rec = trivial_exclusions(_record(2.5527864045, "2 Z_2"))
    assert rec.genus_lb == 2
    assert BELOW_ACTIONABLE_NOTE in rec.notes


def test_trivial_exclusions_note_once():
    rec = trivial_exclusions(_record(2.5527864045, "2 Z_2"))
    assert trivial_exclusions(rec) is rec
    assert rec.notes.count(BELOW_ACTIONABLE_NOTE) == 1


def test_trivial_exclusions_actionable():
    rec = trivial_exclusions(_record(7.999999999999994, "Z_2 + Z_10"))
    assert rec.genus_lb == 3
    assert ACTIONABLE_NOTE in rec.notes


def test_trivial_exclusions_not_flagged():
    rec = trivial_exclusions(_record(13.105572809, "2 Z_2 + Z_4"))
    assert not rec.flagged
    assert ACTIONABLE_NOTE not in rec.notes
    assert BELOW_ACTIONABLE_NOTE not in rec.notes


# --- screen --------------------------------------------------------------------

def test_screen_records_fixture_batch():
    entries = [("sphere", fixture_isosig("t3")),  # name mismatch is fine
               ("sum", fixture_isosig("rp3#rp3")),
               ("bad", "zzz###"),
               ("torus", fixture_isosig("t3"))]
    records = screen(entries, r=5, limits=None)
    assert [rec.name for rec in records] == ["sphere", "sum", "bad", "torus"]
    assert records[0].tv_value is not None
    assert records[2].tv_value is None
    assert any("failed" in n for n in records[2].notes)
    # deterministic across reruns
    records2 = screen(entries, r=5)
    assert [r.tv_value for r in records2] == [r.tv_value for r in records]


def test_screen_threshold_filter():
    entries = [("torus", fixture_isosig("t3")),
               ("sum", fixture_isosig("rp3#rp3"))]
    records = screen(entries, r=5, threshold=PAPER_MODE_THRESHOLD)
    assert [rec.name for rec in records] == ["torus"]
    assert records[0].tv_value > 7.235


# t3 passes the paper threshold and rp3#rp3 does not
REPEATS = [("a", fixture_isosig("t3")), ("b", fixture_isosig("rp3#rp3")),
           ("c", fixture_isosig("t3")), ("bad", "zzz###"),
           ("d", fixture_isosig("rp3#rp3")), ("bad2", "zzz###"),
           ("e", fixture_isosig("t3"))]


def test_screen_repeats_match_each_line_screened_alone():
    records = screen(REPEATS, r=5)
    assert [rec.name for rec in records] == [name for name, _ in REPEATS]
    for entry, rec in zip(REPEATS, records):
        assert [rec] == screen([entry], r=5)
    assert records[2]._replace(name="a") == records[0]


def test_screen_computes_each_signature_once_per_call(monkeypatch):
    decoded, computed = [], []
    decode, record = genus.decode_isosig, genus.screen_record

    def counted_decode(sig, **kw):
        decoded.append(sig)
        return decode(sig, **kw)

    def counted_record(*args, **kw):
        computed.append(kw["isosig"])
        return record(*args, **kw)

    monkeypatch.setattr(genus, "decode_isosig", counted_decode)
    monkeypatch.setattr(genus, "screen_record", counted_record)
    t3, sum_ = fixture_isosig("t3"), fixture_isosig("rp3#rp3")
    for _ in range(2):  # a second call computes every signature again
        decoded.clear()
        computed.clear()
        screen(REPEATS, r=5)
        assert computed == [t3, sum_]
        assert decoded == [t3, sum_, "zzz###", "zzz###"]


def test_screen_repeated_failures_keep_one_record_per_line():
    sig = fixture_isosig("rp3#rp3")
    entries = [("x", sig), ("bad", "zzz###"), ("y", sig), ("bad2", "zzz###")]
    guard = SearchLimits(max_states=10)
    records = screen(entries, r=5, limits=guard)
    assert [rec.name for rec in records] == ["x", "bad", "y", "bad2"]
    for entry, rec in zip(entries, records):
        assert rec.tv_value is None and rec.isosig == entry[1]
        assert [rec] == screen([entry], r=5, limits=guard)
    assert "search volume" in records[2].notes[0]
    assert records[3].notes == records[1].notes


def test_screen_threshold_keeps_repeats_like_their_first_line():
    records = screen(REPEATS, r=5, threshold=PAPER_MODE_THRESHOLD)
    assert [rec.name for rec in records] == ["a", "c", "bad", "bad2", "e"]
    kept = {rec.name: rec for rec in screen(REPEATS, r=5)}
    assert records == [kept[rec.name] for rec in records]


def test_screen_record_flags_disclaimer():
    rec = screen_record("torus", fixture("t3"), 5)
    # 3-torus: bound 3 equals the generator count, so no flag
    assert rec.genus_lb == 3 and rec.h1.min_generators == 3
    assert not rec.flagged
    assert FLAG_DISCLAIMER not in rec.notes


def test_screen_record_zero_value():
    rec = screen_record("rp3", fixture("rp3"), 5)
    assert rec.tv_value == pytest.approx(0.0, abs=1e-12)
    assert rec.genus_lb == 0 and not rec.flagged
    assert any("zero" in n for n in rec.notes)
