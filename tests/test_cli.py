"""Command-line surface: commands, formats, round trips, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import tvgenus
from tvgenus.cli import (CSV_COLUMNS, Report, main, report_from_csv,
                         report_from_json, report_to_csv, report_to_json)
from tvgenus.fixtures import fixture, fixture_gluing_text, fixture_isosig
from tvgenus.genus import FLAG_DISCLAIMER, screen_record
from tvgenus.gluing import format_gluing_file
from tvgenus.homology import format_h1, parse_h1
from tvgenus.isosig import encode_isosig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_fixture_both(capsys):
    code, out, _ = run_cli(capsys, "compute", "--fixture", "s3", "--r", "5",
                           "--mode", "both")
    assert code == 0
    assert "0.138196601125" in out
    assert "exact=" in out
    assert "h1=0" in out


@pytest.mark.parametrize("name", ["rp3", "rp3#rp3"])
def test_compute_both_reports_an_exact_zero_as_zero(capsys, name):
    # the float sums are -6.1e-17 and +1.1e-17: rounding noise of an exact 0
    code, out, _ = run_cli(capsys, "compute", "--fixture", name, "--r", "5",
                           "--mode", "both")
    assert code == 0
    assert f"{name}  tv=0  exact=0  genus>=0" in out
    assert "turaev-viro value is zero; no genus bound" in out
    code, out, _ = run_cli(capsys, "compute", "--fixture", name, "--r", "5",
                           "--mode", "both", "--format", "json")
    record = json.loads(out)["records"][0]
    assert (record["tv_float"], record["tv_exact"]) == (0.0, "0")


USAGE_ERRORS = [
    pytest.param(["compute", "--fixture", "s3", "--r", "2"],
                 "argument --r: must be an integer at least 3",
                 id="r-too-small"),
    pytest.param(["compute", "--r", "5"],
                 "one of the arguments --input --isosig --fixture is required",
                 id="no-input"),
    pytest.param(["compute", "--fixture", "s3", "--isosig", "cMcabbgqs"],
                 "argument --isosig: not allowed with argument --fixture",
                 id="two-inputs"),
    pytest.param(["homology"], "one of the arguments --input",
                 id="homology-no-input"),
    pytest.param(["compute", "--fixture", "s3", "--threads", "0"],
                 "argument --threads: invalid choice", id="threads"),
    pytest.param(["compute", "--fixture", "s3", "--max-states", "0"],
                 "argument --max-states: must be a positive number",
                 id="max-states-zero"),
    pytest.param(["compute", "--fixture", "s3", "--max-states", "abc"],
                 "argument --max-states: must be a positive number",
                 id="max-states-text"),
    pytest.param(["compute", "--fixture", "s4"],
                 "argument --fixture: must be one of", id="fixture-unknown"),
    pytest.param(["compute", "--fixture", "L(4,2)"],
                 "argument --fixture: must be one of", id="fixture-lens-gcd"),
    pytest.param(["homology", "--fixture", "L(5)"],
                 "argument --fixture: must be one of", id="fixture-lens-text"),
    pytest.param(["screen", "--r", "5"], "--census", id="no-census"),
    pytest.param(["screen", "--census", "c.txt", "--threshold", "0"],
                 "argument --threshold: must be a positive number",
                 id="threshold-zero"),
    pytest.param(["screen", "--census", "c.txt", "--threshold", "-1"],
                 "argument --threshold: must be a positive number",
                 id="threshold-negative"),
    pytest.param(["homology", "--fixture", "rp3", "--mode", "exact"],
                 "unrecognized arguments: --mode exact", id="homology-mode"),
    pytest.param(["homology", "--fixture", "rp3", "--threads", "1"],
                 "unrecognized arguments: --threads 1",
                 id="homology-threads"),
    pytest.param(["homology", "--fixture", "rp3", "--r", "5"],
                 "unrecognized arguments: --r 5", id="homology-r"),
    pytest.param(["verify", "--r", "5"], "unrecognized arguments: --r 5",
                 id="verify-r"),
    pytest.param(["verify", "--r-max", "2"],
                 "argument --r-max: must be an integer at least 3",
                 id="verify-r-max-too-small"),
    pytest.param(["verify", "--format", "json"],
                 "unrecognized arguments: --format json", id="verify-format"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "usage: tvgenus" in err and message in err


def test_compute_isosig_t3(capsys):
    code, out, _ = run_cli(capsys, "compute", "--isosig", fixture_isosig("t3"),
                           "--r", "5")
    assert code == 0
    assert "tv=16" in out
    assert "genus>=3" in out
    assert "h1=3 Z" in out


def _sphere_of_64_tetrahedra():
    # the triangulation of test_isosig's multibyte size header test
    from tvgenus.gluing import pachner_23
    tri = fixture("s3")
    while tri.size < 64:
        face = next(f.index for f in tri.face_orbits
                    if f.slots[0][0] != f.slots[1][0])
        tri = pachner_23(tri, face)
    return tri


@pytest.mark.parametrize("command, extra", [
    ("compute", ["--r", "3", "--force"]),
    ("homology", []),
])
def test_isosig_with_leading_dash(capsys, command, extra):
    # signatures of 63 or more tetrahedra start with "-"; the spaced form
    # takes them as the value of --isosig, like the "=" form
    sig = encode_isosig(_sphere_of_64_tetrahedra())
    assert sig.startswith("-")
    spaced = run_cli(capsys, command, "--isosig", sig, *extra)
    joined = run_cli(capsys, command, f"--isosig={sig}", *extra)
    assert spaced[0] == 0 and spaced[2] == ""
    assert spaced == joined
    if command == "compute":
        assert "tv=0.5 " in spaced[1] and "h1=0 " in spaced[1]
    else:
        assert spaced[1] == "0\n"


def test_isosig_followed_by_an_option_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "compute", "--isosig", "--r", "5")
    assert code == 2 and out == ""
    assert "argument --isosig: expected one argument" in err


def test_compute_from_gluing_file(tmp_path, capsys):
    path = tmp_path / "rp3.tri"
    path.write_text(fixture_gluing_text("rp3"))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--r", "4")
    assert code == 0
    assert "tv=0.146446609407" in out


def test_compute_lens_fixture_equals_its_gluing_file(tmp_path, capsys):
    # --fixture takes every name fixture() builds, lens spaces included
    path = tmp_path / "L(20,9)"
    path.write_text(format_gluing_file(fixture("L(20,9)"), "L(20,9)"))
    runs = [run_cli(capsys, "compute", *source, "--r", "5", "--force",
                    "--format", "json")
            for source in (["--fixture", "L(20,9)"], ["--input", str(path)])]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert json.loads(runs[0][1])["records"][0]["name"] == "L(20,9)"


def test_compute_guard_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--fixture", "rp3#rp3",
                           "--r", "7")
    assert code == 1
    assert "search volume" in err
    code, out, _ = run_cli(capsys, "compute", "--fixture", "rp3#rp3",
                           "--r", "7", "--force")
    assert code == 0


def test_compute_guard_estimates_the_split_search(capsys):
    # exact mode at odd r >= 5 walks 2^E + ((r-1)/2)^E colorings, 1.6e6 for
    # rp3#rp3 (E=13) at r=7, under the default cap; float walks 6^13
    code, out, _ = run_cli(capsys, "compute", "--fixture", "rp3#rp3",
                           "--r", "7", "--mode", "exact", "--format", "json")
    assert code == 0
    assert json.loads(out)["records"][0]["tv_exact"] == "0"
    code, _, err = run_cli(capsys, "compute", "--fixture", "rp3#rp3",
                           "--r", "7", "--mode", "both")
    assert code == 1
    assert "estimated search volume 1.31e+10" in err


def test_homology_command(capsys):
    for name, want in (("rp3", "Z_2"), ("t3", "3 Z"), ("s3", "0")):
        code, out, _ = run_cli(capsys, "homology", "--fixture", name)
        assert code == 0
        assert out.strip() == want


def test_homology_reports_no_level(capsys):
    # homology computes at no level, so its report names none
    code, out, _ = run_cli(capsys, "homology", "--fixture", "q8",
                           "--format", "json")
    data = json.loads(out)
    assert code == 0 and "r" not in data["provenance"]
    assert data["records"][0]["r"] is None
    assert data["records"][0]["h1"] == "2 Z_2"
    code, out, _ = run_cli(capsys, "homology", "--fixture", "q8",
                           "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "q8,,,,,,2 Z_2,2,0,"
    assert report_from_csv(out).provenance == {}


def test_compute_deterministic(capsys):
    a = run_cli(capsys, "compute", "--fixture", "t3", "--r", "5",
                "--format", "json")
    b = run_cli(capsys, "compute", "--fixture", "t3", "--r", "5",
                "--format", "json")
    assert a == b


# --- screen -------------------------------------------------------------------

def _census_file(tmp_path, lines):
    path = tmp_path / "census.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_screen_batch(tmp_path, capsys):
    path = _census_file(tmp_path, [
        "# tiny demonstration census",
        f"torus ; {fixture_isosig('t3')}",
        "broken-line-without-separator",
        f"sum ; {fixture_isosig('rp3#rp3')}",
    ])
    code, out, _ = run_cli(capsys, "screen", "--census", path, "--r", "5",
                           "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("name,isosig,r,tv_float")
    assert [r.split(",")[0] for r in rows[1:]] == [
        "torus", "broken-line-without-separator", "sum"]
    assert "failed" in rows[2]


def test_load_census_comments_and_hash_in_names(tmp_path):
    from tvgenus.cli import load_census
    sig = fixture_isosig("rp3#rp3")
    path = _census_file(tmp_path, [
        "   # an indented comment line ; not a record",
        f"rp3#rp3 ; {sig}",
        f"L(3,1) # RP3 ; {fixture_isosig('t3')}",
        f"sum ; {sig}   # trailing comment",
        "s3 ; cMcabbgqs # from the census; see notes",
    ])
    assert load_census(path) == [
        ("rp3#rp3", sig),
        ("L(3,1) # RP3", fixture_isosig("t3")),
        ("sum", sig),
        ("s3", "cMcabbgqs"),
    ]


def test_screen_paper_mode(tmp_path, capsys):
    path = _census_file(tmp_path, [
        f"torus ; {fixture_isosig('t3')}",
        f"sum ; {fixture_isosig('rp3#rp3')}",
    ])
    code, out, _ = run_cli(capsys, "screen", "--census", path, "--paper-mode",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["provenance"]["r"] == 5
    assert data["provenance"]["threshold"] == 7.235
    names = [rec["name"] for rec in data["records"]]
    assert names == ["torus"]  # the sum falls below the threshold
    assert data["records"][0]["genus_lb"] == 3


def test_float_refuses_a_level_past_the_double_range(tmp_path, capsys):
    # at r=70 the float symbols of s2xs1 leave the double range, those of
    # s3 do not
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "compute", "--fixture", "s2xs1",
                                 "--r", "70", "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "r=70" in err
        assert "--mode exact" in err
    path = _census_file(tmp_path, [
        f"sphere ; {encode_isosig(fixture('s3'))}",
        f"s2xs1 ; {encode_isosig(fixture('s2xs1'))}",
    ])
    code, out, _ = run_cli(capsys, "screen", "--census", path, "--r", "70",
                           "--format", "json")
    assert code == 0
    sphere, s2xs1 = json.loads(out)["records"]
    assert sphere["tv_float"] > 0 and sphere["h1"] == "0"
    assert s2xs1["h1"] is None and "r=70" in s2xs1["notes"][0]


def test_screen_all_failed_exit_code(tmp_path, capsys):
    path = _census_file(tmp_path, ["a ; zzz", "b ; !!!"])
    code, out, _ = run_cli(capsys, "screen", "--census", path)
    assert code == 1


def test_screen_missing_census(capsys):
    code, _, err = run_cli(capsys, "screen", "--census", "/nonexistent/x.txt")
    assert code == 1


def test_unreadable_input_is_an_error(tmp_path, capsys):
    for argv in (["compute", "--input", str(tmp_path)],
                 ["screen", "--census", str(tmp_path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("text", [
    "tets 99999999999\n", "tets 1000000\n0: 1 0123 1 0123 1 0123 1 0123\n"])
def test_gluing_file_with_a_huge_count_is_one_error_line(tmp_path, capsys,
                                                         text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "compute", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: missing gluing lines for tetrahedra [")
    assert err.count("\n") == 1 and len(err) < 120


def test_closed_stdout_exits_quietly(monkeypatch, capsys):
    """A reader that closes the pipe early (``tvgenus ... | head``) ends the
    command with exit 1 and nothing on stderr."""
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["homology", "--fixture", "s3"])
    assert not isinstance(sys.stdout, ClosedPipe)
    sys.stdout.write("dropped\n")  # later output and the exit flush are inert
    sys.stdout.flush()
    sys.stdout.close()
    assert code == 1 and capsys.readouterr().err == ""


def test_summary_counts_only_failed_records(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "homology", "--fixture", "rp3",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == {"total": 1, "flagged": 0,
                                          "failed": 0}
    one_bad = _census_file(tmp_path, [f"torus ; {fixture_isosig('t3')}",
                                      "bad ; zzz"])
    code, out, _ = run_cli(capsys, "screen", "--census", one_bad,
                           "--format", "json")
    assert code == 0 and json.loads(out)["summary"]["failed"] == 1
    all_bad = _census_file(tmp_path, ["a ; zzz", "no-separator"])
    code, out, _ = run_cli(capsys, "screen", "--census", all_bad,
                           "--format", "json")
    assert code == 1 and json.loads(out)["summary"]["failed"] == 2


# --- serialization round trips ---------------------------------------------------

def _sample_report(tmp_path, capsys) -> Report:
    path = _census_file(tmp_path, [
        f"torus ; {fixture_isosig('t3')}",
        f"sum ; {fixture_isosig('rp3#rp3')}",
        "bad ; zzz",
    ])
    code, out, _ = run_cli(capsys, "screen", "--census", path, "--r", "5",
                           "--format", "json")
    assert code == 0
    return report_from_json(out)


def test_json_roundtrip(tmp_path, capsys):
    report = _sample_report(tmp_path, capsys)
    again = report_from_json(report_to_json(report))
    assert again.rows == report.rows
    assert again.provenance == report.provenance


def test_csv_roundtrip(tmp_path, capsys):
    report = _sample_report(tmp_path, capsys)
    again = report_from_csv(report_to_csv(report))
    assert again.rows == report.rows


def test_csv_with_another_header_is_rejected():
    with pytest.raises(ValueError, match="unexpected CSV header"):
        report_from_csv("name,r\ns3,5\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        report_from_csv("")


def test_csv_row_of_another_length_is_rejected():
    header = ",".join(CSV_COLUMNS)
    row = "s3,,5,0.138,,0,0,0,0,"
    assert report_from_csv(f"{header}\n{row}\n").rows[0].name == "s3"
    with pytest.raises(ValueError, match="CSV line 2 has 9 cells, not 10"):
        report_from_csv(f"{header}\ns3,,5,0.138,,0,0,0,0\n")
    with pytest.raises(ValueError, match="CSV line 3 has 11 cells, not 10"):
        report_from_csv(f"{header}\n{row}\n{row},extra\n")


@pytest.mark.parametrize("text, match", [
    ("{}", "object with a 'records' list"),
    ("[]", "object with a 'records' list"),
    ('{"records": {}}', "object with a 'records' list"),
    ('{"records": ["s3"]}', "record is not an object"),
    ('{"records": [{"flagged": false, "notes": []}]}', "record lacks name"),
    ('{"records": [{"name": "s3"}]}', "record lacks flagged, notes"),
    ('{"records": [{"name": "s3", "flagged": false, "notes": "xy"}]}',
     "notes are not a list of strings"),
    ('{"records": [{"name": "s3", "flagged": false, "notes": [1]}]}',
     "notes are not a list of strings"),
])
def test_malformed_json_report_is_rejected(text, match):
    with pytest.raises(ValueError, match=match):
        report_from_json(text)


def test_csv_columns_contract(tmp_path, capsys):
    report = _sample_report(tmp_path, capsys)
    header = report_to_csv(report).splitlines()[0]
    assert header == "name,isosig,r,tv_float,tv_exact,genus_lb,h1,min_gens,flagged,notes"


# --- verify -------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r-max", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "identities r=3" in out
    assert "pachner 2-3 invariance" in out


def test_compute_exact_mode_fills_csv_exact_column(capsys):
    code, out, _ = run_cli(capsys, "compute", "--fixture", "s3", "--r", "4",
                           "--mode", "exact", "--format", "csv")
    assert code == 0
    row = out.splitlines()[1]
    cells = row.split(",")
    assert cells[0] == "s3"
    assert cells[4] != ""  # tv_exact polynomial present
    again = report_from_csv(out)
    assert again.rows[0].tv_exact == cells[4]


def test_screen_exact_mode_reports_exact_value(tmp_path, capsys):
    path = _census_file(tmp_path, [f"s3 ; {encode_isosig(fixture('s3'))}"])
    want = "1/5 - 1/10*z^2 + 1/10*z^3"
    code, out, _ = run_cli(capsys, "screen", "--census", path, "--r", "5",
                           "--mode", "exact", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == want
    assert report_from_csv(out).rows[0].tv_exact == want
    code, out, _ = run_cli(capsys, "screen", "--census", path, "--r", "5",
                           "--mode", "exact", "--format", "json")
    assert code == 0
    assert json.loads(out)["records"][0]["tv_exact"] == want


def test_verify_reports_injected_failure(capsys, monkeypatch):
    import tvgenus.verify as verify_mod
    from tvgenus.verify import AnchorCheck

    def broken_anchors(rs):
        return [AnchorCheck("TV(S^3) = 1/dim(C)", 5, False, "got garbage")]

    monkeypatch.setattr(verify_mod, "tv_anchor_checks", broken_anchors)
    code, out, _ = run_cli(capsys, "verify", "--r-max", "3")
    assert code == 1
    assert "FAIL anchor r=5: TV(S^3) = 1/dim(C)" in out


def test_verify_reports_a_float_disagreement(capsys, monkeypatch):
    # a float sum skewed by 1e-6, as in
    # test_invariant_checks_catch_a_faulty_search: the agreement check
    # fails on its line, and the run still ends with its summary
    from tvgenus import statesum
    run = statesum._run

    def skewed(tri, r, carrier, even=False):
        total, visited, leaves = run(tri, r, carrier, even)
        return (total + 1e-6 if carrier == "float" else total), visited, leaves
    monkeypatch.setattr(statesum, "_run", skewed)
    code, out, _ = run_cli(capsys, "verify", "--r-max", "3")
    assert code == 1
    for name in ("s3", "rp3", "l31", "s2xs1"):
        assert f"FAIL exact/float agreement {name} r=5\n" in out
    assert out.endswith("# verify: 4 failure(s)\n")


def test_benchmark_command_lines(tmp_path, capsys):
    # the argv that perfbench/run.py passes, and the same with --threads 2
    sig = fixture_isosig("t3")
    compute = ["compute", "--isosig", sig, "--r", "5", "--mode", "exact",
               "--format", "json", "--force", "--threads"]
    census = _census_file(tmp_path, [f"t3 ; {sig}"])
    screen = ["screen", "--census", census, "--r", "5", "--format", "csv",
              "--threads"]
    for argv in (compute, screen):
        code, out, _ = run_cli(capsys, *argv, "1")
        assert code == 0 and sig in out
        code, _, err = run_cli(capsys, *argv, "2")
        assert code == 2 and "threads" in err


def test_import_loads_no_thread_pool():
    src = os.path.dirname(os.path.dirname(tvgenus.__file__))
    probe = "import sys, tvgenus.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


# --- one record path: compute and screen ------------------------------------------

def _json_record(capsys, name):
    code, out, _ = run_cli(capsys, "compute", "--fixture", name, "--r", "5",
                           "--format", "json")
    assert code == 0
    return json.loads(out)["records"][0]


def _fields(rec):
    return {"tv_float": rec.tv_value, "genus_lb": rec.genus_lb,
            "h1": format_h1(rec.h1), "flagged": rec.flagged,
            "notes": list(rec.notes)}


@pytest.mark.parametrize("name", ("s3", "rp3", "q8", "t3"))
def test_compute_record_matches_screen_record(capsys, name):
    got = _json_record(capsys, name)
    want = _fields(screen_record(name, fixture(name), 5))
    assert {k: got[k] for k in want} == want


def test_flagged_compute_row_carries_disclaimer(capsys, monkeypatch):
    import tvgenus.cli as cli_mod
    import tvgenus.genus as genus_mod

    def trivial_h1(tri):
        return parse_h1("0")

    monkeypatch.setattr(cli_mod, "h1", trivial_h1)
    monkeypatch.setattr(genus_mod, "h1", trivial_h1)
    got = _json_record(capsys, "t3")
    want = _fields(screen_record("t3", fixture("t3"), 5))
    assert got["flagged"] and FLAG_DISCLAIMER in got["notes"]
    assert {k: got[k] for k in want} == want


def test_screen_threshold_filters_every_record(tmp_path, capsys):
    path = _census_file(tmp_path, [f"torus ; {fixture_isosig('t3')}",
                                   f"sum ; {fixture_isosig('rp3#rp3')}"])
    code, out, _ = run_cli(capsys, "screen", "--census", path,
                           "--threshold", "100", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["records"] == [] and data["summary"]["total"] == 0
