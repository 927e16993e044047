"""Command-line surface: commands, formats, round trips, exit codes."""

import json

from tvgenus.cli import (Report, main, report_from_csv, report_from_json,
                         report_to_csv, report_to_json)
from tvgenus.fixtures import fixture_gluing_text, fixture_isosig


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


def test_compute_r_too_small_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--fixture", "s3", "--r", "2")
    assert code == 2
    assert "at least 3" in err


def test_compute_requires_one_input(capsys):
    code, _, err = run_cli(capsys, "compute", "--r", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "--fixture", "s3",
                           "--isosig", "cMcabbgqs")
    assert code == 2


def test_compute_isosig_t3(capsys):
    code, out, _ = run_cli(capsys, "compute", "--isosig", fixture_isosig("t3"),
                           "--r", "5")
    assert code == 0
    assert "tv=16" in out
    assert "genus>=3" in out
    assert "h1=3 Z" in out


def test_compute_from_gluing_file(tmp_path, capsys):
    path = tmp_path / "rp3.tri"
    path.write_text(fixture_gluing_text("rp3"))
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--r", "4")
    assert code == 0
    assert "tv=0.146446609407" in out


def test_compute_guard_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--fixture", "rp3#rp3",
                           "--r", "7")
    assert code == 1
    assert "search volume" in err
    code, out, _ = run_cli(capsys, "compute", "--fixture", "rp3#rp3",
                           "--r", "7", "--force")
    assert code == 0


def test_homology_command(capsys):
    for name, want in (("rp3", "Z_2"), ("t3", "3 Z"), ("s3", "0")):
        code, out, _ = run_cli(capsys, "homology", "--fixture", name)
        assert code == 0
        assert out.strip() == want


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
    ])
    assert load_census(path) == [
        ("rp3#rp3", sig),
        ("L(3,1) # RP3", fixture_isosig("t3")),
        ("sum", sig),
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


def test_screen_all_failed_exit_code(tmp_path, capsys):
    path = _census_file(tmp_path, ["a ; zzz", "b ; !!!"])
    code, out, _ = run_cli(capsys, "screen", "--census", path)
    assert code == 1


def test_screen_missing_census(capsys):
    code, _, err = run_cli(capsys, "screen", "--census", "/nonexistent/x.txt")
    assert code == 1


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
    assert [r.record for r in again.rows] == [r.record for r in report.rows]
    assert again.provenance == report.provenance


def test_csv_roundtrip(tmp_path, capsys):
    report = _sample_report(tmp_path, capsys)
    again = report_from_csv(report_to_csv(report))
    assert [r.record for r in again.rows] == [r.record for r in report.rows]


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


def test_bad_thread_count_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--fixture", "s3",
                           "--threads", "0")
    assert code == 2
    assert "threads" in err


def test_verify_reports_injected_failure(capsys, monkeypatch):
    import tvgenus.cli as cli_mod
    from tvgenus.statesum import AnchorCheck

    def broken_anchors(rs):
        return [AnchorCheck("TV(S^3) = 1/dim(C)", 5, False, "got garbage")]

    monkeypatch.setattr(cli_mod, "tv_anchor_checks", broken_anchors)
    code, out, _ = run_cli(capsys, "verify", "--r-max", "3")
    assert code == 1
    assert "FAIL anchor r=5: TV(S^3) = 1/dim(C)" in out


def test_threads_default_from_environment(monkeypatch):
    from tvgenus.cli import _build_parser
    monkeypatch.setenv("TVGENUS_THREADS", "4")
    args = _build_parser().parse_args(["compute", "--fixture", "s3"])
    assert args.threads == 4
