"""Command-line interface: compute, screen, homology, verify.

Exit codes: 0 success, 1 any check or record failure (or output closed by
its reader, which prints nothing), 2 usage error, for which argparse prints
the usage line.  ``--paper-mode`` overrides ``--r``.
All commands are deterministic for a fixed configuration.  Census files
are plain text, one record per line, ``name ; isosig``; lines that fail to
parse or compute are reported in the record notes and never abort a batch.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import NamedTuple

from . import __version__
from .genus import (ScreenRecord, screen, screen_record, trivial_exclusions,
                    PAPER_MODE_R, PAPER_MODE_THRESHOLD)
from .homology import format_h1, h1, parse_h1
from .isosig import decode_isosig
from .statesum import SearchLimits, SearchVolumeError

CSV_COLUMNS = ("name", "isosig", "r", "tv_float", "tv_exact", "genus_lb",
               "h1", "min_gens", "flagged", "notes")
NOTE_SEP = " | "


class Report(NamedTuple):
    rows: list[ScreenRecord]
    provenance: dict

    @property
    def summary(self) -> dict:
        # a failed record is the only kind without H_1
        failed = sum(1 for rec in self.rows if rec.h1 is None)
        flagged = sum(1 for rec in self.rows if rec.flagged)
        return {"total": len(self.rows), "flagged": flagged, "failed": failed}


# --------------------------------------------------------------------------
# serialization (round-trip capable)
# --------------------------------------------------------------------------

def _row(rec: ScreenRecord, r: int | None) -> dict:
    """The report fields of one record, keyed and ordered by CSV_COLUMNS."""
    return {"name": rec.name, "isosig": rec.isosig, "r": r,
            "tv_float": rec.tv_value, "tv_exact": rec.tv_exact,
            "genus_lb": rec.genus_lb,
            "h1": None if rec.h1 is None else format_h1(rec.h1),
            "min_gens": rec.min_generators, "flagged": rec.flagged,
            "notes": list(rec.notes)}


# the text report's optional fields: a row key and its text, shown when set
TEXT_FIELDS = (("tv_float", "tv={:.12g}"), ("tv_exact", "exact={}"),
               ("genus_lb", "genus>={}"), ("h1", "h1={}"))


# the JSON types of the report fields that _record reads besides the notes
JSON_TYPES = {"name": str, "isosig": str, "tv_float": (int, float),
              "tv_exact": str, "genus_lb": int, "h1": str, "flagged": bool}


def _record(row, typed: bool = False) -> ScreenRecord:
    """The record of report fields, as JSON values (typed) or as CSV text
    (with the notes split); an empty or missing optional field reads as
    None.  A record that is not an object, lacks a name, flag or notes, or
    whose notes are not a list of strings raises ValueError; so does, if
    typed, a field not of its JSON type (a null name or flag included)."""
    if not isinstance(row, dict):
        raise ValueError(f"report record is not an object: {row!r}")
    missing = [key for key in ("name", "flagged", "notes") if key not in row]
    if missing:
        raise ValueError(f"report record lacks {', '.join(missing)}")
    notes = row["notes"]
    if not (isinstance(notes, list) and all(isinstance(n, str) for n in notes)):
        raise ValueError(f"report notes are not a list of strings: {notes!r}")
    for key, kind in JSON_TYPES.items() if typed else ():
        value = row.get(key)
        if value is None and key not in ("name", "flagged"):
            continue
        # JSON's true and false are no numbers, though Python's bool is int
        if not isinstance(value, kind) or (
                isinstance(value, bool) and kind is not bool):
            raise ValueError(f"report field {key} is not of its JSON type: "
                             f"{value!r}")

    def opt(parse, key):
        return None if row.get(key) in (None, "") else parse(row[key])
    return ScreenRecord(
        name=row["name"], isosig=opt(str, "isosig"),
        tv_value=opt(float, "tv_float"), genus_lb=opt(int, "genus_lb"),
        h1=opt(parse_h1, "h1"), flagged=bool(int(row["flagged"])),
        notes=tuple(notes), tv_exact=opt(str, "tv_exact"))


def _csv_cell(value):
    if isinstance(value, list):
        return NOTE_SEP.join(value)
    if isinstance(value, bool):
        return int(value)
    return "" if value is None else value


def report_to_json(report: Report) -> str:
    records = [_row(rec, report.provenance.get("r")) for rec in report.rows]
    return json.dumps({"provenance": report.provenance,
                       "summary": report.summary, "records": records}, indent=2)


def report_from_json(text: str) -> Report:
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("records"), list)):
        raise ValueError("a JSON report is an object with a 'records' list")
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValueError(f"report provenance is not an object: {provenance!r}")
    return Report(rows=[_record(item, typed=True) for item in data["records"]],
                  provenance=provenance)


def report_to_csv(report: Report) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    r = report.provenance.get("r")
    for rec in report.rows:
        row = _row(rec, r)
        writer.writerow([_csv_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def report_from_csv(text: str) -> Report:
    import csv
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    report = Report(rows=[], provenance={})
    for cells in reader:
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"CSV line {reader.line_num} has {len(cells)} "
                             f"cells, not {len(CSV_COLUMNS)}")
        row = dict(zip(CSV_COLUMNS, cells))
        if report.provenance.get("r") is None and row["r"]:
            report.provenance["r"] = int(row["r"])
        row["notes"] = row["notes"].split(NOTE_SEP) if row["notes"] else []
        report.rows.append(_record(row))
    return report


def _emit(report: Report, fmt: str, out) -> None:
    if fmt == "json":
        out.write(report_to_json(report) + "\n")
    elif fmt == "csv":
        out.write(report_to_csv(report))
    else:
        for rec in report.rows:
            row = _row(rec, None)
            cols = [row["name"]] + [text.format(row[key])
                                    for key, text in TEXT_FIELDS
                                    if row[key] is not None]
            cols.append(f"flag={'*' if row['flagged'] else '-'}")
            if row["notes"]:
                cols.append(f"notes: {NOTE_SEP.join(row['notes'])}")
            out.write("  ".join(cols) + "\n")
        s = report.summary
        out.write(f"# total {s['total']}  flagged {s['flagged']}  "
                  f"failed {s['failed']}\n")


# --------------------------------------------------------------------------
# input resolution
# --------------------------------------------------------------------------

def _load_triangulation(args):
    """The input triangulation, its name and its signature if it has one;
    each source loads only the module that reads it."""
    if args.fixture_name is not None:
        from .fixtures import fixture
        return fixture(args.fixture_name), args.fixture_name, None
    if args.isosig is not None:
        return (decode_isosig(args.isosig, name=args.isosig),
                args.isosig, args.isosig)
    from .gluing import parse_gluing_file
    with open(args.input_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.basename(args.input_path)
    return parse_gluing_file(text, name=name), name, None


def load_census(path: str) -> list[tuple[str, str]]:
    """Parse ``name ; isosig`` lines.

    A line whose first non-blank character is '#' is a comment, and so is
    the rest of a line from its first '#' after its first ';', which may
    hold further ';'; a '#' inside the name is kept, as in
    ``rp3#rp3 ; <sig>`` or ``L(3,1) # RP3 ; <sig>``.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, rest = line.partition(";")
            name, sep, sig = (head + sep + rest.split("#", 1)[0]).rpartition(";")
            if not sep:
                entries.append((line, ""))  # malformed: surfaces as failure
            else:
                entries.append((name.strip(), sig.strip()))
    return entries


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_compute(args, out) -> int:
    tri, name, sig = _load_triangulation(args)
    limits = SearchLimits(max_states=args.max_states, force=args.force)
    rec = screen_record(name, tri, args.r, mode=args.mode, limits=limits,
                        isosig=sig)
    _emit(Report(rows=[rec], provenance=_provenance(args)), args.fmt, out)
    if args.fmt == "text" and rec.tv_exact is not None:
        # the record's value is the exact one's float
        out.write(f"# exact value, decimal: {rec.tv_value:.12g}\n")
    return 0


def cmd_homology(args, out) -> int:
    tri, name, sig = _load_triangulation(args)
    homology = h1(tri)
    rec = ScreenRecord(name=name, isosig=sig, h1=homology)
    if args.fmt == "text":
        out.write(format_h1(homology) + "\n")
    else:
        _emit(Report(rows=[rec], provenance=_provenance(args)), args.fmt, out)
    return 0


def cmd_screen(args, out) -> int:
    if args.paper_mode:
        args.r = PAPER_MODE_R
        if args.threshold is None:
            args.threshold = PAPER_MODE_THRESHOLD
    entries = load_census(args.census)
    limits = SearchLimits(max_states=args.max_states, force=args.force)
    records = screen(entries, args.r, threshold=args.threshold,
                     mode=args.mode, limits=limits)
    report = Report(rows=[trivial_exclusions(rec) for rec in records],
                    provenance=_provenance(args))
    _emit(report, args.fmt, out)
    # failed records survive the threshold, so this counts every failure
    return 1 if entries and report.summary["failed"] == len(entries) else 0


def cmd_verify(args, out) -> int:
    from . import verify
    return verify.run(args.r_max, out)


def _provenance(args) -> dict:
    p = {"tool": "tvgenus", "version": __version__}
    # r and mode: compute and screen only; threshold: screen only
    for key in ("r", "mode", "threshold"):
        value = getattr(args, key, None)
        if value is not None:
            p[key] = value
    return p


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _checked(convert, rule: str, ok):
    """An argparse type: a value fails unless ``ok(convert(text))``."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


def _fixture(name: str) -> str:
    """The argparse type of --fixture: a name that fixture() builds (a bad
    L(p,q) raises ValueError).  The fixtures load only when one is named."""
    from .fixtures import fixture, fixture_names
    try:
        fixture(name)
        return name
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"must be one of {', '.join(fixture_names())} or L(p,q) with "
            f"p >= 2 and gcd(p, q) = 1, got {name!r}") from None


_LEVEL = _checked(int, "an integer at least 3", lambda v: v >= 3)
_POSITIVE = _checked(float, "a positive number", lambda v: v > 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvgenus",
        description="Turaev-Viro invariants, Heegaard-genus lower bounds and "
                    "census screening for closed 3-manifold triangulations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, about, level=True, report=True, search=False,
                    with_input=False):
        # no abbreviations: verify's --r-max must not take --r
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        p.set_defaults(run=run)
        if level:
            p.add_argument("--r", type=_LEVEL, default=5, help="level r >= 3")
        if report:  # a report in a chosen format
            p.add_argument("--format", dest="fmt",
                           choices=("text", "csv", "json"), default="text")
        if search:
            p.add_argument("--mode", choices=("exact", "float", "both"),
                           default="float")
            p.add_argument("--threads", type=int, choices=(1,), default=1,
                           help="must be 1: the search is serial")
            p.add_argument("--max-states", type=_POSITIVE, default=1e9)
            p.add_argument("--force", action="store_true",
                           help="ignore the search-volume guard")
        if with_input:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--input", dest="input_path",
                                help="gluing file path")
            source.add_argument("--isosig",
                                help="isomorphism signature literal")
            source.add_argument("--fixture", dest="fixture_name",
                                type=_fixture,
                                help="built-in fixture, or the lens space "
                                     "L(p,q)")
        return p

    add_command("compute", cmd_compute, search=True, with_input=True,
                about="Turaev-Viro invariant of one triangulation")
    p_screen = add_command("screen", cmd_screen, search=True,
                           about="screen a census file")
    p_screen.add_argument("--census", required=True,
                          help="census file: 'name ; isosig' per line")
    p_screen.add_argument("--threshold", type=_POSITIVE, default=None)
    p_screen.add_argument("--paper-mode", action="store_true",
                          help="r=5, threshold 7.235, flag column")
    add_command("homology", cmd_homology, level=False, with_input=True,
                about="first homology")
    p_verify = add_command("verify", cmd_verify, level=False, report=False,
                           about="self-verification suite")
    p_verify.add_argument("--r-max", dest="r_max", type=_LEVEL, default=5)
    return parser


def _attach_isosig(argv: list[str]) -> list[str]:
    """argv with ``--isosig -SIG`` written ``--isosig=-SIG``: every signature
    of 63 or more tetrahedra starts with '-', which argparse would read as
    an option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] == "--isosig" and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] = "--isosig=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_isosig(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors return 2 to callers of main()
        return exc.code
    try:
        return args.run(args, sys.stdout)
    except BrokenPipeError:
        # the reader has gone: report nothing, and let what stdout still
        # holds go to devnull, so that its flush at exit cannot fail too
        sys.stdout = open(os.devnull, "w")
        return 1
    except (SearchVolumeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
