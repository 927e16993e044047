"""Command-line interface: compute, screen, homology, verify.

Exit codes: 0 success, 1 any check or record failure, 2 usage error.
All commands are deterministic for a fixed configuration (including the
thread count).  Census files are plain text, one record per line,
``name ; isosig``; lines that fail to parse or compute are reported in the
record notes and never abort a batch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .complex3 import parse_gluing_file
from .fixtures import fixture, fixture_names
from .genus import (ScreenRecord, genus_lower_bound, screen,
                    trivial_exclusions, PAPER_MODE_R, PAPER_MODE_THRESHOLD)
from .homology import format_h1, h1, parse_h1
from .isosig import decode_isosig
from .recoupling import verify_identities
from .statesum import SearchLimits, SearchVolumeError, tv_invariant, tv_anchor_checks

CSV_COLUMNS = ("name", "isosig", "r", "tv_float", "tv_exact", "genus_lb",
               "h1", "min_gens", "flagged", "notes")
NOTE_SEP = " | "


@dataclass(frozen=True)
class RunConfig:
    command: str
    r: int = 5
    mode: str = "float"
    input_path: str | None = None
    isosig: str | None = None
    fixture_name: str | None = None
    census: str | None = None
    threshold: float | None = None
    paper_mode: bool = False
    fmt: str = "text"
    threads: int = 1
    max_states: float = 1e9
    force: bool = False
    r_max: int = 5

    def __post_init__(self):
        if self.r < 3:
            raise ValueError("--r must be at least 3")
        if self.threads < 1:
            raise ValueError("--threads must be at least 1")
        if self.max_states <= 0:
            raise ValueError("--max-states must be positive")
        if self.threshold is not None and self.threshold <= 0:
            raise ValueError("--threshold must be positive")
        sources = [s for s in (self.input_path, self.isosig, self.fixture_name)
                   if s is not None]
        if self.command in ("compute", "homology") and len(sources) != 1:
            raise ValueError(
                "exactly one of --input, --isosig, --fixture is required")


@dataclass
class ReportRow:
    record: ScreenRecord
    tv_exact: str | None = None  # reduced polynomial in zeta, when computed


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        failed = sum(1 for row in self.rows if row.record.tv_value is None)
        flagged = sum(1 for row in self.rows if row.record.flagged)
        return {"total": len(self.rows), "flagged": flagged, "failed": failed}


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


# --------------------------------------------------------------------------
# serialization (round-trip capable)
# --------------------------------------------------------------------------

def report_to_json(report: Report) -> str:
    out = {"provenance": report.provenance, "summary": report.summary,
           "records": []}
    for row in report.rows:
        rec = row.record
        out["records"].append({
            "name": rec.name,
            "isosig": rec.isosig,
            "r": report.provenance.get("r"),
            "tv_float": rec.tv_value,
            "tv_exact": row.tv_exact,
            "genus_lb": rec.genus_lb,
            "h1": None if rec.h1 is None else format_h1(rec.h1),
            "min_gens": rec.min_generators,
            "flagged": rec.flagged,
            "notes": list(rec.notes),
        })
    return json.dumps(out, indent=2)


def report_from_json(text: str) -> Report:
    data = json.loads(text)
    report = Report(provenance=data.get("provenance", {}))
    for item in data["records"]:
        rec = ScreenRecord(
            name=item["name"], isosig=item["isosig"],
            tv_value=item["tv_float"], genus_lb=item["genus_lb"],
            h1=None if item["h1"] is None else parse_h1(item["h1"]),
            flagged=item["flagged"], notes=tuple(item["notes"]))
        report.rows.append(ReportRow(rec, item.get("tv_exact")))
    return report


def report_to_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    r = report.provenance.get("r")
    for row in report.rows:
        rec = row.record
        writer.writerow([
            rec.name,
            rec.isosig or "",
            "" if r is None else r,
            "" if rec.tv_value is None else repr(rec.tv_value),
            row.tv_exact or "",
            "" if rec.genus_lb is None else rec.genus_lb,
            "" if rec.h1 is None else format_h1(rec.h1),
            "" if rec.min_generators is None else rec.min_generators,
            int(rec.flagged),
            NOTE_SEP.join(rec.notes),
        ])
    return buf.getvalue()


def report_from_csv(text: str) -> Report:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    report = Report()
    for cells in reader:
        row = dict(zip(CSV_COLUMNS, cells))
        if report.provenance.get("r") is None and row["r"]:
            report.provenance["r"] = int(row["r"])
        rec = ScreenRecord(
            name=row["name"],
            isosig=row["isosig"] or None,
            tv_value=float(row["tv_float"]) if row["tv_float"] else None,
            genus_lb=int(row["genus_lb"]) if row["genus_lb"] else None,
            h1=parse_h1(row["h1"]) if row["h1"] else None,
            flagged=bool(int(row["flagged"])),
            notes=tuple(row["notes"].split(NOTE_SEP)) if row["notes"] else ())
        report.rows.append(ReportRow(rec, row["tv_exact"] or None))
    return report


def _emit(report: Report, fmt: str, out) -> None:
    if fmt == "json":
        out.write(report_to_json(report) + "\n")
    elif fmt == "csv":
        out.write(report_to_csv(report))
    else:
        for row in report.rows:
            rec = row.record
            cols = [rec.name]
            if rec.tv_value is not None:
                cols.append(f"tv={_fmt12(rec.tv_value)}")
            if row.tv_exact:
                cols.append(f"exact={row.tv_exact}")
            if rec.genus_lb is not None:
                cols.append(f"genus>={rec.genus_lb}")
            if rec.h1 is not None:
                cols.append(f"h1={format_h1(rec.h1)}")
            cols.append(f"flag={'*' if rec.flagged else '-'}")
            if rec.notes:
                cols.append(f"notes: {NOTE_SEP.join(rec.notes)}")
            out.write("  ".join(cols) + "\n")
        s = report.summary
        out.write(f"# total {s['total']}  flagged {s['flagged']}  "
                  f"failed {s['failed']}\n")


# --------------------------------------------------------------------------
# input resolution
# --------------------------------------------------------------------------

def _load_triangulation(config: RunConfig):
    if config.fixture_name is not None:
        return fixture(config.fixture_name), config.fixture_name, None
    if config.isosig is not None:
        return (decode_isosig(config.isosig, name=config.isosig),
                config.isosig, config.isosig)
    with open(config.input_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.basename(config.input_path)
    return parse_gluing_file(text, name=name), name, None


def load_census(path: str) -> list[tuple[str, str]]:
    """Parse ``name ; isosig`` lines.

    A line whose first non-blank character is '#' is a comment, and so is
    a '#' after the signature; a '#' inside the name is kept, as in
    ``rp3#rp3 ; <sig>`` or ``L(3,1) # RP3 ; <sig>``.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, sig = line.rpartition(";")
            if not sep:
                entries.append((line, ""))  # malformed: surfaces as failure
            else:
                entries.append((name.strip(), sig.split("#", 1)[0].strip()))
    return entries


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_compute(config: RunConfig, out) -> int:
    tri, name, sig = _load_triangulation(config)
    limits = SearchLimits(max_states=config.max_states, threads=config.threads,
                          force=config.force)
    result = tv_invariant(tri, config.r, mode=config.mode, limits=limits)
    homology = h1(tri)
    tv = result.value
    notes = tuple(result.warnings)
    if tv > 0:
        lb = genus_lower_bound(tv, config.r).genus_lb
        flagged = lb > homology.min_generators
    else:
        lb, flagged = 0, False
        notes = notes + ("turaev-viro value is zero; no genus bound",)
    rec = ScreenRecord(name=name, isosig=sig, tv_value=tv, genus_lb=lb,
                       h1=homology, flagged=flagged, notes=notes)
    exact_str = None
    if result.value_exact is not None:
        exact_str = str(result.value_exact)
    report = Report(rows=[ReportRow(rec, exact_str)],
                    provenance=_provenance(config))
    _emit(report, config.fmt, out)
    if config.fmt == "text" and result.value_exact is not None:
        out.write(f"# exact value, decimal: {_fmt12(result.value_exact.to_float())}\n")
    return 0


def cmd_homology(config: RunConfig, out) -> int:
    tri, name, sig = _load_triangulation(config)
    homology = h1(tri)
    rec = ScreenRecord(name=name, isosig=sig, tv_value=None, genus_lb=None,
                       h1=homology, flagged=False)
    if config.fmt == "text":
        out.write(format_h1(homology) + "\n")
    else:
        _emit(Report(rows=[ReportRow(rec)], provenance=_provenance(config)),
              config.fmt, out)
    return 0


def cmd_screen(config: RunConfig, out) -> int:
    if config.census is None:
        raise ValueError("--census <path> is required for screen")
    r = PAPER_MODE_R if config.paper_mode else config.r
    threshold = config.threshold
    if config.paper_mode and threshold is None:
        threshold = PAPER_MODE_THRESHOLD
    entries = load_census(config.census)
    limits = SearchLimits(max_states=config.max_states, threads=1,
                          force=config.force)
    records = screen(entries, r, threshold=None, mode=config.mode,
                     limits=limits, threads=config.threads)
    succeeded = sum(1 for rec in records if rec.tv_value is not None)
    if threshold is not None:
        records = [rec for rec in records
                   if rec.tv_value is None or rec.tv_value >= threshold]
    records = [trivial_exclusions(rec) for rec in records]
    report = Report(rows=[ReportRow(rec) for rec in records],
                    provenance=_provenance(config, r=r, threshold=threshold))
    _emit(report, config.fmt, out)
    return 0 if succeeded > 0 or not entries else 1


def cmd_verify(config: RunConfig, out) -> int:
    failures = 0

    def check(label: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        out.write(f"{status:4s} {label}{suffix}\n")
        if not ok:
            failures += 1

    for r in range(3, config.r_max + 1):
        report = verify_identities(r)
        for c in report.checks:
            check(f"identities r={r}: {c.name}", c.passed,
                  "" if c.passed else f"witness {c.witness}")
    for a in tv_anchor_checks(range(3, max(config.r_max, 6) + 1)):
        check(f"anchor r={a.r}: {a.name}", a.passed, a.detail)
    # move invariance and exact/float agreement on the small fixtures
    from .complex3 import pachner_23
    for name in ("s3", "rp3", "l31", "s2xs1"):
        tri = fixture(name)
        fo = next(f.index for f in tri.face_orbits
                  if f.slots[0][0] != f.slots[1][0])
        moved = pachner_23(tri, fo)
        for r in (3, 4, 5):
            a = tv_invariant(tri, r, mode="exact").value_exact
            b = tv_invariant(moved, r, mode="exact").value_exact
            check(f"pachner 2-3 invariance {name} r={r}", a == b)
        both = tv_invariant(tri, 5, mode="both")
        check(f"exact/float agreement {name} r=5",
              abs(both.value_exact.to_float() - both.value_float) <= 1e-9)
    check("homology s3 = 0", format_h1(h1(fixture("s3"))) == "0")
    check("homology rp3 = Z_2", format_h1(h1(fixture("rp3"))) == "Z_2")
    check("homology t3 = 3 Z", format_h1(h1(fixture("t3"))) == "3 Z")
    out.write(f"# verify: {failures} failure(s)\n")
    return 1 if failures else 0


def _provenance(config: RunConfig, r: int | None = None,
                threshold: float | None = None) -> dict:
    p = {"tool": "tvgenus", "version": __version__,
         "r": config.r if r is None else r, "mode": config.mode}
    if threshold is not None:
        p["threshold"] = threshold
    return p


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvgenus",
        description="Turaev-Viro invariants, Heegaard-genus lower bounds and "
                    "census screening for closed 3-manifold triangulations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        p.add_argument("--r", type=int, default=5, help="level r >= 3")
        p.add_argument("--mode", choices=("exact", "float", "both"),
                       default="float")
        p.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("TVGENUS_THREADS", "1")))
        p.add_argument("--max-states", type=float, default=1e9)
        p.add_argument("--force", action="store_true",
                       help="ignore the search-volume guard")
        if with_input:
            p.add_argument("--input", dest="input_path",
                           help="gluing file path")
            p.add_argument("--isosig", help="isomorphism signature literal")
            p.add_argument("--fixture", dest="fixture_name",
                           choices=fixture_names(), help="built-in fixture")

    p_compute = sub.add_parser("compute", help="Turaev-Viro invariant of one "
                                               "triangulation")
    add_common(p_compute)
    p_screen = sub.add_parser("screen", help="screen a census file")
    add_common(p_screen, with_input=False)
    p_screen.add_argument("--census", required=True,
                          help="census file: 'name ; isosig' per line")
    p_screen.add_argument("--threshold", type=float, default=None)
    p_screen.add_argument("--paper-mode", action="store_true",
                          help="r=5, threshold 7.235, flag column")
    p_homology = sub.add_parser("homology", help="first homology")
    add_common(p_homology)
    p_verify = sub.add_parser("verify", help="self-verification suite")
    add_common(p_verify, with_input=False)
    p_verify.add_argument("--r-max", dest="r_max", type=int, default=5)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if v is not None}
    try:
        config = RunConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout
    try:
        if config.command == "compute":
            return cmd_compute(config, out)
        if config.command == "screen":
            return cmd_screen(config, out)
        if config.command == "homology":
            return cmd_homology(config, out)
        if config.command == "verify":
            return cmd_verify(config, out)
        print(f"error: unknown command {config.command}", file=sys.stderr)
        return 2
    except SearchVolumeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
