"""Write the CLI output set that a change must reproduce byte for byte.

Usage, from the repository root:

    python3 tools/golden_outputs.py OUTDIR [--src SRC]

It runs, in process through ``tvgenus.cli.main`` imported from SRC (default:
this checkout's ``src``), and writes each command's standard output to one
file in OUTDIR:

- ``screen --r 5`` over ``perfbench/data/census.txt`` in CSV and in text
  (with its summary line), and ``screen --paper-mode --format json``;
- ``screen --mode exact --format csv`` over the census's start
  triangulations plus one bad line, and ``screen`` over a census of bad
  lines only;
- ``compute --format json --force`` on every fixture, in float mode at
  r=5..7 and in exact mode at r=5..6; on the fixtures with at most 8 edge
  classes (``t3`` among them) in exact mode at r=7, where exact mode splits
  off TV_3 (zero for ``rp3``, nonzero for ``t3``), and in float mode at
  r=8; and on ``t3`` at r=9 (the levels of the deep-search workload);
- ``compute --format json --force`` in float mode on the census's first
  walks (``.v0``) of ``DEEP_WALKS``: ``rp3#rp3`` and ``rp3#l31`` at 11 and
  12 tetrahedra at r=6, ``t3`` at 9 and 11 at r=8, the deep-search inputs;
  and on the lens space L(20,9) at r=5, whose 22 edge classes are more
  than a compiled kernel nests, so its search runs interpreted;
- ``compute`` at r=5 in text (float, both, exact) and in CSV (float,
  exact) on a few fixtures;
- ``homology`` on every fixture in text, CSV and JSON;
- ``verify --r-max 6``;
- the usage errors (exit 2) and run-time errors (exit 1) of ``USAGE_ERRORS``
  and ``RUNTIME_ERRORS``.

``exit_codes.txt`` lists each file with its command's exit code.  A
run-time error's file holds its standard error after its standard output,
so the set pins the program's error messages; the usage errors' standard
error is not kept, since argparse's usage text may change.
``search_counters.txt`` holds the float search's ``states_visited`` and
``states_admissible``, from ``tvgenus.statesum.tv_invariant`` with default
limits, for every fixture at r=3..8 (``refused`` where the search-volume
guard refuses it), ``t3`` at r=9 and every census start at r=5; then the
exact search's, marked ``exact``, for every fixture at r=3..7; then
L(20,9)'s at r=5, forced past the guard.
``kernel_sources.txt`` holds the Python source that ``tvgenus.kernel``
generates, the text it passes to ``compile``, for the plan of every fixture
and every census signature that has at most 20 edge classes, so the diff
shows whether the kernels the workloads run changed.
``pachner_moves.txt`` holds ``format_gluing_file`` of ``pachner_23`` at
every face orbit that joins two distinct tetrahedra, on every triangulation
of a seeded 12-step walk of 2-3 moves from each fixture (the fixture
itself first).  ``orbits.txt`` holds what ``Triangulation`` builds, for
every census signature and every fixture: ``vertex_orbit_index``,
``edge_orbit_index``, ``edge_orbit_sign``, the two slots of each face orbit
and ``orientable``, so the diff compares the build itself and not only what
H_1, the float bits and the search counters show of it.  To check a change, write the set from the parent's ``src``
and from the change's, then ``diff -r`` the two directories: the diff must
be empty.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CENSUS = os.path.join(ROOT, "perfbench", "data", "census.txt")
EXT = {"text": "txt", "csv": "csv", "json": "json"}

# (file stem, argv) of commands that argparse must reject
USAGE_ERRORS = (
    ("compute-r2", ["compute", "--fixture", "s3", "--r", "2"]),
    ("compute-no-input", ["compute", "--r", "5"]),
    ("compute-two-inputs", ["compute", "--fixture", "s3",
                            "--isosig", "cMcabbgqs"]),
    ("homology-no-input", ["homology"]),
    ("compute-threads-0", ["compute", "--fixture", "s3", "--threads", "0"]),
    ("compute-max-states-0", ["compute", "--fixture", "s3",
                              "--max-states", "0"]),
    ("compute-max-states-abc", ["compute", "--fixture", "s3",
                                "--max-states", "abc"]),
    ("screen-no-census", ["screen", "--r", "5"]),
    ("screen-threshold-0", ["screen", "--census", CENSUS, "--threshold", "0"]),
    ("screen-threshold-neg", ["screen", "--census", CENSUS,
                              "--threshold", "-1"]),
    ("homology-mode", ["homology", "--fixture", "rp3", "--mode", "exact"]),
    ("homology-threads", ["homology", "--fixture", "rp3", "--threads", "1"]),
    ("verify-r", ["verify", "--r", "5"]),
    ("verify-r-max-2", ["verify", "--r-max", "2"]),
    ("verify-format-json", ["verify", "--format", "json"]),
)

# (file stem, argv) of commands that fail while running
RUNTIME_ERRORS = (
    ("compute-guard", ["compute", "--fixture", "rp3#rp3", "--r", "7"]),
    # a size header claiming millions of tetrahedra before 3 characters
    ("compute-huge-size-header", ["compute", "--isosig=-ezzzzabc"]),
    # t3's signature less its last character
    ("compute-truncated-isosig", ["compute", "--isosig",
                                  "gvLQQedfedffrwawrh"]),
    ("screen-missing-census", ["screen", "--census",
                               os.path.join(ROOT, "no-such-census.txt")]),
)


# (census walk name, r) of the deep-search workload's input sizes
DEEP_WALKS = (("rp3_rp3.v0.t11", 6), ("rp3_rp3.v0.t12", 6),
              ("rp3_l31.v0.t11", 6), ("rp3_l31.v0.t12", 6),
              ("t3.v0.t9", 8), ("t3.v0.t11", 8))


def census_signatures() -> dict[str, str]:
    """Each census line's signature by its name."""
    with open(CENSUS, encoding="utf-8") as fh:
        return dict((part.strip() for part in line.split(";"))
                    for line in fh if not line.startswith("#"))


def census_starts() -> list[str]:
    """The census lines of the start triangulations (not their walks)."""
    with open(CENSUS, encoding="utf-8") as fh:
        return [line for line in fh
                if not line.startswith("#") and ".v" not in line]


def commands(fixture_names, small_fixtures,
             tmpdir: str) -> list[tuple[str, list[str]]]:
    """(file name, argv) for every command of the output set;
    small_fixtures are the fixtures with at most 8 edge classes."""
    starts = os.path.join(tmpdir, "starts.txt")
    with open(starts, "w", encoding="utf-8") as fh:
        fh.writelines(census_starts() + ["bad ; zzz\n"])
    all_bad = os.path.join(tmpdir, "all-bad.txt")
    with open(all_bad, "w", encoding="utf-8") as fh:
        # the last line has a closed signature's length but boundary facets
        fh.write("a ; zzz\nb ; !!!\nno-separator\nc ; -ezzzzabc\n"
                 "d ; baaaaa\n")
    screen = ["screen", "--census", CENSUS]
    out = [("screen-r5.csv", screen + ["--r", "5", "--format", "csv"]),
           ("screen-r5.txt", screen + ["--r", "5"]),
           ("screen-paper.json", screen + ["--paper-mode", "--format", "json"]),
           ("screen-exact-starts-r5.csv",
            ["screen", "--census", starts, "--r", "5", "--mode", "exact",
             "--format", "csv"]),
           ("screen-all-bad.txt", ["screen", "--census", all_bad])]
    for name in fixture_names:
        for mode, levels in (("float", (5, 6, 7)), ("exact", (5, 6))):
            for r in levels:
                out.append((f"compute-{mode}-r{r}-{name}.json",
                            ["compute", "--fixture", name, "--r", str(r),
                             "--mode", mode, "--format", "json", "--force"]))
    for mode, r, names in (("exact", 7, small_fixtures),
                           ("float", 8, small_fixtures), ("float", 9, ["t3"])):
        for name in names:
            out.append((f"compute-{mode}-r{r}-{name}.json",
                        ["compute", "--fixture", name, "--r", str(r),
                         "--mode", mode, "--format", "json", "--force"]))
    sigs = census_signatures()
    for name, r in DEEP_WALKS:
        out.append((f"compute-float-r{r}-{name}.json",
                    ["compute", f"--isosig={sigs[name]}", "--r", str(r),
                     "--mode", "float", "--format", "json", "--force"]))
    out.append(("compute-float-r5-L20_9.json",
                ["compute", "--fixture", "L(20,9)", "--r", "5", "--mode",
                 "float", "--format", "json", "--force"]))
    for name in ("s3", "rp3", "t3"):
        for mode, fmt in (("float", "text"), ("both", "text"),
                          ("exact", "text"), ("float", "csv"),
                          ("exact", "csv")):
            out.append((f"compute-{mode}-r5-{name}.{EXT[fmt]}",
                        ["compute", "--fixture", name, "--r", "5",
                         "--mode", mode, "--format", fmt]))
    for name in fixture_names:
        for fmt in ("text", "csv", "json"):
            out.append((f"homology-{name}.{EXT[fmt]}",
                        ["homology", "--fixture", name, "--format", fmt]))
    out.append(("verify-r6.txt", ["verify", "--r-max", "6"]))
    out += [(f"usage-{stem}.txt", argv) for stem, argv in USAGE_ERRORS]
    out += [(f"error-{stem}.txt", argv) for stem, argv in RUNTIME_ERRORS]
    return out


def search_counters(triangulations, mode: str = "float",
                    force: bool = False) -> list[str]:
    """One line per (name, triangulation, r): its search counters in the
    mode, or ``refused`` when the search-volume guard refuses it (the
    default guard, or none with force); exact lines are marked
    ``exact``."""
    from tvgenus.statesum import SearchLimits, SearchVolumeError, tv_invariant

    mark = " exact" if mode == "exact" else ""
    lines = []
    for name, tri, r in triangulations:
        try:
            res = tv_invariant(tri, r, mode=mode,
                               limits=SearchLimits(force=force))
            counts = f"{res.states_visited} {res.states_admissible}"
        except SearchVolumeError:
            counts = "refused"
        lines.append(f"{name} r={r}{mark} {counts}\n")
    return lines


def kernel_sources(triangulations) -> list[str]:
    """A header line and the generated kernel source of the plan of each
    (name, triangulation) with at most 20 edge classes, captured where
    tvgenus.kernel compiles it."""
    import builtins

    from tvgenus import kernel
    from tvgenus.statesum import _make_plan

    out = []

    def capture(text, *args):
        out.append(text + "\n")
        return builtins.compile(text, *args)

    kernel.compile = capture  # shadows the builtin in the module's globals
    try:
        for name, tri in triangulations:
            if len(tri.edge_orbits) <= 20:
                out.append(f"# {name}\n")
                kernel.compile_kernel(_make_plan(tri))
    finally:
        del kernel.compile
    return out


def pachner_moves(fixtures) -> list[str]:
    """The gluing file of the 2-3 move at every eligible face of each
    triangulation along a 12-step walk from each (name, triangulation),
    seeded by the name, the start first."""
    from tvgenus import format_gluing_file, pachner_23

    out = []
    for name, tri in fixtures:
        rng = random.Random(name)
        for step in range(13):
            moves = [pachner_23(tri, fo.index) for fo in tri.face_orbits
                     if fo.slots[0][0] != fo.slots[1][0]]
            out += [format_gluing_file(moved, f"{name} step {step} move {i}")
                    for i, moved in enumerate(moves)]
            tri = rng.choice(moves)
    return out


def orbits(triangulations) -> list[str]:
    """The orbit data of each (name, triangulation), one line per field."""
    out = []
    for name, tri in triangulations:
        for field in ("vertex_orbit_index", "edge_orbit_index",
                      "edge_orbit_sign"):
            out.append(f"{name} {field} "
                       f"{' '.join(map(str, getattr(tri, field)))}\n")
        out.append(f"{name} face_orbits " + " ".join(
            f"{t}.{f}-{t2}.{f2}" for _, ((t, f), (t2, f2)) in tri.face_orbits)
            + "\n")
        out.append(f"{name} orientable {tri.orientable}\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the tvgenus package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from tvgenus import cli
    from tvgenus.fixtures import fixture, fixture_names
    from tvgenus.isosig import decode_isosig

    small = [name for name in fixture_names()
             if len(fixture(name).edge_orbits) <= 8]
    os.makedirs(args.outdir, exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for filename, cmd in commands(fixture_names(), small, tmpdir):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                code = cli.main(cmd)
            with open(os.path.join(args.outdir, filename), "w",
                      encoding="utf-8") as fh:
                fh.write(buf.getvalue())
                if filename.startswith("error-"):
                    fh.write(err.getvalue())
            codes.append(f"{filename} {code}\n")
    with open(os.path.join(args.outdir, "exit_codes.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(codes)
    runs = [(name, fixture(name), r) for name in fixture_names()
            for r in range(3, 9)]
    runs.append(("t3", fixture("t3"), 9))
    for line in census_starts():
        name, _, sig = line.partition(";")
        runs.append((name.strip(), decode_isosig(sig.strip()), 5))
    with open(os.path.join(args.outdir, "search_counters.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(search_counters(runs))
        fh.writelines(search_counters(
            [(name, fixture(name), r) for name in fixture_names()
             for r in range(3, 8)], mode="exact"))
        fh.writelines(search_counters([("L(20,9)", fixture("L(20,9)"), 5)],
                                      force=True))
    with open(os.path.join(args.outdir, "kernel_sources.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(kernel_sources(
            [(name, fixture(name)) for name in fixture_names()]
            + [(name, decode_isosig(sig))
               for name, sig in census_signatures().items()]))
    with open(os.path.join(args.outdir, "pachner_moves.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(pachner_moves((name, fixture(name))
                                    for name in fixture_names()))
    with open(os.path.join(args.outdir, "orbits.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(orbits([(name, fixture(name))
                              for name in fixture_names()]))
        fh.writelines(orbits((name, decode_isosig(sig)) for name, sig
                             in census_signatures().items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
