"""Write the CLI output set that a change must reproduce byte for byte.

Usage, from the repository root:

    python3 tools/golden_outputs.py OUTDIR [--src SRC]

It runs, in process through ``tvgenus.cli.main`` imported from SRC (default:
this checkout's ``src``), and writes one file per command to OUTDIR:

- ``screen --r 5 --format csv`` over ``perfbench/data/census.txt``;
- ``compute --format json --force`` on every fixture, in float mode at
  r=5..7 and in exact mode at r=5..6;
- ``verify --r-max 6``.

``exit_codes.txt`` lists each file with its command's exit code.  To check a
change, write the set from the parent's ``src`` and from the change's, then
``diff -r`` the two directories: the diff must be empty.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CENSUS = os.path.join(ROOT, "perfbench", "data", "census.txt")


def commands(fixture_names) -> list[tuple[str, list[str]]]:
    """(file name, argv) for every command of the output set."""
    out = [("screen-r5.csv",
            ["screen", "--census", CENSUS, "--r", "5", "--format", "csv"])]
    for name in fixture_names:
        for mode, levels in (("float", (5, 6, 7)), ("exact", (5, 6))):
            for r in levels:
                out.append((f"compute-{mode}-r{r}-{name}.json",
                            ["compute", "--fixture", name, "--r", str(r),
                             "--mode", mode, "--format", "json", "--force"]))
    out.append(("verify-r6.txt", ["verify", "--r-max", "6"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the tvgenus package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from tvgenus import cli
    from tvgenus.fixtures import fixture_names

    os.makedirs(args.outdir, exist_ok=True)
    codes = []
    for filename, cmd in commands(fixture_names()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(cmd)
        with open(os.path.join(args.outdir, filename), "w",
                  encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        codes.append(f"{filename} {code}\n")
    with open(os.path.join(args.outdir, "exit_codes.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(codes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
