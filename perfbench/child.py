"""One exact-cold record in a fresh process: `tvgenus <args>` via cli.main.

    python3 perfbench/child.py [--trace] compute --isosig <sig> --r 7 ...

Prints one JSON line: the exit code, the command's standard output, this
process's peak resident memory and, with --trace, its per-layer span
summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
        from tracing import Tracer
        tracer = Tracer().install()
    from tvgenus import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    print(json.dumps({"rc": rc, "out": out.getvalue(),
                      "trace": tracer.summary() if trace else None,
                      "peak_rss_kb": peak_rss_kb()}))
    return 0


def peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM).  getrusage would also
    count the parent's pages the process held between fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
