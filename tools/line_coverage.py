"""List the lines of src/tvgenus that a pytest run never executes.

Usage, from the repository root:

    python3 tools/line_coverage.py [PYTEST ARGS ...]

It runs pytest in this process with the given arguments (none: the
configured test paths, as a plain ``pytest`` does), with ``src`` first on
``sys.path``, and traces every frame of a file under ``src/tvgenus`` with
``sys.settrace`` and ``threading.settrace``.  A line is executable when a
code object compiled from the file maps an instruction to it
(``co_lines()``).  It prints each executable line that never ran, as
``path:line: source``, then one summary line, and exits with pytest's exit
code.  A code object stops being traced once all its lines have run, so hot
loops cost little after their first pass; tests run in child processes are
not traced.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "tvgenus") + os.sep


def lines_of(code) -> set:
    """The source lines code's instructions map to (a module's first
    instruction maps to line 0, which is no source line)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: str) -> set:
    """The lines of every code object compiled from the file."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    out = set()
    while stack:
        code = stack.pop()
        out |= lines_of(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def main(argv: list[str]) -> int:
    # lines still to see per traced code object; a code object whose set is
    # empty is no longer traced
    pending: dict = {}

    def local(frame, event, arg):
        lines = pending[frame.f_code]
        lines.discard(frame.f_lineno)
        return local if lines else None

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = pending.get(code)
        if lines is None:
            if not code.co_filename.startswith(PACKAGE):
                return None
            lines = pending[code] = lines_of(code)
        return local(frame, event, arg) if lines else None

    sys.path.insert(0, SRC)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran: dict[str, set] = {}  # by file: a line shared by two code objects
    for code, left in pending.items():  # ran if either ran it
        ran.setdefault(code.co_filename, set()).update(lines_of(code) - left)
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran.get(path, set())):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines of src/tvgenus never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
