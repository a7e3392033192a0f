"""List the lines of ``src/twogrp`` that the tier-1 suite never runs.

    python tools/line_coverage.py [pytest arguments]

Runs the suite in this process (``pytest.main`` from the repository root,
``src`` first on the path; the arguments default to the tier-1 ones) under
a ``sys.settrace`` hook that traces only frames of code in ``src/twogrp``,
then prints each line that never ran as ``path:line: text``, and a count.
A line is one that the compiled module maps an instruction to; a function
is traced from its body, so a lambda counts as run where it is defined.  A
code object is traced until each of its lines has run, so a hot loop costs
little after its first pass.  Code run in a child process (the CLI
children, the scan without numpy) is not seen.  Standard library only, no
``coverage``; the exit code is the suite's.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "twogrp") + os.sep
TIER1 = ["-q", "--continue-on-collection-errors"]


def own_lines(code) -> set[int]:
    """The lines ``code`` itself maps instructions to, nested code apart."""
    return {line for _, _, line in code.co_lines() if line}


def all_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = own_lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= all_lines(const)
    return lines


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the hook: its exit code and the
    lines that ran, per file of the package."""
    ran: dict[str, set[int]] = defaultdict(set)
    left: dict = {}  # per code object of the package, its lines not yet run

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[code.co_filename].add(frame.f_lineno)
            todo = left[code]
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        todo = left.get(code)
        if todo is None:  # the def line runs in the enclosing code
            todo = left[code] = own_lines(code) - ({code.co_firstlineno} if code.co_name != "<module>" else set())
        return local if todo else None

    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = trace_suite(argv or TIER1)
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        source = text.splitlines()
        for line in sorted(all_lines(compile(text, path, "exec")) - ran[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/twogrp never ran (pytest exit code {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
