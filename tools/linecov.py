"""Opt-in line coverage of src/emtrace, as a pytest plugin on the stdlib only.

Run from the repository root:

    PYTHONPATH=src:tools python -m pytest -p linecov

It traces every line run in the package's functions and, at the end of the
session, lists per module the function lines that never ran, then their
total. Module and class bodies and ``def`` lines are not counted. Tracing
slows the suite about fourfold, so timing assertions may fail under it.
"""

from __future__ import annotations

import inspect
import pathlib
import sys
import threading

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "emtrace"
_hits = set()  # (filename, line)


def _function_lines(code, out):
    """Add the lines of every function code object nested in ``code`` to ``out``."""
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
        out.update(line for _, _, line in code.co_lines()
                   if line is not None and line != code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            _function_lines(const, out)


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(str(SRC)) else None


def pytest_sessionstart(session):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("line coverage of src/emtrace (unexecuted function lines)")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = set()
        _function_lines(compile(path.read_text(), str(path), "exec"), lines)
        missed = sorted(n for n in lines if (str(path), n) not in _hits)
        total += len(missed)
        terminalreporter.write_line(f"{path.name}: {len(lines) - len(missed)}/{len(lines)}"
                                    + (f" ; missed {missed}" if missed else ""))
    terminalreporter.write_line(f"linecov: {total} unexecuted lines")
