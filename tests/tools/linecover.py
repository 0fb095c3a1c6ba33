"""Which function-body lines of src/regseq a pytest run never reaches.

A pytest plugin on the standard library alone: ``sys.settrace`` and
``threading.settrace`` record the lines that run in files under
``src/regseq``, and at the end of the session every function with unreached
lines is printed with those lines, followed by the totals.  Run it by hand
from the repository root (it is not part of tier-1):

    PYTHONPATH=src:tests/tools python -m pytest -q -p linecover

A function's body lines are the lines its bytecode maps to, apart from the
``def`` line itself; lambdas, comprehensions and nested functions count
towards the function that encloses them, and module and class bodies are
left out.  Only this process is traced: lines that only CLI subprocess
tests reach count as unreached.  Tracing makes the run several times
slower, so a test that times itself can fail under it
(test_image_sum_stops_at_the_partial_sum_cap does).
"""

import inspect
import os
import sys
import threading
import types

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..",
                                     "src", "regseq"))
PREFIX = ROOT + os.sep

_reached = set()   # (co_filename, line)
_traced = {}       # code object -> whether its file is under ROOT


def _local(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    inside = _traced.get(code)
    if inside is None:
        inside = _traced[code] = os.path.realpath(code.co_filename).startswith(PREFIX)
    return _local if inside else None


def _lines(code):
    """The lines of a code object and of every code object nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _lines(const)
    return out


def _functions(code, qualname=""):
    """(qualified name, def line, body lines) of each outermost function
    under a module or class body."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        name = qualname + const.co_name
        if _is_class_body(const):
            yield from _functions(const, name + ".")
        elif not const.co_name.startswith("<"):
            yield name, const.co_firstlineno, _lines(const) - {const.co_firstlineno}


def _is_class_body(code):
    # functions, lambdas and comprehensions have fast locals; a class body
    # has a namespace dict
    return not code.co_flags & inspect.CO_OPTIMIZED


def _spans(lines):
    """Sorted lines as "a-b" runs."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def report():
    """The report lines: one per function with unreached lines, then the
    totals."""
    reached = {(os.path.realpath(path), line) for path, line in _reached}
    out = []
    total = missed = 0
    for name in sorted(os.listdir(ROOT)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(ROOT, name)
        with open(path) as handle:
            module = compile(handle.read(), path, "exec")
        for qualname, first, body in _functions(module):
            unreached = {line for line in body if (path, line) not in reached}
            total += len(body)
            missed += len(unreached)
            if unreached:
                out.append("%s:%d %s: %s" % (name, first, qualname, _spans(unreached)))
    out.append("unreached %d of %d function-body lines in src/regseq"
               % (missed, total))
    return out


def pytest_sessionstart(session):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("unreached lines")
    for line in report():
        terminalreporter.write_line(line)
