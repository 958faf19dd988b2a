#!/usr/bin/env python3
"""Report the statements of src/hypotorus that nothing runs.

    python tools/linecov.py [tests] [cli] [acceptance]

A ``sys.settrace`` line tracer (stdlib only) records the lines of
src/hypotorus that run while the chosen sets run in this process:

- ``tests``: the whole pytest suite under tests/;
- ``cli``: every CLI call of tools/bytediff.py (the cookbook, both seeds of
  the benchmark workloads, and its extras), each through
  ``hypotorus.cli.main`` in a temporary directory, with its output hidden;
- ``acceptance``: tests/test_acceptance.py alone, the acceptance criteria
  c01-c12.

``cli acceptance`` shows what a command or an acceptance criterion
reaches; code that only the unit tests run shows up as not run.  With no
argument ``tests`` and ``cli`` run.  The report lists, per module, how many
statements ran, then each block of consecutive statements that did not,
with its line range and first line.  A statement counts as run when any
line of it ran; a compound statement (def, if, for, with, try, ...) counts
its header only, so its body is judged statement by statement.  Docstrings,
other constant expressions and bare annotations in a function body compile
to no code and are not counted; neither is a statement marked
``# pragma: no cover``, nor anything inside it.  The tracer is installed before hypotorus is imported, so the lines
that run at import (def, class, constants) count too.  Code that runs in a
subprocess (a test that starts the CLI as a program) is not traced.
"""

import ast
import contextlib
import io
import itertools
import os
import sys
import tempfile
import threading
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "hypotorus"


def install() -> dict:
    """Start tracing this thread and new threads; return {filename: set of
    line numbers run}, filled as code under src/hypotorus runs."""
    hits = defaultdict(set)
    prefix = str(PKG) + os.sep

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = hits[name]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    threading.settrace(call)
    sys.settrace(call)
    return hits


def statements(path: Path) -> list:
    """(first line, last line, counted span) of each counted statement of
    the module, in source order.  The span is the lines whose running marks
    the statement as run: all of a simple statement, the header of a
    compound one."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    out = []

    def header(node, first):
        return (first, node.end_lineno, range(first, max(first, node.body[0].lineno - 1) + 1))

    def visit(body, in_def=False):
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)) or (
                    in_def and isinstance(node, ast.AnnAssign) and node.value is None) or (
                    "pragma: no cover" in lines[node.lineno - 1]):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if not hasattr(node, "body"):
                out.append((first, node.end_lineno, range(first, node.end_lineno + 1)))
                continue
            handlers = getattr(node, "handlers", [])
            out.append(header(node, first))
            out.extend(header(h, h.lineno) for h in handlers)
            inner = in_def or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for block in (node.body, getattr(node, "orelse", []),
                          getattr(node, "finalbody", []), *[h.body for h in handlers]):
                visit(block, inner)

    visit(ast.parse(text).body)
    return sorted(out, key=lambda s: s[0])


def report(hits: dict) -> str:
    rows, total, run = [], 0, 0
    for path in sorted(PKG.glob("*.py")):
        seen = hits.get(str(path), set())
        stmts = statements(path)
        missed = [not any(ln in seen for ln in span) for _, _, span in stmts]
        total += len(stmts)
        run += missed.count(False)
        rows.append(f"{path.relative_to(ROOT)}: {missed.count(False)} of {len(stmts)} "
                    f"statements run")
        src = path.read_text(encoding="utf-8").splitlines()
        for miss, block in itertools.groupby(zip(missed, stmts), key=lambda p: p[0]):
            if miss:
                block = [s for _, s in block]
                a, b = block[0][0], max(s[1] for s in block)
                rows.append(f"  {a}-{b}  {src[a - 1].strip()}")
    rows.append(f"total: {run} of {total} statements run")
    return "\n".join(rows)


def run_tests(target: Path) -> int:
    import pytest
    return pytest.main(["-q", "-p", "no:cacheprovider", str(target)])


def run_cli() -> int:
    """Every bytediff call through hypotorus.cli.main; the number that raised."""
    sys.path.insert(0, str(ROOT / "tools"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bytediff
    import workloads
    from hypotorus.cli import main

    raised = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="linecov-") as work:
        os.chdir(work)
        try:
            for name, argv in bytediff.calls(ROOT, workloads):
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        main(argv)
                except Exception:           # a crash is reported, not fatal
                    raised += 1
                    print(f"{name}: raised", file=sys.stderr)
                    traceback.print_exc()
        finally:
            os.chdir(here)
    return raised


def main(argv: list) -> int:
    tests = {"tests": ROOT / "tests", "acceptance": ROOT / "tests" / "test_acceptance.py"}
    sets = argv or ["tests", "cli"]
    if not set(sets) <= {"cli", *tests}:
        print(__doc__, file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # subprocesses the tests start import the same tree, untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    hits = install()
    codes = [run_cli() if s == "cli" else run_tests(tests[s]) for s in sets]
    sys.settrace(None)
    threading.settrace(None)
    print(report(hits))
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
