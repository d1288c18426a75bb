"""List the statements of ``src/saddle_raar`` that no CLI run and no demo enters.

Usage::

    python tools/unexecuted_lines.py

Runs every invocation of ``compare_outputs.RUNS`` in-process through
``saddle_raar.cli.main`` (each into its own temporary directory, with one
BLAS thread), then every script under ``demos/``, under ``sys.settrace``,
and prints, module by module, each statement that no run entered: its
line range and its first line.  A compound statement is entered when any
line of it runs, so a branch that never runs is listed, not the ``if``
around it; a statement inside one that is listed is not listed again, and
docstrings are skipped.  Standard library only; a full pass takes about
25 seconds on two cores.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "saddle_raar")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

from compare_outputs import ONE_THREAD, RUNS  # noqa: E402


def line_tracer(executed: dict):
    """A ``sys.settrace`` function that adds each line a package frame runs to ``executed[path]``."""

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    return trace


def _is_docstring(node, parent) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            and getattr(parent, "body", [None])[0] is node)


def unentered(path: str, lines: set) -> list:
    """``(first line, last line)`` of each outermost statement of ``path`` in which no line of ``lines`` ran."""
    found = []

    def visit(parent):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt):
                visit(node)  # a statement can sit below an expression only through an except handler or a match case
                continue
            if _is_docstring(node, parent) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                found.append((node.lineno, node.end_lineno))
            else:
                visit(node)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read(), path))
    return found


def run_everything(tmp: str) -> None:
    from saddle_raar import cli

    dirs = {name: os.path.join(tmp, name) for name, _ in RUNS}
    sink = io.StringIO()
    for name, args in RUNS:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), contextlib.suppress(SystemExit):
            cli.main([*(a.format(**dirs) for a in args), "--out", dirs[name]])
    here = os.getcwd()
    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        os.chdir(tmp)  # demos write under demo_out/
        try:
            with contextlib.redirect_stdout(sink):
                runpy.run_path(demo, run_name="__main__")
        finally:
            os.chdir(here)


def main() -> int:
    os.environ.update(ONE_THREAD)  # before numpy loads BLAS
    executed = {}
    sys.settrace(line_tracer(executed))
    try:
        with tempfile.TemporaryDirectory(prefix="unexecuted_lines_") as tmp:
            run_everything(tmp)
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        spans = unentered(path, executed.get(path, set()))
        total += len(spans)
        print(f"{os.path.relpath(path, ROOT)}: {len(spans)} statements never entered")
        for first, last in spans:
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {source[first - 1].strip()}")
    print(f"{total} statements never entered, {len(RUNS)} CLI runs and the demos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
