"""Statements of the package that a pytest run never executes.

Runs ``pytest.main(args)`` in this process under ``sys.settrace`` and
``threading.settrace``, records the lines executed by frames whose code
lives in the package directory ``src/ssrgd``, and prints each statement that no line event reached, as
``path:line: source``, sorted by file and line.  A statement is reached if
any of its lines is; a compound statement (``if``, ``for``, ``while``,
``with``, an ``except`` clause) counts by its header lines alone.  Left out:
docstrings, ``def`` and ``class`` headers (decorators too), imports,
``global`` and ``nonlocal``, bare annotations, ``try`` (it has no line of its
own) and the ``if __name__ == "__main__"`` guard.  It exits with pytest's
code.  Lines run in child processes, such as a worker pool's, are not seen.

    python3 tools/uncovered.py                      # the whole Tier-1 suite
    python3 tools/uncovered.py -- tests/test_core.py -q

The suite runs several times slower under the tracer.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try, *DEFINITIONS)


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines that count) of each statement of a module's source."""
    tree = ast.parse(source)
    skip = {id(node.body[0]) for node in ast.walk(tree)  # docstrings
            if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node, clean=False)}
    for node in tree.body:  # the __main__ guard and all it holds
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skip.update(id(inner) for inner in ast.walk(node))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or isinstance(node, SKIPPED) or id(node) in skip:
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:  # a bare annotation
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out)


def unreached(root: Path, executed: dict[str, set[int]]) -> list[str]:
    """``path:line: source`` for each statement under ``root`` that no executed line reached."""
    report = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, ran = source.splitlines(), executed.get(str(path), set())
        for first, span in statements(source):
            if ran.isdisjoint(span):
                report.append(f"{path.relative_to(root.parent)}:{first}: {lines[first - 1].strip()}")
    return report


def trace_pytest(root: Path, args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines run in each file under ``root``."""
    import pytest

    inside: dict[str, str | None] = {}  # code file name -> its resolved path if under root
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = str(path) if path.is_relative_to(root) else None
            if inside[name]:
                executed.setdefault(inside[name], set())
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest (after --)")
    args = parser.parse_args(argv)
    root = HERE / "src" / "ssrgd"
    code, executed = trace_pytest(root, args.pytest_args)
    report = unreached(root, executed)
    print("\n".join(report) if report else "every statement was reached")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
