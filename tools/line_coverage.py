"""List the statements of src/sl2betti that no test executes.

Usage: python tools/line_coverage.py [PYTEST ARGS...]

Runs pytest in this process, with the given arguments, under a
`sys.settrace` line tracer limited to the modules of src/sl2betti.  Then,
for each module, it prints every statement (found with `ast`) on none of
whose lines a line event fired, with its line number and source line.
A compound statement counts by its header lines only (decorators, the
`def`, `if` or `for` line up to its body).  Statements that compile to no
code (docstrings, `global`, bare annotations in a function) are skipped.
The exit status is pytest's.

Code run in subprocesses is not traced, and the tracer slows the suite
several times over.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sl2betti"


def statement_spans(source: str) -> List[Tuple[int, int]]:
    """(first, last) line of every statement that compiles to code; a
    compound statement spans its header, up to the line before its body."""
    spans = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.stmt) and not _codeless(child, in_function):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                body = getattr(child, "body", None)
                if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                    last = max(first, body[0].lineno - 1)
                else:
                    last = child.end_lineno
                spans.append((first, last))
            visit(child, nested)

    visit(ast.parse(source), False)
    return sorted(spans)


def _codeless(node: ast.stmt, in_function: bool) -> bool:
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
            and isinstance(node.value.value, str):
        return True
    return in_function and isinstance(node, ast.AnnAssign) and node.value is None


def traced_run(pytest_args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run pytest under the line tracer; (exit status, lines run per file)."""
    import pytest

    hits: Dict[str, Set[int]] = {str(p): set() for p in PACKAGE.glob("*.py")}

    def on_call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: List[str]) -> int:
    status, hits = traced_run(argv)
    total_missed = 0
    for filename in sorted(hits):
        path = Path(filename)
        source = path.read_text()
        lines = source.splitlines()
        spans = statement_spans(source)
        run = hits[filename]
        missed = [(a, b) for a, b in spans if not any(n in run for n in range(a, b + 1))]
        total_missed += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(spans)} statements not run")
        for first, _ in missed:
            print(f"  {first:5d}  {lines[first - 1].strip()}")
    print(f"total: {total_missed} statements not run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
