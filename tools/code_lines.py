"""Code lines of each module of a package: the lines of its AST statements.

    python tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/kunz. A simple statement counts every line it
spans, and a compound statement (def, class, if, for, while, with, try,
and each except clause) only its header lines, up to the first statement
of its body. Docstrings, comments and blank lines are left out, so the
count moves with code and not with prose. Prints one `count path` line per
module, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements of the module, classes and
    functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first))
    return found


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and isinstance(
                node, (ast.stmt, ast.ExceptHandler)):
            lines.update(range(node.lineno,
                               max(body[0].lineno, node.lineno + 1)))
        elif isinstance(node, ast.stmt) and id(node) not in docstrings:
            lines.update(range(node.lineno, node.end_lineno + 1))
    text = source.splitlines()
    return sum(1 for n in lines
               if text[n - 1].strip()
               and not text[n - 1].lstrip().startswith("#"))


def main(directory: str = "src/kunz") -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(*sys.argv[1:])
