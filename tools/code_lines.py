"""Count the code-only lines of Python files.

A line counts when it holds code: it is not blank, not a comment alone,
and not inside a module, class or function docstring.  Every line of a
string that is not a docstring counts.  Prints one line per file and a
total; a directory is searched for .py files.

    python tools/code_lines.py [PATH ...]     (default: src/padicdyn)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code-only lines in one file's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _files(paths: list[str]) -> list[Path]:
    out = []
    for path in map(Path, paths):
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv: list[str]) -> None:
    total = 0
    for path in _files(argv or ["src/padicdyn"]):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
