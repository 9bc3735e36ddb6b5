"""Count the code lines of Python files: lines that hold code, not counting
docstrings, comment lines or blank lines.

    python tests/code_lines.py [PATH ...]

prints each file's count and the total; a PATH may be a file or a directory
(searched for *.py), and the default is src/fans. A line counts once however
many statements it holds; every line of a multi-line expression counts, and
so does every line of a string that is not a docstring. A docstring is a
string statement that opens a module, class or function body. The figure is
for comparing the size of the code before and after a change; it sets no
budget.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code other than a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [ROOT / "src" / "fans"]
    total = 0
    for file in python_files(paths):
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        shown = file.resolve()
        print(f"{count:6d}  {shown.relative_to(ROOT) if shown.is_relative_to(ROOT) else shown}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
