"""Count the lines of fraclap's source.

Usage, from anywhere:

    python3 tools/src_lines.py

Prints the total line count of ``src/fraclap/*.py`` and the code-only
count: the lines that hold a token other than a comment, after the
lines of every module, class and function docstring (found with `ast`)
are set aside.  Blank lines and comment-only lines hold no such token
(found with `tokenize`).  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fraclap"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(text: str) -> set[int]:
    """The line numbers that docstrings of ``text`` occupy."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(total, code)`` line counts of the Python source ``text``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(text))


def main() -> int:
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
    print(f"src/fraclap: {total:,} lines, {code:,} of code "
          "(no docstrings, comments or blank lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
