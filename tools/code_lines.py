"""Count the code lines of each ``src/germ`` module and their total.

A code line is a line that holds a token which is neither a comment nor
part of a docstring: blank lines, comment lines and the lines of module,
class and function docstrings do not count.  Docstrings are found with
``ast``, tokens with ``tokenize``.  Run it with no arguments from anywhere:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "germ"

#: Tokens that hold no code of their own.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> "set[int]":
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main()
