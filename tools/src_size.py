"""Print the size of ``src/georep``: its total lines and its code lines.

    python3 tools/src_size.py [--root DIR]

``DIR`` is the checkout to measure, by default the one holding this
file.  Every ``*.py`` file directly in ``DIR/src/georep`` counts.  A
total line is a newline, as ``wc -l`` counts them.  A code line holds a
token other than a comment, a newline or an indent, and lies outside
every docstring: the string that is the first statement of a module,
class or function.  The output is one line::

    src/georep: 2580 lines, 1441 code lines
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# Tokens that do not make a line a code line.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings in ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to measure (default: the one holding this file)")
    args = parser.parse_args(argv)
    total = code = 0
    for path in sorted((args.root / "src" / "georep").glob("*.py")):
        lines, code_lines = size(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + code_lines
    print(f"src/georep: {total} lines, {code} code lines")


if __name__ == "__main__":
    main()
