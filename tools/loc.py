"""Count the lines of the ``repro`` package: physical and code lines.

Code lines leave out blank lines, comment-only lines and docstrings
(every string literal that stands alone as a statement), so the count
moves only when code does. Usage::

    python tools/loc.py [PACKAGE_DIR]    # default: src/repro
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by string literals standing alone as statements."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/repro")
    physical = logical = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text())
        physical += lines
        logical += code
    print(f"{root}: {physical:,} physical lines, {logical:,} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
