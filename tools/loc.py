"""Count the physical and code lines of each file of `src/weightmult`.

A code line is a line that holds part of a token other than a comment,
found with `tokenize`; blank lines, comments and the docstrings of
modules, classes and functions (found with `ast`) are not code.  A
multi-line token other than a docstring counts every line it spans.

    python tools/loc.py

prints a header, one ``lines code file`` row per file and then the totals.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """``(physical, code)`` lines of one Python source file."""
    source = path.read_text(encoding="utf-8")
    skip = _docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "weightmult"
    physical = code = 0
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted(root.glob("*.py")):
        p, c = count(path)
        physical += p
        code += c
        print(f"{p:6d} {c:6d}  {path.name}")
    print(f"{physical:6d} {code:6d}  total ({root.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
