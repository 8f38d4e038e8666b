#!/usr/bin/env python3
"""Count the lines and the code lines of Python modules.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the
default is src/synfuzz.  One line per module gives its total lines, its
code lines and its path, and a last line gives the sums.  A code line
holds a token that is not a comment and lies outside every docstring:
docstring spans come from ast (module, class and function docstrings),
comments and blank lines from tokenize.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFINITIONS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of a module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "synfuzz")])
    args = parser.parse_args()
    total = code = 0
    for path in modules(args.paths):
        lines, code_lines = count(path.read_text())
        total += lines
        code += code_lines
        print(f"{lines:6d} {code_lines:6d}  {path}")
    print(f"{total:6d} {code:6d}  total")


if __name__ == "__main__":
    main()
