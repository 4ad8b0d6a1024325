"""Count the code lines of Python modules: no blank, comment or docstring lines.

    python scripts/loc.py [PATH ...]        (default: src)

Each PATH is a .py file or a directory searched for them.  Prints one
line per module, `<code lines> <path>`, then the total.  A line counts
when any token other than a comment touches it.  A docstring, the
string that opens a module, class or function body, does not count;
any other string counts on every line it spans.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["src"])
    args = ap.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
