"""The library imports nothing but the standard library, numpy and itself.

numpy is the project's one dependency (pyproject.toml).  The test
extras (pytest, hypothesis, scipy) are installed wherever the tests
run, so an import of one of them from `src/` would pass every other
test and fail only where the dependencies alone are installed.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nbqc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nbqc"}


def imported_roots(source: str) -> set:
    """The top-level names of every module that `source` imports, at any
    depth of the tree; a relative import counts as nbqc."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(node.module.partition(".")[0] if not node.level else "nbqc")
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_library_imports_only_stdlib_numpy_and_nbqc(path):
    assert imported_roots(path.read_text(encoding="utf-8")) - ALLOWED == set()


def test_every_module_is_checked():
    assert {path.name for path in SRC.glob("*.py")} >= {"__init__.py", "harness.py", "nblift.py"}


def test_stray_imports_are_found():
    source = ("import os.path, scipy.sparse as sp\n"
              "def f():\n    from hypothesis import given\n    from . import gf2p\n"
              "from numpy.linalg import norm\n")
    assert imported_roots(source) == {"os", "scipy", "hypothesis", "nbqc", "numpy"}
    assert imported_roots(source) - ALLOWED == {"scipy", "hypothesis"}
