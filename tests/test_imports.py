"""Every name a package module or a test file imports is used in that file."""

import ast
from pathlib import Path

import pytest

import treeflow

PACKAGE = Path(treeflow.__file__).resolve().parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) for each imported name never read as a plain name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in used)


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.sparse\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]):\n    return scipy.sparse.eye(x)\n")
    assert unused_imports(source) == [(2, "np"), (4, "Sequence")]


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"tree", "walk", "exact", "harness"}


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
