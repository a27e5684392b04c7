"""Every name a package module or a test file imports is used in that file,
every private name the package defines is used by the package, and a CLI
call loads only the scipy subpackages its experiment runs."""

import ast
import json
import os
import subprocess
import sys
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names(sources: dict) -> list:
    """(file, line, name) for each private module-level function, class or
    constant, or private method, that no source reads.

    A read is a plain name in load or delete context, an attribute, or a
    ``from ... import``; a definition does not read its own name.
    """
    defined, used = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(label, m.lineno, m.name) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((label, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(label, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(d for d in defined if _is_private(d[2]) and d[2] not in used)


def test_the_scan_sees_an_unreferenced_private_name():
    sources = {
        "a.py": ("_USED = 1\n_DEAD: int = 2\n"
                 "def _helper():\n    return _USED\n"
                 "class _Gone:\n    pass\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self._tidy()\n"
                 "    def _tidy(self):\n        pass\n"
                 "    def _stale(self):\n        pass\n"),
        "b.py": "from a import _helper\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", 2, "_DEAD"), ("a.py", 5, "_Gone"), ("a.py", 12, "_stale")]


def test_no_unreferenced_private_names_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"tree", "walk", "exact", "harness"}


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Runs in a fresh interpreter: parse every shipped config, then run tiny
# configs through the CLI, reporting which heavy scipy subpackages are loaded
# after each step.  The last stdout line is the JSON report.
COLD_START = """
import json, sys
from pathlib import Path
from treeflow.cli import main
from treeflow.harness import EXPERIMENTS, ExperimentConfig

def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.stats") if m in sys.modules)

tmp = Path(sys.argv[1])
for name in EXPERIMENTS:
    ExperimentConfig.default(name)
report = {"parse": loaded()}
tiny = {
    "binary-entrance": {"n_list": (2, 3), "replicates": 300},
    "coalescent": {"n_list": (4,), "replicates": 400},
    "kesten": {"n_list": (8,), "replicates": 40},
    "fdd": {"n_list": (2, 8, 32)},
}
for name, kw in tiny.items():
    cfg = ExperimentConfig.default(name).replace(output_dir=str(tmp / name), **kw)
    path = tmp / f"{name}.json"
    path.write_text(cfg.to_json())
    report[name] = [main([name, "--config", str(path)]), loaded()]
print(json.dumps(report))
"""


def test_cold_start_loads_neither_scipy_stats_nor_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {
        "parse": [],
        "binary-entrance": [0, []],
        "coalescent": [0, []],
        "kesten": [0, []],
        # the first KR program loads scipy.optimize; the trend statistic
        # over three levels still needs no scipy.stats
        "fdd": [0, ["scipy.optimize"]],
    }
