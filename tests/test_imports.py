"""Every name a package module or a test file imports is used in that file,
every private name the package defines is used by the package, every public
function and class is read by the package, the benchmark or the acceptance
tests, and a CLI call loads only the scipy subpackages, and multiprocessing,
when its experiment runs them."""

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
BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def _reads(tree: ast.AST) -> set:
    """Names a module reads: a plain name in load or delete context, an
    attribute, or a ``from ... import``; a definition does not read its own
    name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def unreferenced_private_names(sources: dict) -> list:
    """(file, line, name) for each private module-level function, class or
    constant, or private method, that no source reads (see _reads)."""
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
        used |= _reads(tree)
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


def unreferenced_public_names(sources: dict, readers: dict) -> list:
    """(file, line, name) for each public module-level function or class in
    ``sources`` that no text in ``readers`` reads (see _reads)."""
    used = set()
    for source in readers.values():
        used |= _reads(ast.parse(source))
    return sorted(
        (label, node.lineno, node.name)
        for label, source in sources.items() for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used)


def test_the_scan_sees_an_unreferenced_public_name():
    sources = {
        "a.py": ("def used():\n    return Box()\n"
                 "def dead():\n    pass\n"
                 "class Gone:\n    pass\n"
                 "def _private():\n    pass\n"
                 "class Box:\n    pass\n"),
    }
    # a.py reads Box and b.py reads used; a unit test that reads dead is
    # not among the readers
    readers = {**sources, "b.py": "from a import used\n"}
    assert unreferenced_public_names(sources, readers) == [
        ("a.py", 3, "dead"), ("a.py", 5, "Gone")]


# Public functions and classes that only their own unit tests read, kept on
# purpose: name -> why.  Methods (RootedMetricTree.ancestors and .neighbors,
# which the tree oracles use) are outside the scan.
KEPT_PUBLIC = {
    "capacity": "closed form of cap(y, z); its test checks it against the "
                "energy of the harmonic potential",
    "dirichlet_energy": "the oracle of the generator tests, which check "
                        "E(f, g) = -(Lf, g)",
    "excursion_distance": "the pseudo-distance straight from the definition, "
                          "the oracle of the gluing tests",
    "load_tree": "reads the .tree files that kesten and coalescent runs write",
    "merge_rate": "the merge rate by its definition, the oracle of the "
                  "log-space weights that coalescent_tree draws from",
    "restrict": "the sampler-locality test restricts trees to a ball with it",
}


def _public_scan(allowed) -> list:
    """The package's unread public names outside ``allowed``.  Readers are
    the package modules (__init__.py only re-exports), bench/ and the
    acceptance tests; the other test files do not count."""
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {**sources,
               **{str(p): p.read_text() for p in sorted(BENCH.rglob("*.py"))},
               "test_acceptance.py": (Path(__file__).resolve().parent
                                      / "test_acceptance.py").read_text()}
    return [d for d in unreferenced_public_names(sources, readers)
            if d[2] not in allowed]


def test_every_public_name_feeds_a_run_a_check_or_an_acceptance_test():
    assert _public_scan(KEPT_PUBLIC) == []


def test_every_kept_public_name_is_still_unread():
    # fails once a kept name gains a reader or is deleted, so no entry goes
    # stale
    assert sorted(d[2] for d in _public_scan(())) == sorted(KEPT_PUBLIC)


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"tree", "walk", "exact", "harness"}


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Runs in a fresh interpreter: parse every shipped config, then run the tiny
# configs named on the command line through the CLI, in order, reporting
# which heavy scipy subpackages, and whether multiprocessing, are loaded
# after each step.  The last stdout line is the JSON report.
COLD_START = """
import json, sys
from pathlib import Path
from treeflow.cli import main
from treeflow.harness import EXPERIMENTS, ExperimentConfig

def loaded():
    return sorted(m for m in ("multiprocessing", "scipy.optimize", "scipy.stats")
                  if m in sys.modules)

tmp = Path(sys.argv[1])
for name in EXPERIMENTS:
    ExperimentConfig.default(name)
report = {"parse": loaded()}
tiny = {
    "binary-entrance": {"n_list": (2, 3), "replicates": 300},
    "coalescent": {"n_list": (4,), "replicates": 400},
    "kesten": {"n_list": (8,), "replicates": 40},
    "fdd": {"n_list": (2, 8, 32)},
    "verify": {"family": {"scale": 0.06}, "replicates": 800},
}
for name in sys.argv[2:]:
    kw = tiny[name]
    cfg = ExperimentConfig.default(name).replace(output_dir=str(tmp / name), **kw)
    path = tmp / f"{name}.json"
    path.write_text(cfg.to_json())
    report[name] = [main([name, "--config", str(path)]), loaded()]
print(json.dumps(report))
"""


def _cold_start(tmp_path, *experiments) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path), *experiments],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_start_loads_neither_scipy_stats_nor_optimize(tmp_path):
    report = _cold_start(tmp_path, "binary-entrance", "coalescent", "kesten",
                         "fdd")
    assert report == {
        # multiprocessing (about 25 ms with its pool) stays out of set-up
        "parse": [],
        # binary-entrance loads it for its worker pool; the interpreter
        # keeps it for the runs after
        "binary-entrance": [0, ["multiprocessing"]],
        "coalescent": [0, ["multiprocessing"]],
        "kesten": [0, ["multiprocessing"]],
        # the first KR program loads scipy.optimize; the trend statistic
        # over three levels still needs no scipy.stats
        "fdd": [0, ["multiprocessing", "scipy.optimize"]],
    }


def test_cold_start_of_verify(tmp_path):
    # verify's worker pool loads multiprocessing, and the KR programs of its
    # metric oracles, run in this process, load scipy.optimize
    assert _cold_start(tmp_path, "verify") == {
        "parse": [], "verify": [0, ["multiprocessing", "scipy.optimize"]]}


def test_the_bench_entry_points_still_bind():
    # bench/setup_probe.py and bench/run.py import ExperimentConfig from
    # treeflow.harness, and bench/tests/test_tracer.py reads RUNNERS,
    # run_verify and build_chain there
    from treeflow import EXPERIMENTS, harness

    for name in ("ExperimentConfig", "RUNNERS", "run_verify", "build_chain"):
        assert hasattr(harness, name), name
    assert len(EXPERIMENTS) == 7
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(PACKAGE.parent), "1",
         *EXPERIMENTS], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ready"]
