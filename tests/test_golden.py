"""Golden sha256 digests of every file the shipped experiments write.

Each shipped config runs at its shipped sizes and seed into a temporary
directory (kesten with its sampled paths dumped) and every file it writes is
digested.  The digests must equal those in ``golden.json``, file for file,
so any change to an output's bytes, or to the set of files, fails here.

eigh and HiGHS bits depend on the numpy and scipy builds, so when the
Python, numpy or scipy version differs from the one that produced the
file, the test skips and prints both sets.

Regenerate the file from a checkout with ``python tests/test_golden.py``.
A change that moves a digest names the file and the float path or random
stream that moved it.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy
import pytest
import scipy

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treeflow.harness import EXPERIMENTS, ExperimentConfig, run_experiment  # noqa: E402

GOLDEN = Path(__file__).resolve().with_name("golden.json")
SEED = 20240817


def versions() -> dict:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def digests(experiment: str, out: Path) -> dict:
    """Run one shipped experiment into ``out``; sha256 of each file it wrote,
    keyed by its path below ``out``."""
    config = ExperimentConfig.default(experiment).replace(
        master_seed=SEED, output_dir=str(out))
    run_experiment(config, dump_paths=experiment == "kesten")
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_outputs_match_golden_digests(experiment, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != versions():
        pytest.skip(f"golden digests come from {golden['versions']}, "
                    f"this run has {versions()}")
    assert digests(experiment, tmp_path / experiment) == golden["digests"][experiment]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {e: digests(e, Path(tmp) / e) for e in EXPERIMENTS}
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": table},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {GOLDEN}")
