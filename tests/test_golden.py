"""Golden sha256 digests of every file the shipped experiments write.

Each shipped config runs at its shipped sizes and seed into a temporary
directory (kesten with its sampled paths dumped) and every file it writes is
digested.  The digests must equal those in ``golden.json``, file for file,
so any change to an output's bytes, or to the set of files, fails here.
The quick runs, crt, kesten and coalescent, are pinned at a second master
seed as well, so a change that moves a random stream or a float path only
away from the shipped seed fails too.

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
# the seed of the CI smoke runs, and the runs that take under a second there
SECOND_SEED = 7
AT_SECOND_SEED = ("crt", "kesten", "coalescent")


def versions() -> dict:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def digests(experiment: str, out: Path, seed: int = SEED) -> dict:
    """Run one shipped experiment at ``seed`` into ``out``; sha256 of each
    file it wrote, keyed by its path below ``out``."""
    config = ExperimentConfig.default(experiment).replace(
        master_seed=seed, output_dir=str(out))
    run_experiment(config, dump_paths=experiment == "kesten")
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def golden() -> dict:
    table = json.loads(GOLDEN.read_text())
    if table["versions"] != versions():
        pytest.skip(f"golden digests come from {table['versions']}, "
                    f"this run has {versions()}")
    return table


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_outputs_match_golden_digests(experiment, tmp_path):
    assert digests(experiment, tmp_path / experiment) == golden()["digests"][experiment]


@pytest.mark.parametrize("experiment", AT_SECOND_SEED)
def test_outputs_match_golden_digests_at_second_seed(experiment, tmp_path):
    want = golden()["second_seed"]
    assert want["seed"] == SECOND_SEED
    assert digests(experiment, tmp_path / experiment,
                   SECOND_SEED) == want["digests"][experiment]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {e: digests(e, Path(tmp) / e) for e in EXPERIMENTS}
        second = {e: digests(e, Path(tmp) / f"{e}-{SECOND_SEED}", SECOND_SEED)
                  for e in AT_SECOND_SEED}
    GOLDEN.write_text(json.dumps(
        {"versions": versions(), "digests": table,
         "second_seed": {"seed": SECOND_SEED, "digests": second}},
        indent=2, sort_keys=True) + "\n")
    count = sum(map(len, [*table.values(), *second.values()]))
    print(f"wrote {count} digests to {GOLDEN}")
