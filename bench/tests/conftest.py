import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture
def small_configs(tmp_path):
    """Cut-down verify and kesten configs that still reach every counter."""
    base = {"master_seed": 20240817, "output_dir": str(tmp_path / "unused")}
    configs = {
        "verify": dict(base, experiment="verify", family={"scale": 0.1},
                       n_list=[1], replicates=400, times=[]),
        "kesten": dict(base, experiment="kesten", family={"horizon": 1.0},
                       n_list=[16, 64], replicates=20, times=[0.1, 0.3]),
    }
    steps = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        steps.append((name, ["--config", str(path)]))
    return steps
