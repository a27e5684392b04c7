"""Set-up probe: import treeflow and parse the named experiments' configs.

Usage: python3 bench/setup_probe.py SRC_DIR SEED EXPERIMENT...

Prints ``ready`` once the shipped config of every named experiment is
parsed with its master seed set to SEED, which is the work a ``treeflow``
call does before its experiment starts.  run.py times a fresh interpreter
from spawn to that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import treeflow.cli  # noqa: E402,F401
from treeflow.harness import ExperimentConfig  # noqa: E402

for name in sys.argv[3:]:
    ExperimentConfig.default(name).replace(master_seed=int(sys.argv[2]))
print("ready", flush=True)
