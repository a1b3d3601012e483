"""Child process of the set-up measurement: import gencontact, parse the first op's config.

Prints ``ready`` once the first op could start.  ``run.py`` times this from
process launch, which is what a command-line user pays on every call.

    python3 benchmarks/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gencontact  # noqa: E402,F401
from gencontact import config  # noqa: E402

import workloads  # noqa: E402

config.parse_config(workloads.op_config(sys.argv[1], int(sys.argv[2]), 0))
print("ready", flush=True)
