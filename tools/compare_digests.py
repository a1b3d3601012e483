"""Compare the benchmark's report digests and margins of two source trees.

    python3 tools/compare_digests.py TREE_A TREE_B

Each tree is a checkout of this repository.  For every workload of
``benchmarks/workloads.py`` and workload seeds 0-9, the first ``GATE_OPS``
ops (3, as ``benchmarks/run.py`` gates them) run in one subprocess per tree,
which imports that tree's own ``src`` and ``benchmarks/workloads.py``.  The
script prints ``workloads.digest`` and ``workloads.margin_decades`` of both
trees side by side and exits 1 if any digest or margin differs, else 0.  An
op that raises counts as a difference, named in the table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("kahler_golden", "darboux7", "deform_pipeline")
SEEDS = range(10)
GATE_OPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Runs inside the subprocess of one tree: argv[1] is the tree, stdout one JSON object.
CHILD = """
import json, sys
tree = sys.argv[1]
sys.path[:0] = [tree + "/src", tree + "/benchmarks"]
import workloads
out = {}
for workload in json.loads(sys.argv[2]):
    for seed in json.loads(sys.argv[3]):
        try:
            reports = [workloads.run_op(workload, workloads.op_config(workload, seed, i))[0]
                       for i in range(int(sys.argv[4]))]
            out[f"{workload}:{seed}"] = [workloads.digest(reports),
                                         repr(workloads.margin_decades(reports))]
        except Exception as err:
            out[f"{workload}:{seed}"] = [f"raised {type(err).__name__}", str(err)]
print(json.dumps(out))
"""


def run_tree(tree: Path) -> dict:
    """{"workload:seed": [digest, margin repr]} of one tree, computed in a fresh process."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("GENCONTACT_THREADS", None)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree.resolve()), json.dumps(WORKLOADS),
         json.dumps(list(SEEDS)), str(GATE_OPS)],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the workloads failed to run:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (Path(t) for t in args)
    got_a, got_b = run_tree(a), run_tree(b)
    print(f"{'workload':<16} {'seed':>4}  {'digest A':<16} {'digest B':<16} "
          f"{'margin A':<20} {'margin B':<20}")
    differ = 0
    for key in got_a:
        workload, seed = key.split(":")
        (da, ma), (db, mb) = got_a[key], got_b[key]
        same = (da, ma) == (db, mb) and not da.startswith("raised ")
        differ += not same
        print(f"{workload:<16} {seed:>4}  {da[:16]:<16} {db[:16]:<16} {ma:<20} {mb:<20}"
              + ("" if same else "  DIFFERS"))
    print(f"# {len(got_a) - differ} of {len(got_a)} (workload, seed) pairs identical "
          f"({GATE_OPS} ops each): A = {a}, B = {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
