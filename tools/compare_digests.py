"""Compare the benchmark's report digests and margins of two source trees.

    python3 tools/compare_digests.py TREE_A TREE_B

Each tree is a checkout of this repository.  For every workload of
``benchmarks/workloads.py`` and workload seeds 0-9, the first ``GATE_OPS``
ops (3, as ``benchmarks/run.py`` gates them) run in one subprocess per tree,
which imports that tree's own ``src`` and ``benchmarks/workloads.py``.  The
script prints ``workloads.digest`` and ``workloads.margin_decades`` of both
trees side by side and exits 1 if any digest or margin differs, else 0.  An
op that raises counts as a difference, named in the table.

For each (workload, seed) pair that differs, a second table reads the first
op whose report differs: one line per row whose verdict or ``max_residual``
moved, with both verdicts, both residuals, the absolute change |B - A| and
the change relative to max(|A|, |B|).  A row present in one tree only shows
``-`` on the other side.
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
# Per pair: [digest, margin repr, per op [op digest, [[row, passed, max_residual], ...]]].
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
            ops = [[workloads.digest([rep]), [[r.name, r.passed, r.max_residual] for r in rep.rows]]
                   for rep in reports]
            out[f"{workload}:{seed}"] = [workloads.digest(reports),
                                         repr(workloads.margin_decades(reports)), ops]
        except Exception as err:
            out[f"{workload}:{seed}"] = [f"raised {type(err).__name__}", str(err), []]
print(json.dumps(out))
"""


def pinned_env() -> dict:
    """This process's environment with BLAS threads pinned to 1,
    ``GENCONTACT_THREADS`` and ``PYTHONPATH`` removed, so a tree imports its own
    ``src``, and ``PYTHONDONTWRITEBYTECODE`` set, so no tree gets ``__pycache__``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    env.pop("GENCONTACT_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_tree(tree: Path) -> dict:
    """{"workload:seed": [digest, margin repr]} of one tree, computed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree.resolve()), json.dumps(WORKLOADS),
         json.dumps(list(SEEDS)), str(GATE_OPS)],
        capture_output=True, text=True, env=pinned_env(), check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the workloads failed to run:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _verdict(passed) -> str:
    return {None: "----", True: "PASS", False: "FAIL"}[passed]


def row_changes(rows_a: list, rows_b: list) -> list:
    """The rows ``[name, passed, max_residual]`` whose verdict or max residual
    differ between two reports, in A's row order and then B's new rows.

    Each moved row is (name, (verdict A, verdict B), (max A, max B)); a side
    that lacks the row holds ``None`` in both pairs.
    """
    got_a = {name: (_verdict(p), m) for name, p, m in rows_a}
    got_b = {name: (_verdict(p), m) for name, p, m in rows_b}
    names = list(got_a) + [name for name in got_b if name not in got_a]
    return [(name, *zip(got_a.get(name, (None, None)), got_b.get(name, (None, None))))
            for name in names if got_a.get(name) != got_b.get(name)]


def moved_rows(ops_a: list, ops_b: list):
    """(index of the first op whose report differs, its :func:`row_changes`), or None."""
    for i, ((da, rows_a), (db, rows_b)) in enumerate(zip(ops_a, ops_b)):
        if da != db:
            return i, row_changes(rows_a, rows_b)
    return None


def row_table(rows: list) -> str:
    """The moved rows of :func:`row_changes` as a table: row, both verdicts, both
    max residuals, the absolute change |B - A| and the change relative to
    max(|A|, |B|)."""
    if not rows:
        return "(no verdict or max_residual moved; the report differs in other fields)"
    w = max(len(row[0]) for row in rows)
    lines = [f"{'row':<{w}} {'A':<4} {'B':<4}  {'max_residual A':>14} {'max_residual B':>14}  "
             f"{'abs change':>10} {'rel change':>10}"]
    for name, (va, vb), (ma, mb) in rows:
        change = rel = "-"
        if ma is not None and mb is not None:
            diff, scale = abs(mb - ma), max(abs(ma), abs(mb))
            change, rel = f"{diff:.2e}", f"{diff / scale if scale else 0.0:.2e}"
        res = [f"{m:.6e}" if m is not None else "-" for m in (ma, mb)]
        lines.append(f"{name:<{w}} {va or '-':<4} {vb or '-':<4}  {res[0]:>14} {res[1]:>14}  "
                     f"{change:>10} {rel:>10}")
    return "\n".join(lines)


def print_moved(workload: str, seed: str, ops_a: list, ops_b: list):
    found = moved_rows(ops_a, ops_b)
    if found is None:  # an op raised, or the runs differ in op count
        return
    i, rows = found
    print(f"\n## {workload} seed {seed}, op {i}: {len(rows)} rows moved")
    print(row_table(rows))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (Path(t) for t in args)
    got_a, got_b = run_tree(a), run_tree(b)
    print(f"{'workload':<16} {'seed':>4}  {'digest A':<16} {'digest B':<16} "
          f"{'margin A':<20} {'margin B':<20}")
    differ = []
    for key in got_a:
        workload, seed = key.split(":")
        (da, ma, _), (db, mb, _) = got_a[key], got_b[key]
        same = (da, ma) == (db, mb) and not da.startswith("raised ")
        if not same:
            differ.append(key)
        print(f"{workload:<16} {seed:>4}  {da[:16]:<16} {db[:16]:<16} {ma:<20} {mb:<20}"
              + ("" if same else "  DIFFERS"))
    for key in differ:
        print_moved(*key.split(":"), got_a[key][2], got_b[key][2])
    print(f"# {len(got_a) - len(differ)} of {len(got_a)} (workload, seed) pairs identical "
          f"({GATE_OPS} ops each): A = {a}, B = {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
