"""Time two source trees against each other in alternating pairs of benchmark runs.

    python3 tools/paired_bench.py TREE_A TREE_B --workload W --pairs 10 --seconds 36 [--seed N]

Each tree is a checkout of this repository; A is the reference (the parent),
B the change.  A pair is one ``benchmarks/run.py --workload W --seed N
--seconds S --trace 0`` run of each tree, one after the other in fresh
processes (N is 0, the benchmark's default seed, unless ``--seed`` names
another, so that a claim can be checked on a seed it was not tuned on), and the tree that runs first alternates from pair to pair, so
that a drift of the host falls on both sides.  The environment is pinned as
``tools/compare_digests.py`` pins it (BLAS threads 1, ``GENCONTACT_THREADS``
and ``PYTHONPATH`` removed, no bytecode written), so the runs leave nothing
under either tree's ``benchmarks/``.

The script prints each pair's end-to-end metrics for A and B, then per
metric both medians and B's change relative to A's median, positive when B
is worse, next to the metric's bound in A's ``BENCHMARK.json``.  For
``verdict_s.p50`` it prints B's wins (ties count for neither side), A's
interquartile range and whether the gain rule holds: B wins at least 9 of
every 10 pairs and its median is lower than A's by more than A's IQR.

Exits 1 when a run fails (non-zero exit, no result line, or a failed op) or
when the runs' ``# digest`` lines differ, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare_digests import pinned_env

# (metric, which way is better), in the order of BENCHMARK.json's end_to_end list
METRICS = (("setup_s", "lower"), ("verdict_s.p50", "lower"), ("ops_per_s", "higher"),
           ("peak_rss_mb", "lower"), ("margin_decades", "higher"))
CLAIM = "verdict_s.p50"


def run(tree: Path, workload: str, seconds: float, seed: int = 0):
    """({metric: value}, digest) of one benchmark run of ``tree``; exits 1 if the run fails."""
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=pinned_env(), capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    digest = next((line.split()[2] for line in lines if line.startswith("# digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        failed = [line for line in lines if " FAILED: " in line]
        sys.exit(f"{tree}: the {workload} run failed (exit {proc.returncode})\n"
                 + "\n".join(failed) + proc.stderr)
    return {name: result["metrics"][name]["value"] for name, _ in METRICS}, digest


def worse_by(better: str, a: float, b: float) -> float:
    """B's change relative to A, positive when B is worse."""
    if not a:
        return 0.0
    return (b - a if better == "lower" else a - b) / abs(a)


def bounds(tree: Path) -> dict:
    """{metric: bound} of the tree's BENCHMARK.json, empty when it has none."""
    path = tree / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}

    print(f"# {args.workload}, seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"A = {trees['A']}, B = {trees['B']}")
    print(f"{'pair':>4} {'first':>5}  " + "  ".join(f"{name + ' A':>17} {'B':>10}"
                                                   for name, _ in METRICS), flush=True)
    got = {"A": [], "B": []}
    digests = {"A": set(), "B": set()}
    for i in range(args.pairs):
        order = "AB" if i % 2 == 0 else "BA"
        for side in order:
            metrics, digest = run(trees[side], args.workload, args.seconds, args.seed)
            got[side].append(metrics)
            digests[side].add(digest)
        print(f"{i:>4} {order[0]:>5}  " + "  ".join(
            f"{got['A'][-1][name]:>17.6g} {got['B'][-1][name]:>10.6g}" for name, _ in METRICS),
            flush=True)

    limit = bounds(trees["A"])
    print(f"\n{'metric':<16} {'median A':>12} {'median B':>12} {'B worse by':>11} {'bound':>7}")
    for name, better in METRICS:
        med = {side: statistics.median(m[name] for m in got[side]) for side in "AB"}
        print(f"{name:<16} {med['A']:>12.6g} {med['B']:>12.6g} "
              f"{worse_by(better, med['A'], med['B']):>+11.2%} {limit.get(name, '-'):>7}")

    a = [m[CLAIM] for m in got["A"]]
    b = [m[CLAIM] for m in got["B"]]
    wins = sum(y < x for x, y in zip(a, b))
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
    gap = statistics.median(a) - statistics.median(b)
    holds = wins * 10 >= 9 * args.pairs and gap > q3 - q1
    print(f"\n# {CLAIM}: B wins {wins} of {args.pairs} pairs, median A - B = {gap:.6g} s, "
          f"IQR of A = {q3 - q1:.6g} s; gain rule (>= 9/10 wins, gap > IQR of A) "
          f"{'holds' if holds else 'does not hold'}")
    if len(digests["A"] | digests["B"]) != 1:
        print(f"# digests differ: A {sorted(digests['A'])}, B {sorted(digests['B'])}")
        return 1
    print(f"# digest {next(iter(digests['A']))} on every run of both trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
