"""Run the benchmark over several seeds and write ``benchmarks/BENCH_<tag>.json``.

    python3 benchmarks/record.py --tag baseline
    python3 benchmarks/record.py --tag mychange --against benchmarks/BENCH_baseline.json

Each workload of ``BENCHMARK.json`` gets one untraced ``run.py`` process per
seed in ``SEEDS``, then one traced run on the first seed.  The file keeps every value, the
median and quartiles of each end-to-end metric, their spread (interquartile
distance over median), the per-layer metrics and the report digest of every
seed.  ``--against`` compares medians with an earlier file under the bounds of
``BENCHMARK.json`` and lists the seeds whose digest changed; a changed digest
is reported, it is not a failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(10))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# digest "):
            result["digest"] = line.split()[2]
        elif line.startswith(f"# {workload} seed "):
            result["meta"] = json.loads(line.split(": ", 1)[1])
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                      if trace == 0), flush=True)
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def compare(now: dict, before: dict, spec: dict) -> bool:
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, entry in now["workloads"].items():
        old = before["workloads"].get(workload)
        if old is None:
            print(f"{workload}: not in the earlier file")
            continue
        for name, stats in entry["end_to_end"].items():
            metric = bounds[name]
            base = old["end_to_end"][name]["median"]
            change = (stats["median"] - base) / base
            worse = change if metric["better"] == "lower" else -change
            verdict = "worse than bound" if worse > metric["bound"] else "within bound"
            ok &= worse <= metric["bound"]
            print(f"{workload} {name}: {base:.4g} -> {stats['median']:.4g} "
                  f"({change:+.1%}, bound {metric['bound']:.0%}) {verdict}")
        changed = [s for s, d in entry["digests"].items() if old["digests"].get(s, d) != d]
        print(f"{workload} digests: " + (f"changed for seeds {changed}" if changed
                                         else "identical on every shared seed"))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--against", help="an earlier BENCH_<tag>.json to compare with")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {"tag": args.tag, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, SEEDS[0], seconds, 1)
        out["meta"] = runs[0]["meta"]
        out["workloads"][workload] = {
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs + [traced]),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "digests": {str(seed): r["digest"] for seed, r in zip(SEEDS, runs)},
        }
        for name, stats in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.4g}, spread {stats['spread']:.3f}")
    path = BENCH_DIR / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    if args.against:
        before = json.loads(Path(args.against).read_text(encoding="utf-8"))
        return 0 if compare(out, before, spec) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
