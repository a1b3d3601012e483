"""End-to-end and per-layer benchmark of gencontact's verification path.

    python3 benchmarks/run.py --workload kahler_golden --seed 0 --seconds 30 --trace 0

One process, one thread, one closed-loop client: the next op starts when the
previous one has finished.  An op is one seeded verification through
``config.parse_config`` and ``config.run_checks`` (the path of ``gencontact
verify`` and ``gallery run``) plus the verdict gate of ``workloads.py``.
Ops start while the run's clock (set-up probes left out), plus the median op
so far, stays within ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_REPS`` fresh processes of the time from
  launch until ``import gencontact`` and parsing the first op's config are done.
  The probes are spread over the run, between ops, so that their median sees
  the same host conditions as the ops; probe time is not op time;
* ``verdict_s.p50``: median wall time of one op;
* ``ops_per_s``: ops per second of timed run (mean-based);
* ``peak_rss_mb``: peak resident memory of this process up to the end of op
  ``GATE_OPS``;
* ``margin_decades``: min log10(tolerance / max_residual) over passing gated
  rows with nonzero residual of the first ``GATE_OPS`` ops.

``fail_ratio``, the tail percentile and the report digest are printed above
the result line.  With ``--trace 1`` ops alternate between untraced and traced
(see ``tracer.py``); the run reports per-op layer metrics of the traced ops
and ``trace.overhead_ratio``, the median over adjacent (untraced, traced) op
pairs of traced over untraced time, minus 1.  It writes the spans to
``.bench_trace/<workload>-seed<seed>.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  An
op fails on an exception or on a verdict that differs from its expected
table.  ``GENCONTACT_THREADS`` is removed and the BLAS thread variables are
set to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("kahler_golden", "darboux7", "deform_pipeline")
SETUP_REPS = 11
# Memory, margin and digest cover a fixed prefix of ops, so that they depend on
# the seed and the code, not on how many ops fit into the run: the per-field
# memo keeps growing with every op.
GATE_OPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def pin_environment():
    os.environ.pop("GENCONTACT_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import gencontact from this checkout's ``src``, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import gencontact
    except ImportError as err:
        sys.exit(f"error: cannot import gencontact from {SRC}: {err}")
    if SRC.resolve() not in Path(gencontact.__file__).resolve().parents:
        sys.exit(f"error: gencontact was imported from {gencontact.__file__}, not {SRC}")


def metadata() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {"GENCONTACT_THREADS": "unset",
                    **{var: os.environ[var] for var in THREAD_VARS}},
    }


def setup_once(workload: str, seed: int) -> float:
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class SetupProbes:
    """``SETUP_REPS`` set-up probes, run in step with the share of the run already done."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.times = []

    def catch_up(self, done: float):
        while len(self.times) < math.ceil(SETUP_REPS * min(done, 1.0)):
            self.times.append(setup_once(self.workload, self.seed))


def tail(times):
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    for q in TAIL_PERCENTILES:
        if len(ordered) * (1 - q / 100) >= TAIL_BEYOND:
            return q, ordered[math.ceil(q / 100 * len(ordered)) - 1]
    return None


def run_loop(workload: str, seed: int, seconds: float, tracer=None, probes=None):
    """Closed loop of ops; with a tracer, odd-numbered ops run traced.

    Probes run between ops, and their time is left out of the run's clock.
    """
    import workloads

    times = {False: [], True: []}
    pair_ratios = []  # traced op time / preceding untraced op time
    gate_reports, failures = [], []
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        if probes is not None:
            probe_start = time.perf_counter()
            probes.catch_up((probe_start - start - paused) / seconds)
            paused += time.perf_counter() - probe_start
        traced = tracer is not None and index % 2 == 1
        recent = times[traced] or times[not traced]
        if index >= (2 if tracer else 1) and \
                time.perf_counter() - start - paused + statistics.median(recent) > seconds:
            break
        cfg_obj = workloads.op_config(workload, seed, index)
        with tracer.op(index) if traced else contextlib.nullcontext():
            op_start = time.perf_counter()
            try:
                report, mismatches = workloads.run_op(workload, cfg_obj)
            except Exception as err:  # an op that raises is a failed op, not a failed run
                report, mismatches = None, [f"{type(err).__name__}: {err}"]
            op_time = time.perf_counter() - op_start
        times[traced].append(op_time)
        if traced:
            pair_ratios.append(op_time / times[False][-1])
        if mismatches:
            failures.append((index, mismatches))
        if index < GATE_OPS and report is not None:
            gate_reports.append(report)
        if index < GATE_OPS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
    if probes is not None:
        probes.catch_up(1.0)
    return times, pair_ratios, gate_reports, failures, rss_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_environment()
    import_program()
    import workloads
    from tracer import Tracer

    meta = metadata()
    probes = None if args.trace else SetupProbes(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    times, pair_ratios, gate_reports, failures, rss_mb = run_loop(
        args.workload, args.seed, args.seconds, tracer, probes)
    all_times = times[False] + times[True]
    attempted, failed = len(all_times), len(failures)

    print(f"# {args.workload} seed {args.seed}: {json.dumps(meta)}")
    for index, problems in failures[:5]:
        print(f"# op {index} FAILED: {'; '.join(problems)}")
    print(f"# fail_ratio {failed / attempted:g} ({failed} of {attempted} ops)")
    print("# op_s " + " ".join(f"{t:.4f}" for t in all_times))
    found = tail(times[False])
    print("# verdict_s.tail " + (f"p{found[0]:g} {found[1]:.4f} s over {len(times[False])} "
                                 "untraced ops" if found else
                                 f"n/a: {len(times[False])} untraced ops leave no percentile "
                                 f"with {TAIL_BEYOND} ops beyond it"))
    digest = workloads.digest(gate_reports)
    print(f"# digest {digest} over the first {len(gate_reports)} ops")

    if args.trace:
        metrics = tracer.layer_metrics(len(times[True]))
        metrics["trace.overhead_ratio"] = (statistics.median(pair_ratios) - 1, "ratio")
        print(f"# trace.overhead_ratio over {len(pair_ratios)} op pairs")
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.write_spans(path, workload=args.workload, seed=args.seed, meta=meta)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(probes.times), "s"),
            "verdict_s.p50": (statistics.median(all_times), "s"),
            "ops_per_s": (attempted / sum(all_times), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "margin_decades": (workloads.margin_decades(gate_reports), "decades"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
