"""Tests of the benchmark itself, outside the package's test paths:

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as T  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_configs(workload):
    first = [workloads.op_config(workload, 7, i) for i in range(4)]
    again = [workloads.op_config(workload, 7, i) for i in range(4)]
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert first != [workloads.op_config(workload, 8, i) for i in range(4)]
    assert len({cfg["seed"] for cfg in first}) == 4  # every op samples its own points


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_passes_its_verdict_gate(workload):
    report, mismatches = workloads.run_op(workload, workloads.op_config(workload, 0, 0))
    assert mismatches == []
    assert workloads.margin_decades([report]) > 0


def test_digest_repeats_for_the_same_op():
    cfg = workloads.op_config("deform_pipeline", 3, 0)
    first, _ = workloads.run_op("deform_pipeline", cfg)
    again, _ = workloads.run_op("deform_pipeline", cfg)
    assert workloads.digest([first]) == workloads.digest([again])


def _wrappers_left():
    left = []
    for mod in T._package_modules():
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            left += [(owner, attr) for attr, value in vars(owner).items()
                     if getattr(value, "__bench_wrapper__", False)]
    return left


def test_tracer_wraps_every_binding_and_restores_it():
    originals = {(m, p): T._resolve(m, p) for m, p, _, _ in T.TARGETS}
    sites = {key: T.binding_sites(fn) for key, fn in originals.items()}
    # imported by name elsewhere, or aliased inside the class
    assert len(sites["structures", "eigenframe"]) >= 2
    assert len(sites["cone", "gacx_check"]) >= 2
    assert {attr for _, attr in sites["jets", "JetArray.__mul__"]} == {"__mul__", "__rmul__"}

    cfg = workloads.op_config("deform_pipeline", 0, 0)
    tracer = T.Tracer()
    with tracer.op(0):
        for key, fn in originals.items():
            assert all(vars(owner)[attr] is not fn for owner, attr in sites[key])
        workloads.run_op("deform_pipeline", cfg)

    assert _wrappers_left() == []
    for key, fn in originals.items():
        assert all(vars(owner)[attr] is fn for owner, attr in sites[key])
    counted = dict(tracer.calls)
    assert counted["config.parse_config"] == 1 and counted["fields.at"] > 0
    workloads.run_op("deform_pipeline", cfg)  # untraced: nothing may count it
    assert dict(tracer.calls) == counted
    assert tracer.spans[0][2] == "op" and all(span[5] is not None for span in tracer.spans)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_follows_benchmark_json(trace, kind):
    proc = _run(ROOT, "--workload", "deform_pipeline", "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "deform_pipeline", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
