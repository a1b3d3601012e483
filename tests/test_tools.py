"""The comparison tools under tools/ run each tree in a pinned environment."""

import json
import subprocess

import pytest

from pins import ROOT, load_tool


def test_pinned_env_writes_no_bytecode_and_pins_threads(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    monkeypatch.setenv("GENCONTACT_THREADS", "4")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env = load_tool("compare_digests").pinned_env()
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert all(env[var] == "1" for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    assert "PYTHONPATH" not in env and "GENCONTACT_THREADS" not in env


def _fake_benchmark_run(calls):
    """A stand-in for ``subprocess.run`` of ``benchmarks/run.py`` that records each command."""
    metrics = {name: {"value": 1.0} for name in ("setup_s", "verdict_s.p50", "ops_per_s",
                                                  "peak_rss_mb", "margin_decades")}

    def fake(cmd, **kwargs):
        calls.append(cmd)
        out = f"# digest {'0' * 64} over 1 ops\n" + json.dumps({"correct": True, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    return fake


@pytest.mark.parametrize("argv, seed", [([], "0"), (["--seed", "7"], "7")])
def test_paired_bench_passes_its_seed_to_both_trees(monkeypatch, tmp_path, capsys, argv, seed):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = load_tool("paired_bench")
    calls = []
    monkeypatch.setattr(tool.subprocess, "run", _fake_benchmark_run(calls))
    trees = [tmp_path / "a", tmp_path / "b"]
    code = tool.main([*map(str, trees), "--workload", "darboux7", "--pairs", "2",
                      "--seconds", "1", *argv])
    assert code == 0
    assert len(calls) == 4 and {cmd[1] for cmd in calls} == {
        str(t.resolve() / "benchmarks" / "run.py") for t in trees}
    assert all(cmd[cmd.index("--seed") + 1] == seed for cmd in calls)
    assert capsys.readouterr().out.startswith(f"# darboux7, seed {seed}: 2 pairs")
