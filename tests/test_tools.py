"""The comparison tools under tools/ run each tree in a pinned environment."""

from pins import load_tool


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
