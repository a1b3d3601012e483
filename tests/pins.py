"""The pin gate: each pinned output's SHA-256 is the gate, and its golden copy
under ``tests/golden/`` explains a failing pin.

A report pin that fails names the rows whose verdict or max residual moved
against the golden report, in the table of ``tools/compare_digests.py``
(both verdicts, both residuals, the absolute and the relative change); a
demo pin names the stdout lines that changed.  A re-pin updates the digest
and its golden file together and pastes that table into CHANGES.md.
"""

import difflib
import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE = load_tool("compare_digests")


def report_rows(data: bytes) -> list:
    """``[condition, pass, max_residual]`` per row of a report's JSON."""
    return [[r["condition"], r["pass"], r["max_residual"]] for r in json.loads(data)["results"]]


def changed_lines(old: bytes, new: bytes) -> str:
    diff = difflib.unified_diff(old.decode().splitlines(), new.decode().splitlines(),
                                "golden", "now", n=0, lineterm="")
    return "\n".join(diff)


def explain(name: str, old: bytes, new: bytes) -> str:
    """The rows of a report that moved, or the changed lines of any other output;
    changed lines too when a report moved in a field the rows do not show."""
    if name.endswith(".json"):
        rows = COMPARE.row_changes(report_rows(old), report_rows(new))
        if rows:
            return COMPARE.row_table(rows)
    return changed_lines(old, new)


def assert_pinned(name: str, data: bytes, digest: str):
    """``data`` hashes to ``digest``, the pin of ``tests/golden/<name>``; a failure
    shows what moved against the golden copy."""
    golden = (GOLDEN / name).read_bytes()
    assert hashlib.sha256(golden).hexdigest() == digest, (
        f"tests/golden/{name} is not the output its digest pins: update the two together")
    got = hashlib.sha256(data).hexdigest()
    assert got == digest, (
        f"{name} changed (sha256 {got}); if the change is intended, update the digest "
        f"and tests/golden/{name} together and justify the re-pin in CHANGES.md with "
        f"what moved:\n{explain(name, golden, data)}")
