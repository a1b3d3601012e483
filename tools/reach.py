"""List the functions of ``src/gencontact`` that a sweep of the program never calls.

    python3 tools/reach.py

Under ``sys.setprofile`` the script runs, in one process and from the
checkout it lives in: ``gallery run`` for every gallery entry, ``verify``
and ``deform`` on each JSON config block of ``README.md``, the first op of
each benchmark workload (workload seed 0) and the demos.  It then prints one
line per ``def`` in ``src/gencontact`` (nested ones included, lambdas not)
whose code never ran, as ``module.qualname  file:line``, and a count.

A function listed here has no caller in the sweep: it serves tests, the
benchmark's tracer, or nothing.  The sweep is not every path of the program
(error paths and options the sweep does not set stay unlisted only if some
other part of the sweep reaches them), so read the list as candidates.
Standard library only; the program it sweeps needs numpy.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gencontact"
WORKLOADS = ("kahler_golden", "darboux7", "deform_pipeline")


def defined(path: Path):
    """(first line of the code object, qualified name) of every def in one module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, prefix + child.name))
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def readme_configs():
    """The JSON config blocks of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def sweep():
    """Run every part of the sweep; the program's own output is discarded."""
    from gencontact import cli, gallery
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the README configs name an "out" file
        try:
            for entry in gallery.ENTRIES:
                cli.main(["gallery", "run", entry.name])
            for i, cfg in enumerate(readme_configs()):
                path = Path(tmp, f"readme{i}.json")
                path.write_text(json.dumps(cfg), encoding="utf-8")
                cli.main(["verify", str(path)])
                cli.main(["deform", str(path)])
        finally:
            os.chdir(cwd)
    for name in WORKLOADS:
        workloads.run_op(name, workloads.op_config(name, 0, 0))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    called = set()
    prefix = str(SRC)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sweep()
    finally:
        sys.setprofile(None)

    never = []
    for path in sorted(SRC.glob("*.py")):
        filename = str(path.resolve())
        for line, name in defined(path):
            if (filename, line) not in called:
                never.append(f"{path.stem}.{name}  src/gencontact/{path.name}:{line}")
    print("\n".join(never))
    print(f"{len(never)} functions in src/gencontact never called by the sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
