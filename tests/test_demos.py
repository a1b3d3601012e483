"""Each demo script runs to completion (exit 0) from a source checkout and
prints the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  The demos print residuals and verdicts of
# deterministic computations, so a change of these bytes is a change of the
# numbers: a re-pin must say in CHANGES.md why the output moved.
STDOUT_SHA256 = {
    "01_exterior_calculus.py": "79c475d809f130ab353344ec238d082fc3f5f65d2e785b831bd2417244888423",
    "02_structures_and_transforms.py":
        "62ff4d1857e5b179a318ba18bcb8f60d6fe0a909902f97047f2ddab3ce1c2aa0",
    "03_cone_and_sasakian.py": "4aced7096959432a4edc95b41104feb67439896559e346504a3d2a4de3543801",
    "04_f_deformations.py": "a741372b44aa8f21f9ee70b4d493e0e0dd8bd681855185209290eca44f4a9603",
}


def test_there_are_four_demos():
    assert len(DEMOS) == 4
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert digest == STDOUT_SHA256[script.name], (
        f"the output of {script.name} changed (sha256 {digest}); if the change is "
        "intended, justify the re-pin in CHANGES.md")


def test_readme_library_tour_runs_on_the_package_exports():
    """The README's "Library tour" block runs from a source checkout: it reads only
    names that ``gencontact`` exports, and classifies the contact form as contact(-)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", tour], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "contact(-)"
