"""Each demo script runs to completion (exit 0) from a source checkout and
prints the pinned bytes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pins import assert_pinned

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout, kept as tests/golden/demo_<script stem>.stdout.
# The demos print residuals and verdicts of deterministic computations, so a
# change of these bytes is a change of the numbers: a re-pin updates the digest
# and its golden output together and must say in CHANGES.md why the output moved.
STDOUT_SHA256 = {
    "01_exterior_calculus.py": "715c7cc9982e2a89a0649927a41697b5b809a830ff8979b9d38f04934dc2f782",
    "02_structures_and_transforms.py":
        "62ff4d1857e5b179a318ba18bcb8f60d6fe0a909902f97047f2ddab3ce1c2aa0",
    "03_cone_and_sasakian.py": "2bd891d46c8f3f905b8535f27c9a4a6ac06a74b0154d6f6629f92250eba46ae3",
    "04_f_deformations.py": "42dd04da1d60f6b09a5848c9d1ce3ef0a303fc138e7d11eaabcf4fade681c8f8",
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
    assert_pinned(f"demo_{script.stem}.stdout", done.stdout, STDOUT_SHA256[script.name])


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
