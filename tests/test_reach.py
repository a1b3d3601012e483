"""Every function of ``src/gencontact`` that the program's own sweep never
calls is accounted for, so test-only surface cannot creep back into ``src``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# What tools/reach.py may list, by name, and why the sweep never calls it.
ACCOUNTED_FOR = {
    # grammar and operator paths that no swept expression uses
    "exprs.literal", "jets.JetArray.__rsub__", "jets.JetArray.__rtruediv__",
    "jets.JetArray.__pow__", "jets.log", "jets.sqrt",
    # error paths
    "exprs.ExprError.__init__", "gallery.names",
    # names the benchmark's tracer resolves
    "fields.nij_jets", "report.map_points", "structures.contact_volume",
    "structures._perm_sign",
}


def test_reach_lists_only_the_accounted_for_names():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *lines, count = done.stdout.splitlines()
    never = {line.split()[0] for line in lines}
    assert never == ACCOUNTED_FOR, (sorted(never - ACCOUNTED_FOR), sorted(ACCOUNTED_FOR - never))
    assert count.startswith(f"{len(ACCOUNTED_FOR)} functions")
