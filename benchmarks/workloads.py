"""Workload generators and the verdict gate of the benchmark.

Every op is one seeded verification: a config dict, as ``gencontact verify``
reads it, goes through ``config.parse_config`` and ``config.run_checks``, and
the verdicts are compared with an expected table.  All inputs of op ``i``
come from ``random.Random(f"{workload}:{seed}:{i}")``, so one workload seed
gives the same configs on every run, and each op gets its own sample seed:
the per-field memo and the gallery cache cannot hand a later op the points
of an earlier one.
"""

from __future__ import annotations

import hashlib
import math
import random

from gencontact import config, gallery

KAHLER_SAMPLES = 40  # the CLI default of `gallery run`
DARBOUX_SAMPLES = 8
DEFORM_SAMPLES = 40
DARBOUX_K = 3  # dz - sum_i y_i dx_i on a 7-dimensional chart
DEFORM_RANGE = 0.3  # generated coefficients are uniform in [-0.3, 0.3]

DARBOUX_CHECKS = ("gacs", "phi_kernel", "fgacs", "involutivity",
                  "plain_cone", "rcone_condition", "cone_algebra")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _sample_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _num(c: float) -> str:
    return f"({c:.6f})"


def kahler_golden(rng: random.Random) -> dict:
    """The flagship warped Kaehler interval with its golden check set."""
    expected = gallery.entry("kahler_interval").expected
    return {
        "gallery": "kahler_interval",
        "checks": sorted(k for k in expected if k in config.CHECKS),
        "seed": _sample_seed(rng),
        "samples": KAHLER_SAMPLES,
    }


def darboux7(rng: random.Random) -> dict:
    """The Darboux form on a 7-dim chart, as expression strings for ``from_contact``.

    The seed draws which coordinates play x_i, y_i and z and the sign of each
    y_i dx_i term; every such form is Darboux up to relabelling, so the
    darboux verdict table holds for all of them.
    """
    n = 2 * DARBOUX_K + 1
    roles = rng.sample(range(n), n)
    eta = ["0"] * n
    for i in range(DARBOUX_K):
        y = f"x{roles[DARBOUX_K + i] + 1}"
        eta[roles[i]] = f"-{y}" if rng.random() < 0.5 else y
    eta[roles[-1]] = "1"
    return {
        "structure": {"chart": {"dim": n}, "builder": "from_contact", "eta": eta},
        "checks": list(DARBOUX_CHECKS),
        "seed": _sample_seed(rng),
        "samples": DARBOUX_SAMPLES,
    }


def deform_pipeline(rng: random.Random) -> dict:
    """A perturbed contact form on a 3-dim chart, then K-, B, K+ and normalize.

    The form is f (dz + dh - y dx) with f = 1 + a1 x + a2 y z and
    h = a3 x^2 + a4 x y + a5 y^2: a positive multiple of the pull-back of
    dz - y dx by (x, y, z) -> (x, y, z + h), hence contact on the whole box
    for every draw of the coefficients.
    """
    a1, a2, a3, a4, a5, *rest = (round(rng.uniform(-DEFORM_RANGE, DEFORM_RANGE), 6)
                                 for _ in range(14))
    k1, k2, k3, b1, b2, b3, p1, p2, p3 = rest
    f = f"(1 + {_num(a1)}*x + {_num(a2)}*y*z)"
    eta = [
        f"{f}*({_num(2 * a3)}*x + {_num(a4 - 1)}*y)",
        f"{f}*({_num(a4)}*x + {_num(2 * a5)}*y)",
        f,
    ]
    upper = {(0, 1): f"{_num(b1)}*z", (0, 2): _num(b2), (1, 2): f"{_num(b3)}*x*y"}
    bfield = [["0"] * 3 for _ in range(3)]
    for (i, j), text in upper.items():
        bfield[i][j] = text
        bfield[j][i] = f"-({text})"
    return {
        "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": eta},
        "apply": [
            {"op": "k_minus", "kappa": [f"{_num(k1)}*z", _num(k2), f"{_num(k3)}*x*y"]},
            {"op": "b_field", "B": bfield},
            {"op": "k_plus", "kappa": [_num(p1), f"{_num(p2)}*x", f"{_num(p3)}*y*z"]},
            {"op": "normalize"},
        ],
        "checks": ["fgacs"],
        "seed": _sample_seed(rng),
        "samples": DEFORM_SAMPLES,
    }


GENERATORS = {
    "kahler_golden": kahler_golden,
    "darboux7": darboux7,
    "deform_pipeline": deform_pipeline,
}


def op_config(workload: str, seed: int, index: int) -> dict:
    """The config dict of op ``index`` of ``workload`` under workload seed ``seed``."""
    return GENERATORS[workload](_rng(workload, seed, index))


def expected_verdicts(workload: str) -> dict:
    if workload == "kahler_golden":
        return dict(gallery.entry("kahler_interval").expected)
    if workload == "darboux7":
        table = gallery.entry("darboux").expected
        return {c: table[c] for c in DARBOUX_CHECKS}
    return {"fgacs": True}


def verdicts(report, checks) -> dict:
    """Per-check verdicts the way `gallery run` derives them: all gated rows pass."""
    out = {}
    for check in checks:
        rows = [r for r in report.rows if r.name.startswith(f"{check}: ") and r.passed is not None]
        out[check] = all(r.passed for r in rows)
    return out


def run_op(workload: str, cfg_obj: dict):
    """One op: parse, run the checks, gate the verdicts.  Returns (report, mismatches)."""
    cfg = config.parse_config(cfg_obj)  # module attributes, so that a tracer sees the calls
    report = config.run_checks(cfg)
    expected = expected_verdicts(workload)
    got = verdicts(report, cfg.checks)
    mismatches = sorted(c for c in cfg.checks if got[c] != expected[c])
    return report, mismatches


def margin_decades(reports) -> float:
    """min log10(tolerance / max_residual) over passing gated rows with nonzero residual.

    0.0 when no row qualifies, which happens only when every op failed.
    """
    margins = [
        math.log10(row.tolerance / row.max_residual)
        for rep in reports
        for row in rep.rows
        if row.passed and row.max_residual > 0
    ]
    return min(margins) if margins else 0.0


def digest(reports) -> str:
    """SHA-256 of the canonical report list (each ``ResidualReport.to_json``)."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(rep.to_json().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
