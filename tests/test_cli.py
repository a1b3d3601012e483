"""CLI and config layer: schemas, exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gencontact.cli import main

HEIS_CFG = {
    "gallery": "heisenberg_sasakian",
    "checks": ["acms", "normality", "sasakian"],
    "samples": 8,
    "seed": 7,
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_verify_pass(tmp_path, capsys):
    cfg = write(tmp_path, "ok.json", HEIS_CFG)
    assert main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_expected_failure_exit_one(tmp_path):
    cfg = write(
        tmp_path,
        "fail.json",
        {"gallery": "kahler_interval", "checks": ["sasakian_pair"], "samples": 6},
    )
    assert main(["verify", cfg]) == 1


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_file_exit_two():
    assert main(["verify", "/nonexistent/config.json"]) == 2


def test_unknown_check_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"gallery": "darboux", "checks": ["bogus"]})
    assert main(["verify", cfg]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"gallery": "darboux", "checks": [], "frobnicate": 1})
    assert main(["verify", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("extra, path", [
    ({"tolerances": {"gacs": "x"}}, "$.tolerances.gacs"),
    ({"tolerances": {"gacs": -1e-8}}, "$.tolerances.gacs"),
    ({"tolerances": {"gacs": float("nan")}}, "$.tolerances.gacs"),
    ({"tolerances": [1]}, "$.tolerances"),
    ({"tol": "abc"}, "$.tol"),
    ({"tol": 0}, "$.tol"),
    ({"tol": True}, "$.tol"),
    ({"seed": -1}, "$.seed"),
    ({"seed": 1.5}, "$.seed"),
    ({"samples": True}, "$.samples"),
    ({"samples": 0}, "$.samples"),
])
def test_malformed_run_scalars_exit_two(tmp_path, capsys, extra, path):
    """Tolerances, seed and sample count are refused with their JSON path,
    not left to fail inside a check."""
    cfg = write(tmp_path, "c.json", {"gallery": "darboux", "checks": ["gacs"], **extra})
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--samples", "0"), ("--tol", "0"), ("--tol", "nan"),
])
def test_malformed_command_line_scalars_exit_two(tmp_path, capsys, flag, value):
    cfg = write(tmp_path, "c.json", {"gallery": "darboux", "checks": ["gacs"]})
    assert main(["verify", cfg, flag, value]) == 2
    assert main(["gallery", "run", "darboux", "--checks", "gacs", flag, value]) == 2
    assert f"{flag}: expected" in capsys.readouterr().err


def test_module_entry_point_runs_from_a_checkout():
    """python -m gencontact works with only src on the path, no installed script."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "gencontact", "gallery", "list"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "kahler_interval" in done.stdout


def test_unknown_coordinate_named(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "c.json",
        {
            "structure": {
                "chart": {"dim": 3},
                "builder": "from_contact",
                "eta": ["0", "0", "sin(2*w)"],
            },
            "checks": ["gacs"],
        },
    )
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown coordinate 'w'" in err and "$.structure.eta[2]" in err


def test_contact_builder_needs_odd_dimension(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "c.json",
        {
            "structure": {"chart": {"dim": 4}, "builder": "from_contact",
                          "eta": ["0", "0", "0", "1"]},
            "checks": ["gacs"],
        },
    )
    assert main(["verify", cfg]) == 2
    assert "odd" in capsys.readouterr().err


def test_explicit_structure_and_expression_chart(tmp_path):
    """A from_contact structure built from expression strings passes gacs."""
    cfg = write(
        tmp_path,
        "c.json",
        {
            "structure": {
                "chart": {"dim": 3, "domain": [[-1, 1], [-1, 1], [-1, 1]]},
                "builder": "from_contact",
                "eta": ["-y", "0", "1"],
            },
            "checks": ["gacs", "phi_kernel", "fgacs"],
            "samples": 6,
        },
    )
    assert main(["verify", cfg]) == 0


def test_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, "c.json", dict(HEIS_CFG))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", str(tmp_path / "c.json"), "--out", str(out1)]) == 0
    assert main(["verify", str(tmp_path / "c.json"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["pass"] is True
    assert payload["seed"] == 7
    assert all("max_residual" in r for r in payload["results"])


def test_seed_changes_report(tmp_path):
    cfg = write(tmp_path, "c.json", dict(HEIS_CFG))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["verify", str(tmp_path / "c.json"), "--out", str(out1), "--seed", "1"])
    main(["verify", str(tmp_path / "c.json"), "--out", str(out2), "--seed", "2"])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["seed"] != r2["seed"]


def test_gallery_run_and_list(tmp_path, capsys):
    assert main(["gallery", "list"]) == 0
    assert "kahler_interval" in capsys.readouterr().out
    assert main(["gallery", "run", "heisenberg_sasakian", "--checks",
                 "acms,sasakian", "--samples", "6"]) == 0
    assert main(["gallery", "run", "kahler_interval", "--checks", "sasakian_pair",
                 "--samples", "6"]) == 1
    assert main(["gallery", "run", "not_a_thing"]) == 2


def test_deform_round_trip(tmp_path):
    cfg = write(
        tmp_path,
        "d.json",
        {
            "gallery": "darboux",
            "apply": [
                {"op": "k_minus", "kappa": ["0", "0", "1"]},
                {"op": "b_field", "B": [["0", "x", "0"], ["-x", "0", "0"], ["0", "0", "0"]]},
            ],
            "samples": 6,
        },
    )
    out = tmp_path / "deformed.json"
    assert main(["deform", cfg, "--out", str(out)]) == 0
    recipe = json.loads(out.read_text())
    assert recipe["validation"]["pass"] is True
    # the recipe re-parses and re-validates identically
    replay = {
        "structure": recipe["structure"],
        "apply": recipe["apply"],
        "checks": ["fgacs"],
        "samples": 6,
    }
    cfg2 = write(tmp_path, "replay.json", replay)
    assert main(["verify", cfg2]) == 0


def test_gallery_round_trip_through_structure_json(tmp_path):
    """Serializing a gallery reference re-parses to the same passing checks."""
    ref = {"gallery": "heisenberg_sasakian", "checks": ["gacs", "gacm"], "samples": 6}
    cfg = write(tmp_path, "ref.json", ref)
    assert main(["verify", cfg]) == 0
    rewritten = write(tmp_path, "ref2.json", json.loads(json.dumps(ref)))
    assert main(["verify", rewritten]) == 0


def test_pipeline_normalize_op(tmp_path):
    cfg = write(
        tmp_path,
        "n.json",
        {
            "gallery": "darboux",
            "apply": [{"op": "k_minus", "kappa": ["0", "0", "1"]}, {"op": "normalize"}],
            "checks": ["fgacs"],
            "samples": 6,
        },
    )
    assert main(["verify", cfg]) == 0


@pytest.mark.parametrize("eplus, eminus, step, reason", [
    # E+ + E- has no vector part while K+ makes f = -1
    ({"vec": ["1", "0", "0"]}, {"vec": ["-1", "0", "0"], "form": ["0", "1", "0"]},
     {"op": "k_plus", "kappa": ["1", "0", "0"]}, "zeta vanishes"),
    # no vector part and f = 0 everywhere: alpha = 0/0
    ({"form": ["0", "0", "1"]}, {"form": ["1", "0", "0"]},
     {"op": "k_minus", "kappa": ["1", "1", "1"]}, "|f| = nan"),
])
def test_failed_normalize_exits_two(tmp_path, capsys, eplus, eminus, step, reason):
    """A structure that normalize cannot rid of f is refused with the path of the step."""
    structure = {"chart": {"dim": 3}, "phi": [["0"] * 6 for _ in range(6)],
                 "eplus": eplus, "eminus": eminus}
    cfg = write(tmp_path, "n.json", {"structure": structure,
                                     "apply": [step, {"op": "normalize"}], "checks": ["fgacs"]})
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: $.apply[1]: ") and reason in err[0]


def test_bad_b_field_rejected(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "b.json",
        {
            "gallery": "darboux",
            "apply": [{"op": "b_field", "B": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}],
            "checks": ["fgacs"],
        },
    )
    assert main(["verify", cfg]) == 2
    assert "antisymmetric" in capsys.readouterr().err


def test_cone_structure_reference(tmp_path):
    cfg = write(
        tmp_path,
        "cone.json",
        {
            "structure": {"cone_of": {"gallery": "darboux"}, "conjugate": True},
            "checks": ["gacx"],
            "samples": 5,
        },
    )
    assert main(["verify", cfg]) == 0


def test_tolerance_override(tmp_path):
    # absurdly tight tolerance turns rounding noise into failure
    cfg = write(
        tmp_path,
        "t.json",
        {"gallery": "heisenberg_sasakian", "checks": ["gacm"], "samples": 6,
         "tol": 1e-30},
    )
    assert main(["verify", cfg]) == 1


def test_explicit_phi_structure(tmp_path):
    """A structure given as a raw 2n x 2n expression matrix plus sections."""
    cfg = write(
        tmp_path,
        "explicit.json",
        {
            "structure": {
                "chart": {"dim": 3},
                "phi": [
                    ["0", "1", "0", "0", "0", "0"],
                    ["-1", "0", "0", "0", "0", "0"],
                    ["0", "y", "0", "0", "0", "0"],
                    ["0", "0", "0", "0", "1", "0"],
                    ["0", "0", "0", "-1", "0", "-y"],
                    ["0", "0", "0", "0", "0", "0"],
                ],
                "eplus": {"vec": ["0", "0", "1"]},
                "eminus": {"form": ["-y", "0", "1"]},
            },
            "checks": ["gacs", "phi_kernel", "involutivity"],
            "samples": 8,
        },
    )
    assert main(["verify", cfg]) == 0


def test_explicit_phi_dimension_mismatch(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "bad.json",
        {
            "structure": {
                "chart": {"dim": 3},
                "phi": [["0"] * 3] * 3,
                "eplus": {"vec": ["0", "0", "1"]},
                "eminus": {"form": ["0", "0", "1"]},
            },
            "checks": ["gacs"],
        },
    )
    assert main(["verify", cfg]) == 2
    assert "6x6" in capsys.readouterr().err


def test_invalid_metric_found_by_a_check_exits_two(tmp_path, capsys):
    """A metric that is not positive definite surfaces only when gacm evaluates
    it; that is a structure error (exit 2), not a failed check (exit 1)."""
    cfg = write(
        tmp_path,
        "negative.json",
        {
            "structure": {
                "chart": {"dim": 3},
                "builder": "from_acs",
                "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                "xi": ["0", "0", "1"],
                "eta": ["0", "0", "1"],
                "g": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            },
            "checks": ["gacm"],
            "samples": 4,
        },
    )
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive definite" in err
    assert len(err.strip().splitlines()) == 1


def _refused_outside_real_domain(capsys, cfg, name):
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{name} is not real and finite at [" in err[0]


def test_from_contact_outside_the_real_domain_exits_two(tmp_path, capsys):
    """log(x) is complex where x < 0: the builder refuses it at a check point
    instead of letting every gacs row pass on complex values."""
    structure = {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "log(x)"]}
    cfg = write(tmp_path, "log.json", {"structure": structure, "checks": ["gacs"]})
    _refused_outside_real_domain(capsys, cfg, "eta")


def test_from_acs_outside_the_real_domain_exits_two(tmp_path, capsys):
    structure = {
        "chart": {"dim": 3},
        "builder": "from_acs",
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "-y", "0"]],
        "xi": ["0", "0", "1"],
        "eta": ["-y", "0", "1"],
        "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "sqrt(x)"]],
    }
    cfg = write(tmp_path, "sqrt.json", {"structure": structure, "checks": ["acms"]})
    _refused_outside_real_domain(capsys, cfg, "g")


def test_pipeline_kappa_outside_the_real_domain_exits_two(tmp_path, capsys):
    """The fgacs axioms hold algebraically for a complex kappa, so a K(kappa)
    step with log(x) must be refused at parse time, not pass on complex values."""
    cfg = write(tmp_path, "kappa.json", {
        "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "1"]},
        "apply": [{"op": "k_minus", "kappa": ["log(x)", "0", "0"]}],
        "checks": ["fgacs"],
        "samples": 8,
    })
    _refused_outside_real_domain(capsys, cfg, "$.apply[0].kappa")


def test_explicit_components_outside_the_real_domain_exit_two(tmp_path, capsys):
    zero = ["0"] * 6
    phi = [list(zero) for _ in range(6)]
    cfg = write(tmp_path, "explicit.json", {
        "structure": {
            "chart": {"dim": 3},
            "phi": phi,
            "eplus": {"vec": ["0", "0", "sqrt(y)"]},
            "eminus": {"form": ["0", "0", "1"]},
        },
        "checks": ["gacs"],
    })
    _refused_outside_real_domain(capsys, cfg, "$.structure.eplus")


def test_gallery_golden_mode(tmp_path):
    """Without --checks, gallery run reproduces the expected-verdict table,
    so entries with intentional failures still exit 0."""
    assert main(["gallery", "run", "kahler_interval", "--samples", "8"]) == 0
    assert main(["gallery", "run", "darboux", "--samples", "8"]) == 0
    out = tmp_path / "golden.json"
    assert main(["gallery", "run", "heisenberg_sasakian", "--samples", "8",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["expected"]["sasakian"] is True
