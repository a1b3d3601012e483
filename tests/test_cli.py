"""CLI and config layer: schemas, exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gencontact import config, gallery
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
        {"gallery": "kahler_interval", "checks": ["sasakian"], "samples": 6},
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


def test_removed_sasakian_pair_alias_is_an_unknown_check(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"gallery": "kahler_interval", "checks": ["sasakian_pair"]})
    assert main(["verify", cfg]) == 2
    assert "unknown check 'sasakian_pair'" in capsys.readouterr().err


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
    assert main(["gallery", "run", "kahler_interval", "--checks", "sasakian",
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


def test_normalize_takes_alpha_zero_where_zeta_and_f_vanish(tmp_path):
    """No vector part in E+ + E- and f = 0 everywhere: alpha = 0, not 0/0."""
    from gencontact import deformations as D
    from gencontact.config import parse_config

    structure = {"chart": {"dim": 3}, "phi": [["0"] * 6 for _ in range(6)],
                 "eplus": {"form": ["0", "0", "1"]}, "eminus": {"form": ["1", "0", "0"]}}
    k_minus = {"op": "k_minus", "kappa": ["1", "1", "1"]}
    cfg = write(tmp_path, "n.json", {"structure": structure,
                                     "apply": [k_minus, {"op": "normalize"}], "checks": ["fgacs"]})
    assert main(["verify", cfg]) != 2

    s = parse_config({"structure": structure, "apply": [k_minus], "checks": ["fgacs"]})
    s = s.subject.gacs
    pts = s.chart.sample(seed=2, count=12)
    assert np.all(s.f.values(pts) == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, alpha, beta = D.normalize(s, pts)
        assert np.all(alpha.values(pts) == 0)
        assert np.all(D.k_minus(D.k_plus(s, alpha), beta).f.values(pts) == 0)


def test_pipeline_with_f_zero_result_runs_the_gacs_checks(tmp_path, capsys):
    """A b_field + normalize pipeline ends at f = 0, so the Gacs checks accept its result."""
    cfg = write(tmp_path, "bn.json", {
        "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "1"]},
        "apply": [{"op": "b_field", "B": [["0", "z", "0"], ["-z", "0", "0"], ["0", "0", "0"]]},
                  {"op": "normalize"}],
        "checks": ["fgacs", "gacs", "phi_kernel"],
        "samples": 6,
    })
    assert main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "gacs: gacs.skew" in out and "phi_kernel: gacs.phi_eplus" in out


@pytest.mark.parametrize("kappa, code", [("0.1*(y-2)^-1", 0), ("0.1/(y-2)", 0),
                                         ("0.1*y^0.5", 2)])
def test_constant_exponents_are_real_powers(tmp_path, capsys, kappa, code):
    """A constant exponent that is not a bare literal gives the real power, as 1/(y-2)
    does; a fractional power of a negative is still refused as not real."""
    cfg = write(tmp_path, "pow.json", {
        "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "1"]},
        "apply": [{"op": "k_minus", "kappa": [kappa, "0", "0"]}],
        "checks": ["fgacs"], "samples": 6,
    })
    assert main(["verify", cfg]) == code
    assert ("kappa is not real and finite" in capsys.readouterr().err) == (code == 2)


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


def test_an_override_decides_the_involutivity_label_and_the_plain_cone_verdicts():
    """The two checks whose gate changes what they compute read the override:
    darboux is contact(-) and its plain cone verdicts agree at the default gates."""
    def rows(tolerances):
        cfg = config.parse_config({"gallery": "darboux", "checks": ["involutivity", "plain_cone"],
                                   "samples": 4, "seed": 3, "tolerances": tolerances})
        return {r.name: r for r in config.run_checks(cfg).rows}

    agreement = "plain_cone: plain_cone.verdict_agreement"
    default = rows({})
    assert "involutivity: involutivity.class[contact(-)]" in default
    assert default[agreement].max_residual == 0.0
    loose = rows({"involutivity": 1.0, "plain_cone": 1.0})
    assert "involutivity: involutivity.class[strong]" in loose
    assert loose[agreement].max_residual == 0.0 and loose[agreement].tolerance == 1.0


# the subject each check runs on in the override test below
OVERRIDE_SUBJECTS = ({"gallery": "kahler_interval"},
                     {"structure": {"cone_of": {"gallery": "darboux"}}})


@pytest.mark.parametrize("check", sorted(config.CHECKS))
def test_an_override_regates_every_gated_row_and_moves_no_residual(check):
    """Every row a check gates carries the override, whatever gate it had (1e-7, 1e-8,
    1e-9, 1e-12, 0.5); informational rows stay ungated, and no residual moves."""
    override = 1e-3
    for obj in OVERRIDE_SUBJECTS:
        cfg = config.parse_config({**obj, "checks": [check], "samples": 2, "seed": 3})
        try:
            base = config.run_checks(cfg)
        except config.ConfigError:
            continue
        cfg.tolerances = {check: override}
        regated = config.run_checks(cfg)
        break
    assert len(regated.rows) == len(base.rows)
    for old, new in zip(base.rows, regated.rows):
        if old.tolerance is None:
            assert new.tolerance is None, old.name
            continue
        assert new.name == old.name and new.tolerance == override
        assert (new.max_residual, new.mean_residual, new.argmax_point) == (
            old.max_residual, old.mean_residual, old.argmax_point), old.name


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
    """log(x) is NaN where x < 0: the builder refuses it at a check point
    instead of letting every gacs row read NaN."""
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


@pytest.mark.parametrize("steps", [["k", "n"], ["n", "k"]])
def test_pipeline_data_is_checked_at_the_check_points_after_a_normalize(tmp_path, capsys, steps):
    """A normalize step samples its own points but leaves every later step's
    data checked at the pipeline's check points: this kappa is NaN at one of
    them (x > 0.718097) and finite at all of normalize's points."""
    step = {"k": {"op": "k_minus", "kappa": ["log(0.718097 - x)", "0", "0"]},
            "n": {"op": "normalize"}}
    cfg = write(tmp_path, "order.json", {
        "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "1"]},
        "apply": [step[k] for k in steps],
        "checks": ["fgacs"],
    })
    _refused_outside_real_domain(capsys, cfg, f"$.apply[{steps.index('k')}].kappa")


@pytest.mark.parametrize("eta, kappa", [
    (["-y", "0", "log(x)"], None),
    (["-y", "0", "sqrt(x)"], None),
    (["-y", "0", "1 + 0.1*y^0.5"], None),
    (["-y", "0", "1 + (0-2)^0.5 * x"], None),
    (["-y", "0", "1"], ["0.1*y^0.5", "0", "0"]),
], ids=["log", "sqrt", "power", "literal_power", "kappa_power"])
def test_outside_the_real_domain_stderr_is_the_error_line_alone(tmp_path, eta, kappa):
    """Out of the real domain a real log, sqrt or non-integer power is NaN, and
    numpy's warning about it is not printed: the one line on stderr is the
    refusal, from a fresh interpreter (pytest captures warnings in process)."""
    obj = {"structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": eta},
           "checks": ["fgacs"]}
    if kappa is not None:
        obj["apply"] = [{"op": "k_minus", "kappa": kappa}]
    cfg = write(tmp_path, "domain.json", obj)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "gencontact", "verify", cfg],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    err = done.stderr.splitlines()
    name = "$.structure: eta" if kappa is None else "$.apply[0].kappa"
    assert len(err) == 1 and err[0].startswith(f"error: {name} is not real and finite at ["), err


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


def test_a_non_finite_residual_exits_two_and_writes_no_report(tmp_path, capsys):
    """log(x + 0.86) is finite at every check point of the builder and NaN at
    some of the run's 20 sample points: the check is refused with the row and
    its point named, instead of five FAIL rows of max nan and bare NaN in JSON."""
    out = tmp_path / "report.json"
    cfg = write(tmp_path, "nan.json", {
        "structure": {"chart": {"dim": 3}, "builder": "from_contact",
                      "eta": ["-y", "0", "1 + 0.1*log(x + 0.86)"]},
        "checks": ["gacs"], "seed": 0, "samples": 20,
    })
    assert main(["verify", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: check gacs: gacs."), err
    point = json.loads(err[0].split(" at ")[-1])
    assert len(point) == 3 and point[0] < -0.86
    assert not out.exists()


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


# -- one structure record: each check names what it needs --------------------------------

CONTACT = {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "1"]}
HEIS_ACS = {
    "chart": {"dim": 3},
    "builder": "from_acs",
    "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "y", "0"]],
    "xi": ["0", "0", "1"],
    "eta": ["-y", "0", "1"],
}
HEIS_ACS_G = {**HEIS_ACS, "g": [["1 + y*y", "0", "-y"], ["0", "1", "0"], ["-y", "0", "1"]]}
B_STEP = {"op": "b_field", "B": [["0", "0.3", "0"], ["-0.3", "0", "0.1*x"], ["0", "-0.1*x", "0"]]}
K_PLUS = {"op": "k_plus", "kappa": ["0.1", "0", "0.2*x"]}

F_ZERO = {"gacs", "phi_kernel", "involutivity", "plain_cone", "rcone_condition",
          "cone_crosscheck"}
METRIC = {"gacm", "generalized_sasakian"}
CLASSICAL = {"acms", "normality", "sasakian", "vaisman_pair"}
# subject -> (its config, the checks it must refuse)
REFUSALS = {
    "darboux": ({"gallery": "darboux"}, METRIC | CLASSICAL | {"gacx"}),
    "k_plus": ({"structure": CONTACT, "apply": [K_PLUS]},
               F_ZERO | METRIC | CLASSICAL | {"gacx"}),
    "cone_of": ({"structure": {"cone_of": {"gallery": "darboux"}}},
                F_ZERO | METRIC | CLASSICAL | {"fgacs", "cone_algebra"}),
    # normality and acms read no metric; the Sasakian criteria need one
    "from_acs_without_g": ({"structure": HEIS_ACS},
                           METRIC | {"sasakian", "vaisman_pair", "gacx"}),
    "kahler_interval": ({"gallery": "kahler_interval"}, {"gacx"}),
}


@pytest.mark.parametrize("subject", sorted(REFUSALS))
def test_each_check_gives_a_report_or_names_its_need(subject):
    """Every registered check on five subjects: a report, or a ConfigError naming
    the check (no other exception), refused exactly where the subject lacks the need."""
    obj, expected = REFUSALS[subject]
    refused = set()
    for check in sorted(config.CHECKS):
        cfg = config.parse_config({**obj, "checks": [check], "samples": 2, "seed": 3})
        try:
            rep = config.run_checks(cfg)
        except config.ConfigError as err:
            assert f"check {check!r} needs " in str(err), (check, str(err))
            refused.add(check)
        else:
            assert rep.rows, check
    assert refused == expected


def test_refused_need_exits_two_with_the_check_named(tmp_path, capsys):
    cfg = write(tmp_path, "need.json", {"structure": HEIS_ACS, "checks": ["sasakian"]})
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "check 'sasakian' needs a metric g" in err[0]


def test_cone_algebra_on_an_f_structure_is_a_verdict(tmp_path, capsys):
    """i_prime carries f, so cone_algebra reads any generalized (f-)almost contact structure."""
    cfg = write(tmp_path, "f_cone.json", {"structure": CONTACT, "apply": [K_PLUS],
                                          "checks": ["cone_algebra"], "samples": 8})
    assert main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "cone_algebra: gacx.square" in out and "FAIL" not in out


def test_apply_on_a_cone_reference_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "cone_apply.json", {
        "structure": {"cone_of": {"gallery": "darboux"}}, "apply": [B_STEP], "checks": ["gacx"]})
    assert main(["verify", cfg]) == 2
    assert "provides nothing to deform" in capsys.readouterr().err


def test_pipeline_steps_keep_or_drop_the_metric():
    """A B-field keeps the metric on the one structure; K+- and normalize drop it;
    every step drops the classical structures."""
    def subject(steps):
        return config.parse_config({"structure": HEIS_ACS_G, "apply": steps}).subject

    for steps in ([B_STEP], [B_STEP, B_STEP]):
        s = subject(steps)
        assert s.gacs.metric is not None and s.need_metric("gacm") is s.gacs
        assert s.classical == ()
    for steps in ([K_PLUS], [B_STEP, {"op": "normalize"}], [B_STEP, K_PLUS]):
        s = subject(steps)
        assert s.gacs is not None and s.gacs.metric is None and s.classical == ()


def test_a_gallery_reference_holds_the_cached_records():
    """Gallery records are referenced, not rebuilt, so their cached frames and duals are
    shared: the subject's one structure is the entry's record, which carries the metric."""
    built = gallery.build("kahler_interval")
    s = config.parse_structure({"gallery": "kahler_interval"})
    assert s.gacs is built["gacs"] and s.gacs.metric is not None
    assert s.need_metric("gacm") is s.gacs
    assert s.classical == tuple(built["acs_pair"])


@pytest.mark.parametrize("structure", [{"structure": HEIS_ACS_G},
                                       {"gallery": "kahler_interval"}])
def test_generalized_sasakian_after_a_b_field_is_a_verdict(tmp_path, structure):
    """Refused before the metric survived a B-field; its value is not pinned (whether
    a B-field keeps a generalized Sasakian structure is an open question here)."""
    out = tmp_path / "gs.json"
    cfg = write(tmp_path, "gs_b.json", {**structure, "apply": [B_STEP],
                                        "checks": ["generalized_sasakian"], "samples": 4})
    assert main(["verify", cfg, "--out", str(out)]) in (0, 1)
    rows = json.loads(out.read_text())["results"]
    assert rows and all(r["condition"].startswith("generalized_sasakian: ") for r in rows)
