"""Golden tests: every gallery entry reproduces its expected-verdict table,
plus the closed-form identities of the warped Kaehler interval and the pinned
bytes of the gallery reports, of one 7-dim Darboux report and of two deform
pipeline reports."""

import json

import numpy as np
import pytest

from gencontact import cone as C
from gencontact import config as CFG
from gencontact import fields as F
from gencontact import gallery
from gencontact import integrability as I
from gencontact import jets as J
from gencontact import structures as S
from gencontact.charts import ConeChart
from gencontact.cli import main
from pins import assert_pinned


@pytest.mark.parametrize("name", gallery.names())
def test_expected_verdict_tables(name):
    entry = gallery.entry(name)
    subject = CFG.parse_structure({"gallery": name})
    points = subject.chart.sample(seed=101, count=8)
    for check, expected in entry.expected.items():
        need, run = CFG.CHECKS[check]
        rep = run(need(subject, check), points, None)
        assert rep.passed == expected, f"{name}: {check} -> {rep.summary()}"


def test_expected_keys_are_registered_checks():
    """Golden mode runs every expected key, so each must name a registered check."""
    for e in gallery.ENTRIES:
        assert set(e.expected) <= set(CFG.CHECKS), e.name


def test_darboux_contact_data():
    d = gallery.build("darboux")
    pts = d["chart"].sample(seed=7, count=10)
    deta = F.d(d["eta"])
    for p in pts[:5]:
        v = deta.values(p)
        expected = np.zeros((3, 3))
        expected[0, 1], expected[1, 0] = 1, -1
        assert np.allclose(v, expected)
        assert abs(S.contact_volume(d["eta"], p)) > 0.5


def test_darboux_higher_k():
    d2 = gallery.darboux(2)
    ch = d2["chart"]
    assert ch.dim == 5
    origin_ish = np.full(5, 0.05)
    assert abs(S.contact_volume(d2["eta"], origin_ish)) > 0.1
    # Reeb field is d/dz on the higher-dimensional chart as well
    reeb = d2["gacs"].Eminus.values(origin_ish)[:5]
    expected = np.zeros(5)
    expected[4] = 1.0
    assert np.allclose(reeb, expected)
    assert S.gacs_check(d2["gacs"], ch.sample(seed=3, count=4)).passed


def test_heisenberg_sign_fix():
    """Both Heisenberg entries use the sign of phi with the smaller Sasakian
    criterion residual: the negative rotation, which the builder fixes."""
    h = gallery.build("heisenberg_sasakian")
    pts = h["chart"].sample(seed=7, count=10)
    assert I.sasakian_criterion(h["acs"], pts).max_residual < 1e-9
    for name in ("heisenberg_sasakian", "heisenberg_cone_kahler"):
        acs = gallery.build(name)["acs"]
        # phi e1 = -e2 at y = 0: the criterion forces the negative rotation
        p = np.array([0.1, 0.0, 0.2])
        phi = acs.phi.values(p)
        assert np.allclose(phi @ [1, 0, 0], [0, -1, 0]), name
        picked = I.sasakian_criterion(acs, pts).max_residual
        flipped = I.sasakian_criterion(acs.flipped(), pts).max_residual
        assert picked < flipped, (name, picked, flipped)


def test_kahler_interval_cone_form_display():
    """omega_+ = r^2 sin(2z) omega' + 2r dr ^ dz on the cone (t-coordinates)."""
    k = gallery.build("kahler_interval")
    ch = k["chart"]
    cone = ConeChart.over(ch)
    acs = k["acs_pair"][0]
    gt = _cone_metric(cone, k)
    jplus = _cone_j(cone, acs, +1.0)
    for q in C.cone_points(ch.sample(seed=3, count=4), (-0.4, 0.3)):
        z, t = q[2], q[3]
        omega = gt.values(q) @ jplus.values(q)
        expected = np.zeros((4, 4), dtype=complex)
        e2t = np.exp(2 * t)
        expected[0, 1] = e2t * np.sin(2 * z)
        expected[1, 0] = -expected[0, 1]
        # 2r dr ^ dz is the tensor e^2t (dt (x) dz - dz (x) dt)
        expected[3, 2] = e2t
        expected[2, 3] = -e2t
        assert np.abs(omega - expected).max() < 1e-12


def test_kahler_interval_db_identity():
    """d omega_+(J+., J+., J+.) = d(-r^2 cos(2z) omega')."""
    k = gallery.build("kahler_interval")
    ch = k["chart"]
    cone = ConeChart.over(ch)
    acs = k["acs_pair"][0]
    gt = _cone_metric(cone, k)
    jplus = _cone_j(cone, acs, +1.0)
    omega = F.TwoFormField(
        cone, lambda p, o: J.jet_einsum("ik,kj->ij", gt.at(p, o), jplus.at(p, o))
    )
    lhs = F.c_transform(F.d(omega), jplus)

    z = F.coordinate(cone, 2)
    t = F.coordinate(cone, 3)
    coef = F.ScalarField(cone, lambda p, o: -J.exp(2 * t.at(p, o)) * J.cos(2 * z.at(p, o)))
    omega_prime = F.wedge11(F.basis_form(cone, 0), F.basis_form(cone, 1))
    rhs = F.d(coef * omega_prime)
    q = C.cone_points(ch.sample(seed=5, count=3), (0.2,))
    assert np.abs(lhs.values(q) - rhs.values(q)).max() < 1e-8


def _cone_metric(cone, k):
    g = k["g"]
    n = 3

    def fn(p, o):
        gj = J.extend_vars(g.at(p[..., :n], o), cone.dim)
        batch = p.shape[:-1]
        pad = J.concat(
            [
                J.concat([gj, J.lift(np.zeros((3, 1)), 4, o, batch)], axis=1),
                J.concat([J.lift(np.zeros((1, 3)), 4, o, batch),
                           J.lift(np.ones((1, 1)), 4, o, batch)], axis=1),
            ],
            axis=0,
        )
        t = J.seed_point(p, 4, o)[3]
        return J.jet_einsum(",ij->ij", J.exp(2 * t), pad)

    return F.MatrixField(cone, fn)


def _cone_j(cone, acs, sign):
    n = 3

    def fn(p, o):
        ph = J.extend_vars(acs.phi.at(p[..., :n], o), 4)
        batch = p.shape[:-1]
        out = J.concat(
            [
                J.concat([sign * ph, J.lift(np.zeros((3, 1)), 4, o, batch)], axis=1),
                J.concat([J.lift(np.zeros((1, 3)), 4, o, batch),
                           J.lift(np.zeros((1, 1)), 4, o, batch)], axis=1),
            ],
            axis=0,
        )
        m = np.zeros((4, 4))
        m[2, 3] = -1.0  # J(d/dt) = -d/dz
        m[3, 2] = 1.0  # J(d/dz) = d/dt
        return out + J.lift(m, 4, o, batch)

    return F.MatrixField(cone, fn)


def test_kahler_interval_criterion_value():
    k = gallery.build("kahler_interval")
    p = np.array([0.3, 0.1, np.pi / 4])
    for acs in k["acs_pair"]:
        diff = acs.theta - F.d(acs.eta)
        assert np.abs(diff.values(p)).max() == pytest.approx(1.0, abs=1e-12)


def test_sasakian_to_gs_probes():
    hck = gallery.build("heisenberg_cone_kahler")
    pts = hck["chart"].sample(seed=7, count=8)
    m = hck["gacs"]
    rep = S.gacm_check(m, pts)
    assert rep.passed
    assert rep["gacm.probe_g_swaps_e"].max_residual < 1e-9  # g(xi, .) = eta


def test_closed_b_transform_keeps_gacm_but_not_gsas():
    """B-transforms close the axioms for any B, but the generalized Sasakian
    property does not survive B-fields: the cone form r^2 B is never closed."""
    hck = gallery.build("heisenberg_cone_kahler")
    ch = hck["chart"]
    pts = ch.sample(seed=7, count=6)
    b = F.wedge11(F.basis_form(ch, 0), F.basis_form(ch, 1))  # closed
    moved = S.b_transform(hck["gacs"], b)
    assert S.gacm_check(moved, pts).passed
    rep = I.generalized_sasakian_check(moved, pts[:3])
    assert rep.max_residual > 1e-3


def test_gallery_cache_and_unknown_name():
    a = gallery.build("darboux")
    b = gallery.build("darboux")
    assert a is b
    with pytest.raises(KeyError, match="unknown gallery entry"):
        gallery.entry("nope")


def test_gallery_forms_are_closed_where_expected():
    """d compositions vanish on the gallery's defining form fields."""
    for name in ("darboux", "kahler_interval"):
        products = gallery.build(name)
        eta = products.get("eta")
        if eta is None:
            eta = products["acs_pair"][0].eta
        dd = F.d(F.d(eta))
        for p in products["chart"].sample(seed=3, count=100):
            assert np.abs(dd.values(p)).max() < 1e-10


def test_heisenberg_reeb_invariance():
    """The fundamental 2-form is invariant along the Reeb flow."""
    h = gallery.build("heisenberg_sasakian")
    lt = F.lie_derivative(h["acs"].xi, h["acs"].theta)
    for p in h["chart"].sample(seed=3, count=10):
        assert np.abs(lt.values(p)).max() < 1e-12


# SHA-256 of `gencontact gallery run <entry> --out <file>` at the default seed and
# sample count, kept as tests/golden/gallery_<entry>.json.  The report is
# deterministic, so any change of these bytes is a change of the numbers: a
# re-pin updates the digest and its golden report together and must say in
# CHANGES.md why the reports moved, with the table of rows that `assert_pinned`
# prints.
REPORT_SHA256 = {
    "darboux": "929d295a063110bd028d21a2cb2a208c15e9ad13f0530ecc4d68bfebada3b1c7",
    "heisenberg_sasakian": "2c0ea6caca22c9e4b436c604399a930084e5d3cf4b3e25a2403d40eaf5eb61cc",
    "heisenberg_cone_kahler": "81dfd8dd56cbeab1e25fffbc89aa4f151edc2022b91fec0383c4019668a06c05",
    "kahler_interval": "fe157ad00618133f6cb6b64dbfde6d1fbe726655023117aea4ce414e9996a57a",
}


# SHA-256 of `gencontact verify --out <file>` on dz - y1 dx1 - y2 dx2 - y3 dx3
# (x1..x7 = x1, y1, x2, y2, x3, y3, z) with the darboux7 benchmark's check set.
# The gallery charts are 3-dim, so their frames have 4 members; this pin covers
# the 8-member frame and its 56-triple Nijenhuis tables.  Kept as
# tests/golden/verify_darboux7.json; as for REPORT_SHA256, a re-pin must say in
# CHANGES.md why the report moved.
DARBOUX7_CONFIG = {
    "structure": {"chart": {"dim": 7}, "builder": "from_contact",
                  "eta": ["-x2", "0", "-x4", "0", "-x6", "0", "1"]},
    "checks": ["gacs", "phi_kernel", "fgacs", "involutivity", "plain_cone",
               "rcone_condition", "cone_algebra"],
    "seed": 11,
    "samples": 8,
}
DARBOUX7_SHA256 = "79ba57ec45d3231274ee1e1c96732f127bc65e7a6bf823ec4dd1b391f0441a44"


def test_darboux7_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "darboux7.json"
    cfg.write_text(json.dumps(DARBOUX7_CONFIG))
    out = tmp_path / "report.json"
    # L+ of a Darboux form is not involutive, so involutivity and the cone rows fail
    assert main(["verify", str(cfg), "--out", str(out)]) == 1
    assert_pinned("verify_darboux7.json", out.read_bytes(), DARBOUX7_SHA256)


# SHA-256 of `gencontact verify --out <file>` on a contact form f (dz + dh - y dx)
# taken through K-(kappa), a B-field, K+(kappa) and normalize, checked by fgacs.
# No gallery entry takes the K+-/B/normalize path.  Kept as
# tests/golden/verify_deform.json; as for REPORT_SHA256, a re-pin must say in
# CHANGES.md why the report moved.
DEFORM_CONFIG = {
    "structure": {"chart": {"dim": 3}, "builder": "from_contact",
                  "eta": ["(1 + 0.25*x - 0.1*y*z)*(-0.2*x - 0.8*y)",
                          "(1 + 0.25*x - 0.1*y*z)*(0.2*x + 0.3*y)",
                          "1 + 0.25*x - 0.1*y*z"]},
    "apply": [
        {"op": "k_minus", "kappa": ["0.07*z", "0.14", "0.08*x*y"]},
        {"op": "b_field", "B": [["0", "-0.2*z", "0.12"], ["0.2*z", "0", "-0.21*x*y"],
                                ["-0.12", "0.21*x*y", "0"]]},
        {"op": "k_plus", "kappa": ["0.1", "-0.28*x", "0.05*y*z"]},
        {"op": "normalize"},
    ],
    "checks": ["fgacs"],
    "seed": 13,
    "samples": 40,
}
DEFORM_SHA256 = "c7ac7f7f051c06dbf45404f5cc41b87e8d5385e64b8cde76d38d0935648c6536"


def test_deform_pipeline_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "deform.json"
    cfg.write_text(json.dumps(DEFORM_CONFIG))
    out = tmp_path / "report.json"
    assert main(["verify", str(cfg), "--out", str(out)]) == 0
    assert_pinned("verify_deform.json", out.read_bytes(), DEFORM_SHA256)


# SHA-256 of `gencontact verify --out <file>` on the same contact form taken
# through a B-field and normalize only: f stays 0 (None) up to normalize, which
# has nothing to strip.  Kept as tests/golden/verify_b_normalize.json; as for
# REPORT_SHA256, a re-pin must say in CHANGES.md why the report moved.
B_NORMALIZE_CONFIG = {
    "structure": DEFORM_CONFIG["structure"],
    "apply": [DEFORM_CONFIG["apply"][1], {"op": "normalize"}],
    "checks": ["fgacs"],
    "seed": 13,
    "samples": 40,
}
B_NORMALIZE_SHA256 = "be70250603c43fb1672e63d248a7a9f52def250e2f3095f2aad37b9db2c95adb"


def test_b_field_normalize_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "b_normalize.json"
    cfg.write_text(json.dumps(B_NORMALIZE_CONFIG))
    out = tmp_path / "report.json"
    assert main(["verify", str(cfg), "--out", str(out)]) == 0
    assert_pinned("verify_b_normalize.json", out.read_bytes(), B_NORMALIZE_SHA256)


# SHA-256 of `gencontact verify --out <file>` on two metric structures taken
# through one B-field and checked by gacm: from_acs with g (the Heisenberg data)
# and the kahler_interval entry.  Both were refused (exit 2) while the pipeline
# dropped the metric; pinned when b_field started to keep it.  Kept as
# tests/golden/verify_b_gacm_<name>.json; as for REPORT_SHA256, a re-pin must
# say in CHANGES.md why the report moved.
B_GACM_STEP = {"op": "b_field", "B": [["0", "0.3*z", "0.1"], ["-0.3*z", "0", "-0.2*x*y"],
                                      ["-0.1", "0.2*x*y", "0"]]}
B_GACM_CONFIGS = {
    "from_acs": {
        "structure": {"chart": {"dim": 3}, "builder": "from_acs",
                      "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "y", "0"]],
                      "xi": ["0", "0", "1"], "eta": ["-y", "0", "1"],
                      "g": [["1 + y*y", "0", "-y"], ["0", "1", "0"], ["-y", "0", "1"]]},
        "apply": [B_GACM_STEP], "checks": ["gacm"], "seed": 17, "samples": 40,
    },
    "kahler_interval": {
        "gallery": "kahler_interval",
        "apply": [B_GACM_STEP], "checks": ["gacm"], "seed": 17, "samples": 40,
    },
}
B_GACM_SHA256 = {
    "from_acs": "3c18a7dca594c46feac157e94d4be43f9deba9dd42b268aaeef90bcbb4b224c2",
    "kahler_interval": "73dea6a64364a01f820c159d4e5f6c53bbe01a4049b5269d0c407a2bbc327ac4",
}


@pytest.mark.parametrize("name", sorted(B_GACM_CONFIGS))
def test_b_field_gacm_report_bytes_are_pinned(name, tmp_path):
    cfg = tmp_path / f"b_gacm_{name}.json"
    cfg.write_text(json.dumps(B_GACM_CONFIGS[name]))
    out = tmp_path / "report.json"
    assert main(["verify", str(cfg), "--out", str(out)]) == 0
    assert_pinned(f"verify_b_gacm_{name}.json", out.read_bytes(), B_GACM_SHA256[name])


def test_an_entry_with_a_metric_holds_one_gacs():
    """An entry with a metric holds one record, its Gacs, and that record carries the
    metric: no second record wraps the same structure."""
    with_metric = [n for n in gallery.names() if gallery.build(n)["gacs"].metric is not None]
    assert len(with_metric) == 3
    for name in with_metric:
        built = gallery.build(name)
        assert "gacm" not in built, name
        assert isinstance(built["gacs"].metric, S.GeneralizedMetric), name


def test_pinned_reports_cover_every_entry():
    assert set(REPORT_SHA256) == set(gallery.names())


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_gallery_report_bytes_are_pinned(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["gallery", "run", name, "--out", str(out)]) == 0
    assert_pinned(f"gallery_{name}.json", out.read_bytes(), REPORT_SHA256[name])
