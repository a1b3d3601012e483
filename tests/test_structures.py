"""Structure records, constructors, axiom checkers, B-transforms, eigenframes."""

import numpy as np
import pytest

from gencontact import fields as F
from gencontact import gallery
from gencontact import jets as J
from gencontact import structures as S
from gencontact.charts import box

DARBOUX = gallery.build("darboux")
HEIS = gallery.build("heisenberg_sasakian")
KAHLER = gallery.build("kahler_interval")
PTS = {name: gallery.build(name)["chart"].sample(seed=17, count=12)
       for name in ("darboux", "heisenberg_sasakian", "kahler_interval")}


def test_acms_checker():
    rep = S.acms_check(HEIS["acs"], PTS["heisenberg_sasakian"])
    assert rep.passed and rep.max_residual < 1e-10
    for acs in KAHLER["acs_pair"]:
        assert S.acms_check(acs, PTS["kahler_interval"]).passed


def test_gacs_from_acs():
    pts = PTS["heisenberg_sasakian"]
    s = S.gacs_from_acs(HEIS["acs"], check_points=pts[:4])
    rep = S.gacs_check(s, pts)
    assert rep.passed and rep.max_residual < 1e-9
    # E+ has zero form part, E- zero vector part
    ep = s.Eplus.values(pts[0])
    em = s.Eminus.values(pts[0])
    assert np.abs(ep[3:]).max() == 0
    assert np.abs(em[:3]).max() == 0
    # Phi acts on forms by -phi*: (phi* a)(X) = a(phi X)
    p = pts[1]
    phi = HEIS["acs"].phi.values(p)
    full = s.Phi.values(p)
    alpha = np.array([1.0, -2.0, 0.5])
    got = full[3:, 3:] @ alpha
    expected = -phi.T @ alpha  # (phi* a)_j = a_i phi^i_j
    assert np.allclose(got, expected)
    x = np.array([0.3, 0.7, -1.0])
    assert np.allclose((phi.T @ alpha) @ x, alpha @ (phi @ x))


def test_gacs_from_acs_rejects_bad_input():
    ch = HEIS["chart"]
    bad = S.AlmostContactMetric(
        ch, HEIS["acs"].phi, HEIS["acs"].xi, 2 * HEIS["acs"].eta, HEIS["acs"].g
    )
    with pytest.raises(ValueError, match="almost-contact axioms"):
        S.gacs_from_acs(bad, check_points=ch.sample(seed=2, count=4))


def test_gacs_from_contact_darboux():
    pts = PTS["darboux"]
    s = DARBOUX["gacs"]
    assert S.gacs_check(s, DARBOUX["chart"].sample(seed=4, count=100)).max_residual < 1e-9
    # Reeb field is d/dz; E+ is the contact form itself
    for p in pts[:5]:
        assert np.allclose(s.Eminus.values(p), [0, 0, 1, 0, 0, 0])
        assert np.allclose(s.Eplus.values(p)[3:], DARBOUX["eta"].values(p))


def test_contact_rho_example():
    """rho(d/dz) = -eta since i_dz(dx^dy) = 0 and eta(dz) = 1."""
    eta = DARBOUX["eta"]
    for p in PTS["darboux"][:5]:
        rho = S._rho_jet(eta, p, 0).value
        out = rho @ np.array([0, 0, 1.0])
        assert np.allclose(out, -eta.values(p))


def test_gacs_from_contact_rejects_non_contact():
    ch = DARBOUX["chart"]
    eta = F.one_form(ch, [F.constant(ch, 0), F.constant(ch, 0), F.constant(ch, 1)])  # dz
    with pytest.raises(ValueError, match="not contact|degenerate"):
        S.gacs_from_contact(eta, check_points=ch.sample(seed=2, count=3))


def test_gacs_from_contact_rejects_even_dim():
    ch = box(2)
    eta = F.one_form(ch, [F.constant(ch, 0), F.constant(ch, 1)])
    with pytest.raises(ValueError, match="odd"):
        S.gacs_from_contact(eta)


def test_gacs_check_detects_violations():
    pts = PTS["heisenberg_sasakian"][:6]
    s = HEIS["gacs"]
    scaled = S.Gacs(s.chart, s.Phi, 2 * s.Eplus, s.Eminus)
    rep = S.gacs_check(scaled, pts)
    assert rep["gacs.normalization"].max_residual == pytest.approx(1.0)
    # a *-symmetric perturbation of Phi doubles up in the skew row
    delta = np.zeros((6, 6))
    delta[0, 4] = delta[1, 3] = 0.1  # symmetric TC block, so delta* = delta
    bumped = F.GtEndoField(
        s.chart, lambda p, o, _s=s: _s.Phi.at(p, o) + J.lift(delta, 3, o, p.shape[:-1]))
    rep2 = S.gacs_check(S.Gacs(s.chart, bumped, s.Eplus, s.Eminus), pts)
    assert rep2["gacs.skew"].max_residual == pytest.approx(0.2)


def test_phi_kernel_universal():
    for name in ("darboux", "heisenberg_sasakian"):
        e = gallery.build(name)
        rep = S.phi_kernel_check(e["gacs"], PTS[name])
        assert rep.passed and rep.max_residual < 1e-9
    # and for a B-transformed descendant
    ch = HEIS["chart"]
    b = F.wedge11(F.coordinate(ch, 2) * F.basis_form(ch, 0), F.basis_form(ch, 1))
    moved = S.b_transform(HEIS["gacs"], b)
    assert S.phi_kernel_check(moved, PTS["heisenberg_sasakian"]).max_residual < 1e-9


def test_phi_cubed():
    rep = S.phi_cube_check(HEIS["gacs"], PTS["heisenberg_sasakian"])
    assert rep.passed


def test_b_transform():
    pts = PTS["darboux"]
    s = DARBOUX["gacs"]
    ch = s.chart
    zero = F.zero_two_form(ch)
    same = S.b_transform(s, zero)
    assert max(np.abs(same.Phi.values(p) - s.Phi.values(p)).max() for p in pts[:4]) < 1e-15

    b = F.wedge11(F.basis_form(ch, 0), F.basis_form(ch, 1))
    moved = S.b_transform(s, b)
    assert S.gacs_check(moved, pts).max_residual < 1e-9
    back = S.b_transform(moved, -1 * b)
    dev = max(
        max(
            np.abs(back.Phi.values(p) - s.Phi.values(p)).max(),
            np.abs(back.Eplus.values(p) - s.Eplus.values(p)).max(),
            np.abs(back.Eminus.values(p) - s.Eminus.values(p)).max(),
        )
        for p in pts[:4]
    )
    assert dev < 1e-12

    # arbitrary smooth (non-closed) B also lands on a valid structure
    wild = F.wedge11(F.coordinate(ch, 2) * F.basis_form(ch, 0), F.basis_form(ch, 1))
    assert S.gacs_check(S.b_transform(s, wild), pts).max_residual < 1e-8


def test_gmetric_from_gb_blocks():
    """Factorised construction matches the expanded block formula."""
    ch = KAHLER["chart"]
    pts = PTS["kahler_interval"]
    metric = KAHLER["gacm"].metric
    g, b = metric.g, metric.b
    for p in pts[:6]:
        gv = g.values(p)
        ginv = np.linalg.inv(gv)
        bmap = b.values(p).T  # map X -> i_X b
        expected = np.block(
            [[-ginv @ bmap, ginv], [gv - bmap @ ginv @ bmap, bmap @ ginv]]
        )
        assert np.abs(metric.endo.values(p) - expected).max() < 1e-12


def test_gmetric_axioms_and_b0_shape():
    ch = HEIS["chart"]
    pts = PTS["heisenberg_sasakian"]
    metric = HEIS["gacm"].metric
    rep = S.gmetric_check(metric, pts)
    assert rep.passed
    for p in pts[:3]:
        m = metric.endo.values(p)
        assert np.abs(m[:3, :3]).max() < 1e-14  # off-diagonal (g^-1; g) form
        assert np.abs(m[3:, 3:]).max() < 1e-14
        assert np.abs(m @ m - np.eye(6)).max() < 1e-12


def test_gmetric_rejects_singular():
    ch = HEIS["chart"]
    zero = F.constant(ch, 0)
    one = F.constant(ch, 1)
    g = F.matrix_field(ch, [[one, zero, zero], [zero, zero, zero], [zero, zero, one]])
    metric = S.gmetric_from_gb(g)
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        metric.endo.values(PTS["heisenberg_sasakian"][0])


def test_gacm_check_and_perturbation():
    pts = PTS["heisenberg_sasakian"]
    rep = S.gacm_check(HEIS["gacm"], pts)
    assert rep.passed and rep.max_residual < 1e-9
    assert rep["gacm.probe_phi_g_commute"].max_residual < 1e-9
    assert rep["gacm.probe_g_swaps_e"].max_residual < 1e-9

    ch = HEIS["chart"]
    bad_b = 0.3 * F.wedge11(F.basis_form(ch, 0), F.basis_form(ch, 2))
    swapped = S.Gacm(HEIS["gacm"].gacs, S.gmetric_from_gb(HEIS["acs"].g, bad_b))
    rep2 = S.gacm_check(swapped, pts[:6])
    assert rep2["gacm.compatibility"].max_residual > 1e-2


def test_gacm_kahler_interval():
    pts = PTS["kahler_interval"]
    rep = S.gacm_check(KAHLER["gacm"], pts)
    assert rep.passed and rep.max_residual < 1e-9
    assert rep["gacm.probe_g_swaps_e"].max_residual < 1e-9


def test_dual_gacm_involution():
    pts = PTS["heisenberg_sasakian"]
    m = HEIS["gacm"]
    dual = S.dual_gacm(m, points=pts[:4])
    assert S.gacm_check(dual, pts).passed
    twice = S.dual_gacm(dual)
    dev = max(
        max(
            np.abs(twice.Phi.values(p) - m.Phi.values(p)).max(),
            np.abs(twice.Eplus.values(p) - m.Eplus.values(p)).max(),
        )
        for p in pts[:4]
    )
    assert dev < 1e-10


def test_dual_gacm_kahler_is_minus_phi_branch():
    """The companion structure of the warped interval is the -phi classical lift."""
    pts = PTS["kahler_interval"][:5]
    dual = S.dual_gacm(KAHLER["gacm"])
    classical = S.b_transform(S.gacs_from_acs(KAHLER["acs_pair"][1]), KAHLER["b"])
    dev = max(np.abs(dual.Phi.values(p) - classical.Phi.values(p)).max() for p in pts)
    assert dev < 1e-12
    # and its marker sections are the G-swapped ones
    for p in pts[:2]:
        assert np.allclose(dual.Eplus.values(p), KAHLER["gacm"].Eminus.values(p))
        assert np.allclose(dual.Eminus.values(p), KAHLER["gacm"].Eplus.values(p))


def test_eigenframe_properties():
    for name in ("darboux", "heisenberg_sasakian", "kahler_interval"):
        e = gallery.build(name)
        s = e.get("gacs") or e["gacm"].gacs
        pts = PTS[name]
        frame = S.eigenframe(s, sample_points=pts[:6])
        assert len(frame.e10) == 2  # (2n - 2) / 2 with n = 3
        for p in pts[:5]:
            phi = s.Phi.values(p)
            for a in frame.e10:
                av = a.values(p)
                assert np.abs(phi @ av - 1j * av).max() < 1e-9
                for other in (s.Eplus, s.Eminus):
                    q = 0.5 * (np.concatenate([av[3:], av[:3]]) @ other.values(p))
                    assert abs(q) < 1e-9
            # pairwise isotropy of the frame
            vals = [a.values(p) for a in frame.e10]
            for u in vals:
                for v in vals:
                    assert abs(0.5 * np.concatenate([u[3:], u[:3]]) @ v) < 1e-9
            assert S.frame_span_check(s, frame, p) == 6


def test_involutivity_classes():
    pts = PTS["heisenberg_sasakian"][:6]
    label, rep = S.involutivity_class(HEIS["gacs"], pts)
    assert label == "strong" and rep.passed
    label_d, rep_d = S.involutivity_class(DARBOUX["gacs"], PTS["darboux"][:6])
    assert label_d == "contact(-)"
    assert rep_d["involutivity.l_plus"].max_residual > 1e-3
    # a non-closed B-transform breaks involutivity while keeping the axioms
    ch = DARBOUX["chart"]
    wild = F.wedge11(F.coordinate(ch, 2) * F.basis_form(ch, 0), F.basis_form(ch, 1))
    twisted = S.b_transform(DARBOUX["gacs"], wild)
    assert S.gacs_check(twisted, PTS["darboux"][:6]).passed
    label_w, _ = S.involutivity_class(twisted, PTS["darboux"][:6])
    assert label_w == "none"
