"""Golden tests: every gallery entry reproduces its expected-verdict table,
plus the closed-form identities of the warped Kaehler interval."""

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


@pytest.mark.parametrize("name", gallery.names())
def test_expected_verdict_tables(name):
    entry = gallery.entry(name)
    products = gallery.build(name)
    points = products["chart"].sample(seed=101, count=8)
    for check, expected in entry.expected.items():
        rep = CFG.CHECKS[check](products, points, None)
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
    h = gallery.build("heisenberg_sasakian")
    pts = h["chart"].sample(seed=7, count=10)
    assert I.sasakian_criterion(h["acs"], pts).max_residual < 1e-9
    # phi e1 = -e2 at y = 0: the criterion forces the negative rotation
    p = np.array([0.1, 0.0, 0.2])
    phi = h["acs"].phi.values(p)
    assert np.allclose(phi @ [1, 0, 0], [0, -1, 0])


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
        pad = F.jconcat(
            [
                F.jconcat([gj, J.lift(np.zeros((3, 1)), 4, o, batch)], axis=1),
                F.jconcat([J.lift(np.zeros((1, 3)), 4, o, batch),
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
        out = F.jconcat(
            [
                F.jconcat([sign * ph, J.lift(np.zeros((3, 1)), 4, o, batch)], axis=1),
                F.jconcat([J.lift(np.zeros((1, 3)), 4, o, batch),
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
    m = hck["gacm"]
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
    moved = S.b_transform_gacm(hck["gacm"], b)
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
