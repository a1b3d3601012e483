"""Cone lifts, Psi maps, R-conjugation and the t-invariant decomposition.

Orientation note: Psi follows the displayed block matrix, under which
Psi(d/dt) = -E+ and the lifted classical structure restricts to
I = phi + eta (x) d/dt - dt (x) xi on TC(M).
"""

import numpy as np
import pytest

from gencontact import cone as C
from gencontact import fields as F
from gencontact import gallery
from gencontact import jets as J
from gencontact import structures as S
from gencontact.charts import ConeChart

DARBOUX = gallery.build("darboux")
HEIS = gallery.build("heisenberg_sasakian")
KAHLER = gallery.build("kahler_interval")


def cone_of(entry):
    return ConeChart.over(entry["chart"])


def cpts(entry, count=5, ts=(-0.5, 0.25)):
    return C.cone_points(entry["chart"].sample(seed=23, count=count), ts)


def test_lift_is_t_independent():
    cc = cone_of(HEIS)
    lifted = C.lift_section(cc, HEIS["gacs"].Eplus)
    p = HEIS["chart"].sample(seed=3, count=1)[0]
    a = lifted.values(np.concatenate([p, [0.1]]))
    b = lifted.values(np.concatenate([p, [-0.7]]))
    assert np.allclose(a, b)
    jet = lifted.at(np.concatenate([p, [0.1]]))
    assert np.abs(jet.grad[..., -1]).max() == 0
    # new slots are zero
    assert a[3] == 0 and a[7] == 0
    endo = C.lift_endo(cc, HEIS["gacs"].Phi)
    m = endo.values(np.concatenate([p, [0.4]]))
    assert np.abs(m[:, 3]).max() == 0 and np.abs(m[3, :]).max() == 0


def test_psi_on_radial_sections():
    cc = cone_of(HEIS)
    psi = C.psi(cc, HEIS["gacs"].Eplus, HEIS["gacs"].Eminus)
    for q in cpts(HEIS, count=3):
        m = psi.values(q)
        ddt = np.zeros(8)
        ddt[3] = 1.0
        ep = np.zeros(8, dtype=complex)
        ep[:3] = HEIS["gacs"].Eplus.values(q[:3])[:3]
        ep[4:7] = HEIS["gacs"].Eplus.values(q[:3])[3:]
        # Psi(d/dt) = -E+ in this orientation
        assert np.allclose(m @ ddt, -ep)
        # skewness against the pairing adjoint
        from gencontact.gta import adjoint

        assert np.abs(m + adjoint(m)).max() < 1e-12


def test_psi_block_matrix_display():
    """Psi acts as the displayed 2x2 block matrix (first-slot contractions):

       [ eta_- (x) d/dt - dt (x) xi_+    xi_- (x) d/dt - d/dt (x) xi_- ]
       [ eta_+ (x) dt  - dt (x) eta_+    xi_+ (x) dt  - d/dt (x) eta_- ]

    On X_M + a d/dt + alpha_M + c dt this reads
       -a xi_+ - c xi_-  +  (eta_-(X) + alpha(xi_-)) d/dt
       -a eta_+ - c eta_- + (eta_+(X) + alpha(xi_+)) dt.
    """
    rng = np.random.default_rng(8)
    cc = cone_of(DARBOUX)
    s = DARBOUX["gacs"]
    psi = C.psi(cc, s.Eplus, s.Eminus)
    for q in cpts(DARBOUX, count=20, ts=(0.3,)):
        p = q[:3]
        ep = s.Eplus.values(p)
        em = s.Eminus.values(p)
        xi_p, eta_p = ep[:3], ep[3:]
        xi_m, eta_m = em[:3], em[3:]
        m = psi.values(q)
        u = rng.normal(size=8) + 1j * rng.normal(size=8)
        x_m, a_t, al_m, c_t = u[:3], u[3], u[4:7], u[7]
        out_vec = -a_t * xi_p - c_t * xi_m
        out_t = eta_m @ x_m + al_m @ xi_m
        out_form = -a_t * eta_p - c_t * eta_m
        out_dt = eta_p @ x_m + al_m @ xi_p
        expected_u = np.concatenate([out_vec, [out_t], out_form, [out_dt]])
        assert np.abs(m @ u - expected_u).max() < 1e-12


def test_cone_gacx_all_gallery():
    for entry in (DARBOUX, HEIS, KAHLER):
        s = entry.get("gacs") or entry["gacm"].gacs
        j = C.cone_gacx(s)
        rep = C.gacx_check(j, cpts(entry))
        assert rep.passed and rep.max_residual < 1e-9
        rep2 = C.gacx_check(C.r_conjugate(j), cpts(entry))
        assert rep2.passed and rep2.max_residual < 1e-9


def test_cone_gacx_radial_action():
    s = HEIS["gacs"]
    j = C.cone_gacx(s)
    for q in cpts(HEIS, count=3):
        m = j.J.values(q)
        ddt = np.zeros(8)
        ddt[3] = 1.0
        ep = np.zeros(8, dtype=complex)
        epv = s.Eplus.values(q[:3])
        ep[:3], ep[4:7] = epv[:3], epv[3:]
        assert np.allclose(m @ ddt, -ep)  # J(d/dt) = -E+
        assert np.allclose(m @ ep, ddt)  # J(E+) = +d/dt


def test_classical_restriction_is_cone_i():
    """For a diag(phi, -phi*) structure, J restricted to TC(M) is the paper's I."""
    from gencontact.integrability import classical_cone_i

    cc = cone_of(HEIS)
    j = C.cone_gacx(HEIS["gacs"], cc)
    imat = classical_cone_i(HEIS["acs"], cc)
    for q in cpts(HEIS, count=4):
        assert np.abs(j.J.values(q)[:4, :4] - imat.values(q)).max() < 1e-13


def test_r_conjugate_properties():
    s = DARBOUX["gacs"]
    j = C.cone_gacx(s)
    jr = C.r_conjugate(j)
    p = DARBOUX["chart"].sample(seed=9, count=1)[0]
    at0 = np.concatenate([p, [0.0]])
    assert np.abs(jr.J.values(at0) - j.J.values(at0)).max() < 1e-13
    # pointwise conjugation by diag(e^-t, e^t)
    q = np.concatenate([p, [0.6]])
    scale = np.concatenate([np.full(4, np.exp(-0.6)), np.full(4, np.exp(0.6))])
    expected = np.diag(scale) @ j.J.values(q) @ np.diag(1 / scale)
    assert np.abs(jr.J.values(q) - expected).max() < 1e-12


def test_cone_decompose_round_trip():
    for entry in (DARBOUX, HEIS, KAHLER):
        s = entry.get("gacs") or entry["gacm"].gacs
        out = C.cone_decompose(C.cone_gacx(s))
        assert isinstance(out, S.Gacs)
        pts = entry["chart"].sample(seed=29, count=6)
        dev = max(
            max(
                np.abs(out.Phi.values(p) - s.Phi.values(p)).max(),
                np.abs(out.Eplus.values(p) - s.Eplus.values(p)).max(),
                np.abs(out.Eminus.values(p) - s.Eminus.values(p)).max(),
            )
            for p in pts
        )
        assert dev < 1e-10


def test_cone_decompose_of_radial_b_transform_is_k_minus():
    """Conjugating by e^((2/r) dr ^ kappa) lands on the K-(kappa) deformation."""
    from gencontact import deformations as D

    s = DARBOUX["gacs"]
    cc = cone_of(DARBOUX)
    kappa = F.basis_form(DARBOUX["chart"], 2)  # dz
    b = D.cone_kappa_form(cc, kappa, radial=False)
    eb, ebinv = F.b_endo(b), F.b_endo(-1 * b)
    j = C.ConeGacx(cc, eb @ C.cone_gacx(s, cc).J @ ebinv)
    out = C.cone_decompose(j)
    assert isinstance(out, S.FGacs)
    expected = D.k_minus(S.FGacs.of_gacs(s), kappa)
    pts = DARBOUX["chart"].sample(seed=31, count=5)
    assert D.fgacs_deviation(out, expected, pts) < 1e-10


def test_cone_decompose_rejects_t_dependence():
    s = DARBOUX["gacs"]
    cc = cone_of(DARBOUX)
    t = F.coordinate(cc, 3)
    et = F.ScalarField(cc, lambda p, o: J.exp(t.at(p, o)))
    b = et * F.wedge11(F.basis_form(cc, 0), F.basis_form(cc, 1))
    eb, ebinv = F.b_endo(b), F.b_endo(-1 * b)
    j = C.ConeGacx(cc, eb @ C.cone_gacx(s, cc).J @ ebinv)
    with pytest.raises(ValueError, match="depends on t"):
        C.cone_decompose(j)


def test_psi_f_and_i_prime():
    from gencontact import deformations as D

    s0 = S.FGacs.of_gacs(DARBOUX["gacs"])
    cc = cone_of(DARBOUX)
    # f = 0 reduces Psi^f to Psi
    psi_plain = C.psi(cc, s0.Eplus, s0.Eminus)
    psi_f = C.psi_f(cc, s0)
    q = cpts(DARBOUX, count=2)[0]
    assert np.abs(psi_plain.values(q) - psi_f.values(q)).max() < 1e-14

    # K-(dz) gives f = 1; I' and I still square to -id and stay skew
    s1 = D.k_minus(s0, F.basis_form(DARBOUX["chart"], 2))
    for builder in (C.i_prime, C.i_map):
        rep = C.gacx_check(builder(s1, cc), cpts(DARBOUX))
        assert rep.passed and rep.max_residual < 1e-9

    # I'(d/dt) = -(E+^f) - f d/dt in this orientation
    ip = C.i_prime(s1, cc).J
    for q in cpts(DARBOUX, count=3):
        m = ip.values(q)
        ddt = np.zeros(8)
        ddt[3] = 1.0
        epv = s1.Eplus.values(q[:3])
        fval = complex(s1.f.values(q[:3]))
        expected = np.zeros(8, dtype=complex)
        expected[:3], expected[4:7] = -epv[:3], -epv[3:]
        expected[3] = -fval
        assert np.abs(m @ ddt - expected).max() < 1e-12


def test_gacx_plus_frame_spans_eigenbundle():
    j = C.r_conjugate(C.cone_gacx(HEIS["gacs"]))
    members = C.gacx_plus_frame(j)
    assert len(members) == 4
    for q in cpts(HEIS, count=3):
        m = j.J.values(q)
        for mem in members:
            v = mem.values(q)
            assert np.abs(m @ v - 1j * v).max() < 1e-9


def test_frame_shortfall_messages():
    """Phi = J = -i kills every +i projection: both pivoted frames name the shortfall."""
    s = DARBOUX["gacs"]
    ch, cc = s.chart, cone_of(DARBOUX)
    minus_i = F.GtEndoField(ch, lambda p, o: J.lift(-1j * np.eye(6), 3, o, p.shape[:-1]))
    flat = S.Gacs(ch, minus_i, s.Eplus, s.Eminus)
    with pytest.raises(ValueError, match=r"^eigenframe rank dropped to 0 \(< 2\) at the base point$"):
        S.eigenframe(flat)
    cone_minus_i = C.ConeGacx(
        cc, F.GtEndoField(cc, lambda p, o: J.lift(-1j * np.eye(8), 4, o, p.shape[:-1])))
    with pytest.raises(ValueError, match=r"^cone eigenframe rank dropped to 0 \(< 4\)$"):
        C.gacx_plus_frame(cone_minus_i)


def test_fgacs_cone_round_trip():
    """i_prime of an f-structure decomposes back to the same f-structure."""
    from gencontact import deformations as D

    s = D.k_minus(S.FGacs.of_gacs(DARBOUX["gacs"]), F.basis_form(DARBOUX["chart"], 2))
    cc = cone_of(DARBOUX)
    out = C.cone_decompose(C.i_prime(s, cc))
    assert isinstance(out, S.FGacs)
    assert D.fgacs_deviation(out, s, DARBOUX["chart"].sample(seed=41, count=6)) < 1e-10
