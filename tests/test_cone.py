"""Cone lifts, the placed I' = Phi + Psi, R-conjugation and the t-invariant decomposition.

Orientation note: Psi follows the displayed block matrix, under which
Psi(d/dt) = -E+ and the lifted classical structure restricts to
I = phi + eta (x) d/dt - dt (x) xi on TC(M).  Psi is read as I' minus its
Phi block.
"""

from dataclasses import replace

import numpy as np
import pytest

from gencontact import cone as C
from gencontact import fields as F
from gencontact import gallery
from gencontact import jets as J
from gencontact import structures as S
from gencontact.charts import ConeChart
from oracles import i_prime as tensor_pair_i_prime
from oracles import r_endo

DARBOUX = gallery.build("darboux")
HEIS = gallery.build("heisenberg_sasakian")
KAHLER = gallery.build("kahler_interval")


def cone_of(entry):
    return ConeChart.over(entry["chart"])


def cpts(entry, count=5, ts=(-0.5, 0.25)):
    return C.cone_points(entry["chart"].sample(seed=23, count=count), ts)


def psi_values(s, cc, q):
    """Psi^f(E+, E-) at one cone point q, read as I' minus its Phi block."""
    n = s.chart.dim
    base = np.ix_(C._slots(n)[0], C._slots(n)[0])
    m = C.i_prime(s, cc).values(q).copy()
    m[base] -= s.Phi.values(q[:n])
    return m


def test_lift_is_t_independent():
    cc = cone_of(HEIS)
    lifted = C.lift_section(cc, HEIS["gacs"].Eplus)
    p = HEIS["chart"].sample(seed=3, count=1)[0]
    a = lifted.values(np.concatenate([p, [0.1]]))
    b = lifted.values(np.concatenate([p, [-0.7]]))
    assert np.allclose(a, b)
    jet = lifted.at(np.concatenate([p, [0.1]]))
    assert np.abs(jet.grad[-1]).max() == 0
    # new slots are zero
    assert a[3] == 0 and a[7] == 0
    # I' carries Phi on the base block, and no t dependence
    base = C._slots(3)[0]
    endo = C.i_prime(HEIS["gacs"], cc)
    m = endo.values(np.concatenate([p, [0.4]]))
    assert np.array_equal(m[np.ix_(base, base)], HEIS["gacs"].Phi.values(p))
    assert np.abs(endo.at(np.concatenate([p, [0.4]])).grad[-1]).max() == 0


def test_base_jet_with_non_adjacent_repeats_matches_each_point(monkeypatch):
    """Base point b0 comes back after b1: its second run is evaluated again,
    and every cone point gets the jet of its own base point."""
    field = HEIS["gacs"].Phi
    b0, b1 = HEIS["chart"].sample(seed=29, count=2)
    cone = C.cone_points([b0, b1, b0], (-0.5, 0.25))
    asked = []
    jet = field.jet

    def recording(p, order):
        asked.append(np.asarray(p).copy())
        return jet(p, order)

    monkeypatch.setattr(field, "jet", recording)
    spread = C.base_jet(field, cone, 2)
    monkeypatch.undo()
    assert len(asked) == 1 and np.array_equal(asked[0], [b0, b1, b0])
    for k, q in enumerate(cone):
        single = field.jet(q[:3], 2)
        for part in ("value", "grad", "hess"):
            assert np.array_equal(getattr(spread, part)[k], getattr(single, part)), (k, part)


def test_psi_on_radial_sections():
    cc = cone_of(HEIS)
    for q in cpts(HEIS, count=3):
        m = psi_values(HEIS["gacs"], cc, q)
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
    for q in cpts(DARBOUX, count=20, ts=(0.3,)):
        p = q[:3]
        ep = s.Eplus.values(p)
        em = s.Eminus.values(p)
        xi_p, eta_p = ep[:3], ep[3:]
        xi_m, eta_m = em[:3], em[3:]
        m = psi_values(s, cc, q)
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
        s = entry["gacs"]
        j = C.i_prime(s)
        rep = C.gacx_check(j, cpts(entry))
        assert rep.passed and rep.max_residual < 1e-9
        rep2 = C.gacx_check(C.r_conjugate(j), cpts(entry))
        assert rep2.passed and rep2.max_residual < 1e-9


def test_cone_gacx_radial_action():
    s = HEIS["gacs"]
    j = C.i_prime(s)
    for q in cpts(HEIS, count=3):
        m = j.values(q)
        ddt = np.zeros(8)
        ddt[3] = 1.0
        ep = np.zeros(8, dtype=complex)
        epv = s.Eplus.values(q[:3])
        ep[:3], ep[4:7] = epv[:3], epv[3:]
        assert np.allclose(m @ ddt, -ep)  # J(d/dt) = -E+
        assert np.allclose(m @ ep, ddt)  # J(E+) = +d/dt


def assert_fields_equal(a, b, q, what):
    """The jets of two fields at orders 0-2 are equal part for part (``None`` only to ``None``)."""
    for order in (0, 1, 2):
        assert_jets_equal(a.jet(q, order), b.jet(q, order), ("value", "grad", "hess")[:order + 1],
                          (what, order))


def test_placed_i_prime_equals_phi_plus_the_tensor_pair_psi():
    """Every entry of the placed I' is the one the tensor-pair construction
    computes, without f (the gallery) and with a nonconstant f: K-(kappa) of
    darboux, and K+(kappa) of heisenberg_sasakian for f's hessian."""
    from gencontact import deformations as D

    def kappa(entry):  # x dx + y dy + z dz
        return F.OneFormField(entry["chart"], lambda p, o: J.seed_point(p, 3, o))

    structures = [gallery.build(name)["gacs"] for name in gallery.names()]
    structures += [D.k_minus(DARBOUX["gacs"], kappa(DARBOUX)), D.k_plus(HEIS["gacs"], kappa(HEIS))]
    for s in structures:
        cc = ConeChart.over(s.chart)
        base = s.chart.sample(seed=23, count=5)
        assert s.f is None or np.abs(s.f.values(base)).min() > 0.1
        q = C.cone_points(base, (-0.5, 0.25))
        assert_fields_equal(C.i_prime(s, cc), tensor_pair_i_prime(s, cc), q, s.chart.dim)


def test_classical_restriction_is_cone_i():
    """The lift of every classical gallery structure restricts to
    I = phi + eta (x) d/dt - dt (x) xi on the tangent block, jet for jet."""
    from gencontact.integrability import classical_cone_i

    classical = []
    for name in gallery.names():
        entry = gallery.build(name)
        classical += [(name, acs) for acs in ([entry["acs"]] if "acs" in entry
                                               else entry.get("acs_pair", ()))]
    assert len(classical) == 4
    for name, acs in classical:
        cc = ConeChart.over(acs.chart)
        N = cc.dim
        block = C.i_prime(S.gacs_from_acs(acs), cc)
        tangent = F.MatrixField(cc, lambda p, o: block.jet(p, o)[:N, :N])
        q = C.cone_points(acs.chart.sample(seed=23, count=5), (-0.5, 0.25))
        assert_fields_equal(classical_cone_i(acs, cc), tangent, q, name)


def test_r_conjugate_properties():
    s = DARBOUX["gacs"]
    j = C.i_prime(s)
    jr = C.r_conjugate(j)
    p = DARBOUX["chart"].sample(seed=9, count=1)[0]
    at0 = np.concatenate([p, [0.0]])
    assert np.abs(jr.values(at0) - j.values(at0)).max() < 1e-13
    # pointwise conjugation by diag(e^-t, e^t)
    q = np.concatenate([p, [0.6]])
    scale = np.concatenate([np.full(4, np.exp(-0.6)), np.full(4, np.exp(0.6))])
    expected = np.diag(scale) @ j.values(q) @ np.diag(1 / scale)
    assert np.abs(jr.values(q) - expected).max() < 1e-12


def r_structures():
    """The cone structures Phi + Psi of the four gallery Gacs and darboux(3), with cone points."""
    out = []
    for s in [gallery.build(name)["gacs"] for name in gallery.names()] + [gallery.darboux(3)["gacs"]]:
        base = s.chart.sample(seed=23, count=5)
        out.append((s, C.i_prime(s), C.cone_points(base, (-0.5, 0.25))))
    return out


def dense_r_inv(cone):
    """R^-1 as a (2N, 2N) jet matrix: its diagonal times a lifted identity."""
    N = cone.dim
    diag = C._r_pow(cone, -1)
    return F.GtEndoField(cone, lambda p, o: diag.jet(p, o)[:, None]
                         * J.lift(np.eye(2 * N), N, o, p.shape[:-1]))


def assert_jets_equal(a, b, parts, what):
    for part in parts:
        assert np.array_equal(getattr(a, part), getattr(b, part)), (what, part)


def test_r_conjugate_equals_the_dense_product_bit_for_bit():
    """The diagonal scaling (r_i J_ik) r_k^-1 equals (R @ J) @ R^-1 with dense
    jet matrices at order 2: each einsum entry is one product plus exact zeros."""
    for s, j, q in r_structures():
        dense = (r_endo(j.chart) @ j) @ dense_r_inv(j.chart)
        assert_jets_equal(C.r_conjugate(j).jet(q, 2), dense.jet(q, 2),
                          ("value", "grad", "hess"), s.chart.dim)


def test_conjugated_cone_frame_equals_r_applied_bit_for_bit():
    """Each member of the conjugated cone frame is R times the unconjugated
    member, as R.apply of the dense R gives it, at order 1."""
    for s, j, q in r_structures():
        cone = j.chart
        args = (cone, s.frame.e10, s.Eplus, s.Eminus)
        plain = C.cone_plus_frame(*args, conjugated=False)
        scaled = C.cone_plus_frame(*args, conjugated=True)
        r = r_endo(cone)
        for k, (a, b) in enumerate(zip(scaled, plain)):
            assert_jets_equal(a.jet(q, 1), r.apply(b).jet(q, 1), ("value", "grad"), (s.chart.dim, k))


def test_cone_decompose_round_trip():
    for entry in (DARBOUX, HEIS, KAHLER):
        s = entry["gacs"]
        out = C.cone_decompose(C.i_prime(s))
        assert isinstance(out, S.Gacs) and out.f is None
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
    (j,) = F.b_action(b, C.i_prime(s, cc))
    out = C.cone_decompose(j)
    assert isinstance(out, S.Gacs) and out.f is not None
    expected = D.k_minus(s, kappa)
    pts = DARBOUX["chart"].sample(seed=31, count=5)
    assert D.fgacs_deviation(out, expected, pts) < 1e-10


def test_cone_decompose_rejects_t_dependence():
    s = DARBOUX["gacs"]
    cc = cone_of(DARBOUX)
    t = F.coordinate(cc, 3)
    et = F.ScalarField(cc, lambda p, o: J.exp(t.at(p, o)))
    b = et * F.wedge11(F.basis_form(cc, 0), F.basis_form(cc, 1))
    (j,) = F.b_action(b, C.i_prime(s, cc))
    with pytest.raises(ValueError, match="depends on t"):
        C.cone_decompose(j)


def test_psi_f_and_i_prime():
    from gencontact import deformations as D

    s0 = DARBOUX["gacs"]
    cc = cone_of(DARBOUX)
    # f = 0 reduces Psi^f to Psi
    q = cpts(DARBOUX, count=2)[0]
    psi_plain = psi_values(s0, cc, q)
    psi_f = psi_values(replace(s0, f=F.constant(DARBOUX["chart"], 0)), cc, q)
    assert np.abs(psi_plain - psi_f).max() < 1e-14

    # K-(dz) gives f = 1; I' and I still square to -id and stay skew
    s1 = D.k_minus(s0, F.basis_form(DARBOUX["chart"], 2))
    for builder in (C.i_prime, C.i_map):
        rep = C.gacx_check(builder(s1, cc), cpts(DARBOUX))
        assert rep.passed and rep.max_residual < 1e-9

    # I'(d/dt) = -(E+^f) - f d/dt in this orientation
    ip = C.i_prime(s1, cc)
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
    j = C.r_conjugate(C.i_prime(HEIS["gacs"]))
    members = C.gacx_plus_frame(j)
    assert len(members) == 4
    for q in cpts(HEIS, count=3):
        m = j.values(q)
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
    cone_minus_i = F.GtEndoField(cc, lambda p, o: J.lift(-1j * np.eye(8), 4, o, p.shape[:-1]))
    with pytest.raises(ValueError, match=r"^cone eigenframe rank dropped to 0 \(< 4\)$"):
        C.gacx_plus_frame(cone_minus_i)


def test_fgacs_cone_round_trip():
    """i_prime of an f-structure decomposes back to the same f-structure."""
    from gencontact import deformations as D

    s = D.k_minus(DARBOUX["gacs"], F.basis_form(DARBOUX["chart"], 2))
    cc = cone_of(DARBOUX)
    out = C.cone_decompose(C.i_prime(s, cc))
    assert isinstance(out, S.Gacs) and out.f is not None
    assert D.fgacs_deviation(out, s, DARBOUX["chart"].sample(seed=41, count=6)) < 1e-10
