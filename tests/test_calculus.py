"""Exterior calculus and Courant bracket on charts, against coordinate oracles."""

import numpy as np
import pytest

from gencontact import fields as F
from gencontact.charts import box
from gencontact.exprs import parse_scalar
from oracles import batch_stack, jac, lie_bracket, nij

CH = box(3)
X, Y, Z = (F.coordinate(CH, i) for i in range(3))
DX, DY, DZ = (F.basis_form(CH, i) for i in range(3))
EX, EY, EZ = (F.basis_vector(CH, i) for i in range(3))

ETA = F.one_form(CH, [-1 * Y, F.constant(CH, 0), F.constant(CH, 1)])  # dz - y dx
PTS = CH.sample(seed=11, count=100)


def scalar(expr):
    return parse_scalar(expr, CH)


def test_d_of_x_dy():
    omega = F.one_form(CH, [F.constant(CH, 0), X, F.constant(CH, 0)])
    dw = F.d(omega)
    v = dw.values(PTS[0])
    expected = np.zeros((3, 3))
    expected[0, 1], expected[1, 0] = 1, -1
    assert np.allclose(v, expected)


def test_d_darboux_contact_form():
    dw = F.d(ETA)
    for p in PTS[:10]:
        v = dw.values(p)
        expected = np.zeros((3, 3))
        expected[0, 1], expected[1, 0] = 1, -1  # dx ^ dy
        assert np.allclose(v, expected)


def test_d_squared_zero():
    f = scalar("sin(x)*exp(y)")
    ddf = F.d(F.d(f))
    for p in PTS[:20]:
        assert np.abs(ddf.values(p)).max() < 1e-10
    # and on a 1-form with non-trivial coefficients
    omega = F.one_form(CH, [scalar("x*y*z"), scalar("sin(y)+x^2"), scalar("exp(x)*z")])
    ddw = F.d(F.d(omega))
    for p in PTS[:20]:
        assert np.abs(ddw.values(p)).max() < 1e-10


def test_d_unsupported_degree():
    three = F.wedge12(ETA, F.d(ETA))
    with pytest.raises(ValueError):
        F.d(three)


def test_interior_basis():
    w = F.wedge11(DX, DY)
    got = F.interior(EX, w)
    for p in PTS[:5]:
        assert np.allclose(got.values(p), [0, 1, 0])  # dy


def test_interior_reeb_darboux():
    got = F.interior(EZ, F.d(ETA))
    for p in PTS[:10]:
        assert np.abs(got.values(p)).max() < 1e-14


def test_interior_degree_zero_rejected():
    with pytest.raises(ValueError):
        F.interior(EX, scalar("x"))


def test_interior_of_wedge_against_multilinear_oracle():
    """i_X(eta ^ w) evaluated slotwise from the full antisymmetrisation."""
    rng = np.random.default_rng(2)
    w = F.wedge11(F.one_form(CH, [scalar("y"), scalar("x*z"), scalar("1")]),
                  F.one_form(CH, [scalar("sin(x)"), scalar("2"), scalar("x+y")]))
    three = F.wedge12(ETA, w)
    xv = rng.normal(size=3)
    xf = F.vector_field(CH, [F.constant(CH, c) for c in xv])
    got = F.interior(xf, three)
    for p in PTS[:5]:
        t = three.values(p)
        manual = np.einsum("i,ijk->jk", xv.astype(complex), t)
        assert np.allclose(got.values(p), manual)
        # and the 3-form itself is fully antisymmetric
        assert np.abs(t + np.swapaxes(t, 0, 1)).max() < 1e-12
        assert np.abs(t + np.swapaxes(t, 1, 2)).max() < 1e-12


def test_lie_bracket_examples():
    assert np.abs(lie_bracket(EX, EY).values(PTS[0])).max() == 0
    xdy = F.vector_field(CH, [F.constant(CH, 0), X, F.constant(CH, 0)])
    got = lie_bracket(EX, xdy)
    for p in PTS[:5]:
        assert np.allclose(got.values(p), [0, 1, 0])


def test_lie_bracket_antisymmetry():
    u = F.vector_field(CH, [scalar("x*y"), scalar("sin(z)"), scalar("y^2")])
    v = F.vector_field(CH, [scalar("exp(x)"), scalar("x+z"), scalar("x*y*z")])
    lhs = lie_bracket(u, v)
    rhs = lie_bracket(v, u)
    for p in PTS[:10]:
        assert np.abs(lhs.values(p) + rhs.values(p)).max() < 1e-12


def test_lie_derivative_examples():
    got = F.lie_derivative(EZ, ETA)
    for p in PTS[:10]:
        assert np.abs(got.values(p)).max() < 1e-13


def test_lie_derivative_leibniz():
    f = scalar("x*y+sin(z)")
    w = F.wedge11(F.one_form(CH, [scalar("z"), scalar("x"), scalar("0")]), DY)
    u = F.vector_field(CH, [scalar("y"), scalar("x*z"), scalar("1+x^2")])
    lhs = F.lie_derivative(u, f * w)
    xf = F.ScalarField(CH, lambda p, o: F.interior_jet(u.at(p, o), F.d_jet(f.at(p, o + 1), 0), 1))
    rhs = xf * w + f * F.lie_derivative(u, w)
    for p in PTS[:10]:
        assert np.abs(lhs.values(p) - rhs.values(p)).max() < 1e-10


def test_cartan_commutes_with_d():
    u = F.vector_field(CH, [scalar("y*z"), scalar("x^2"), scalar("sin(y)")])
    w = F.one_form(CH, [scalar("x*z"), scalar("y^2"), scalar("x+y")])
    lhs = F.d(F.lie_derivative(u, w))
    rhs = F.lie_derivative(u, F.d(w))
    for p in PTS[:20]:
        assert np.abs(lhs.values(p) - rhs.values(p)).max() < 1e-10


def test_c_transform():
    w = F.wedge11(DX, DY)
    phi = F.matrix_field(
        CH,
        [[F.constant(CH, 0), F.constant(CH, -1), F.constant(CH, 0)],
         [F.constant(CH, 1), F.constant(CH, 0), F.constant(CH, 0)],
         [F.constant(CH, 0), F.constant(CH, 0), F.constant(CH, 0)]],
    )  # phi(dx-dir)=dy-dir, phi(dy-dir)=-dx-dir
    got = F.c_transform(w, phi)
    for p in PTS[:5]:
        assert np.allclose(got.values(p), w.values(p))  # 2x2 determinant = 1
    ident = F.matrix_field(CH, [[F.constant(CH, 1 if i == j else 0) for j in range(3)] for i in range(3)])
    assert np.allclose(F.c_transform(w, ident).values(PTS[0]), w.values(PTS[0]))
    zero = F.matrix_field(CH, [[F.constant(CH, 0)] * 3 for _ in range(3)])
    assert np.abs(F.c_transform(w, zero).values(PTS[0])).max() == 0


# -- Courant bracket ----------------------------------------------------------


def sec(vec=None, form=None):
    return F.section(
        vec=F.vector_field(CH, [scalar(e) for e in vec]) if vec else None,
        form=F.one_form(CH, [scalar(e) for e in form]) if form else None,
    )


def test_courant_constant_sections():
    a = F.section(vec=EX)
    b = F.section(vec=EY)
    assert np.abs(F.courant(a, b).values(PTS[0])).max() == 0


def test_courant_coordinate_oracle():
    # [[d/dx, x dy]] = dy
    a = F.section(vec=EX)
    b = sec(form=["0", "x", "0"])
    got = F.courant(a, b)
    for p in PTS[:10]:
        assert np.allclose(got.values(p), [0, 0, 0, 0, 1, 0])


def test_courant_darboux_reeb_eta():
    a = F.section(vec=EZ)
    b = F.section(form=ETA)
    got = F.courant(a, b)
    for p in PTS[:10]:
        assert np.abs(got.values(p)).max() < 1e-13


def test_courant_antisymmetry_exact():
    a = sec(vec=["x*y", "sin(z)", "1"], form=["z", "x^2", "y"])
    b = sec(vec=["exp(y)", "x", "z*z"], form=["1", "x*y", "sin(x)"])
    ab = F.courant(a, b)
    ba = F.courant(b, a)
    for p in PTS[:10]:
        assert np.abs(ab.values(p) + ba.values(p)).max() < 1e-12


def test_courant_batch_axes_match_per_pair_loop():
    """Sections stacked after the component axis bracket pairwise in one call,
    with the same values and gradients as one call per pair."""
    from gencontact import jets as J

    members = [
        sec(vec=["x*y", "sin(z)", "1"], form=["z", "x^2", "y"]),
        sec(vec=["exp(y)", "x", "z*z"], form=["1", "x*y", "sin(x)"]),
        sec(vec=["1", "x", "y*z"], form=["x*z", "0", "cos(y)"]),
    ]
    for p in PTS[:3]:
        jets = [m.at(p) for m in members]
        assert all(j.order == 2 for j in jets)
        frame = batch_stack(jets)
        table = F.courant_jets(frame.reshape((6,), (3, 1)), frame.reshape((6,), (1, 3)), 3)
        assert table.shape == (3, 3, 6) and table.order == 1
        for i, ji in enumerate(jets):
            for k, jk in enumerate(jets):
                pair = F.courant_jets(ji, jk, 3)
                assert np.array_equal(table.value[i, k], pair.value)
                assert np.array_equal(table.grad[i, k], pair.grad)
        assert np.abs(table.value + np.swapaxes(table.value, 0, 1)).max() < 1e-12


def fd_courant_values(a, b, p, h=1e-6):
    """Independent finite-difference Courant bracket used as an oracle."""

    def comps(s, q):
        return s.values(q)

    def dcomp(s, q):
        out = np.zeros((6, 3), dtype=complex)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            out[:, i] = (comps(s, q + e) - comps(s, q - e)) / (2 * h)
        return out

    av, bv = a.values(p), b.values(p)
    da, db = dcomp(a, p), dcomp(b, p)
    x, al = av[:3], av[3:]
    y, be = bv[:3], bv[3:]
    dx, dal = da[:3], da[3:]
    dy, dbe = db[:3], db[3:]
    vec = dy @ x - dx @ y
    lxb = dbe @ x + dx.T @ be
    lya = dal @ y + dy.T @ al
    exact = dx.T @ be + dbe.T @ x - dy.T @ al - dal.T @ y
    return np.concatenate([vec, lxb - lya - 0.5 * exact])


def test_courant_against_fd_oracle():
    a = sec(vec=["x*y", "sin(z)", "1"], form=["z", "x^2", "y"])
    b = sec(vec=["exp(y)", "x", "z*z"], form=["1", "x*y", "sin(x)"])
    got = F.courant(a, b)
    for p in PTS[:5]:
        assert np.abs(got.values(p) - fd_courant_values(a, b, p)).max() < 1e-6


def test_nij_constants_zero():
    a, b, c = (F.section(vec=v) for v in (EX, EY, EZ))
    assert abs(nij(a, b, c).values(PTS[0])) == 0


def test_nij_cyclic_and_antisymmetric_on_isotropic():
    # e^B images of pure vectors stay pointwise isotropic
    bmat = F.wedge11(F.one_form(CH, [scalar("z"), scalar("x"), scalar("0")]), DY)
    eb = F.b_endo(bmat)
    a = eb.apply(sec(vec=["x*y", "sin(z)", "1"]))
    b = eb.apply(sec(vec=["exp(y)", "x", "z*z"]))
    c = eb.apply(sec(vec=["1", "x", "y*z"]))
    vals = {}
    for name, (u, v, w) in {
        "abc": (a, b, c), "bca": (b, c, a), "cab": (c, a, b),
        "bac": (b, a, c), "acb": (a, c, b), "cba": (c, b, a),
    }.items():
        vals[name] = np.array([nij(u, v, w).values(p) for p in PTS[:5]])
    for cyc in ("bca", "cab"):
        assert np.abs(vals[cyc] - vals["abc"]).max() < 1e-12
    for odd in ("bac", "acb", "cba"):
        assert np.abs(vals[odd] + vals["abc"]).max() < 1e-10


def test_jac_constants_zero():
    a, b, c = (F.section(vec=v) for v in (EX, EY, EZ))
    assert np.abs(jac(a, b, c).values(PTS[0])).max() == 0


def test_jac_against_fd_oracle():
    """Nested finite-difference brackets reproduce the jet Jacobiator."""
    rng = np.random.default_rng(14)
    for trial in range(5):
        coeffs = rng.integers(-2, 3, size=(3, 12))

        def poly_section(row):
            exprs_v = [f"{row[0]}*x+{row[1]}*y*z", f"{row[2]}*y^2+{row[3]}", f"{row[4]}*z"]
            exprs_f = [f"{row[5]}*y+{row[6]}", f"{row[7]}*x*z", f"{row[8]}*x+{row[9]}*y+{row[10]}*z*{row[11]}"]
            return sec(vec=exprs_v, form=exprs_f)

        a, b, c = (poly_section(coeffs[i]) for i in range(3))
        got = jac(a, b, c)

        def fd_jac(p, h=1e-4):
            def bracket_values(u, v):
                def val(q):
                    return fd_courant_values(u, v, q, h=1e-5)

                class Tmp:
                    def values(self, q):
                        return val(q)

                return Tmp()

            ab, bc, ca = bracket_values(a, b), bracket_values(b, c), bracket_values(c, a)
            return (
                fd_courant_values(ab, c, p, h=h)
                + fd_courant_values(bc, a, p, h=h)
                + fd_courant_values(ca, b, p, h=h)
            )

        p = PTS[trial]
        assert np.abs(got.values(p) - fd_jac(p)).max() < 1e-5


def test_jet_validate_examples():
    f = scalar("x^2*y")
    assert F.jet_validate(f, [1.0, 2.0, 0.0]) < 1e-6
    const = F.constant(CH, 3.5)
    jet = const.at(PTS[0])
    assert np.abs(jet.grad).max() == 0
    g = scalar("sin(2*z)")
    assert F.jet_validate(g, [0.1, 0.1, 0.4]) < 1e-5


def test_b_field_courant_naturality_dichotomy():
    """e^B is a Courant automorphism iff dB = 0.

    Note x dx^dy is closed on the chart (d(x) ^ dx ^ dy = 0), so the
    non-closed witness uses a z coefficient.
    """
    a = sec(vec=["x*y", "sin(z)", "1"], form=["z", "x^2", "y"])
    b = sec(vec=["exp(y)", "x", "z*z"], form=["1", "x*y", "sin(x)"])

    def naturality_residual(bfield):
        eb = F.b_endo(bfield)
        lhs = F.courant(eb.apply(a), eb.apply(b))
        rhs = eb.apply(F.courant(a, b))
        return max(np.abs(lhs.values(p) - rhs.values(p)).max() for p in PTS[:20])

    closed = F.wedge11(X * DX, DY)  # x dx ^ dy, closed
    assert naturality_residual(closed) < 1e-12
    non_closed = F.wedge11(Z * DX, DY)  # z dx ^ dy, dB = dz^dx^dy
    assert naturality_residual(non_closed) > 1e-3
