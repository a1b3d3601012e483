"""Reference constructions that the tests compare the program against.

The program never calls these: the Lie bracket and the Courant Jacobiator
on jets, Nij of one triple (the per-triple reference of
``structures.frame_nij``), the dense R matrix that ``cone``'s diagonal R
must equal bit for bit, Psi and I' built from tensor pairs (the reference
of ``cone.i_prime``'s placed entries), and the L+ / L- member lists and the
span rank of an eigenframe.
"""

import numpy as np

from gencontact import cone as C
from gencontact import fields as F
from gencontact import jets as J


def lie_bracket(x: F.VectorField, y: F.VectorField) -> F.VectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, one derivative order consumed."""

    def fn(p, order):
        jx, jy = x.jet(p, order + 1), y.jet(p, order + 1)
        return J.jet_einsum("j,ji->i", jx, J.dshift(jy)) - J.jet_einsum("j,ji->i", jy, J.dshift(jx))

    return F.VectorField(x.chart, fn)


def nij(a: F.SectionField, b: F.SectionField, c: F.SectionField) -> F.ScalarField:
    """Nij(A, B, C) of one triple of sections, as a scalar field."""
    n = a.chart.dim
    return F.ScalarField(
        a.chart, lambda p, o: F.nij_jets(a.jet(p, o + 1), b.jet(p, o + 1), c.jet(p, o + 1), n))


def jac(a: F.SectionField, b: F.SectionField, c: F.SectionField) -> F.SectionField:
    """Courant Jacobiator: one derivative order consumed per bracket level."""
    n = a.chart.dim

    def fn(p, order):
        ja, jb, jc = (s.jet(p, order + 2) for s in (a, b, c))
        jab, jbc, jca = (F.courant_jets(ja, jb, n), F.courant_jets(jb, jc, n),
                         F.courant_jets(jc, ja, n))
        return (F.courant_jets(jab, jc, n) + F.courant_jets(jbc, ja, n)
                + F.courant_jets(jca, jb, n))

    return F.SectionField(a.chart, fn)


def r_endo(cone) -> F.GtEndoField:
    """R = diag(e^-t on all vectors, e^t on all forms), t slots included, as a
    matrix: the diagonal of ``cone._r_pow`` placed on the identity."""
    N = cone.dim
    r = C._r_pow(cone, 1)
    return F.GtEndoField(cone, lambda p, o: (
        r.jet(p, o)[:, None] * J.lift(np.eye(2 * N), N, o, p.shape[:-1])))


def psi(cone, eplus: F.SectionField, eminus: F.SectionField, f=None) -> F.GtEndoField:
    """Psi(E+, E-) from tensor pairs of the lifted sections and the constant
    d/dt and dt sections, plus f (dt (x) d/dt - d/dt (x) dt) when f is given."""
    N = cone.dim
    _, ddt_slot, dt_slot = C._slots(cone.base.dim)
    ep, em = C.lift_section(cone, eplus), C.lift_section(cone, eminus)
    ddt, dt = (F.constant(cone, np.eye(2 * N)[k], F.SectionField) for k in (ddt_slot, dt_slot))
    out = (F.tensor_pair_field(ddt, em) - F.tensor_pair_field(em, ddt)
           + F.tensor_pair_field(dt, ep) - F.tensor_pair_field(ep, dt))
    if f is None:
        return out
    flift = F.ScalarField(cone, lambda p, o: J.extend_vars(C.base_jet(f, p, o), N))
    return out + flift * (F.tensor_pair_field(dt, ddt) - F.tensor_pair_field(ddt, dt))


def i_prime(s, cone) -> F.GtEndoField:
    """I' = Phi + Psi^f: Phi placed on the base block plus the tensor-pair Psi."""
    N = cone.dim
    base = np.ix_(C._slots(s.chart.dim)[0], C._slots(s.chart.dim)[0])
    phi = F.GtEndoField(cone, lambda p, o: J.extend_vars(
        C.base_jet(s.Phi, p, o), N, (2 * N, 2 * N), base))
    return phi + psi(cone, s.Eplus, s.Eminus, s.f)


def l_plus(frame) -> tuple:
    """The members of L+: the frame's e10 and E+."""
    return frame.e10 + (frame.eplus,)


def l_minus(frame) -> tuple:
    """The members of L-: the frame's e10 and E-."""
    return frame.e10 + (frame.eminus,)


def frame_span_check(frame, point) -> int:
    """Rank of e10 + conj(e10) + kernel at a point (2n for a spanning frame)."""
    e10 = frame.columns.values(point)
    cols = [e10, np.conj(e10), frame.eplus.values(point)[:, None],
            frame.eminus.values(point)[:, None]]
    return int(np.linalg.matrix_rank(np.concatenate(cols, axis=1), tol=1e-8))
