"""Reference constructions that the tests compare the program against.

The program never calls these: the product rule of ``jets.jet_einsum`` and
the inverse of ``jets.jet_inv`` by plain ``np.einsum`` (the references of the
contraction kernels), the Lie bracket and the Courant Jacobiator on jets,
Nij of one triple (the per-triple reference of ``structures.frame_nij``),
the dense R matrix that ``cone``'s diagonal R must equal bit for bit, Psi
and I' built from tensor pairs (the reference of ``cone.i_prime``'s placed
entries), jets stacked along a new batch axis, and the L+ / L- member lists
and the span rank of an eigenframe.
"""

import numpy as np

from gencontact import cone as C
from gencontact import fields as F
from gencontact import jets as J


def einsum_jet(subscripts: str, a: J.JetArray, b: J.JetArray) -> J.JetArray:
    """``jets.jet_einsum`` by plain ``np.einsum`` on the batch-first parts: the
    product rule term by term, hessian entry [l, k] the d_l of gradient [k]."""
    lhs, out = subscripts.split("->")
    s1, s2 = (f"...{s}" for s in lhs.split(","))  # w, z (d_w d_z) are not spec letters
    z1, z2, w2 = s1.replace("...", "...z"), s2.replace("...", "...z"), s2.replace("...", "...w")
    wz1, wz2 = s1.replace("...", "...wz"), s2.replace("...", "...wz")
    value = np.einsum(f"{s1},{s2}->...{out}", a.value, b.value)
    grad = hess = None
    if a.grad is not None and b.grad is not None:
        grad = (np.einsum(f"{z1},{s2}->...z{out}", a.grad, b.value)
                + np.einsum(f"{s1},{z2}->...z{out}", a.value, b.grad))
        if a.hess is not None and b.hess is not None:
            cross = np.einsum(f"{z1},{w2}->...wz{out}", a.grad, b.grad)
            hess = (np.einsum(f"{wz1},{s2}->...wz{out}", a.hess, b.value)
                    + np.einsum(f"{s1},{wz2}->...wz{out}", a.value, b.hess)
                    + cross + np.swapaxes(cross, -len(out) - 2, -len(out) - 1))
    return J.JetArray(value, grad, hess, a.nvars, value.ndim - len(out))


def jet_inv_einsum(j: J.JetArray) -> J.JetArray:
    """``jets.jet_inv`` by the einsum formula: d_k(A^-1) = -A^-1 d_kA A^-1, and
    d_l d_k(A^-1) = -A^-1 d_ld_kA A^-1 + T[l, k] + T[k, l] with
    T[l, k] = A^-1 d_kA A^-1 d_lA A^-1."""
    v = np.linalg.inv(j.value)
    grad = hess = None
    if j.grad is not None:
        grad = -np.einsum("...ij,...kjm,...mn->...kin", v, j.grad, v)
        if j.hess is not None:
            t = np.einsum("...ab,...kbc,...cd,...lde,...ef->...lkaf", v, j.grad, v, j.grad, v)
            hess = (-np.einsum("...ij,...lkjm,...mn->...lkin", v, j.hess, v)
                    + t + np.swapaxes(t, -3, -4))
    return J.JetArray(v, grad, hess, j.nvars, j.nbatch)


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


def batch_stack(jets) -> J.JetArray:
    """Jets of one shape stacked along a new batch axis, in front of their other axes."""
    parts = [[getattr(j, part) for j in jets] for part in ("value", "grad", "hess")]
    return J.JetArray(*(None if p[0] is None else np.stack(p) for p in parts), jets[0].nvars,
                      jets[0].nbatch + 1)


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
