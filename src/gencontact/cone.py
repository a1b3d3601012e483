"""The cone C(M) = M x R in t-coordinates (r = e^t): lifts, Psi maps, R-conjugation.

All cone computation uses the coordinate t with r = e^t, so the radial
2-forms of the deformation theory are smooth exponentials and the chart
stays a box.  The orientation of Psi follows the displayed block matrix
(top-left eta_- (x) d/dt - dt (x) xi_+), under which E+ - i d/dt and
E- - i dt span the +i directions added on the cone; so Psi(d/dt) = -E+.

Every lift from M to the cone is one placement map, ``jets.extend_vars``
with a component shape and an index: the base jet's value, gradient and
hessian are written into zeros at the base slots and get zero derivatives
in t.  A section goes to the ``_m_indices`` slots of the cone stack (the t
and dt slots stay zero), an endomorphism to the ``np.ix_`` block of those
slots, a 1-form to the first n slots; ``classical_cone_i`` and the cross
term metric ``g_tilde`` sum such placements.  A lift evaluates the base
field once over the distinct base points of a cone point batch
(:func:`base_jet`): cone point sets repeat each base point once per t value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from . import fields as F
from . import gta
from . import jets as J
from .charts import Chart, ConeChart
from .fields import GtEndoField, ScalarField, SectionField
from .report import ResidualReport, stack_values, sup_norm
from .structures import FGacs, Gacs, pivoted_frame

T_INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True)
class ConeGacx:
    """Generalized almost complex structure on a cone chart."""

    chart: ConeChart
    J: GtEndoField


# -- lifting -------------------------------------------------------------------


def base_jet(f: F.Field, p: np.ndarray, order: int) -> J.JetArray:
    """The jet of a base field at the base coordinates of the cone points ``(*B, n + 1)``.

    The field is evaluated once over the distinct base points, in the order
    they first appear (so a cone point set built by :func:`cone_points` asks
    for exactly its base point set, whose jet a base-side check may have
    memoised already), and the jet is spread back over the batch.
    """
    n = f.chart.dim
    q = p[..., :n].reshape(-1, n)
    _, first, inverse = np.unique(q, axis=0, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return J.take_batch(f.jet(q[first[by_first]], order), rank[inverse.ravel()], p.shape[:-1])


def lift_scalar(cone: ConeChart, f: ScalarField) -> ScalarField:
    return ScalarField(cone, lambda p, o: J.extend_vars(base_jet(f, p, o), cone.dim))


def lift_form(cone: ConeChart, omega) -> "F.OneFormField":
    n = cone.base.dim
    return F.OneFormField(
        cone, lambda p, o: J.extend_vars(base_jet(omega, p, o), cone.dim, (cone.dim,), slice(n)))


def cone_points(base_points, ts=(-0.5, 0.0, 0.5)) -> np.ndarray:
    """The (P * len(ts), n + 1) cone points (p, t), base point major, t minor."""
    base = np.asarray(base_points, dtype=float)
    return np.column_stack([np.repeat(base, len(ts), axis=0), np.tile(ts, len(base))])


def lift_section(cone: ConeChart, s: SectionField) -> SectionField:
    n = cone.base.dim
    N = cone.dim
    rows = _m_indices(n)
    return SectionField(
        cone, lambda p, o: J.extend_vars(base_jet(s, p, o), N, (2 * N,), rows))


def lift_endo(cone: ConeChart, e: GtEndoField) -> GtEndoField:
    n = cone.base.dim
    N = cone.dim
    block = np.ix_(_m_indices(n), _m_indices(n))
    return GtEndoField(
        cone, lambda p, o: J.extend_vars(base_jet(e, p, o), N, (2 * N, 2 * N), block))


def _m_indices(n: int) -> List[int]:
    """Positions of the base-chart slots inside a cone section stack."""
    return list(range(n)) + list(range(n + 1, 2 * n + 1))


def ddt_section(cone: ConeChart) -> SectionField:
    return F.section(vec=F.basis_vector(cone, cone.t_index))


def dt_section(cone: ConeChart) -> SectionField:
    return F.section(form=F.basis_form(cone, cone.t_index))


# -- Psi and the cone structures -------------------------------------------------


def psi(cone: ConeChart, eplus: SectionField, eminus: SectionField,
        f: ScalarField = None) -> GtEndoField:
    """Psi(E+, E-), plus the f d/dt (x) dt - f dt (x) d/dt extension when f is given.

    E+ and E- are sections of the base chart; they are lifted here.
    """
    ep = lift_section(cone, eplus)
    em = lift_section(cone, eminus)
    ddt = ddt_section(cone)
    dt = dt_section(cone)
    out = (
        F.tensor_pair_field(ddt, em)
        - F.tensor_pair_field(em, ddt)
        + F.tensor_pair_field(dt, ep)
        - F.tensor_pair_field(ep, dt)
    )
    if f is not None:
        flift = lift_scalar(cone, f)
        out = out + flift * (F.tensor_pair_field(dt, ddt) - F.tensor_pair_field(ddt, dt))
    return out


def psi_f(cone: ConeChart, s: FGacs) -> GtEndoField:
    return psi(cone, s.Eplus, s.Eminus, s.f)


def i_prime(s: Union[Gacs, FGacs], cone: ConeChart = None) -> ConeGacx:
    """I' = Phi^f + Psi^f(E+^f, E-^f) on the cone."""
    if isinstance(s, Gacs):
        s = FGacs.of_gacs(s)
    if cone is None:
        cone = ConeChart.over(s.chart)
    return ConeGacx(cone, lift_endo(cone, s.Phi) + psi_f(cone, s))


def cone_gacx(s: Gacs, cone: ConeChart = None) -> ConeGacx:
    """Phi + Psi(E+, E-): the unconjugated cone structure of a Gacs."""
    return i_prime(s, cone)


def r_endo(cone: ConeChart) -> GtEndoField:
    """R = diag(e^-t on all vectors, e^t on all forms), t slots included."""
    return _r_pow(cone, 1)


def _r_pow(cone: ConeChart, sign: int) -> GtEndoField:
    N = cone.dim
    ti = cone.t_index

    def fn(p, order):
        t = J.seed_point(p, N, order)[ti]
        em = J.exp(-sign * t)
        ep = J.exp(sign * t)
        parts = [em] * N + [ep] * N
        stacked = J.stack(parts)
        eye = J.lift(np.eye(2 * N), N, order, p.shape[:-1])
        return J.jet_einsum("i,ij->ij", stacked, eye)

    return GtEndoField(cone, fn)


def r_conjugate(j: ConeGacx) -> ConeGacx:
    r = r_endo(j.chart)
    rinv = _r_pow(j.chart, -1)
    return ConeGacx(j.chart, r @ j.J @ rinv)


def i_map(s: Union[Gacs, FGacs], cone: ConeChart = None) -> ConeGacx:
    """I = R (Phi^f + Psi^f) R^-1, the Sasaki-flavoured cone structure."""
    return r_conjugate(i_prime(s, cone))


def gacx_check(j: ConeGacx, points) -> ResidualReport:
    """J + J* = 0 and J^2 = -id at cone sample points."""
    rep = ResidualReport()
    m = stack_values(j.J, points)
    rep.add("gacx.skew", sup_norm(m + gta.adjoint(m)), points, 1e-9)
    rep.add("gacx.square", sup_norm(m @ m + np.eye(m.shape[-1])), points, 1e-9)
    return rep


# -- the t-invariant decomposition (one-to-one correspondence) -------------------


def t_dependence(j: ConeGacx, points) -> float:
    """Max |d/dt entry| of J over the sample points."""
    jet = j.J.jet(np.asarray(points, dtype=float), 1).require(1)
    return float(np.abs(jet.grad[..., j.chart.t_index]).max())


def cone_decompose(j: ConeGacx, points=None, tol: float = 1e-8) -> Union[Gacs, FGacs]:
    """Extract (J_M, B, A, h) from a t-invariant cone structure.

    Returns the Gacs (J_M, E+ = B, E- = A) when h vanishes, otherwise the
    FGacs with f = h.  Raises if J depends on t or does not have the
    displayed normal form.
    """
    cone = j.chart
    base = cone.base
    n = base.dim
    N = cone.dim
    if points is None:
        points = cone_points(base.sample(seed=5, count=8), (-0.5, 0.25))
    td = t_dependence(j, points)
    if td > T_INDEPENDENCE_TOL:
        raise ValueError(f"structure depends on t (max |d_t J| = {td:.2e})")

    rows = _m_indices(n)
    t0 = 0.0

    def at_base(p, order):
        return j.J.jet(np.concatenate([p, np.full(p.shape[:-1] + (1,), t0)], axis=-1), order)

    def b_fn(p, order):
        col = at_base(p, order)[:, n]  # J(d/dt)
        return J.restrict_vars(-col[rows], n)

    def a_fn(p, order):
        col = at_base(p, order)[:, 2 * n + 1]  # J(dt)
        return J.restrict_vars(-col[rows], n)

    def h_fn(p, order):
        col = at_base(p, order)[:, n]
        return J.restrict_vars(-col[n], n)

    def jm_fn(p, order):
        m = at_base(p, order)
        return J.restrict_vars(m[rows][:, rows], n)

    B = SectionField(base, b_fn)
    A = SectionField(base, a_fn)
    h = ScalarField(base, h_fn)
    Jm = GtEndoField(base, jm_fn)

    # extraction consistency: the displayed form must reproduce J
    rebuilt = i_prime(FGacs(base, Jm, B, A, h), cone)
    worst = sup_norm(stack_values(rebuilt.J, points) - stack_values(j.J, points)).max()
    if worst > 1e-7:
        raise ValueError(
            f"J is not of the displayed t-invariant normal form (residual {worst:.2e})"
        )

    if np.abs(h.values(base.sample(seed=9, count=12))).max() < tol:
        return Gacs(base, Jm, B, A)
    return FGacs(base, Jm, B, A, h)


# -- cone frames ------------------------------------------------------------------


def cone_plus_frame(cone: ConeChart, frame_e10, eplus: SectionField,
                    eminus: SectionField, conjugated: bool) -> List[SectionField]:
    """The +i frame {E10, E+ - i d/dt, E- - i dt} of Phi + Psi, optionally R-scaled."""
    members = [lift_section(cone, a) for a in frame_e10]
    members.append(lift_section(cone, eplus) - 1j * ddt_section(cone))
    members.append(lift_section(cone, eminus) - 1j * dt_section(cone))
    if conjugated:
        r = r_endo(cone)
        members = [r.apply(m) for m in members]
    return members


def gacx_plus_frame(j: ConeGacx, base_point=None) -> List[SectionField]:
    """Pivot-selected frame of the +i eigenbundle of a cone structure.

    Projects the coordinate sections through (1 - i J)/2 and keeps a maximal
    independent subset chosen at the base point.
    """
    cone = j.chart
    if base_point is None:
        base_point = cone.sample(seed=0, count=1)[0]
    candidates = [0.5 * (u - 1j * j.J.apply(u)) for u in F.coordinate_sections(cone)]
    cols = pivoted_frame(candidates, base_point, cone.dim,
                         "cone eigenframe rank dropped to {} (< {})")
    return [candidates[i] for i in cols]
