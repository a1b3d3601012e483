"""The cone C(M) = M x R in t-coordinates (r = e^t): lifts, Psi maps, R-conjugation.

All cone computation uses the coordinate t with r = e^t, so the radial
2-forms of the deformation theory are smooth exponentials and the chart
stays a box.  The orientation of Psi follows the displayed block matrix
(top-left eta_- (x) d/dt - dt (x) xi_+), under which E+ - i d/dt and
E- - i dt span the +i directions added on the cone; so Psi(d/dt) = -E+.
A structure's f enters only through Psi: :func:`i_prime` passes ``s.f`` on,
and ``f = None`` (f = 0) builds no f-extension.  A cone structure is its
endomorphism field J, a ``GtEndoField`` on the ``ConeChart``.

Every lift from M to the cone is one placement map, ``jets.extend_vars``
with a component shape and an index: the base jet's value, gradient and
hessian are written into zeros at the base slots and get zero derivatives
in t.  A section goes to the ``_m_indices`` slots of the cone stack (the t
and dt slots stay zero), an endomorphism to the ``np.ix_`` block of those
slots, a 1-form to the first n slots; ``classical_cone_i`` and the cross
term metric ``g_tilde`` sum such placements.  A lift evaluates the base
field once per run of equal consecutive base points of a cone point batch
(:func:`base_jet`): cone point sets are base point major and repeat each
base point once per t value, so a run is one base point.  A base point that
repeats after other points is evaluated again.

R = diag(e^-t on vectors, e^t on forms) is held as its 2N diagonal entries
(:func:`_r_pow`) and applied as an elementwise product: a section is scaled
entry by entry, and R J R^-1 is (r_i J_ik) r_k^-1.  Each entry is the one
product a dense matrix product would compute, so the results are those of
the dense product bit for bit, up to the sign of exact zeros; a non-finite
entry stays in its place, where the dense product's 0 * inf spread NaN.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import fields as F
from . import gta
from . import jets as J
from .charts import ConeChart
from .fields import GtEndoField, ScalarField, SectionField
from .report import ResidualReport, sup_norm
from .structures import Gacs, eigen_projector, pivoted_frame, projector_columns

T_INDEPENDENCE_TOL = 1e-10
H_VANISH_TOL = 1e-8  # the |h| below which cone_decompose returns f = None
DEFAULT_TS = (-0.5, 0.0, 0.5)  # the t slices of a cone point set


# -- lifting -------------------------------------------------------------------


def base_jet(f: F.Field, p: np.ndarray, order: int) -> J.JetArray:
    """The jet of a base field at the base coordinates of the cone points ``(*B, n + 1)``.

    The field is evaluated once per run of equal consecutive base points, at
    the first point of each run, and the jet is spread back over the batch.
    A cone point set built by :func:`cone_points` thus asks for exactly its
    base point set, whose jet a base-side check may have memoised already;
    a base point that repeats after other points is evaluated again.
    """
    n = f.chart.dim
    q = p[..., :n].reshape(-1, n)
    starts = np.ones(len(q), dtype=bool)
    starts[1:] = (q[1:] != q[:-1]).any(axis=1)
    return J.take_batch(f.jet(q[starts], order), np.cumsum(starts) - 1, p.shape[:-1])


def _placed(cls, cone: ConeChart, f: F.Field, shape=None, index=None) -> F.Field:
    """The ``cls`` field of a base field's jets placed at ``index`` of cone
    components ``shape`` (``jets.extend_vars``); without a placement, as they are."""
    return cls(cone, lambda p, o: J.extend_vars(base_jet(f, p, o), cone.dim, shape, index))


def lift_scalar(cone: ConeChart, f: ScalarField) -> ScalarField:
    return _placed(ScalarField, cone, f)


def lift_form(cone: ConeChart, omega) -> "F.OneFormField":
    return _placed(F.OneFormField, cone, omega, (cone.dim,), slice(cone.base.dim))


def cone_points(base_points, ts=DEFAULT_TS) -> np.ndarray:
    """The (P * len(ts), n + 1) cone points (p, t), base point major, t minor."""
    base = np.asarray(base_points, dtype=float)
    return np.column_stack([np.repeat(base, len(ts), axis=0), np.tile(ts, len(base))])


def lift_section(cone: ConeChart, s: SectionField) -> SectionField:
    return _placed(SectionField, cone, s, (2 * cone.dim,), _m_indices(cone.base.dim))


def lift_endo(cone: ConeChart, e: GtEndoField) -> GtEndoField:
    rows = _m_indices(cone.base.dim)
    return _placed(GtEndoField, cone, e, (2 * cone.dim,) * 2, np.ix_(rows, rows))


def _m_indices(n: int) -> List[int]:
    """Positions of the base-chart slots inside a cone section stack."""
    return list(range(n)) + list(range(n + 1, 2 * n + 1))


def ddt_section(cone: ConeChart) -> SectionField:
    return F.constant(cone, np.eye(2 * cone.dim)[cone.t_index], SectionField)


def dt_section(cone: ConeChart) -> SectionField:
    return F.constant(cone, np.eye(2 * cone.dim)[cone.dim + cone.t_index], SectionField)


# -- Psi and the cone structures -------------------------------------------------


def psi(cone: ConeChart, eplus: SectionField, eminus: SectionField,
        f: Optional[ScalarField] = None) -> GtEndoField:
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


def i_prime(s: Gacs, cone: ConeChart = None) -> GtEndoField:
    """I' = Phi^f + Psi^f(E+^f, E-^f) on the cone: the unconjugated cone
    structure, Phi + Psi(E+, E-) when f is None."""
    if cone is None:
        cone = ConeChart.over(s.chart)
    return lift_endo(cone, s.Phi) + psi(cone, s.Eplus, s.Eminus, s.f)


def _r_pow(cone: ConeChart, sign: int) -> F.Field:
    """The 2N diagonal entries of R^sign: e^(-sign t) on vectors, e^(sign t) on forms."""
    N = cone.dim
    ti = cone.t_index

    def fn(p, order):
        t = J.seed_point(p, N, order)[ti]
        return J.stack([J.exp(-sign * t)] * N + [J.exp(sign * t)] * N)

    return F.Field(cone, fn)


def r_conjugate(j: GtEndoField) -> GtEndoField:
    """R J R^-1 as the elementwise product (r_i J_ik) r_k^-1 of the diagonals."""
    r = _r_pow(j.chart, 1)
    rinv = _r_pow(j.chart, -1)
    return GtEndoField(j.chart, lambda p, o: (
        (r.jet(p, o)[:, None] * j.jet(p, o)) * rinv.jet(p, o)[None, :]))


def i_map(s: Gacs, cone: ConeChart = None) -> GtEndoField:
    """I = R (Phi^f + Psi^f) R^-1, the Sasaki-flavoured cone structure."""
    return r_conjugate(i_prime(s, cone))


def gacx_check(j: GtEndoField, points) -> ResidualReport:
    """J + J* = 0 and J^2 = -id at cone sample points."""
    rep = ResidualReport()
    m = j.values(points)
    rep.add("gacx.skew", sup_norm(m + gta.adjoint(m)), points, 1e-9)
    rep.add("gacx.square", sup_norm(m @ m + np.eye(m.shape[-1])), points, 1e-9)
    return rep


# -- the t-invariant decomposition (one-to-one correspondence) -------------------


def t_dependence(j: GtEndoField, points) -> float:
    """Max |d/dt entry| of J over the sample points."""
    grad = J.parts(j.jet(np.asarray(points, dtype=float), 1).require(1), 1)[1]
    return float(np.abs(grad[..., j.chart.t_index]).max())


def cone_decompose(j: GtEndoField) -> Gacs:
    """Extract (J_M, B, A, h) from a t-invariant cone structure.

    Returns the structure (J_M, E+ = B, E- = A, f = h), with f = None when
    h vanishes.  Raises if J depends on t or does not have the displayed
    normal form.
    """
    cone = j.chart
    base = cone.base
    n = base.dim
    points = cone_points(base.sample(seed=5, count=8), (-0.5, 0.25))
    td = t_dependence(j, points)
    if td > T_INDEPENDENCE_TOL:
        raise ValueError(f"structure depends on t (max |d_t J| = {td:.2e})")

    rows = _m_indices(n)
    # J at t = 0 over the base variables; B, A, h and J_M are slices of its jet
    at_base = F.Field(base, lambda p, o: J.restrict_vars(
        j.jet(np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1), o), n))
    B = SectionField(base, lambda p, o: -at_base.jet(p, o)[:, n][rows])  # -J(d/dt)
    A = SectionField(base, lambda p, o: -at_base.jet(p, o)[:, 2 * n + 1][rows])  # -J(dt)
    h = ScalarField(base, lambda p, o: -at_base.jet(p, o)[n, n])
    Jm = GtEndoField(base, lambda p, o: at_base.jet(p, o)[rows][:, rows])

    # extraction consistency: the displayed form must reproduce J
    rebuilt = i_prime(Gacs(base, Jm, B, A, h), cone)
    worst = sup_norm(rebuilt.values(points) - j.values(points)).max()
    if worst > 1e-7:
        raise ValueError(
            f"J is not of the displayed t-invariant normal form (residual {worst:.2e})"
        )

    vanishes = np.abs(h.values(base.sample(seed=9, count=12))).max() < H_VANISH_TOL
    return Gacs(base, Jm, B, A, None if vanishes else h)


# -- cone frames ------------------------------------------------------------------


def cone_plus_frame(cone: ConeChart, frame_e10, eplus: SectionField,
                    eminus: SectionField, conjugated: bool) -> List[SectionField]:
    """The +i frame {E10, E+ - i d/dt, E- - i dt} of Phi + Psi, optionally R-scaled:
    each member times the diagonal of R, R first."""
    members = [lift_section(cone, a) for a in frame_e10]
    members.append(lift_section(cone, eplus) - 1j * ddt_section(cone))
    members.append(lift_section(cone, eminus) - 1j * dt_section(cone))
    if conjugated:
        r = _r_pow(cone, 1)
        members = [SectionField(cone, lambda p, o, m=m: r.jet(p, o) * m.jet(p, o))
                   for m in members]
    return members


def gacx_plus_frame(j: GtEndoField) -> List[SectionField]:
    """Pivot-selected frame of the +i eigenbundle of a cone structure: a
    maximal independent set of columns of (1 - i J)/2, chosen from the full
    projector at the cone chart's seed-0 sample point, as views of one field
    of those columns."""
    cone = j.chart
    cols = pivoted_frame(eigen_projector(j), cone.sample(seed=0, count=1)[0], cone.dim,
                         "cone eigenframe rank dropped to {} (< {})")
    return list(projector_columns(eigen_projector(j, cols=cols), range(len(cols))))
