"""The cone C(M) = M x R in t-coordinates (r = e^t): slots, I' = Phi + Psi, R-conjugation.

All cone computation uses the coordinate t with r = e^t, so the radial
2-forms of the deformation theory are smooth exponentials and the chart
stays a box.  The orientation of Psi follows the displayed block matrix
(top-left eta_- (x) d/dt - dt (x) xi_+), under which E+ - i d/dt and
E- - i dt span the +i directions added on the cone; so Psi(d/dt) = -E+.
A structure's f enters only through Psi: :func:`i_prime` places ``s.f``,
and ``f = None`` (f = 0) places nothing.  A cone structure is its
endomorphism field J, a ``GtEndoField`` on the ``ConeChart``.

The slots of the cone stack are decided once (:func:`_slots`): over an
n-dim base, base vectors at 0..n-1, d/dt at n, base forms at n+1..2n and dt
at 2n+1.  Every cone object is one field of base jets placed at these slots
by ``jets.extend_vars`` (zeros elsewhere, zero derivatives in t): a section
on the base slots, I' as Phi on the base block and Psi's entries in the d/dt
and dt rows and columns (:func:`i_prime`), the frame members E+- - i d/dt,
dt, and the sums of placements ``classical_cone_i``, ``g_tilde`` and
``deformations.cone_kappa_form``; :func:`cone_decompose` reads back through
the same slots.  Each entry is bit for bit the product with a 0/1 constant
that a tensor-pair construction of Psi computes.  A lift evaluates the base
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

from typing import List, Tuple

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


def cone_points(base_points, ts=DEFAULT_TS) -> np.ndarray:
    """The (P * len(ts), n + 1) cone points (p, t), base point major, t minor."""
    base = np.asarray(base_points, dtype=float)
    return np.column_stack([np.repeat(base, len(ts), axis=0), np.tile(ts, len(base))])


def _slots(n: int) -> Tuple[List[int], int, int]:
    """The slots of the cone stack over an n-dim base: the base slots (vectors
    0..n-1, forms n+1..2n), d/dt (n) and dt (2n+1)."""
    return list(range(n)) + list(range(n + 1, 2 * n + 1)), n, 2 * n + 1


def _section_jet(cone: ConeChart, s: SectionField, p: np.ndarray, order: int) -> J.JetArray:
    """The jet of a base section placed at the base slots of the cone stack."""
    return J.extend_vars(base_jet(s, p, order), cone.dim, (2 * cone.dim,), _slots(cone.base.dim)[0])


def lift_section(cone: ConeChart, s: SectionField) -> SectionField:
    return SectionField(cone, lambda p, o: _section_jet(cone, s, p, o))


# -- the cone structures ---------------------------------------------------------


def i_prime(s: Gacs, cone: ConeChart = None) -> GtEndoField:
    """I' = Phi^f + Psi^f(E+^f, E-^f) on the cone, the unconjugated cone structure,
    placed from the base jets: Phi on the base block, -E+ down column d/dt and
    -E- down column dt, swap(E-) along row d/dt and swap(E+) along row dt, and
    -f at (d/dt, d/dt) and f at (dt, dt) unless f is None."""
    if cone is None:
        cone = ConeChart.over(s.chart)
    N = cone.dim
    base, ddt, dt = _slots(s.chart.dim)
    ends = [ddt, dt]

    def put(j, index):
        return J.extend_vars(j, N, (2 * N, 2 * N), index)

    def fn(p, o):
        phi, ep, em = (base_jet(x, p, o) for x in (s.Phi, s.Eplus, s.Eminus))
        out = (put(phi, np.ix_(base, base))
               + put(-J.stack([ep, em], axis=1), np.ix_(base, ends))
               + put(J.stack([F.swap_jet(em), F.swap_jet(ep)]), np.ix_(ends, base)))
        if s.f is None:
            return out
        f = base_jet(s.f, p, o)
        return out + put(J.stack([-f, f]), (ends, ends))

    return GtEndoField(cone, fn)


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

    rows, ddt, dt = _slots(n)
    # J at t = 0 over the base variables; B, A, h and J_M are slices of its jet
    at_base = F.Field(base, lambda p, o: J.restrict_vars(
        j.jet(np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1), o), n))
    B = SectionField(base, lambda p, o: -at_base.jet(p, o)[:, ddt][rows])  # -J(d/dt)
    A = SectionField(base, lambda p, o: -at_base.jet(p, o)[:, dt][rows])  # -J(dt)
    h = ScalarField(base, lambda p, o: -at_base.jet(p, o)[ddt, ddt])
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
    N = cone.dim
    _, ddt, dt = _slots(cone.base.dim)

    def minus_i_unit(e, slot):
        unit = np.eye(2 * N)[slot]
        return SectionField(cone, lambda p, o: (
            _section_jet(cone, e, p, o) - J.lift(unit, N, o, p.shape[:-1]) * 1j))

    members = [lift_section(cone, a) for a in frame_e10]
    members += [minus_i_unit(eplus, ddt), minus_i_unit(eminus, dt)]
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
