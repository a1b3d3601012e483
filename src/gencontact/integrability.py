"""Integrability and Sasakian-type condition checkers.

The cone-side checks evaluate Courant brackets of explicit sections, so
every identity from the R-conjugation computation (the e^-t factors and
the i/2 correction terms) is verified directly rather than assumed.
"integrable" always means: max residual below tolerance over the seeded
sample set and all frame triples, and reports carry the raw residuals.
Each frame member is evaluated once per structure: the checks of a Gacs
read its one eigenframe (``Gacs.frame``) and the one Nijenhuis table that
frame keeps per point set, which holds one array over the points per triple.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

import numpy as np

from . import fields as F
from . import gta
from . import jets as J
from .charts import ConeChart
from .cone import DEFAULT_TS, base_jet, cone_plus_frame, cone_points
from .fields import MatrixField
from .report import ResidualReport, batch_first, stack_values, sup_norm
from .structures import (
    DEFAULT_TOL,
    INT_TOL,
    AlmostContactMetric,
    EigenFrame,
    Gacm,
    Gacs,
    cabs,
    dual_gacm,
    frame_nij,
    l_nij_max,
    max_nij_over_frame,
    triple_max,
)


# -- plain-cone integrability equals strongness -------------------------------------


def plain_cone_check(s: Gacs, base_points, tol: float = INT_TOL,
                     ts=DEFAULT_TS) -> ResidualReport:
    """Integrability of Phi + Psi equals strongness plus [[E+, E-]] = 0.

    Reports (a) L+- involutivity residuals, (b) |[[E+, E-]]|, (c) the direct
    Nijenhuis residual of the +i cone frame of Phi + Psi, and asserts the
    two verdicts agree.
    """
    frame = s.frame
    rep = ResidualReport()
    per_plus, per_minus = l_nij_max(frame, base_points)
    rep.add("plain_cone.l_plus_nij", per_plus, base_points, tol)
    rep.add("plain_cone.l_minus_nij", per_minus, base_points, tol)

    bracket = F.courant(s.Eplus, s.Eminus)
    per_bracket = sup_norm(stack_values(bracket, base_points))
    rep.add("plain_cone.e_plus_minus_bracket", per_bracket, base_points, tol)

    cone = ConeChart.over(s.chart)
    members = cone_plus_frame(cone, frame.e10, s.Eplus, s.Eminus, conjugated=False)
    cpts = cone_points(base_points, ts)
    direct, per_direct = max_nij_over_frame(members, cpts)
    rep.add("plain_cone.cone_frame_nij", per_direct, cpts, tol)

    lhs_pass = max(per_plus.max(), per_minus.max(), per_bracket.max()) < tol
    rhs_pass = direct < tol
    rep.add("plain_cone.verdict_agreement", [0.0 if lhs_pass == rhs_pass else 1.0], None, 0.5)
    return rep


# -- the conjugated-cone integrability condition on M --------------------------------


def _conjugated_cone_rhs(vals, em) -> np.ndarray:
    """2i (<E-,A><B,C>_- + <E-,B><C,A>_- + <E-,C><A,B>_-) on (P, 2n) value stacks."""
    a, b, c = vals
    pm = gta.pair_minus
    pe = gta.pair
    total = pe(em, a) * pm(b, c) + pe(em, b) * pm(c, a) + pe(em, c) * pm(a, b)
    return 2j * total


def conjugated_cone_residual(s: Gacs, base_points, tol: float = INT_TOL) -> ResidualReport:
    """|Nij_M(A,B,C) - RHS| over the frame of E^(1,0) + L_{E+} + L_{E-}."""
    pts = np.asarray(base_points, dtype=float)
    gaps = _rcone_gaps(s.frame, pts)[0]
    rep = ResidualReport()
    rep.add("rcone_condition.residual", triple_max(gaps, len(pts)), base_points, tol)
    return rep


def _rcone_gaps(frame: EigenFrame, pts: np.ndarray):
    """(|Nij_M - RHS| per triple and point, Nij_M, member values) of the M frame."""
    nij_m = frame.nij(pts)
    vals = [stack_values(m, pts) for m in frame.members]
    gaps = {
        tri: cabs(lhs - _conjugated_cone_rhs(tuple(vals[i] for i in tri), vals[-1]))
        for tri, lhs in nij_m.items()
    }
    return gaps, nij_m, vals


# -- the cone cross-check (R-conjugation bracket identities) ------------------------


def cone_crosscheck(s: Gacs, base_points, tol: float = INT_TOL,
                    ts=DEFAULT_TS) -> ResidualReport:
    """Verify the four R-conjugation Nijenhuis identities and the two routes.

    With F+ = R(E+ - i d/dt), F- = R(E- - i dt) and A, B, C running over the
    R-scaled lifted E^(1,0) frame:

      id1  Nij_C(A~, B~, C~)    = e^-t Nij_M(A, B, C)
      id2  Nij_C(A~, B~, F+)    = e^-t (Nij_M(A, B, E+) - i <A, B>_-)
      id3  Nij_C(A~, B~, F-)    = e^-t Nij_M(A, B, E-)
      id4  Nij_C(A~, F+, F-)    = e^-t (Nij_M(A, E+, E-) - i <E-, A>_-)

    The correction terms are i/2 e^-t (beta(X) - alpha(Y)) and
    -i/2 e^-t (eta_-(X) - alpha(xi_-)) in slot notation.  The report also
    carries the per-triple agreement between the direct cone route
    (e^t |Nij_C| over the full conjugated +i frame) and the condition-residual
    route on M, plus the sub-frame involutivity that follows from it.

    Nij_M is the table the structure's frame keeps for the base points
    (shared with the other frame checks) and Nij_C is taken once over the
    cone points; every row reads from those two tables.
    """
    return _cone_crosscheck(s, base_points, tol, ts)[1]


def _cone_crosscheck(s: Gacs, base_points, tol: float, ts):
    """(rcone, report) of :func:`cone_crosscheck`; rcone holds the per-point
    values of :func:`conjugated_cone_residual`, taken from the same Nij_M table."""
    frame = s.frame
    cone = ConeChart.over(s.chart)
    cmembers = cone_plus_frame(cone, frame.e10, s.Eplus, s.Eminus, conjugated=True)
    k = len(frame.e10)

    pts = np.asarray(base_points, dtype=float)
    cpts = cone_points(pts, ts)
    gaps, nij_m, vals = _rcone_gaps(frame, pts)
    em = vals[-1]
    rcone = triple_max(gaps, len(pts))
    per_sub = l_nij_max(frame, pts)[1]

    # cone tables as (P, T) arrays, base point major like cpts; scale is e^-t per column
    shape = (len(pts), len(ts))
    nij_c = frame_nij([m.jet(cpts, 1) for m in cmembers], cone.dim)
    scale = np.array([np.exp(-t) for t in ts])
    rows = {name: np.zeros(shape) for name in ("id1", "id2", "id3", "id4")}
    agreement = np.zeros(shape)
    for tri, lhs in nij_c.items():
        lhs = lhs.reshape(shape)
        i, j, l = tri
        if l < k:
            name, rhs = "id1", nij_m[tri]
        elif l == k:
            name, rhs = "id2", nij_m[tri] - 1j * gta.pair_minus(vals[i], vals[j])
        elif j < k:
            name, rhs = "id3", nij_m[tri]
        else:
            name, rhs = "id4", nij_m[tri] - 1j * gta.pair_minus(em, vals[i])
        rows[name] = np.maximum(rows[name], cabs(lhs - scale * rhs[:, None]))
        agreement = np.maximum(agreement, np.abs(cabs(lhs) / scale - gaps[tri][:, None]))

    rep = ResidualReport()
    for name, worst in rows.items():
        rep.add(f"crosscheck.{name}", worst.ravel(), cpts, tol)
    rep.add("crosscheck.two_route_agreement", agreement.ravel(), cpts, tol)
    gated = tol if rcone.max() < INT_TOL else None
    rep.add("crosscheck.subframe_nij", per_sub, base_points, gated)
    return rcone, rep


# -- classical normality and the Sasakian criterion ---------------------------------


def classical_cone_i(acs: AlmostContactMetric, cone: ConeChart) -> MatrixField:
    """I = phi + eta (x) d/dt - dt (x) xi on TC(M)."""
    n = acs.chart.dim
    N = cone.dim

    def fn(p, order):
        return (J.extend_vars(base_jet(acs.phi, p, order), N, (N, N), (slice(n), slice(n)))
                + J.extend_vars(-base_jet(acs.xi, p, order), N, (N, N), (slice(n), n))
                + J.extend_vars(base_jet(acs.eta, p, order), N, (N, N), (n, slice(n))))

    return MatrixField(cone, fn)


def normality_residual(acs: AlmostContactMetric, base_points,
                       ts=DEFAULT_TS) -> Tuple[List[float], np.ndarray]:
    """Max norm of N(X, Y) = [IX, IY] - I[IX, Y] - I[X, IY] - [X, Y] per cone point.

    X, Y run over coordinate pairs e_a, e_b (a < b), so [X, Y] = 0, and every
    bracket is read from one jet of I over the cone points, value m and
    gradient D[i, c, k] = d_k I^i_c (sample axis first):
    [Ie_a, Ie_b] = m[j, a] D[:, b, j] - m[j, b] D[:, a, j],
    [Ie_a, e_b] = -D[:, a, b] and [e_a, Ie_b] = D[:, b, a].  Returns the
    per-point values and the cone points they belong to.
    """
    cone = ConeChart.over(acs.chart)
    imat = classical_cone_i(acs, cone)
    cpts = cone_points(base_points, ts)
    jet = imat.jet(cpts, 1).require(1)
    m = batch_first(jet.value)
    d = np.ascontiguousarray(np.moveaxis(jet.grad, 2, 0))
    worst = np.zeros(len(cpts))
    for a, b in combinations(range(cone.dim), 2):
        t1 = (np.einsum("qj,qij->qi", m[:, :, a], d[:, :, b])
              - np.einsum("qj,qij->qi", m[:, :, b], d[:, :, a]))
        val = (t1 - (m @ -d[:, :, a, b, None])[..., 0]) - (m @ d[:, :, b, a, None])[..., 0]
        worst = np.maximum(worst, np.abs(val).max(axis=1))
    return worst.tolist(), cpts


def normality_check(acs: AlmostContactMetric, base_points, tol: float = DEFAULT_TOL,
                    ts=DEFAULT_TS) -> ResidualReport:
    rep = ResidualReport()
    vals, cpts = normality_residual(acs, base_points, ts)
    rep.add("normality.nijenhuis", vals, cpts, tol)
    return rep


def sasakian_criterion(acs: AlmostContactMetric, points, tol: float = DEFAULT_TOL) -> ResidualReport:
    rep = ResidualReport()
    diff = acs.theta - F.d(acs.eta)
    rep.add("sasakian.theta_minus_deta", sup_norm(stack_values(diff, points)), points, tol)
    return rep


# -- the pair conditions for normal structures with a shared metric -------------------


def vaisman_conditions(plus: AlmostContactMetric, minus: AlmostContactMetric,
                       points, tol: float = DEFAULT_TOL) -> ResidualReport:
    """The three pair conditions: matched Lie derivatives of the fundamental
    forms, the criterion defect, and the twisted-derivative balance."""
    if plus.g is None or minus.g is None:
        raise ValueError("both structures need metrics")
    rep = ResidualReport()
    gdiff = sup_norm(stack_values(plus.g, points) - stack_values(minus.g, points))
    rep.add("vaisman.same_metric", gdiff, points, tol)

    th_p, th_m = plus.theta, minus.theta
    l_p = F.lie_derivative(plus.xi, th_p)
    l_m = F.lie_derivative(minus.xi, th_m)
    c1 = l_p + l_m
    rep.add("vaisman.lie_transport", sup_norm(stack_values(c1, points)), points, tol)

    for tag, acs, th, l1 in (("plus", plus, th_p, l_p), ("minus", minus, th_m, l_m)):
        c2 = th - F.d(acs.eta) + 0.25 * F.lie_derivative(acs.xi, l1)
        c3 = F.d(th) - F.wedge12(acs.eta, l1) - 0.5 * F.c_transform(F.d(l1), acs.phi)
        for name, c in (("criterion_defect", c2), ("derivative_balance", c3)):
            rep.add(f"vaisman.{name}_{tag}", sup_norm(stack_values(c, points)), points, tol)
    return rep


# -- the generalized Sasakian verdict --------------------------------------------------


def generalized_sasakian_check(m: Gacm, base_points, tol: float = INT_TOL,
                               ts=DEFAULT_TS) -> ResidualReport:
    """Both R-conjugated cone structures of (Phi, E+-) and (G Phi, G E+-) integrable."""
    rep = ResidualReport()
    for tag, s in (("phi", m.gacs), ("gphi", dual_gacm(m).gacs)):
        rcone, cross = _cone_crosscheck(s, base_points, tol, ts)
        rep.add(f"gsas.{tag}.rcone_condition.residual", rcone, base_points, tol)
        rep.extend(cross, prefix=f"gsas.{tag}.")
    return rep
