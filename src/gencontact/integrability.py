"""Integrability and Sasakian-type condition checkers.

The cone-side checks evaluate Courant brackets of explicit sections, so
every identity from the R-conjugation computation (the e^-t factors and
the i/2 correction terms) is verified directly rather than assumed.
"integrable" always means: max residual below tolerance over the seeded
sample set and all frame triples, and reports carry the raw residuals.
Each frame member is evaluated once per structure: the checks of a Gacs
read its one eigenframe (``Gacs.frame``) and that frame's Nijenhuis table
(``EigenFrame.table``), whose values are one ``(*B, T)`` array over the
triple index :func:`~gencontact.structures.triples`, read from two batched
matmuls of the members' order-1 jets
(:func:`~gencontact.structures.frame_nij`).  Sub-frames and
identity classes are masks on the triple axis of a table, and right-hand
sides are array expressions over the triple index, read from one pairing
table of the members that takes each minus pairing once per unordered
pair.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import fields as F
from . import gta
from . import jets as J
from .charts import ConeChart
from .cone import DEFAULT_TS, base_jet, cone_plus_frame, cone_points
from .fields import MatrixField
from .report import ResidualReport, sup_norm
from .structures import (
    DEFAULT_TOL,
    INT_TOL,
    AlmostContactMetric,
    EigenFrame,
    Gacs,
    cabs,
    l_nij_max,
    max_nij_over_frame,
    nij_table,
    row_max,
    require_metric,
    triples,
)


# -- plain-cone integrability equals strongness -------------------------------------


def plain_cone_check(s: Gacs, base_points, tol: Optional[float] = None) -> ResidualReport:
    """Integrability of Phi + Psi equals strongness plus [[E+, E-]] = 0.

    Reports (a) L+- involutivity residuals, (b) |[[E+, E-]]|, (c) the direct
    Nijenhuis residual of the +i cone frame of Phi + Psi, and asserts the
    two verdicts agree.  ``tol`` (``INT_TOL`` when None) gates the rows and
    decides both verdicts, so it changes ``verdict_agreement`` too.
    """
    tol = INT_TOL if tol is None else tol
    frame = s.frame
    rep = ResidualReport()
    per_plus, per_minus = l_nij_max(frame, base_points)
    rep.add("plain_cone.l_plus_nij", per_plus, base_points, tol)
    rep.add("plain_cone.l_minus_nij", per_minus, base_points, tol)

    bracket = F.courant(s.Eplus, s.Eminus)
    per_bracket = sup_norm(bracket.values(base_points))
    rep.add("plain_cone.e_plus_minus_bracket", per_bracket, base_points, tol)

    cone = ConeChart.over(s.chart)
    members = cone_plus_frame(cone, frame.e10, s.Eplus, s.Eminus, conjugated=False)
    cpts = cone_points(base_points)
    direct, per_direct = max_nij_over_frame(members, cpts)
    rep.add("plain_cone.cone_frame_nij", per_direct, cpts, tol)

    lhs_pass = max(per_plus.max(), per_minus.max(), per_bracket.max()) < tol
    rhs_pass = direct < tol
    rep.add("plain_cone.verdict_agreement", [0.0 if lhs_pass == rhs_pass else 1.0], None, 0.5)
    return rep


# -- the conjugated-cone integrability condition on M --------------------------------


def conjugated_cone_residual(s: Gacs, base_points) -> ResidualReport:
    """|Nij_M(A,B,C) - RHS| over the frame of E^(1,0) + L_{E+} + L_{E-}."""
    gaps = _rcone_gaps(s.frame, np.asarray(base_points, dtype=float))[0]
    rep = ResidualReport()
    rep.add("rcone_condition.residual", row_max(gaps), base_points, INT_TOL)
    return rep


def _rcone_gaps(frame: EigenFrame, pts: np.ndarray):
    """(|Nij_M - RHS|, Nij_M, RHS, pm) of the M frame, the first three ``(P, T)``.

    RHS = 2i (<E-,A><B,C>_- + <E-,B><C,A>_- + <E-,C><A,B>_-) for the rows
    (A, B, C) of the triple index, read from the pairing tables of the m
    members, E- last: pe[p] = <E-, A_p>, one pairing call over the stacked
    members, and pm[p, q] = <A_p, A_q>_-, shape (m, m, P), one minus pairing
    call over the pairs p < q, mirrored by negation, which is exact
    (fl(x - y) = -fl(y - x)); the diagonal is never read.
    """
    nij_m = frame.table.values(pts)
    vals = np.stack([m.values(pts) for m in frame.members])
    pe = gta.pair(vals[-1], vals)
    first, second = np.triu_indices(len(vals), 1)
    pm = np.zeros((len(vals),) + pe.shape, dtype=complex)
    pm[first, second] = gta.pair_minus(vals[first], vals[second])
    pm[second, first] = -pm[first, second]
    i, j, k = triples(len(vals)).T
    rhs = (2j * (pe[i] * pm[j, k] + pe[j] * pm[k, i] + pe[k] * pm[i, j])).T
    return cabs(nij_m - rhs), nij_m, rhs, pm


# -- the cone cross-check (R-conjugation bracket identities) ------------------------


def cone_crosscheck(s: Gacs, base_points) -> ResidualReport:
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
    cone points; every row reads from the values of those two tables,
    ``(*B, T)`` arrays, and each identity is a mask of the triple index.
    """
    return _cone_crosscheck(s, base_points)[1]


def _identity_rows(m: int) -> Dict[str, np.ndarray]:
    """The id1-id4 triple masks of a cone table of m members, F+ and F- last:
    no F+-, F+ but not F-, F- but not F+, and both."""
    _, j, l = triples(m).T
    k = m - 2
    return {"id1": l < k, "id2": l == k, "id3": (l > k) & (j < k), "id4": j == k}


def _cone_crosscheck(s: Gacs, base_points):
    """(rcone, report) of :func:`cone_crosscheck`; rcone holds the per-point
    values of :func:`conjugated_cone_residual`, taken from the same Nij_M table.

    The cone frame lists E^(1,0), F+, F- as the M frame lists E^(1,0), E+,
    E-, so triple t of Nij_C is checked against triple t of Nij_M, and the
    four identities are the triple masks of :func:`_identity_rows`.  The id2
    and id4 corrections read <A, B>_- and <E-, A>_- from the minus pairing
    table of :func:`_rcone_gaps`, so no pairing is taken twice.
    """
    frame = s.frame
    cone = ConeChart.over(s.chart)
    cmembers = cone_plus_frame(cone, frame.e10, s.Eplus, s.Eminus, conjugated=True)

    pts = np.asarray(base_points, dtype=float)
    cpts = cone_points(pts)
    gaps, nij_m, _, pm = _rcone_gaps(frame, pts)
    rcone = row_max(gaps)
    per_sub = l_nij_max(frame, pts)[1]

    # Nij_C as (P, len(DEFAULT_TS), T), base point major like cpts; scale is e^-t per t row
    rows = _identity_rows(len(cmembers))
    lhs = nij_table(cmembers).values(cpts).reshape(len(pts), len(DEFAULT_TS), -1)
    scale = np.array([np.exp(-t) for t in DEFAULT_TS])[:, None]
    i, j, _ = triples(len(cmembers)).T
    id2, id4 = rows["id2"], rows["id4"]
    rhs = nij_m.copy()
    rhs[:, id2] -= 1j * pm[i[id2], j[id2]].T
    rhs[:, id4] -= 1j * pm[-1, i[id4]].T
    resid = cabs(lhs - scale * rhs[:, None])
    agreement = np.abs(cabs(lhs) / scale - gaps[:, None])

    rep = ResidualReport()
    for name, mask in rows.items():
        rep.add(f"crosscheck.{name}", row_max(resid[..., mask]).ravel(), cpts, INT_TOL)
    rep.add("crosscheck.two_route_agreement", row_max(agreement).ravel(), cpts, INT_TOL)
    gated = INT_TOL if rcone.max() < INT_TOL else None
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


def normality_residual(acs: AlmostContactMetric, base_points) -> Tuple[List[float], np.ndarray]:
    """Max norm of N(X, Y) = [IX, IY] - I[IX, Y] - I[X, IY] - [X, Y] per cone point.

    X, Y run over coordinate pairs e_a, e_b (a < b), so [X, Y] = 0, and every
    bracket is read from one jet of I over the cone points, value m and
    gradient D[i, c, k] = d_k I^i_c (sample axis first, read by ``jets.parts``):
    [Ie_a, Ie_b] = m[j, a] D[:, b, j] - m[j, b] D[:, a, j],
    [Ie_a, e_b] = -D[:, a, b] and [e_a, Ie_b] = D[:, b, a].  Returns the
    per-point values and the cone points they belong to.
    """
    cone = ConeChart.over(acs.chart)
    imat = classical_cone_i(acs, cone)
    cpts = cone_points(base_points)
    jet = imat.jet(cpts, 1).require(1)
    m, d = (np.ascontiguousarray(part) for part in J.parts(jet, 1))
    worst = np.zeros(len(cpts))
    for a, b in combinations(range(cone.dim), 2):
        t1 = (np.einsum("qj,qij->qi", m[:, :, a], d[:, :, b])
              - np.einsum("qj,qij->qi", m[:, :, b], d[:, :, a]))
        val = (t1 - (m @ -d[:, :, a, b, None])[..., 0]) - (m @ d[:, :, b, a, None])[..., 0]
        worst = np.maximum(worst, np.abs(val).max(axis=1))
    return worst.tolist(), cpts


def normality_check(acs: AlmostContactMetric, base_points) -> ResidualReport:
    rep = ResidualReport()
    vals, cpts = normality_residual(acs, base_points)
    rep.add("normality.nijenhuis", vals, cpts, DEFAULT_TOL)
    return rep


def sasakian_criterion(acs: AlmostContactMetric, points) -> ResidualReport:
    rep = ResidualReport()
    diff = sup_norm((acs.theta - F.d(acs.eta)).values(points))
    rep.add("sasakian.theta_minus_deta", diff, points, DEFAULT_TOL)
    return rep


# -- the pair conditions for normal structures with a shared metric -------------------


def vaisman_conditions(plus: AlmostContactMetric, minus: AlmostContactMetric,
                       points) -> ResidualReport:
    """The three pair conditions: matched Lie derivatives of the fundamental
    forms, the criterion defect, and the twisted-derivative balance."""
    if plus.g is None or minus.g is None:
        raise ValueError("both structures need metrics")
    rep = ResidualReport()
    gdiff = sup_norm(plus.g.values(points) - minus.g.values(points))
    rep.add("vaisman.same_metric", gdiff, points, DEFAULT_TOL)

    th_p, th_m = plus.theta, minus.theta
    l_p = F.lie_derivative(plus.xi, th_p)
    l_m = F.lie_derivative(minus.xi, th_m)
    c1 = l_p + l_m
    rep.add("vaisman.lie_transport", sup_norm(c1.values(points)), points, DEFAULT_TOL)

    for tag, acs, th, l1 in (("plus", plus, th_p, l_p), ("minus", minus, th_m, l_m)):
        c2 = th - F.d(acs.eta) + 0.25 * F.lie_derivative(acs.xi, l1)
        c3 = F.d(th) - F.wedge12(acs.eta, l1) - 0.5 * F.c_transform(F.d(l1), acs.phi)
        for name, c in (("criterion_defect", c2), ("derivative_balance", c3)):
            rep.add(f"vaisman.{name}_{tag}", sup_norm(c.values(points)), points, DEFAULT_TOL)
    return rep


# -- the generalized Sasakian verdict --------------------------------------------------


def generalized_sasakian_check(m: Gacs, base_points) -> ResidualReport:
    """Both R-conjugated cone structures of (Phi, E+-) and (G Phi, G E+-) integrable.

    The dual (G Phi, G E+-) is ``m.dual``, built once per metric structure, so
    repeated checks of one structure share its eigenframe and Nijenhuis tables.
    """
    require_metric(m, "generalized_sasakian_check")
    rep = ResidualReport()
    for tag, s in (("phi", m), ("gphi", m.dual)):
        rcone, cross = _cone_crosscheck(s, base_points)
        rep.add(f"gsas.{tag}.rcone_condition.residual", rcone, base_points, INT_TOL)
        rep.extend(cross, prefix=f"gsas.{tag}.")
    return rep
