"""Generalized (almost) contact structures on a chart and their checkers.

Checkers never raise on mathematical failure: they return a
:class:`~gencontact.report.ResidualReport` whose rows carry max/mean
residuals over the sampled points.  Each checker evaluates a field once over
its whole point set and computes the residuals as arrays over the sample
axis.  Constructors validate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fields as F
from . import gta
from . import jets as J
from .charts import Chart
from .fields import (
    GtEndoField,
    MatrixField,
    OneFormField,
    ScalarField,
    SectionField,
    TwoFormField,
    VectorField,
)
from .report import ResidualReport, stack_values, sup_norm

DEFAULT_TOL = 1e-8
INT_TOL = 1e-7  # integrability: Nijenhuis and Courant residuals
PIVOT_TOL = 1e-6


class StructureError(ValueError):
    """A structure's data is invalid at a sample point (found while evaluating it)."""


# -- structure records --------------------------------------------------------


@dataclass(frozen=True)
class AlmostContactMetric:
    """Classical (phi, xi, eta) triple, optionally with a compatible metric."""

    chart: Chart
    phi: MatrixField
    xi: VectorField
    eta: OneFormField
    g: Optional[MatrixField] = None

    @property
    def theta(self) -> TwoFormField:
        """The fundamental 2-form theta(X, Y) = g(X, phi Y)."""
        if self.g is None:
            raise ValueError("structure has no metric")
        g, phi = self.g, self.phi
        return TwoFormField(
            self.chart, lambda p, o: J.jet_einsum("ik,kj->ij", g.jet(p, o), phi.jet(p, o)))

    def flipped(self) -> "AlmostContactMetric":
        return AlmostContactMetric(self.chart, -self.phi, self.xi, self.eta, self.g)


@dataclass(frozen=True)
class Gacs:
    chart: Chart
    Phi: GtEndoField
    Eplus: SectionField
    Eminus: SectionField

    @cached_property
    def frame(self) -> "EigenFrame":
        """The default :func:`eigenframe`, built on first use and kept with the structure."""
        return eigenframe(self)


@dataclass(frozen=True)
class FGacs:
    """Generalized f-almost contact structure (Phi^f, E+^f, E-^f, f)."""

    chart: Chart
    Phi: GtEndoField
    Eplus: SectionField
    Eminus: SectionField
    f: ScalarField

    @staticmethod
    def of_gacs(s: Gacs) -> "FGacs":
        return FGacs(s.chart, s.Phi, s.Eplus, s.Eminus, F.constant(s.chart, 0))

    def as_gacs(self) -> Gacs:
        return Gacs(self.chart, self.Phi, self.Eplus, self.Eminus)


@dataclass(frozen=True)
class GeneralizedMetric:
    chart: Chart
    endo: GtEndoField
    g: Optional[MatrixField] = None
    b: Optional[TwoFormField] = None


@dataclass(frozen=True)
class Gacm:
    gacs: Gacs
    metric: GeneralizedMetric

    @property
    def chart(self) -> Chart:
        return self.gacs.chart

    @property
    def Phi(self) -> GtEndoField:
        return self.gacs.Phi

    @property
    def Eplus(self) -> SectionField:
        return self.gacs.Eplus

    @property
    def Eminus(self) -> SectionField:
        return self.gacs.Eminus

    @property
    def G(self) -> GtEndoField:
        return self.metric.endo


@dataclass
class EigenFrame:
    """Chart-wide frame of the +i eigenbundle plus the kernel sections.

    :meth:`nij` holds the Nijenhuis table of ``members`` = e10 + (E+, E-)
    over the last point set it was asked for, in a one-slot memo keyed like
    :class:`~gencontact.fields.Field`'s, so the frame checks of a structure
    share one table.  It holds every L+ and L- triple (:meth:`l_nij`).
    """

    e10: Tuple[SectionField, ...]
    eplus: SectionField
    eminus: SectionField
    pivots: Tuple[int, ...]
    _nij: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def l_plus(self) -> Tuple[SectionField, ...]:
        return self.e10 + (self.eplus,)

    @property
    def l_minus(self) -> Tuple[SectionField, ...]:
        return self.e10 + (self.eminus,)

    @property
    def members(self) -> Tuple[SectionField, ...]:
        return self.e10 + (self.eplus, self.eminus)

    def nij(self, points) -> Dict[Tuple[int, int, int], np.ndarray]:
        """:func:`frame_nij` of ``members`` over the points ``(P, n)``."""
        pts = np.asarray(points, dtype=float)
        key = (pts.shape[:-1], pts.tobytes())
        if self._nij is None or self._nij[0] != key:
            jets = [m.jet(pts, 1) for m in self.members]
            self._nij = (key, frame_nij(jets, self.eplus.chart.dim))
        return self._nij[1]

    def l_nij(self, points):
        """The :func:`frame_nij` tables of ``l_plus`` and ``l_minus``, read from :meth:`nij`.

        L+ keeps the triples without E-; L- keeps those without E+ and gives
        E- the index of E+.
        """
        k = len(self.e10)
        table = self.nij(points)
        plus = {tri: v for tri, v in table.items() if k + 1 not in tri}
        minus = {tuple(min(i, k) for i in tri): v for tri, v in table.items() if k not in tri}
        return plus, minus


# -- classical checkers ---------------------------------------------------------


def acms_check(acs: AlmostContactMetric, points) -> ResidualReport:
    """eta(xi) = 1, phi^2 = -id + xi (x) eta, and metric compatibility."""
    n = acs.chart.dim
    rep = ResidualReport()
    phi = stack_values(acs.phi, points)
    xi = stack_values(acs.xi, points)
    eta = stack_values(acs.eta, points)
    unit = (eta[:, None, :] @ xi[:, :, None])[:, 0, 0]
    rep.add("acs.unit", np.abs(unit - 1.0), points, DEFAULT_TOL)
    square = phi @ phi + np.eye(n) - xi[:, :, None] * eta[:, None, :]
    rep.add("acs.square", sup_norm(square), points, DEFAULT_TOL)
    if acs.g is not None:
        g = stack_values(acs.g, points)
        compat = np.swapaxes(phi, 1, 2) @ g @ phi - g + eta[:, :, None] * eta[:, None, :]
        rep.add("acs.metric_symmetric", sup_norm(g - np.swapaxes(g, 1, 2)), points, DEFAULT_TOL)
        rep.add("acs.metric_compatible", sup_norm(compat), points, DEFAULT_TOL)
    return rep


# -- constructors ---------------------------------------------------------------


def require_real(field: F.Field, points, name: str):
    """Refuse a field whose jet is not real and finite at one of the points.

    The whole order-2 jet is tested, since the checks differentiate the data
    of a structure up to twice.  Raises :class:`StructureError` naming the
    first such point.
    """
    pts = np.asarray(points, dtype=float)
    jet = field.at(pts)
    axis = jet.value.ndim - 1  # the sample axis, after the components
    bad = np.zeros(len(pts), dtype=bool)
    for part in (jet.value, jet.grad, jet.hess):
        if part is not None:
            flags = ~np.isfinite(part) | (part.imag != 0)
            bad |= np.moveaxis(flags, axis, 0).reshape(len(pts), -1).any(axis=1)
    if bad.any():
        raise StructureError(f"{name} is not real and finite at {pts[np.argmax(bad)].tolist()}")


def gacs_from_acs(acs: AlmostContactMetric, check_points=None) -> Gacs:
    """Example-3.3 lift: Phi = diag(phi, -phi*), E+ = xi, E- = eta."""
    chart = acs.chart
    if check_points is not None:
        rep = acms_check(acs, check_points)
        if not rep.passed:
            raise ValueError(f"input fails the almost-contact axioms:\n{rep.summary()}")
    zero = F.matrix_field(chart, [[F.constant(chart, 0)] * chart.dim for _ in range(chart.dim)])
    phi_star = acs.phi.transpose()
    Phi = F.endo_from_blocks(acs.phi, zero, zero, -phi_star)
    return Gacs(chart, Phi, F.section(vec=acs.xi), F.section(form=acs.eta))


def reeb_field(eta: OneFormField) -> VectorField:
    """The unique xi with i_xi d(eta) = 0 and eta(xi) = 1, via rho^-1."""
    chart = eta.chart

    def fn(p, order):
        rho = _rho_jet(eta, p, order)
        return J.jet_einsum("ij,j->i", J.jet_inv(rho), -eta.jet(p, order))

    return VectorField(chart, fn)


def _rho_jet(eta: OneFormField, p, order: int) -> J.JetArray:
    """Matrix jet of rho(X) = i_X d(eta) - eta(X) eta (column-vector action)."""
    deta = F.d_jet(eta.jet(p, order + 1), 1)
    ej = eta.jet(p, order)
    pmat = deta - J.jet_einsum("i,j->ij", ej, ej)  # rows: input slot
    return F._jT(pmat)


def contact_volume(eta: OneFormField, point) -> complex:
    """Coefficient of eta ^ (d eta)^k against the coordinate volume form."""
    n = eta.chart.dim
    if n % 2 != 1:
        raise ValueError("contact charts must be odd-dimensional")
    k = (n - 1) // 2
    ev = eta.values(point)
    dv = F.d(eta).values(point)
    total = 0.0 + 0.0j
    from itertools import permutations

    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        term = ev[perm[0]]
        for m in range(k):
            term = term * dv[perm[1 + 2 * m], perm[2 + 2 * m]]
        total += sign * term
    # normalisation: eta ^ (d eta)^k in determinant convention double counts
    # each d eta slot pair; report the raw antisymmetrised coefficient
    return complex(total)


def _perm_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def gacs_from_contact(eta: OneFormField, check_points=None) -> Gacs:
    """Example-3.4 lift of a contact form: Phi = (0, pi; d eta, 0), E+ = eta, E- = xi."""
    chart = eta.chart
    n = chart.dim
    if n % 2 != 1:
        raise ValueError("contact structures need an odd-dimensional chart")
    if check_points is not None:
        require_real(eta, check_points, "eta")
        # det(rho) = -vol^2 / (2^k k!)^2 with vol the contact_volume coefficient,
        # so this one test also rejects every point where eta ^ (d eta)^k vanishes
        pts = np.asarray(check_points, dtype=float)
        rho = _rho_jet(eta, pts, 0).value
        degenerate = np.abs(np.linalg.det(np.moveaxis(rho, (0, 1), (-2, -1)))) < 1e-10
        if degenerate.any():
            raise ValueError(
                f"eta is not contact at {pts[np.argmax(degenerate)]}: rho is degenerate")

    def phi_fn(p, order):
        deta = F.d_jet(eta.jet(p, order + 1), 1)
        rho_inv = J.jet_inv(_rho_jet(eta, p, order))
        # pi(alpha, beta) = d eta(rho^-1 alpha, rho^-1 beta).  The bivector
        # and 2-form blocks of the structure matrix contract in the second
        # slot, (TC alpha)^j = pi(dx^j, alpha) and (CT X)_j = d eta(dx_j, X):
        # the opposite sign from the i_X convention of e^B.  This is forced:
        # the +-Phi ambiguity is invisible to every axiom, and only this
        # orientation makes the cone lift of the warped Kaehler example
        # integrable alongside Psi's displayed block matrix.
        pi = J.jet_einsum("kl,ki->il", deta, rho_inv)
        pi = J.jet_einsum("il,lj->ij", pi, rho_inv)
        zero = J.lift(np.zeros((n, n)), n, order, p.shape[:-1])
        return F.block_jet(zero, -F._jT(pi), -F._jT(deta), zero)

    Phi = GtEndoField(chart, phi_fn)
    return Gacs(chart, Phi, F.section(form=eta), F.section(vec=reeb_field(eta)))


def metric_block(gj: J.JetArray) -> J.JetArray:
    """The generalized metric (0, g^-1; g, 0) of a metric jet g."""
    n = gj.value.shape[0]
    zero = J.lift(np.zeros((n, n)), gj.nvars, gj.order, gj.value.shape[2:])
    return F.block_jet(zero, J.jet_inv(gj), gj, zero)


def gmetric_from_gb(g: MatrixField, b: Optional[TwoFormField] = None) -> GeneralizedMetric:
    """G(g, b) = e^b (0, g^-1; g, 0) e^-b for a Riemannian g and 2-form b."""
    chart = g.chart
    n = chart.dim
    if b is None:
        b = F.zero_two_form(chart)

    def fn(p, order):
        gj = g.jet(p, order)
        gval = np.moveaxis(gj.value, (0, 1), (-2, -1)).reshape(-1, n, n)
        pts = p.reshape(-1, n)
        asym = np.abs(gval - np.swapaxes(gval, -1, -2)).max(axis=(-2, -1)) > 1e-10
        if asym.any():
            raise StructureError(f"metric must be symmetric at {pts[np.argmax(asym)].tolist()}")
        indefinite = np.linalg.eigvalsh(gval.real).min(axis=-1) <= 0
        if indefinite.any():
            raise StructureError(
                f"metric must be positive definite at {pts[np.argmax(indefinite)].tolist()}")
        return metric_block(gj)

    (endo,) = F.b_action(b, GtEndoField(chart, fn))
    return GeneralizedMetric(chart, endo, g=g, b=b)


def b_transform(s: Gacs, b: TwoFormField) -> Gacs:
    """(e^B Phi e^-B, e^B E+, e^B E-): closed under the Gacs axioms for any smooth B."""
    return Gacs(s.chart, *F.b_action(b, s.Phi, s.Eplus, s.Eminus))


def b_transform_gacm(m: Gacm, b: TwoFormField) -> Gacm:
    G, phi, eplus, eminus = F.b_action(b, m.G, m.Phi, m.Eplus, m.Eminus)
    return Gacm(Gacs(m.chart, phi, eplus, eminus), GeneralizedMetric(m.chart, G))


# -- generalized checkers -------------------------------------------------------


def gacs_residuals(phi, ep, em, f=0.0):
    """Skew, square, normalization and isotropy residuals per point.

    Takes (P, 2n, 2n) and (P, 2n) value stacks and f (0 for a Gacs); the
    generalized f-structure axioms reduce to Def 3.1 at f = 0.
    """
    eye = np.eye(phi.shape[-1])
    skew = sup_norm(phi + gta.adjoint(phi))
    square = sup_norm(phi @ phi - (-eye + gta.tensor_pair(ep, em) + gta.tensor_pair(em, ep)))
    norm = np.abs(2 * gta.pair(ep, em) - 1.0 - f * f)
    iso = np.maximum(np.abs(gta.pair(ep, ep)), np.abs(gta.pair(em, em)))
    return skew, square, norm, iso


def gacs_check(s: Gacs, points) -> ResidualReport:
    """Skewness, normalization, isotropy and the square identity of Def 3.1."""
    rep = ResidualReport()
    skew, square, norm, iso = gacs_residuals(
        stack_values(s.Phi, points), stack_values(s.Eplus, points), stack_values(s.Eminus, points)
    )
    rep.add("gacs.skew", skew, points, DEFAULT_TOL)
    rep.add("gacs.normalization", norm, points, DEFAULT_TOL)
    rep.add("gacs.isotropy", iso, points, DEFAULT_TOL)
    rep.add("gacs.square", square, points, DEFAULT_TOL)
    return rep


def phi_kernel_check(s: Gacs, points) -> ResidualReport:
    """Phi(E+) = Phi(E-) = 0, an axiom consequence for every valid structure."""
    rep = ResidualReport()
    phi = stack_values(s.Phi, points)
    for name, sec in (("gacs.phi_eplus", s.Eplus), ("gacs.phi_eminus", s.Eminus)):
        rep.add(name, sup_norm(gta.apply(phi, stack_values(sec, points))), points, DEFAULT_TOL)
    return rep


def phi_cube_check(s: Gacs, points) -> ResidualReport:
    rep = ResidualReport()
    phi = stack_values(s.Phi, points)
    rep.add("gacs.phi_cubed", sup_norm(phi @ phi @ phi + phi), points, 1e-9)
    return rep


def gmetric_check(metric: GeneralizedMetric, points, probes: int = 200,
                  seed: int = 23) -> ResidualReport:
    """G* = G, G^2 = id, and Monte-Carlo positivity of <G A, A>."""
    n = metric.chart.dim
    rep = ResidualReport()
    rng = np.random.default_rng(seed)
    probe_vecs = rng.normal(size=(probes, 2 * n))
    g = stack_values(metric.endo, points)
    rep.add("gmetric.symmetric", sup_norm(g - gta.adjoint(g)), points, DEFAULT_TOL)
    rep.add("gmetric.square", sup_norm(g @ g - np.eye(2 * n)), points, DEFAULT_TOL)
    rep.add("gmetric.positivity", [max(0.0, -min_pairing(g, probe_vecs))], None, 1e-12)
    return rep


def min_pairing(endo: np.ndarray, probe_vecs: np.ndarray) -> float:
    """Min of Re <G A, A> over the probe vectors A and a (P, 2n, 2n) stack of G."""
    quad = np.einsum("ai,pij,aj->pa", probe_vecs, gta.pairing_gram(endo), probe_vecs)
    return float(quad.real.min())


def gacm_check(m: Gacm, points) -> ResidualReport:
    """Def 3.12: -Phi G Phi = G - E+ (x) E+ - E- (x) E-, plus metric axioms.

    The commutation Phi G = G Phi and the swaps G E+- = E-+ are reported as
    informational probes (no pass/fail), per the open question on whether
    they follow from the definition.
    """
    rep = gacs_check(m.gacs, points)
    rep.extend(gmetric_check(m.metric, points))
    phi = stack_values(m.Phi, points)
    g = stack_values(m.G, points)
    ep = stack_values(m.Eplus, points)
    em = stack_values(m.Eminus, points)
    compat = -(phi @ g @ phi) - (g - gta.tensor_pair(ep, ep) - gta.tensor_pair(em, em))
    swap = np.maximum(sup_norm(gta.apply(g, ep) - em), sup_norm(gta.apply(g, em) - ep))
    rep.add("gacm.compatibility", sup_norm(compat), points, DEFAULT_TOL)
    rep.add("gacm.probe_phi_g_commute", sup_norm(phi @ g - g @ phi), points, None)
    rep.add("gacm.probe_g_swaps_e", swap, points, None)
    return rep


def dual_gacm(m: Gacm, points=None) -> Gacm:
    """The companion structure (G, G Phi, G E+, G E-)."""
    if points is not None:
        rep = gacm_check(m, points)
        comm = rep["gacm.probe_phi_g_commute"].max_residual
        if not rep.passed or comm > 1e-6:
            raise ValueError(
                f"dual_gacm needs a valid Gacm with Phi G = G Phi (probe {comm:.2e})"
            )
    g = m.G
    dual = Gacs(m.chart, g @ m.Phi, g.apply(m.Eplus), g.apply(m.Eminus))
    return Gacm(dual, m.metric)


# -- eigenframe and involutivity ------------------------------------------------


def eigenframe(s: Gacs, base_point=None, sample_points=None) -> EigenFrame:
    """Chart-wide frame of E^(1,0) by pivoting projected coordinate sections.

    The projector A -> A - 2<A,E->E+ - 2<A,E+>E- kills the E+- components,
    then (1 - i Phi)/2 projects onto the +i eigenbundle.  A maximal
    independent subset of the 2n candidates is chosen once, at the base
    point, and the same columns are reused across the chart.

    Each call builds a new frame, with fresh members and no Nijenhuis table.
    The checks read ``s.frame`` instead: the default frame, built by this
    function once per structure and kept with it.
    """
    chart = s.chart
    n = chart.dim
    if base_point is None:
        base_point = chart.sample(seed=0, count=1)[0]

    candidates = eigen_candidates(
        s.Phi, [_project_out_kernel(s, u) for u in F.coordinate_sections(chart)])

    pivots = pivoted_frame(candidates, base_point, n - 1,
                           "eigenframe rank dropped to {} (< {}) at the base point")
    frame = EigenFrame(
        e10=tuple(candidates[i] for i in pivots),
        eplus=s.Eplus,
        eminus=s.Eminus,
        pivots=tuple(pivots),
    )
    if sample_points is not None:
        pts = np.asarray(sample_points, dtype=float)
        cols = np.stack([stack_values(c, pts) for c in frame.e10], axis=-1)
        low = np.linalg.matrix_rank(cols, tol=PIVOT_TOL) < n - 1
        if low.any():
            raise ValueError(f"eigenframe rank drops below {n - 1} at {pts[np.argmax(low)]}")
    return frame


def _project_out_kernel(s: Gacs, u: SectionField) -> SectionField:
    cp = F.pair_field(u, s.Eminus)
    cm = F.pair_field(u, s.Eplus)
    return u - 2 * (cp * s.Eplus) - 2 * (cm * s.Eminus)


def eigen_candidates(endo: GtEndoField, sections) -> List[SectionField]:
    """(1 - i P)/2 applied to each section: the projections onto the +i
    eigenbundle of P, from which a frame is pivoted."""
    return [0.5 * (u - 1j * endo.apply(u)) for u in sections]


def pivoted_frame(candidates: Sequence[SectionField], point, want: int,
                  shortfall: str) -> List[int]:
    """Pivot columns of the candidates' values at a point, ``want`` of them.

    Raises ``ValueError(shortfall.format(found, want))`` when fewer pass the
    conditioning floor.
    """
    mat = np.stack([c.values(point) for c in candidates], axis=1)
    cols = _pivot_columns(mat, want)
    if len(cols) < want:
        raise ValueError(shortfall.format(len(cols), want))
    return cols


def _pivot_columns(mat: np.ndarray, want: int) -> List[int]:
    """Greedy modified Gram-Schmidt column selection with a conditioning floor."""
    m = mat.astype(complex).copy()
    cols = []
    for _ in range(want):
        norms = np.linalg.norm(m, axis=0)
        k = int(np.argmax(norms))
        if norms[k] < PIVOT_TOL:
            break
        cols.append(k)
        q = m[:, k] / norms[k]
        m -= np.outer(q, np.conj(q) @ m)
        m[:, k] = 0.0
    return sorted(cols)


def frame_span_check(s: Gacs, frame: EigenFrame, point) -> int:
    """Rank of e10 + conj(e10) + kernel at a point (should be 2n)."""
    cols = [c.values(point) for c in frame.e10]
    cols += [np.conj(c) for c in cols]
    cols += [frame.eplus.values(point), frame.eminus.values(point)]
    return int(np.linalg.matrix_rank(np.stack(cols, axis=1), tol=1e-8))


def frame_nij(jets: Sequence[J.JetArray], n: int) -> Dict[Tuple[int, int, int], np.ndarray]:
    """Nij(A,B,C) for every i<j<k triple of a frame's jets, as arrays over the batch.

    Nij is exactly antisymmetric on isotropic frames, so repeated-member
    triples vanish identically and the sorted triples determine the rest.
    Only the values are read, so order-1 member jets suffice.  They are
    stacked along a member axis after the component axis, and one
    ``courant_jets`` call brackets every ordered pair at every point.  The
    triples are read from ``P[p, q, r] = <[[A_p, A_q]], A_r>`` in the order
    of ``nij_jets``.
    """
    m = len(jets)
    if m < 3:
        return {}
    frame = J.stack(jets, axis=1)
    brackets = F.courant_jets(frame[:, :, None], frame[:, None, :], n).value
    P = 0.5 * np.einsum("ipq...,ir...->pqr...", gta.swap(brackets, 0), frame.value)
    triples = list(combinations(range(m), 3))
    i, j, k = np.array(triples).T
    values = (1.0 / 3.0) * ((P[i, j, k] + P[j, k, i]) + P[k, i, j])
    return dict(zip(triples, values))


def cabs(z: np.ndarray) -> np.ndarray:
    """|z| as hypot(Re z, Im z): the rounding of ``abs`` on one complex number.

    numpy's vectorised complex ``abs`` may differ from it in the last bit, so
    the Nijenhuis tables use this to give the same residuals over a batch as
    at one point.
    """
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def triple_max(table: Dict[Tuple[int, int, int], np.ndarray], count: int) -> np.ndarray:
    """Per-point max of |entry| over a table of per-triple arrays (zeros if empty)."""
    if not table:
        return np.zeros(count)
    return cabs(np.stack(list(table.values()))).max(axis=0)


def max_nij_over_frame(members: Sequence[SectionField], points) -> Tuple[float, np.ndarray]:
    """Max |Nij(A,B,C)| over distinct frame triples, overall and per sample point."""
    pts = np.asarray(points, dtype=float)
    if len(members) < 3:
        return 0.0, np.zeros(len(pts))
    n = members[0].chart.dim
    per_point = triple_max(frame_nij([mm.jet(pts, 1) for mm in members], n), len(pts))
    return float(per_point.max()), per_point


def involutivity_class(s: Gacs, points, tol: float = INT_TOL):
    """Classify Courant involutivity of L+ and L-: strong / contact(+-) / none."""
    rep = ResidualReport()
    per_plus, per_minus = l_nij_max(s.frame, points)
    rep.add("involutivity.l_plus", per_plus, points, tol)
    rep.add("involutivity.l_minus", per_minus, points, tol)
    plus, minus = per_plus.max(), per_minus.max()
    if plus < tol and minus < tol:
        label = "strong"
    elif plus < tol:
        label = "contact(+)"
    elif minus < tol:
        label = "contact(-)"
    else:
        label = "none"
    return label, rep


def l_nij_max(frame: EigenFrame, points) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point max |Nij| over the L+ and over the L- triples of a frame."""
    count = len(np.asarray(points))
    return tuple(triple_max(table, count) for table in frame.l_nij(points))
