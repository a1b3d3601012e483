"""Generalized (almost) contact structures on a chart and their checkers.

One record, :class:`Gacs`, holds a generalized f-almost contact structure
and its generalized metric, (Phi, E+, E-, f, metric): f = 0 is ``f = None``,
not a zero field, and no metric is ``metric = None``.  The checkers that read
the metric refuse a record without one by name (:func:`require_metric`).

Checkers never raise on mathematical failure: they return a
:class:`~gencontact.report.ResidualReport` whose rows carry max/mean
residuals over the sampled points.  Each checker evaluates a field once over
its whole point set and computes the residuals as arrays over the sample
axis.  Constructors validate their inputs.

A Nijenhuis table is one complex ``(T, *B)`` array whose row t is Nij of
triple t of :func:`triples`; :func:`nij_table` memoises it as a field with T
components, and a sub-frame's table is a row mask of its frame's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

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
class GeneralizedMetric:
    """G as an endomorphism field, with the (g, b) of :func:`gmetric_from_gb` when known."""

    endo: GtEndoField
    g: Optional[MatrixField] = None
    b: Optional[TwoFormField] = None


@dataclass(frozen=True)
class Gacs:
    """Generalized f-almost contact structure (Phi, E+, E-, f) with an optional metric.

    ``f = None`` means f = 0: a generalized almost contact structure in the
    sense of Def 3.1, which has no f to evaluate or carry.  With a ``metric``
    the record is a generalized almost contact metric structure (Def 3.12).
    """

    chart: Chart
    Phi: GtEndoField
    Eplus: SectionField
    Eminus: SectionField
    f: Optional[ScalarField] = None
    metric: Optional[GeneralizedMetric] = None

    @cached_property
    def frame(self) -> "EigenFrame":
        """The default :func:`eigenframe`, built on first use and kept with the structure."""
        return eigenframe(self)

    @cached_property
    def dual(self) -> "Gacs":
        """The unvalidated :func:`dual_gacm`, built on first use and kept with the
        structure, so its eigenframe and field memos serve every later check."""
        return dual_gacm(self)


def require_metric(s: Gacs, who: str) -> GeneralizedMetric:
    """The structure's generalized metric; a ``ValueError`` naming ``who`` when it has none."""
    if s.metric is None:
        raise ValueError(f"{who} needs a generalized metric")
    return s.metric


@dataclass
class EigenFrame:
    """Chart-wide frame of the +i eigenbundle plus the kernel sections.

    ``columns`` is the field of the ``pivots`` columns of the eigenprojector
    (:func:`eigen_projector` with ``cols``), and ``e10`` holds views of its
    columns, so every member's jet is a slice of that field's one memoised
    jet and no other column of the projector is computed.

    ``table`` is the :func:`nij_table` of ``members`` = e10 + (E+, E-), so
    the frame checks of a structure share one table per point set.  Its
    rows without E- (:attr:`plus_rows`) are the L+ table and its rows
    without E+ (:attr:`minus_rows`) the L- table, in their own row order.
    """

    columns: F.Field
    pivots: Tuple[int, ...]
    eplus: SectionField
    eminus: SectionField
    e10: Tuple[SectionField, ...] = field(init=False, repr=False, compare=False)
    table: F.Field = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.e10 = projector_columns(self.columns, range(len(self.pivots)))
        self.table = nij_table(self.members)

    @property
    def l_plus(self) -> Tuple[SectionField, ...]:
        return self.e10 + (self.eplus,)

    @property
    def l_minus(self) -> Tuple[SectionField, ...]:
        return self.e10 + (self.eminus,)

    @property
    def members(self) -> Tuple[SectionField, ...]:
        return self.e10 + (self.eplus, self.eminus)

    @property
    def plus_rows(self) -> np.ndarray:
        return (triples(len(self.members)) != len(self.e10) + 1).all(axis=1)

    @property
    def minus_rows(self) -> np.ndarray:
        return (triples(len(self.members)) != len(self.e10)).all(axis=1)


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

    def phi_fn(p, order):
        phi = acs.phi.jet(p, order)
        return F.block_jet(phi, None, None, -phi.moveaxis(0, 1))

    return Gacs(chart, GtEndoField(chart, phi_fn), F.section(vec=acs.xi), F.section(form=acs.eta))


def _reeb_fn(eta: OneFormField, rho_inv: MatrixField):
    """The Reeb field's closure xi = -rho^-1 eta (the unique xi with i_xi d(eta) = 0
    and eta(xi) = 1), reading rho^-1 from its field."""
    return lambda p, o: J.jet_einsum("ij,j->i", rho_inv.jet(p, o), -eta.jet(p, o))


def _rho_inv(eta: OneFormField) -> MatrixField:
    """rho^-1 as one field, so that Phi and the Reeb field of a lift share its jets."""
    return MatrixField(eta.chart, lambda p, o: J.jet_inv(_rho_jet(eta, p, o)))


def _rho_jet(eta: OneFormField, p, order: int) -> J.JetArray:
    """Matrix jet of rho(X) = i_X d(eta) - eta(X) eta (column-vector action)."""
    deta = F.d_jet(eta.jet(p, order + 1), 1)
    ej = eta.jet(p, order)
    pmat = deta - J.jet_einsum("i,j->ij", ej, ej)  # rows: input slot
    return pmat.moveaxis(0, 1)


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
        # so this one test also rejects every point where eta ^ (d eta)^k vanishes.
        # det(rho) = -eta^T adj(d eta) eta, so each point is judged relative to
        # max|eta|^2 max|d eta|^(n-1): the same degrees, hence the same ratio for
        # every multiple s eta, and on a Darboux chart (det = 1) the bound only
        # grows as max(1, |y|)^2.
        pts = np.asarray(check_points, dtype=float)
        rho = _rho_jet(eta, pts, 0).value
        det = np.abs(np.linalg.det(np.moveaxis(rho, (0, 1), (-2, -1))))
        bound = (1e-10 * np.abs(eta.values(pts)).max(axis=0) ** 2
                 * np.abs(F.d_jet(eta.jet(pts, 1), 1).value).max(axis=(0, 1)) ** (n - 1))
        degenerate = (det < bound) | (bound == 0)
        if degenerate.any():
            raise ValueError(
                f"eta is not contact at {pts[np.argmax(degenerate)]}: rho is degenerate")

    rho_inv_field = _rho_inv(eta)

    def phi_fn(p, order):
        deta = F.d_jet(eta.jet(p, order + 1), 1)
        rho_inv = rho_inv_field.jet(p, order)
        # pi(alpha, beta) = d eta(rho^-1 alpha, rho^-1 beta).  The bivector
        # and 2-form blocks of the structure matrix contract in the second
        # slot, (TC alpha)^j = pi(dx^j, alpha) and (CT X)_j = d eta(dx_j, X):
        # the opposite sign from the i_X convention of e^B.  This is forced:
        # the +-Phi ambiguity is invisible to every axiom, and only this
        # orientation makes the cone lift of the warped Kaehler example
        # integrable alongside Psi's displayed block matrix.
        pi = J.jet_einsum("kl,ki->il", deta, rho_inv)
        pi = J.jet_einsum("il,lj->ij", pi, rho_inv)
        return F.block_jet(None, -pi.moveaxis(0, 1), -deta.moveaxis(0, 1), None)

    Phi = GtEndoField(chart, phi_fn)
    reeb = _reeb_fn(eta, rho_inv_field)  # E- = xi, with no VectorField under the section
    eminus = SectionField(chart, lambda p, o: J.concat([reeb(p, o), None]))
    return Gacs(chart, Phi, F.section(form=eta), eminus)


def metric_block(gj: J.JetArray) -> J.JetArray:
    """The generalized metric (0, g^-1; g, 0) of a metric jet g."""
    return F.block_jet(None, J.jet_inv(gj), gj, None)


def gmetric_from_gb(g: MatrixField, b: Optional[TwoFormField] = None) -> GeneralizedMetric:
    """G(g, b) = e^b (0, g^-1; g, 0) e^-b for a Riemannian g and 2-form b; without b, the block."""
    chart = g.chart
    n = chart.dim

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

    endo = GtEndoField(chart, fn)
    if b is not None:
        (endo,) = F.b_action(b, endo)
    return GeneralizedMetric(endo, g=g, b=b)


def b_transform(s: Gacs, b: TwoFormField) -> Gacs:
    """(e^B Phi e^-B, e^B E+, e^B E-, f), and e^B G e^-B for a metric, from one e^B:
    closed under the (f-)structure axioms for any smooth B."""
    if s.metric is None:
        return Gacs(s.chart, *F.b_action(b, s.Phi, s.Eplus, s.Eminus), s.f)
    G, phi, eplus, eminus = F.b_action(b, s.metric.endo, s.Phi, s.Eplus, s.Eminus)
    return Gacs(s.chart, phi, eplus, eminus, s.f, GeneralizedMetric(G))


# -- generalized checkers -------------------------------------------------------


def gacs_residuals(phi, ep, em, f=0.0):
    """Skew, square, normalization and isotropy residuals per point.

    Takes (P, 2n, 2n) and (P, 2n) value stacks and f (0 for ``f = None``);
    the generalized f-structure axioms reduce to Def 3.1 at f = 0.
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


def gmetric_check(metric: GeneralizedMetric, points) -> ResidualReport:
    """G* = G, G^2 = id, and positivity of <G A, A>: the least eigenvalue of its Gram."""
    n = metric.endo.chart.dim
    rep = ResidualReport()
    g = stack_values(metric.endo, points)
    rep.add("gmetric.symmetric", sup_norm(g - gta.adjoint(g)), points, DEFAULT_TOL)
    rep.add("gmetric.square", sup_norm(g @ g - np.eye(2 * n)), points, DEFAULT_TOL)
    rep.add("gmetric.positivity", [max(0.0, -gta.least_pairing(g))], None, 1e-12)
    return rep


def gacm_check(m: Gacs, points) -> ResidualReport:
    """Def 3.12: -Phi G Phi = G - E+ (x) E+ - E- (x) E-, plus metric axioms.

    The commutation Phi G = G Phi and the swaps G E+- = E-+ are reported as
    informational probes (no pass/fail), per the open question on whether
    they follow from the definition.
    """
    metric = require_metric(m, "gacm_check")
    rep = gacs_check(m, points)
    rep.extend(gmetric_check(metric, points))
    phi = stack_values(m.Phi, points)
    g = stack_values(metric.endo, points)
    ep = stack_values(m.Eplus, points)
    em = stack_values(m.Eminus, points)
    compat = -(phi @ g @ phi) - (g - gta.tensor_pair(ep, ep) - gta.tensor_pair(em, em))
    swap = np.maximum(sup_norm(gta.apply(g, ep) - em), sup_norm(gta.apply(g, em) - ep))
    rep.add("gacm.compatibility", sup_norm(compat), points, DEFAULT_TOL)
    rep.add("gacm.probe_phi_g_commute", sup_norm(phi @ g - g @ phi), points, None)
    rep.add("gacm.probe_g_swaps_e", swap, points, None)
    return rep


def dual_gacm(m: Gacs, points=None) -> Gacs:
    """The companion structure (G Phi, G E+, G E-) with the same metric G."""
    metric = require_metric(m, "dual_gacm")
    if points is not None:
        rep = gacm_check(m, points)
        comm = rep["gacm.probe_phi_g_commute"].max_residual
        if not rep.passed or comm > 1e-6:
            raise ValueError(
                f"dual_gacm needs a valid metric structure with Phi G = G Phi (probe {comm:.2e})"
            )
    g = metric.endo
    return Gacs(m.chart, g @ m.Phi, g.apply(m.Eplus), g.apply(m.Eminus), metric=metric)


# -- eigenframe and involutivity ------------------------------------------------


def eigenframe(s: Gacs, sample_points=None) -> EigenFrame:
    """Chart-wide frame of E^(1,0): pivot columns of the eigenprojector.

    A maximal independent subset of the columns of :func:`eigen_projector`
    is chosen once, from the full projector's value at the chart's seed-0
    sample point, and the same columns are reused across the chart: the
    frame's members are views of one field that computes those columns only.
    Each call builds a new frame; the checks read ``s.frame``, built by this
    function once per structure.  A structure with an f is refused.
    """
    if s.f is not None:
        raise ValueError("the E^(1,0) eigenframe is defined for f = 0 (f is None) only")
    chart = s.chart
    n = chart.dim
    pivots = pivoted_frame(eigen_projector(s.Phi, s.Eplus, s.Eminus),
                           chart.sample(seed=0, count=1)[0], n - 1,
                           "eigenframe rank dropped to {} (< {}) at the base point")
    frame = EigenFrame(eigen_projector(s.Phi, s.Eplus, s.Eminus, pivots), tuple(pivots),
                       s.Eplus, s.Eminus)
    if sample_points is not None:
        pts = np.asarray(sample_points, dtype=float)
        low = np.linalg.matrix_rank(stack_values(frame.columns, pts), tol=PIVOT_TOL) < n - 1
        if low.any():
            raise ValueError(f"eigenframe rank drops below {n - 1} at {pts[np.argmax(low)]}")
    return frame


def eigen_projector(endo: GtEndoField, eplus: Optional[SectionField] = None,
                    eminus: Optional[SectionField] = None,
                    cols: Optional[Sequence[int]] = None) -> F.Field:
    """(1 - i P)/2 K, whose columns project the coordinate sections onto the
    +i eigenbundle of P.  K = 1 - E+ (x) E- - E- (x) E+ kills the E+-
    components (K = 1 on a cone, which has no kernel); the rank-one terms
    take their operands in the order of the product <A, E-> E+.

    With ``cols``, the field of those columns only, ``(2n, len(cols))``: K
    and (1 - i P) K are computed on those columns, each entry with the
    operations of the full product, so its entries are the full
    projector's bit for bit.  Without, the full ``(2n, 2n)`` endomorphism.
    """
    n = endo.chart.dim
    cls = GtEndoField if cols is None else F.Field
    cols = slice(None) if cols is None else list(cols)
    eye = np.eye(2 * n)[:, cols]

    def fn(p, order):
        k = J.lift(eye, n, order, p.shape[:-1])
        pj = endo.jet(p, order)
        if eplus is None:
            return 0.5 * (k - 1j * pj[:, cols])
        ep, em = eplus.jet(p, order), eminus.jet(p, order)
        k = (k - J.jet_einsum("j,i->ij", F.swap_jet(em)[cols], ep)
             - J.jet_einsum("j,i->ij", F.swap_jet(ep)[cols], em))
        return 0.5 * (k - 1j * J.jet_einsum("ij,jk->ik", pj, k))

    return cls(endo.chart, fn)


def projector_columns(projector: F.Field, cols: Sequence[int]) -> Tuple[SectionField, ...]:
    """The columns ``cols`` of a matrix field, as views of its jet."""
    return tuple(SectionField(projector.chart, lambda p, o, k=k: projector.jet(p, o)[:, k])
                 for k in cols)


def pivoted_frame(projector: GtEndoField, point, want: int, shortfall: str) -> List[int]:
    """Pivot columns of a projector's value at a point, ``want`` of them; raises
    ``ValueError(shortfall.format(found, want))`` when fewer pass the conditioning floor."""
    cols = _pivot_columns(projector.values(point), want)
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
    e10 = frame.columns.values(point)
    cols = [e10, np.conj(e10), frame.eplus.values(point)[:, None], frame.eminus.values(point)[:, None]]
    return int(np.linalg.matrix_rank(np.concatenate(cols, axis=1), tol=1e-8))


def triples(m: int) -> np.ndarray:
    """The i<j<k triples of m frame members, shape ``(T, 3)``, in the order of
    ``itertools.combinations``: row t of a Nijenhuis table is triple t."""
    return np.array(list(combinations(range(m), 3)), dtype=int).reshape(-1, 3)


def frame_nij(jets: Sequence[J.JetArray], n: int) -> np.ndarray:
    """Nij(A,B,C) of a frame's jets as a ``(T, *B)`` array: one row per
    triple of :func:`triples`, over the batch.

    Nij is exactly antisymmetric on isotropic frames, so repeated-member
    triples vanish identically and the sorted triples determine the rest.
    Only the values are read, so order-1 member jets suffice.

    The table brackets each unordered pair once, with no per-pair copy of
    the members: the m jets are stacked once along a member axis after the
    component axis, and row p of the upper triangle brackets the view of
    member p, broadcast, against the slice of members p + 1, ..., m - 1, one
    ``courant_jets`` call per row.  The rows concatenate to the m(m-1)/2
    pairs p < q in ``np.triu_indices`` order, and the table is read from
    ``P[pq, r] = <[[A_p, A_q]], A_r>`` over the same stacked frame, in the
    summation order of ``nij_jets``, whose third term <[[A_k, A_i]], A_j> is
    taken as -P[ik, j].  The bracket is antisymmetric, and in floating point
    its vector part and the Lie-derivative part of its form change sign
    exactly when the pair is swapped; its exact term -d(i_X b - i_Y a)/2
    does so only up to the association of its four sums.  So on generic
    inputs an entry can differ from the all-ordered-pairs table by a
    rounding of that term, and wherever that term negates exactly (the
    gallery frames and their cones) the two tables agree bit for bit.
    """
    m = len(jets)
    if m < 3:
        return np.zeros((0,) + jets[0].value.shape[1:], dtype=complex)
    frame = J.stack(jets, axis=1)
    brackets = np.concatenate(
        [F.courant_jets(frame[:, p:p + 1], frame[:, p + 1:], n).value for p in range(m - 1)],
        axis=1)
    P = 0.5 * np.einsum("ip...,ir...->pr...", gta.swap(brackets, 0), frame.value)
    first, second = np.triu_indices(m, 1)
    at = np.zeros((m, m), dtype=int)
    at[first, second] = np.arange(len(first))
    i, j, k = triples(m).T
    return (1.0 / 3.0) * ((P[at[i, j], k] + P[at[j, k], i]) - P[at[i, k], j])


def nij_table(members: Sequence[SectionField]) -> F.Field:
    """The :func:`frame_nij` table of ``members`` as a field with one component
    per triple; it holds values only, from the members' order-1 jets."""
    chart = members[0].chart
    return F.Field(chart, lambda p, o: J.JetArray(
        frame_nij([m.jet(p, 1) for m in members], chart.dim), None, None, chart.dim))


def cabs(z: np.ndarray) -> np.ndarray:
    """|z| as hypot(Re z, Im z): the rounding of ``abs`` on one complex number.

    numpy's vectorised complex ``abs`` may differ from it in the last bit, so
    the Nijenhuis tables use this to give the same residuals over a batch as
    at one point.
    """
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def row_max(rows: np.ndarray) -> np.ndarray:
    """Per-point max over the rows of a ``(T, *B)`` array (zeros if T = 0)."""
    return rows.max(axis=0, initial=0.0)


def max_nij_over_frame(members: Sequence[SectionField], points) -> Tuple[float, np.ndarray]:
    """Max |Nij(A,B,C)| over distinct frame triples, overall and per sample point."""
    per_point = row_max(cabs(nij_table(members).values(points)))
    return float(per_point.max()), per_point


def involutivity_class(s: Gacs, points, tol: Optional[float] = None):
    """Classify Courant involutivity of L+ and L-: strong / contact(+-) / none.

    ``tol`` (``INT_TOL`` when None) gates both rows and decides the label."""
    tol = INT_TOL if tol is None else tol
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
    """Per-point max |Nij| over the L+ and over the L- rows of a frame's table."""
    mags = cabs(frame.table.values(points))
    return row_max(mags[frame.plus_rows]), row_max(mags[frame.minus_rows])
