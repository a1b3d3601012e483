"""Generalized f-almost contact structures and their K(kappa) deformation algebra.

An f-structure is a :class:`~gencontact.structures.Gacs` with an f field;
``f = None`` is f = 0 and is read as zero here: K+-(kappa) of such a
structure adds no f term and sets f to -+2<E+-, kappa>, and ``normalize``
returns its result with ``f = None``.  Each deformation builds a new record
without the generalized metric, and ``normalize`` drops it too.

The K-deformations act on M; their cone meaning (B-fields of 2r dr ^ kappa,
cross terms of the cone metric) is verified by the correspondence checkers
here.  Tensor terms like kappa (x) E- in the deformation formulas contract
in the second slot, as forced by the eigenvalue axioms Phi^f E+- = +-f E+-.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

import numpy as np

from . import fields as F
from . import gta
from . import jets as J
from .charts import ConeChart
from .cone import base_jet, cone_points, gacx_plus_frame, i_map, i_prime
from .fields import (
    GtEndoField,
    MatrixField,
    OneFormField,
    TwoFormField,
)
from .report import ResidualReport, sup_norm
from .structures import (
    DEFAULT_TOL,
    INT_TOL,
    Gacs,
    b_transform,
    gacs_residuals,
    gmetric_from_gb,
    max_nij_over_frame,
    metric_block,
    require_metric,
)

DEFORM_TS = (-0.4, 0.2)  # the t slices of the cross-term, cone-pair and f-Sasakian checks
NORMALIZE_TOL = 1e-9  # the |f| that normalize may leave, and below which f counts as zero


# -- the defining axioms ----------------------------------------------------------


def _f_values(s: Gacs, points) -> np.ndarray:
    """The (P,) values of f over the samples, zeros for ``f = None``."""
    return np.zeros(len(points)) if s.f is None else s.f.values(points)


def fgacs_check(s: Gacs, points) -> ResidualReport:
    """The six defining residuals of a generalized f-almost contact structure."""
    phi = s.Phi.values(points)
    ep = s.Eplus.values(points)
    em = s.Eminus.values(points)
    f = _f_values(s, points)
    skew, square, norm, iso = gacs_residuals(phi, ep, em, f)
    eig_p = sup_norm(gta.apply(phi, ep) - f[:, None] * ep)
    eig_m = sup_norm(gta.apply(phi, em) + f[:, None] * em)
    rep = ResidualReport()
    for name, vals in (("skew", skew), ("square", square), ("eigen_plus", eig_p),
                       ("eigen_minus", eig_m), ("normalization", norm), ("isotropy", iso)):
        rep.add(f"fgacs.{name}", vals, points, DEFAULT_TOL)
    return rep


# -- K deformations ----------------------------------------------------------------


def k_minus(s: Gacs, kappa: OneFormField) -> Gacs:
    """K-(kappa): fixes E-, shifts f by 2<E-, kappa>."""
    ks = F.section(form=kappa)
    c = F.pair_field(s.Eminus, ks)  # <E-, kappa>
    phi = s.Phi - F.tensor_pair_field(s.Eminus, ks) + F.tensor_pair_field(ks, s.Eminus)
    eplus = s.Eplus + s.Phi.apply(ks) + 2 * (c * ks)
    if s.f is None:
        return Gacs(s.chart, phi, eplus, s.Eminus, 2 * c)
    return Gacs(s.chart, phi, eplus + s.f * ks, s.Eminus, s.f + 2 * c)


def k_plus(s: Gacs, kappa: OneFormField) -> Gacs:
    """K+(kappa): fixes E+, shifts f by -2<E+, kappa>."""
    ks = F.section(form=kappa)
    c = F.pair_field(s.Eplus, ks)  # <E+, kappa>
    phi = s.Phi - F.tensor_pair_field(s.Eplus, ks) + F.tensor_pair_field(ks, s.Eplus)
    eminus = s.Eminus + s.Phi.apply(ks) + 2 * (c * ks)
    if s.f is None:
        return Gacs(s.chart, phi, s.Eplus, eminus, -2 * c)
    return Gacs(s.chart, phi, s.Eplus, eminus - s.f * ks, s.f - 2 * c)


def fgacs_deviation(a: Gacs, b: Gacs, points) -> float:
    """Max slot-wise difference of two f-structures over the samples."""
    return max(float(sup_norm(x - y).max())
               for x, y in zip(_slot_values(a, points), _slot_values(b, points)))


def _slot_values(s: Gacs, points) -> list:
    """Value stacks of Phi, E+, E- and f."""
    return [x.values(points) for x in (s.Phi, s.Eplus, s.Eminus)] + [_f_values(s, points)]


def b_commute_check(s: Gacs, kappa: OneFormField, b: TwoFormField, points) -> ResidualReport:
    """K+-(kappa) deformations commute with B-field transformations."""
    rep = ResidualReport()
    for name, k in (("k_minus", k_minus), ("k_plus", k_plus)):
        lhs = b_transform(k(s, kappa), b)
        rhs = k(b_transform(s, b), kappa)
        rep.add(f"b_commute.{name}", [fgacs_deviation(lhs, rhs, points)], None, 1e-10)
    return rep


# -- normalization to f = 0 ----------------------------------------------------------


def normalize(s: Gacs, points) -> Tuple[Gacs, OneFormField, OneFormField]:
    """Find alpha with 2<E+^f + E-^f, alpha> = f and strip f via K-( -alpha) K+(alpha).

    alpha is the Euclidean dual of the combined vector part zeta, scaled to
    alpha(zeta) = f; beta = -alpha.  Errors out where zeta degenerates while
    f does not vanish, since no pointwise alpha can exist there; where both
    vanish, alpha = 0.  The result has ``f = None`` and no metric; a structure
    whose f is already ``None`` is returned, less its metric, with alpha = beta = 0.
    """
    n = s.chart.dim
    if s.f is None:
        zero = F.constant(s.chart, np.zeros(n), OneFormField)
        return (s if s.metric is None else replace(s, metric=None)), zero, zero
    pts = np.asarray(points, dtype=float)

    def zeta_jets(p, order):  # zeta and |zeta|^2
        z = (s.Eplus.jet(p, order) + s.Eminus.jet(p, order))[:n]
        return z, J.jet_einsum("i,i->", z, z)

    def vanishing(den, p):  # |zeta|^2 too small to divide by
        return np.abs(J.parts(den, p.ndim - 1)[0]) < 1e-12

    fval = s.f.values(pts)
    stuck = vanishing(zeta_jets(pts, 0)[1], pts) & (np.abs(fval) > NORMALIZE_TOL)
    if stuck.any():
        k = int(np.argmax(stuck))
        raise ValueError(
            f"normalization impossible at {pts[k]}: zeta vanishes while f = {fval[k]:.3e}"
        )

    def alpha_fn(p, order):
        z, den = zeta_jets(p, order)
        fj = s.f.jet(p, order)
        both = vanishing(den, p) & (np.abs(s.f.values(p)) <= NORMALIZE_TOL)
        if both.any():  # alpha = 0 there, not 0/0
            fj, den = fj * ~both, den + both
        return J.jet_einsum(",i->i", fj / den, z)

    alpha = OneFormField(s.chart, alpha_fn)
    beta = -1 * alpha
    out = k_minus(k_plus(s, alpha), beta)
    with np.errstate(divide="ignore", invalid="ignore"):  # non-finite data is refused below
        worst = float(np.abs(out.f.values(pts)).max())
    if not worst <= NORMALIZE_TOL:  # also refuses nan
        raise ValueError(f"normalization left |f| = {worst:.3e}, not <= {NORMALIZE_TOL:g}")
    return replace(out, f=None), alpha, beta


# -- cone B-field correspondence ------------------------------------------------------


def cone_kappa_form(cone: ConeChart, kappa: OneFormField, radial: bool) -> TwoFormField:
    """The 2-form 2r dr ^ kappa (radial=True) or (2/r) dr ^ kappa on the cone.

    In t-coordinates these are the tensors e^{2t} (dt (x) kappa - kappa (x) dt)
    and dt (x) kappa - kappa (x) dt.
    """
    n, N, t = kappa.chart.dim, cone.dim, cone.t_index

    def fn(p, o):
        k = base_jet(kappa, p, o)
        form = (J.extend_vars(k, N, (N, N), (t, slice(n)))
                + J.extend_vars(-k, N, (N, N), (slice(n), t)))
        return J.exp(2 * J.seed_point(p, N, o)[t]) * form if radial else form

    return TwoFormField(cone, fn)


def cone_b_correspondence(s: Gacs, kappa: OneFormField, base_points) -> ResidualReport:
    """e^B I(s) e^-B = I(K-(kappa) s) for B = 2r dr ^ kappa, and the
    unconjugated variant with (2/r) dr ^ kappa against I' = Phi + Psi^f."""
    cone = ConeChart.over(s.chart)
    cpts = cone_points(base_points)
    deformed = k_minus(s, kappa)
    rep = ResidualReport()
    for name, radial, builder in (
        ("radial_vs_I", True, i_map),
        ("plain_vs_Iprime", False, i_prime),
    ):
        b = cone_kappa_form(cone, kappa, radial)
        (lhs,) = F.b_action(b, builder(s, cone))
        rhs = builder(deformed, cone)
        vals = sup_norm(lhs.values(cpts) - rhs.values(cpts))
        rep.add(f"cone_b.{name}", vals, cpts, 1e-9)
    return rep


# -- the cone metric with a cross term --------------------------------------------------


def g_tilde(g: MatrixField, alpha: OneFormField, cone: ConeChart) -> GtEndoField:
    """G~_alpha = (0, g_hat^-1; g_hat, 0) with g_hat = g + (alpha+dt) (x) (alpha+dt).

    This is the displayed block formula: the inverse block expands to
    g^-1 - g^-1 alpha (x) d/dt - d/dt (x) g^-1 alpha + (1 + g^-1(alpha,alpha))
    d/dt (x) d/dt.
    """
    n = g.chart.dim
    N = cone.dim
    e_t = np.eye(N)[n]

    def ghat_fn(p, order):
        gj = J.extend_vars(base_jet(g, p, order), N, (N, N), (slice(n), slice(n)))
        beta = J.extend_vars(base_jet(alpha, p, order), N, (N,), slice(n))
        beta = beta + J.lift(e_t, N, beta.order, p.shape[:-1])
        return gj + J.jet_einsum("i,j->ij", beta, beta)

    return GtEndoField(cone, lambda p, o: metric_block(ghat_fn(p, o)))


def cross_term_metric_check(s: Gacs, g: MatrixField, alpha: OneFormField,
                            base_points) -> ResidualReport:
    """Compatibility G~ = -I' G~ I' plus the two derived identities.

    The identities 2<E+^f, alpha> = -f and Phi^f alpha = -G E+^f + E-^f hold
    exactly when (Phi^f, E+-^f, f) = K+(alpha)(Phi, E+-, 0) for a metric
    structure with G = (0, g^-1; g, 0).
    """
    cone = ConeChart.over(s.chart)
    rep = ResidualReport()
    gt = g_tilde(g, alpha, cone)
    ip = i_prime(s, cone)
    cpts = cone_points(base_points, DEFORM_TS)

    gv = gt.values(cpts)
    iv = ip.values(cpts)
    rep.add("cross_term.compatibility", sup_norm(gv + iv @ gv @ iv), cpts, DEFAULT_TOL)

    ep = s.Eplus.values(base_points)
    a = F.section(form=alpha).values(base_points)
    f = _f_values(s, base_points)
    lhs = gta.apply(s.Phi.values(base_points), a)
    rhs = -gta.apply(gmetric_from_gb(g).endo.values(base_points), ep)
    rhs = rhs + s.Eminus.values(base_points)
    rep.add("cross_term.pairing_identity", np.abs(2 * gta.pair(ep, a) + f), base_points,
            DEFAULT_TOL)
    rep.add("cross_term.phi_alpha_identity", sup_norm(lhs - rhs), base_points, DEFAULT_TOL)
    return rep


def cross_term_metric_forward(m: Gacs, alpha: OneFormField, base_points):
    """Construct K+(alpha)(Phi, E+-, 0) from a (g, b=0) metric structure and check."""
    metric = require_metric(m, "cross_term_metric_forward")
    if metric.g is None:
        raise ValueError("forward construction needs the metric in (g, b) form")
    if metric.b is not None:
        probe = m.chart.sample(seed=3, count=3)
        if sup_norm(metric.b.values(probe)).max() > 1e-12:
            raise ValueError("the cross-term construction needs b = 0")
    s = k_plus(m, alpha)
    return s, cross_term_metric_check(s, metric.g, alpha, base_points)


# -- the deformed cone pair is generalized Kaehler ----------------------------------------


def cone_kahler_pair_check(m: Gacs, alpha: OneFormField, base_points) -> ResidualReport:
    """I'(K+(alpha)(Phi,E+-,0)) and I'(K+(alpha)(G Phi, G E+-, 0)) commute and
    -I'1 I'2 is a generalized Riemannian metric on the cone."""
    require_metric(m, "cone_kahler_pair_check")
    cone = ConeChart.over(m.chart)
    cpts = cone_points(base_points, DEFORM_TS)
    a, b = (i_prime(k_plus(s, alpha), cone).values(cpts) for s in (m, m.dual))
    gprod = -a @ b
    rep = ResidualReport()
    rep.add("cone_pair.commutator", sup_norm(a @ b - b @ a), cpts, 1e-9)
    rep.add("cone_pair.product_symmetric", sup_norm(gprod - gta.adjoint(gprod)), cpts, 1e-9)
    rep.add("cone_pair.positivity", [max(0.0, -gta.least_pairing(gprod))], None, 1e-12)
    return rep


# -- f-Sasakian --------------------------------------------------------------------------


def f_sasakian_check(m: Gacs, alpha: OneFormField, beta: OneFormField,
                     base_points) -> ResidualReport:
    """Courant involutivity of the +i frames of both I-structures of the generalized
    f-almost contact metric structure K-(beta) K+(alpha) m."""
    require_metric(m, "f_sasakian_check")
    cone = ConeChart.over(m.chart)
    rep = ResidualReport()
    cpts = cone_points(base_points, DEFORM_TS)
    for tag, base in (("phi", m), ("gphi", m.dual)):
        s = k_minus(k_plus(base, alpha), beta)
        members = gacx_plus_frame(i_map(s, cone))
        _, per_point = max_nij_over_frame(members, cpts)
        rep.add(f"f_sasakian.{tag}_frame_nij", per_point, cpts, INT_TOL)
    return rep
