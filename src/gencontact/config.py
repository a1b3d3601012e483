"""Structure/pipeline JSON parsing and the check registry.

A run configuration references a structure (gallery entry, builder recipe,
explicit component expressions or the cone of one of these), an optional
deformation pipeline, and a list of named checks with optional tolerance
overrides.  Unknown keys are rejected with the offending path.

The structure and pipeline build one :class:`Subject`: a chart, one
``Gacs`` (which carries its f and its generalized metric, if any), the
classical structures it was built from, or a cone structure.  ``CHECKS``
names the need accessor (``Subject.need_*``) each check reads it through:
f = 0, any Gacs, a metric, classical structures, or a cone.  A subject that
lacks the need is refused with a ConfigError naming the check and the need.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import deformations as D
from . import exprs as E
from . import fields as F
from . import gallery as G
from . import integrability as I
from . import structures as S
from .charts import Chart
from .cone import cone_points, gacx_check, i_prime, r_conjugate
from .exprs import ExprError, parse_scalar
from .report import ResidualReport


class ConfigError(ValueError):
    """Configuration rejected; the message carries the JSON path."""


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(
                f"{path}.{key}: unknown key (allowed: {', '.join(sorted(allowed))})"
            )


def tolerance(value, path: str):
    """A tolerance as given: a finite number > 0 (bools refused)."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and 0 < value <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number > 0, got {value!r}")
    return value


def count(value, path: str, least: int) -> int:
    """A seed or sample count: an integer >= ``least`` (bools refused)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{path}: expected an integer >= {least}, got {value!r}")
    return value


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return obj[key]


def parse_chart(obj: dict, path: str) -> Chart:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: chart must be an object")
    _reject_unknown(obj, {"dim", "domain", "names"}, path)
    dim = _need(obj, "dim", path)
    if not isinstance(dim, int) or dim < 1:
        raise ConfigError(f"{path}.dim: must be a positive integer")
    domain = obj.get("domain", [[-1.0, 1.0]] * dim)
    if len(domain) != dim:
        raise ConfigError(f"{path}.domain: need {dim} intervals, got {len(domain)}")
    names = tuple(obj.get("names", ()))
    try:
        return Chart(dim, tuple((float(lo), float(hi)) for lo, hi in domain), names)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}.domain: {err}") from None


def _expr(text, chart: Chart, path: str) -> F.ScalarField:
    if isinstance(text, (int, float)):
        return E.literal(chart, float(text))
    if not isinstance(text, str):
        raise ConfigError(f"{path}: expected an expression string")
    try:
        return parse_scalar(text, chart)
    except ExprError as err:
        raise ConfigError(f"{path}: {err}") from None


def _expr_list(items, chart: Chart, path: str, length: int) -> list:
    if not isinstance(items, list) or len(items) != length:
        raise ConfigError(f"{path}: expected a list of {length} expressions")
    return [_expr(e, chart, f"{path}[{i}]") for i, e in enumerate(items)]


def _expr_vector(cls, items, chart: Chart, path: str) -> F.Field:
    """The ``cls`` field of a list of chart.dim expressions, all from one coordinate seed."""
    return E.component_field(cls, chart, _expr_list(items, chart, path, chart.dim))


def _expr_matrix(cls, rows, chart: Chart, path: str, size: int) -> F.Field:
    """The ``cls`` field of a size x size expression matrix, all from one coordinate seed."""
    if not isinstance(rows, list) or len(rows) != size:
        raise ConfigError(f"{path}: expected a {size}x{size} expression matrix")
    comps = [_expr_list(row, chart, f"{path}[{i}]", size) for i, row in enumerate(rows)]
    return E.component_field(cls, chart, comps)


def _check_points(chart: Chart) -> np.ndarray:
    """The points at which parsed data is checked to be real (the builders' points)."""
    return chart.sample(seed=1, count=8)


def _require_real(field: F.Field, points: np.ndarray, path: str):
    """Refuse parsed data whose jet is not real and finite at the check points."""
    try:
        S.require_real(field, points, path)
    except S.StructureError as err:
        raise ConfigError(str(err)) from None


def _parse_section(obj: dict, chart: Chart, path: str) -> F.SectionField:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with vec/form lists")
    _reject_unknown(obj, {"vec", "form"}, path)
    vec = form = None
    if "vec" in obj:
        vec = _expr_vector(F.VectorField, obj["vec"], chart, f"{path}.vec")
    if "form" in obj:
        form = _expr_vector(F.OneFormField, obj["form"], chart, f"{path}.form")
    if vec is None and form is None:
        raise ConfigError(f"{path}: need vec and/or form")
    return F.section(vec=vec, form=form)


@dataclass(frozen=True)
class Subject:
    """The structure a config builds, as every check reads it.  ``gacs`` (with its f and
    its metric) is ``None`` only for a ``cone_of`` reference, whose structure is ``cone``,
    an endomorphism field on the cone chart; ``classical`` holds 0-2 (phi, xi, eta)
    structures.  Gallery records are held as built, so the frames and duals cached on
    them are shared."""

    chart: Chart
    gacs: Optional[S.Gacs] = None
    classical: Tuple[S.AlmostContactMetric, ...] = ()
    cone: Optional[F.GtEndoField] = None

    # the needs of the checks (see CHECKS): a missing one is a ConfigError naming the check
    def need_f_zero(self, check: str) -> S.Gacs:
        s = self.gacs
        return _refuse_missing(s if s is not None and s.f is None else None, check,
                               "a generalized almost contact structure with f = 0")

    def need_gacs(self, check: str) -> S.Gacs:
        return _refuse_missing(self.gacs, check, "a generalized (f-)almost contact structure")

    def need_metric(self, check: str) -> S.Gacs:
        s = self.gacs
        return _refuse_missing(s if s is not None and s.metric is not None else None, check,
                               "a structure with a generalized metric")

    def need_classical(self, check: str) -> Tuple[S.AlmostContactMetric, ...]:
        return _refuse_missing(self.classical or None, check, "a classical (phi, xi, eta) structure")

    def need_classical_metric(self, check: str) -> Tuple[S.AlmostContactMetric, ...]:
        found = self.need_classical(check)
        return _refuse_missing(found if all(acs.g is not None for acs in found) else None,
                               check, "a metric g on its classical structures")

    def need_cone(self, check: str) -> F.GtEndoField:
        return _refuse_missing(self.cone, check, "a cone structure (cone_of)")


def _refuse_missing(part, check: str, what: str):
    if part is None:
        raise ConfigError(f"check {check!r} needs {what}")
    return part


def parse_structure(obj: dict, path: str = "$.structure") -> Subject:
    """The :class:`Subject` a structure reference builds."""
    return _parse_structure(obj, path)[0]


def _parse_structure(obj: dict, path: str):
    """(subject, check points): the points are the chart's :func:`_check_points`,
    drawn once when the structure is parsed on a chart of its own, else None."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if "gallery" in obj:
        _reject_unknown(obj, {"gallery"}, path)
        try:
            built = G.build(obj["gallery"])
        except KeyError as err:
            raise ConfigError(f"{path}.gallery: {err.args[0]}") from None
        classical = built.get("acs_pair") or ((built["acs"],) if "acs" in built else ())
        return Subject(built["chart"], built.get("gacs"), tuple(classical)), None
    if "cone_of" in obj:
        _reject_unknown(obj, {"cone_of", "conjugate"}, path)
        inner = parse_structure(obj["cone_of"], f"{path}.cone_of")
        if inner.gacs is None:
            raise ConfigError(f"{path}.cone_of: inner structure provides no Gacs")
        j = i_prime(inner.gacs)
        if obj.get("conjugate", False):
            j = r_conjugate(j)
        return Subject(inner.chart, cone=j), None

    allowed = {"chart", "builder", "eta", "phi", "xi", "g", "eplus", "eminus"}
    _reject_unknown(obj, allowed, path)
    chart = parse_chart(_need(obj, "chart", path), f"{path}.chart")
    n = chart.dim
    pts = _check_points(chart)
    builder = obj.get("builder")
    if builder == "from_contact":
        if n % 2 != 1:
            raise ConfigError(f"{path}: contact builders need an odd chart dimension")
        eta = _expr_vector(F.OneFormField, _need(obj, "eta", path), chart, f"{path}.eta")
        try:
            gacs = S.gacs_from_contact(eta, check_points=pts)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
        return Subject(chart, gacs), pts
    if builder == "from_acs":
        phi = _expr_matrix(F.MatrixField, _need(obj, "phi", path), chart, f"{path}.phi", n)
        xi = _expr_vector(F.VectorField, _need(obj, "xi", path), chart, f"{path}.xi")
        eta = _expr_vector(F.OneFormField, _need(obj, "eta", path), chart, f"{path}.eta")
        g = _expr_matrix(F.MatrixField, obj["g"], chart, f"{path}.g", n) if "g" in obj else None
        for name, part in (("phi", phi), ("xi", xi), ("eta", eta), ("g", g)):
            if part is not None:
                _require_real(part, pts, f"{path}.{name}")
        acs = S.AlmostContactMetric(chart, phi, xi, eta, g)
        gacs = S.gacs_from_acs(acs) if g is None else G.sasakian_to_gs(acs)
        return Subject(chart, gacs, (acs,)), pts
    if builder is not None:
        raise ConfigError(f"{path}.builder: unknown builder {builder!r}")
    # explicit components
    phi = _expr_matrix(F.GtEndoField, _need(obj, "phi", path), chart, f"{path}.phi", 2 * n)
    eplus = _parse_section(_need(obj, "eplus", path), chart, f"{path}.eplus")
    eminus = _parse_section(_need(obj, "eminus", path), chart, f"{path}.eminus")
    for name, part in (("phi", phi), ("eplus", eplus), ("eminus", eminus)):
        _require_real(part, pts, f"{path}.{name}")
    return Subject(chart, S.Gacs(chart, phi, eplus, eminus)), pts


def parse_pipeline(items, subject: Subject, path: str = "$.apply", check_points=None) -> Subject:
    """Apply deformation steps to the subject's structure.  A ``b_field`` step keeps the
    metric (:func:`~gencontact.structures.b_transform` conjugates it with Phi); K+- and
    ``normalize`` drop it; every step drops the classical structures.

    Parsed step data is checked to be real at ``check_points``, the chart's
    :func:`_check_points` (drawn here when not given)."""
    if not isinstance(items, list):
        raise ConfigError(f"{path}: expected a list of steps")
    if subject.gacs is None:
        raise ConfigError(f"{path}: the structure provides nothing to deform")
    chart = subject.chart
    gacs = subject.gacs
    n = chart.dim
    pts = _check_points(chart) if check_points is None else check_points
    for i, step in enumerate(items):
        spath = f"{path}[{i}]"
        if not isinstance(step, dict):
            raise ConfigError(f"{spath}: expected an object")
        op = _need(step, "op", spath)
        if op == "b_field":
            _reject_unknown(step, {"op", "B"}, spath)
            bfield = _expr_matrix(F.TwoFormField, _need(step, "B", spath), chart, f"{spath}.B", n)
            _require_real(bfield, pts, f"{spath}.B")
            v = bfield.values(pts)
            if np.abs(v + np.swapaxes(v, -1, -2)).max() > 1e-9:
                raise ConfigError(f"{spath}.B: components are not antisymmetric")
            gacs = S.b_transform(gacs, bfield)
        elif op in ("k_plus", "k_minus"):
            _reject_unknown(step, {"op", "kappa"}, spath)
            kappa = _expr_vector(F.OneFormField, _need(step, "kappa", spath), chart,
                                 f"{spath}.kappa")
            _require_real(kappa, pts, f"{spath}.kappa")
            gacs = (D.k_plus if op == "k_plus" else D.k_minus)(gacs, kappa)
        elif op == "normalize":
            _reject_unknown(step, {"op"}, spath)
            try:
                gacs = D.normalize(gacs, chart.sample(seed=2, count=12))[0]
            except ValueError as err:
                raise ConfigError(f"{spath}: {err}") from None
        else:
            raise ConfigError(f"{spath}.op: unknown op {op!r}")
    return Subject(chart, gacs)


# -- the check registry: each check runs on the part of the subject it needs -------------


def _each_classical(structures, checker, points) -> ResidualReport:
    """``checker`` on each classical structure, the second one's rows prefixed ``[1]``."""
    rep = ResidualReport()
    for i, acs in enumerate(structures):
        rep.extend(checker(acs, points), prefix=f"[{i}]" if i else "")
    return rep


def check_gacs(s, points, tol):
    rep = S.gacs_check(s, points)
    rep.extend(S.phi_cube_check(s, points))
    return rep


def check_involutivity(s, points, tol):
    label, rep = S.involutivity_class(s, points, tol)
    rep.add(f"involutivity.class[{label}]", [0.0], None, None)
    return rep


def check_cone_algebra(s, points, tol):
    j = i_prime(s)
    cpts = cone_points(points)
    rep = gacx_check(j, cpts)
    rep.extend(gacx_check(r_conjugate(j), cpts), prefix="conjugated.")
    return rep


# name -> (the Subject accessor of what the check needs, the check: (part, points, tol)
# -> report).  Checkers stamp their own gates and run_checks applies a tolerance override
# (tol, None without one) to every gated row; only involutivity and plain_cone also read
# it, since there it decides a label or a verdict.  Checkers are looked up in their
# modules at call time, so a wrapper installed there is the one called.
CHECKS: Dict[str, Tuple[Callable, Callable]] = {
    "acms": (Subject.need_classical, lambda c, p, tol: _each_classical(c, S.acms_check, p)),
    "gacs": (Subject.need_f_zero, check_gacs),
    "phi_kernel": (Subject.need_f_zero, lambda s, p, tol: S.phi_kernel_check(s, p)),
    "gacm": (Subject.need_metric, lambda m, p, tol: S.gacm_check(m, p)),
    "fgacs": (Subject.need_gacs, lambda s, p, tol: D.fgacs_check(s, p)),
    "involutivity": (Subject.need_f_zero, check_involutivity),
    "normality": (Subject.need_classical,
                  lambda c, p, tol: _each_classical(c, I.normality_check, p)),
    "sasakian": (Subject.need_classical_metric,
                 lambda c, p, tol: _each_classical(c, I.sasakian_criterion, p)),
    "vaisman_pair": (Subject.need_classical_metric,
                     lambda c, p, tol: I.vaisman_conditions(c[0], c[-1], p)),
    "plain_cone": (Subject.need_f_zero, lambda s, p, tol: I.plain_cone_check(s, p, tol)),
    "rcone_condition": (Subject.need_f_zero,
                        lambda s, p, tol: I.conjugated_cone_residual(s, p)),
    "cone_crosscheck": (Subject.need_f_zero, lambda s, p, tol: I.cone_crosscheck(s, p)),
    "generalized_sasakian": (Subject.need_metric,
                             lambda m, p, tol: I.generalized_sasakian_check(m, p)),
    "cone_algebra": (Subject.need_gacs, check_cone_algebra),
    "gacx": (Subject.need_cone, lambda j, p, tol: gacx_check(j, cone_points(p))),
}


@dataclass
class RunConfig:
    structure: dict  # raw structure reference (kept for serialization)
    subject: Subject
    checks: List[str]
    tolerances: Dict[str, float] = field(default_factory=dict)
    seed: int = 1234
    samples: int = 40
    out: Optional[str] = None
    apply: List[dict] = field(default_factory=list)


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("$: top level must be an object")
    allowed = {"structure", "gallery", "apply", "checks", "tolerances", "tol",
               "seed", "samples", "out"}
    _reject_unknown(obj, allowed, "$")
    if ("structure" in obj) == ("gallery" in obj):
        raise ConfigError("$: exactly one of 'structure' or 'gallery' is required")
    raw_ref = {"gallery": obj["gallery"]} if "gallery" in obj else obj["structure"]
    subject, check_points = _parse_structure(raw_ref, "$.structure")
    pipeline = obj.get("apply", [])
    if pipeline:
        subject = parse_pipeline(pipeline, subject, check_points=check_points)
    checks = obj.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("$.checks: expected a list of check names")
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(
                f"$.checks: unknown check {c!r} (available: {', '.join(sorted(CHECKS))})"
            )
    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("$.tolerances: expected an object of check names to tolerances")
    tolerances = dict(tolerances)
    for k, v in tolerances.items():
        if k not in CHECKS:
            raise ConfigError(f"$.tolerances.{k}: unknown check")
        tolerance(v, f"$.tolerances.{k}")
    if "tol" in obj:
        tol = float(tolerance(obj["tol"], "$.tol"))
        for c in checks:
            tolerances.setdefault(c, tol)
    seed = count(obj.get("seed", RunConfig.seed), "$.seed", 0)
    samples = count(obj.get("samples", RunConfig.samples), "$.samples", 1)
    return RunConfig(
        structure=raw_ref,
        subject=subject,
        checks=checks,
        tolerances=tolerances,
        seed=seed,
        samples=samples,
        out=obj.get("out"),
        apply=pipeline,
    )


def run_checks(cfg: RunConfig) -> ResidualReport:
    """Each check's report on the subject, rows prefixed ``<check>: ``; a check's tolerance
    override replaces the gate of every gated row it returns.  A non-finite row (data
    outside the real domain at a sample point) raises ``StructureError`` naming its point."""
    points = cfg.subject.chart.sample(seed=cfg.seed, count=cfg.samples)
    rep = ResidualReport()
    for name in cfg.checks:
        tol = cfg.tolerances.get(name)
        need, check = CHECKS[name]
        sub = check(need(cfg.subject, name), points, tol)
        for row in sub.rows:
            if not np.isfinite(row.max_residual):
                raise S.StructureError(f"check {name}: {row.name} is {row.max_residual} "
                                       f"at {row.argmax_point}")
            if tol is not None and row.tolerance is not None:
                row.tolerance = tol
        rep.extend(sub, prefix=f"{name}: ")
    return rep


def load_json(text: str):
    """The JSON value of a config text; invalid JSON is a ConfigError naming its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None
