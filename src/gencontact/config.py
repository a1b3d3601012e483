"""Structure/pipeline JSON parsing and the check registry.

A run configuration references a structure (gallery entry, builder recipe,
or explicit component expressions), an optional deformation pipeline, and a
list of named checks with optional tolerance overrides.  Unknown keys are
rejected with the offending path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

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


def parse_structure(obj: dict, path: str = "$.structure") -> dict:
    """Build the products dict {gacs: ..., acs: ..., ...} a config references."""
    return _parse_structure(obj, path)[0]


def _parse_structure(obj: dict, path: str):
    """(products, check points): the points are the chart's :func:`_check_points`,
    drawn once when the structure is parsed on a chart of its own, else None."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if "gallery" in obj:
        _reject_unknown(obj, {"gallery"}, path)
        name = obj["gallery"]
        try:
            return dict(G.build(name)), None
        except KeyError as err:
            raise ConfigError(f"{path}.gallery: {err.args[0]}") from None
    if "cone_of" in obj:
        _reject_unknown(obj, {"cone_of", "conjugate"}, path)
        inner = parse_structure(obj["cone_of"], f"{path}.cone_of")
        if "gacs" not in inner:
            raise ConfigError(f"{path}.cone_of: inner structure provides no Gacs")
        j = i_prime(inner["gacs"])
        if obj.get("conjugate", False):
            j = r_conjugate(j)
        return {"cone": j, "base": inner}, None

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
        return {"chart": chart, "eta": eta, "gacs": gacs}, pts
    if builder == "from_acs":
        phi = _expr_matrix(F.MatrixField, _need(obj, "phi", path), chart, f"{path}.phi", n)
        xi = _expr_vector(F.VectorField, _need(obj, "xi", path), chart, f"{path}.xi")
        eta = _expr_vector(F.OneFormField, _need(obj, "eta", path), chart, f"{path}.eta")
        g = None
        if "g" in obj:
            g = _expr_matrix(F.MatrixField, obj["g"], chart, f"{path}.g", n)
        try:
            for name, part in (("phi", phi), ("xi", xi), ("eta", eta), ("g", g)):
                if part is not None:
                    S.require_real(part, pts, name)
        except S.StructureError as err:
            raise ConfigError(f"{path}: {err}") from None
        acs = S.AlmostContactMetric(chart, phi, xi, eta, g)
        out = {"chart": chart, "acs": acs, "gacs": S.gacs_from_acs(acs)}
        if g is not None:
            out["gacm"] = G.sasakian_to_gs(acs)
        return out, pts
    if builder is not None:
        raise ConfigError(f"{path}.builder: unknown builder {builder!r}")
    # explicit components
    phi = _expr_matrix(F.GtEndoField, _need(obj, "phi", path), chart, f"{path}.phi", 2 * n)
    eplus = _parse_section(_need(obj, "eplus", path), chart, f"{path}.eplus")
    eminus = _parse_section(_need(obj, "eminus", path), chart, f"{path}.eminus")
    for name, part in (("phi", phi), ("eplus", eplus), ("eminus", eminus)):
        _require_real(part, pts, f"{path}.{name}")
    gacs = S.Gacs(chart, phi, eplus, eminus)
    return {"chart": chart, "gacs": gacs}, pts


def parse_pipeline(items, products: dict, path: str = "$.apply", check_points=None) -> dict:
    """Apply deformation steps to the structure's Gacs; the result is filed under
    ``fgacs``, and under ``gacs`` too while its f is ``None`` (f = 0).

    Parsed step data is checked to be real at ``check_points``, the chart's
    :func:`_check_points` (drawn here when not given)."""
    if not isinstance(items, list):
        raise ConfigError(f"{path}: expected a list of steps")
    if "gacs" not in products and "fgacs" not in products:
        raise ConfigError(f"{path}: the structure provides nothing to deform")
    chart = products["chart"]
    current = products.get("fgacs") or products["gacs"]
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
            v = bfield.values(chart.sample(seed=3, count=4))
            if np.abs(v + np.swapaxes(v, 0, 1)).max() > 1e-9:
                raise ConfigError(f"{spath}.B: components are not antisymmetric")
            _require_real(bfield, pts, f"{spath}.B")
            current = S.b_transform(current, bfield)
        elif op in ("k_plus", "k_minus"):
            _reject_unknown(step, {"op", "kappa"}, spath)
            kappa = _expr_vector(F.OneFormField, _need(step, "kappa", spath), chart,
                                 f"{spath}.kappa")
            _require_real(kappa, pts, f"{spath}.kappa")
            current = (D.k_plus if op == "k_plus" else D.k_minus)(current, kappa)
        elif op == "normalize":
            _reject_unknown(step, {"op"}, spath)
            pts = chart.sample(seed=2, count=12)
            try:
                current, _, _ = D.normalize(current, pts)
            except ValueError as err:
                raise ConfigError(f"{spath}: {err}") from None
        else:
            raise ConfigError(f"{spath}.op: unknown op {op!r}")
    out = {k: v for k, v in products.items() if k not in ("gacs", "gacm", "acs", "acs_pair")}
    out["fgacs"] = current
    if current.f is None:
        out["gacs"] = current  # f = 0: a Gacs again, open to the Gacs checks
    return out


# -- the check registry ----------------------------------------------------------------


def _classical(products: dict, name: str):
    if "acs_pair" in products:
        return list(products["acs_pair"])
    if "acs" in products:
        return [products["acs"]]
    raise ConfigError(f"check {name!r} needs a classical (phi, xi, eta) structure")


def _get(products: dict, key: str, name: str):
    if key not in products:
        raise ConfigError(f"check {name!r} needs a structure providing {key!r}")
    return products[key]


def check_acms(products, points, tol):
    rep = ResidualReport()
    for i, acs in enumerate(_classical(products, "acms")):
        rep.extend(S.acms_check(acs, points), prefix=f"[{i}]" if i else "")
    return rep


def check_gacs(products, points, tol):
    s = _get(products, "gacs", "gacs")
    rep = S.gacs_check(s, points)
    rep.extend(S.phi_cube_check(s, points))
    return rep


def check_phi_kernel(products, points, tol):
    return S.phi_kernel_check(_get(products, "gacs", "phi_kernel"), points)


def check_gacm(products, points, tol):
    return S.gacm_check(_get(products, "gacm", "gacm"), points)


def check_fgacs(products, points, tol):
    return D.fgacs_check(products.get("fgacs") or _get(products, "gacs", "fgacs"), points)


def check_involutivity(products, points, tol):
    label, rep = S.involutivity_class(_get(products, "gacs", "involutivity"), points, tol=tol or S.INT_TOL)
    rep.add(f"involutivity.class[{label}]", [0.0], None, None)
    return rep


def check_normality(products, points, tol):
    rep = ResidualReport()
    for i, acs in enumerate(_classical(products, "normality")):
        rep.extend(I.normality_check(acs, points, tol=tol or S.DEFAULT_TOL), prefix=f"[{i}]" if i else "")
    return rep


def check_sasakian(products, points, tol):
    rep = ResidualReport()
    for i, acs in enumerate(_classical(products, "sasakian")):
        rep.extend(I.sasakian_criterion(acs, points, tol=tol or S.DEFAULT_TOL), prefix=f"[{i}]" if i else "")
    return rep


def check_vaisman_pair(products, points, tol):
    pair = _classical(products, "vaisman_pair")
    if len(pair) == 1:
        pair = [pair[0], pair[0]]
    return I.vaisman_conditions(pair[0], pair[1], points, tol=tol or S.DEFAULT_TOL)


def check_plain_cone(products, points, tol):
    return I.plain_cone_check(_get(products, "gacs", "plain_cone"), points, tol=tol or S.INT_TOL)


def check_rcone_condition(products, points, tol):
    return I.conjugated_cone_residual(_get(products, "gacs", "rcone_condition"), points, tol=tol or S.INT_TOL)


def check_crosscheck(products, points, tol):
    return I.cone_crosscheck(_get(products, "gacs", "cone_crosscheck"), points, tol=tol or S.INT_TOL)


def check_generalized_sasakian(products, points, tol):
    return I.generalized_sasakian_check(_get(products, "gacm", "generalized_sasakian"), points, tol=tol or S.INT_TOL)


def check_cone_algebra(products, points, tol):
    s = _get(products, "gacs", "cone_algebra")
    j = i_prime(s)
    cpts = cone_points(points)
    rep = gacx_check(j, cpts)
    rep.extend(gacx_check(r_conjugate(j), cpts), prefix="conjugated.")
    return rep


def check_gacx(products, points, tol):
    j = _get(products, "cone", "gacx")
    cpts = cone_points(points)
    return gacx_check(j, cpts)


CHECKS: Dict[str, Callable] = {
    "acms": check_acms,
    "gacs": check_gacs,
    "phi_kernel": check_phi_kernel,
    "gacm": check_gacm,
    "fgacs": check_fgacs,
    "involutivity": check_involutivity,
    "normality": check_normality,
    "sasakian": check_sasakian,
    "sasakian_pair": check_sasakian,
    "vaisman_pair": check_vaisman_pair,
    "plain_cone": check_plain_cone,
    "rcone_condition": check_rcone_condition,
    "cone_crosscheck": check_crosscheck,
    "generalized_sasakian": check_generalized_sasakian,
    "cone_algebra": check_cone_algebra,
    "gacx": check_gacx,
}


@dataclass
class RunConfig:
    structure: dict  # raw structure reference (kept for serialization)
    products: dict
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
    products, check_points = _parse_structure(raw_ref, "$.structure")
    pipeline = obj.get("apply", [])
    if pipeline:
        products = parse_pipeline(pipeline, products, check_points=check_points)
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
        products=products,
        checks=checks,
        tolerances=tolerances,
        seed=seed,
        samples=samples,
        out=obj.get("out"),
        apply=pipeline,
    )


def run_checks(cfg: RunConfig) -> ResidualReport:
    chart = cfg.products.get("chart")
    if chart is None and "cone" in cfg.products:
        chart = cfg.products["cone"].chart.base
    points = chart.sample(seed=cfg.seed, count=cfg.samples)
    rep = ResidualReport()
    for name in cfg.checks:
        tol = cfg.tolerances.get(name)
        sub = CHECKS[name](cfg.products, points, tol)
        if tol is not None:
            for row in sub.rows:
                if row.tolerance is not None:
                    row.tolerance = tol
        rep.extend(sub, prefix=f"{name}: ")
    return rep


def load_json(text: str):
    """The JSON value of a config text; invalid JSON is a ConfigError naming its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None
