"""The dtype follows the data: real structures stay float64 end to end, and only
the +i eigenbundle is complex (the eigenprojector, the eigenframe members and
their Nijenhuis tables).  A stray complex constant would turn every jet
downstream of it complex again, silently: the results would not change, only
the cost of every contraction."""

import numpy as np
import pytest

from gencontact import cone as C
from gencontact import config, gallery
from gencontact import deformations as D
from gencontact import exprs as E
from gencontact import fields as F
from gencontact import jets as J
from gencontact import structures as S
from test_demand import _structure_fields
from test_gallery import DARBOUX7_CONFIG, DEFORM_CONFIG


def _parsed(cls, chart, texts):
    """The ``cls`` field of (nested lists of) expression strings."""
    comps = np.vectorize(lambda t: E.parse_scalar(t, chart), otypes=[object])(texts)
    return E.component_field(cls, chart, comps.tolist())


def _darboux7():
    return {"gacs": config.parse_structure(DARBOUX7_CONFIG["structure"]).gacs}


def _deform_pipeline():
    """The deform pin's form taken through K-(kappa), B, K+(kappa) and normalize,
    with every step's structure and data."""
    chart = config.parse_chart(DEFORM_CONFIG["structure"]["chart"], "$")
    k_minus, b_field, k_plus, _ = DEFORM_CONFIG["apply"]
    eta = _parsed(F.OneFormField, chart, DEFORM_CONFIG["structure"]["eta"])
    kappa_minus = _parsed(F.OneFormField, chart, k_minus["kappa"])
    b = _parsed(F.TwoFormField, chart, b_field["B"])
    kappa_plus = _parsed(F.OneFormField, chart, k_plus["kappa"])
    steps = [S.gacs_from_contact(eta)]
    steps.append(D.k_minus(steps[-1], kappa_minus))
    steps.append(S.b_transform(steps[-1], b))
    steps.append(D.k_plus(steps[-1], kappa_plus))
    normalized, alpha, beta = D.normalize(steps[-1], chart.sample(seed=2, count=12))
    return {"eta": eta, "kappa": (kappa_minus, kappa_plus), "b": b, "steps": tuple(steps),
            "gacs": normalized, "alpha": alpha, "beta": beta}


BUILDS = {**{name: (lambda name=name: gallery.entry(name).build()) for name in gallery.names()},
          "darboux7": _darboux7, "deform_pipeline": _deform_pipeline}


def _structures(products):
    """Every Gacs among the products, with the dual of each one that has a metric."""
    found = [obj for _, obj in _walk(products) if isinstance(obj, S.Gacs)]
    return found + [s.dual for s in found if s.metric is not None]


def _walk(products):
    for key in sorted(products):
        items = products[key] if isinstance(products[key], tuple) else (products[key],)
        for item in items:
            yield key, item


def _dtypes(field, pts, order):
    return {part.dtype for part in J.parts(field.at(pts, order), 1)}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_real_data_stays_float64_and_only_the_plus_i_eigenbundle_is_complex(name):
    products = BUILDS[name]()
    structures = _structures(products)
    assert structures
    pts = structures[0].chart.sample(seed=5, count=3)
    real = _structure_fields(products)
    real += [(f"dual.{k}", f) for k, s in enumerate(structures) for f in (s.Phi, s.Eplus, s.Eminus)]
    cone_pts = C.cone_points(pts[:2])
    for s in structures:
        if s.f is None:
            real += [("i_prime", C.i_prime(s)), ("i_map", C.i_map(s))]
    for label, field in real:
        p = cone_pts if isinstance(field.chart, C.ConeChart) else pts
        assert _dtypes(field, p, 2) == {np.dtype(np.float64)}, label

    frames = [s for s in structures if s.f is None]
    assert frames
    for s in frames:
        complex_fields = [S.eigen_projector(s.Phi, s.Eplus, s.Eminus), *s.frame.e10]
        for field in complex_fields:
            assert _dtypes(field, pts, 2) == {np.dtype(np.complex128)}
        assert s.frame.table.values(pts).dtype == np.complex128
        for member in C.gacx_plus_frame(C.i_map(s)):
            assert _dtypes(member, cone_pts, 2) == {np.dtype(np.complex128)}
