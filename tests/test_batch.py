"""One evaluation per point set: a batched jet equals the per-point jets stacked on its batch axis."""

import numpy as np
import pytest

from gencontact import deformations as D
from gencontact import fields as F
from gencontact import gallery
from gencontact import jets as J
from gencontact import structures as S
from oracles import batch_stack, l_plus
from test_demand import _structure_fields


def _assert_bitwise(batched, stacked, label):
    assert batched.order == stacked.order, label
    for part in ("value", "grad", "hess"):
        a, b = getattr(batched, part), getattr(stacked, part)
        assert (a is None) == (b is None), (label, part)
        if a is not None:
            assert a.shape == b.shape, (label, part)
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), \
                (label, part)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", gallery.names())
def test_batched_jets_equal_the_per_point_jets_bit_for_bit(name, order):
    entry = gallery.entry(name)
    # two fresh builds, so that neither evaluation is served from the other's memo
    batched_fields = _structure_fields(entry.build())
    point_fields = _structure_fields(entry.build())
    pts = batched_fields[0][1].chart.sample(seed=13, count=4)
    assert len(batched_fields) >= 4
    for (label, fb), (_, fp) in zip(batched_fields, point_fields):
        # the order may fall short of the demand where nesting meets the cap
        _assert_bitwise(fb.at(pts, order), batch_stack([fp.at(p, order) for p in pts]), label)


def _per_point_rows(check, structure, pts):
    """{row: per-point max residual} from one single-point report per point."""
    rows = {}
    for p in pts:
        for row in check(structure, [p]).rows:
            rows.setdefault(row.name, []).append(row.max_residual)
    return rows


def _assert_matches_per_point(check, structure, pts):
    report = check(structure, pts)
    rows = _per_point_rows(check, structure, pts)
    for row in report.rows:
        vals = np.asarray(rows[row.name])
        assert row.max_residual == vals.max(), row.name
        assert row.mean_residual == vals.mean(), row.name
        assert row.argmax_point == pts[int(np.argmax(vals))].tolist(), row.name


def _darboux7_points():
    d7 = gallery.darboux(3)
    return d7["gacs"], d7["chart"].sample(seed=17, count=7)


def test_point_count_equal_to_the_chart_dimension():
    """3 points on the 3-dim chart and 7 on the 7-dim one: a constant lifted
    without its batch shape would broadcast its last component axis against
    the batch axis here without raising."""
    heis = gallery.build("heisenberg_sasakian")["gacs"]
    darboux7, pts7 = _darboux7_points()
    for s, pts in ((heis, heis.chart.sample(seed=17, count=3)), (darboux7, pts7)):
        assert len(pts) == s.chart.dim
        _assert_matches_per_point(S.gacs_check, s, pts)
        _assert_matches_per_point(D.fgacs_check, s, pts)


def test_deformed_fgacs_at_a_chart_dimension_point_count():
    """A K-deformed f-structure mixes lifted constants, pairings and scalings."""
    heis = gallery.build("heisenberg_sasakian")
    ch = heis["chart"]
    kappa = F.one_form(ch, [F.coordinate(ch, 2), F.constant(ch, 0.3), F.coordinate(ch, 0)])
    s = D.k_plus(D.k_minus(heis["gacs"], kappa), F.basis_form(ch, 1))
    _assert_matches_per_point(D.fgacs_check, s, ch.sample(seed=19, count=3))


@pytest.mark.parametrize("entry", ["heisenberg_sasakian", "darboux7"])
def test_frame_nij_over_a_batch_equals_the_per_point_tables(entry):
    if entry == "darboux7":
        s, pts = _darboux7_points()
    else:
        s = gallery.build(entry)["gacs"]
        pts = s.chart.sample(seed=17, count=3)
    assert len(pts) == s.chart.dim
    members = l_plus(S.eigenframe(s))
    n = s.chart.dim
    table = S.frame_nij([m.jet(pts, 1) for m in members], n).value
    assert table.shape == (len(pts), len(S.triples(len(members))))
    for k, p in enumerate(pts):
        single = S.frame_nij([m.jet(p, 1) for m in members], n).value
        assert single.shape == table.shape[1:]
        assert np.array_equal(table[k], single), k


def test_values_are_a_c_contiguous_batch_first_stack():
    """Field.values over (*B, n) points is the C-contiguous (*B, *comps) stack of
    the per-point values, and one point's values have no batch axis at all."""
    s = gallery.build("heisenberg_sasakian")["gacs"]
    pts = s.chart.sample(seed=13, count=4)
    for field in (s.Phi, s.Eplus, s.Eminus, s.frame.table):
        stack = field.values(pts.reshape(2, 2, -1))
        assert stack.flags.c_contiguous and stack.shape == (2, 2) + field.values(pts[0]).shape
        for k, p in enumerate(pts):
            assert np.array_equal(stack[k // 2, k % 2], field.values(p))
    x = F.coordinate(s.chart, 0).values(pts[1])
    assert x.shape == () and complex(x) == pts[1][0]
