"""Demand-driven jet order: the one-slot memo, how far demands reach, and order-independent values."""

import dataclasses

import numpy as np
import pytest

from gencontact import deformations as D
from gencontact import fields as F
from gencontact import gallery
from gencontact import integrability as I
from gencontact import jets as J
from gencontact import structures as S
from gencontact.charts import box
from gencontact.report import EmptyPointSetError

CH = box(3)
P = np.array([0.3, -0.2, 0.5])
BATCH = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
POINT_SETS = (P, BATCH)  # a single point and a point batch each make one memo key


def _recording_field(calls):
    def fn(p, order):
        calls.append(order)
        return J.seed_point(p, 3, order)[0] * J.seed_point(p, 3, order)[1]

    return F.ScalarField(CH, fn)


def test_memo_serves_a_lower_demand_by_truncation():
    for pts in POINT_SETS:
        calls = []
        f = _recording_field(calls)
        full = f.at(pts, 2)
        low = f.at(pts, 0)
        mid = f.at(pts, 1)
        assert calls == [2]
        assert low.order == 0 and mid.order == 1
        assert np.array_equal(low.value, full.value)
        assert np.array_equal(mid.grad, full.grad)


def test_memo_lower_entry_never_serves_a_higher_demand():
    for pts in POINT_SETS:
        calls = []
        f = _recording_field(calls)
        assert f.at(pts, 0).order == 0
        assert f.at(pts, 1).order == 1
        assert calls == [0, 1]
        f.values(pts)  # served by the order-1 entry
        assert calls == [0, 1]


def test_demand_is_capped_at_two():
    for pts in POINT_SETS:
        calls = []
        f = _recording_field(calls)
        assert f.at(pts, 5).order == 2
        assert calls == [2]


def test_memo_key_carries_the_batch_shape():
    """A point (n,) and a one-point batch (1, n) have the same bytes, not the same key."""
    calls = []
    f = _recording_field(calls)
    single = f.at(P, 2)
    one = f.at(P[None], 2)
    assert P.tobytes() == P[None].tobytes()
    assert calls == [2, 2]
    assert single.value.shape == () and one.value.shape == (1,)
    assert one.grad.shape == (1, 3) and np.array_equal(one.grad[0], single.grad)


def test_memo_demand_at_a_new_batch_replaces_the_slot():
    calls = []
    f = _recording_field(calls)
    f.at(BATCH, 1)
    f.at(BATCH[::-1], 0)  # other points: a miss, and the slot now holds them
    assert calls == [1, 0]
    f.at(BATCH[::-1], 0)
    assert calls == [1, 0]
    f.at(BATCH, 0)  # the first batch was replaced, so it is computed again
    assert calls == [1, 0, 0]


def test_constants_lift_at_the_order_of_the_jet():
    x = J.seed_point(P, 3, 0)[0]
    for out in (x + 1.0, 2.0 * x, x / 3.0, 1.0 - x, 1.0 / x, x ** 0):
        assert out.order == 0 and out.grad is None
    assert (J.seed_point(P, 3, 1)[0] * 2.0).order == 1


def _orders_requested(monkeypatch):
    seen = []
    seed = J.seed_point

    def recording(point, nvars, order=J.MAX_ORDER):
        seen.append(order)
        return seed(point, nvars, order)

    monkeypatch.setattr(J, "seed_point", recording)
    return seen


def test_value_checks_on_darboux7_demand_no_hessian(monkeypatch):
    seen = _orders_requested(monkeypatch)
    s = gallery.darboux(3)["gacs"]  # fresh fields, empty memos
    pts = s.chart.sample(seed=3, count=4)
    assert S.gacs_check(s, pts).passed
    assert D.fgacs_check(s, pts).passed
    # eta enters d(eta) inside Phi and the Reeb field, so it is asked for order 1
    assert seen and max(seen) == 1


def _frame_orders(monkeypatch):
    orders = []
    frame_nij = S.frame_nij

    def recording(jets, n):
        orders.extend(j.order for j in jets)
        return frame_nij(jets, n)

    monkeypatch.setattr(S, "frame_nij", recording)  # nij_table reads it from structures
    return orders


def test_max_nij_over_frame_hands_frame_nij_order_one_jets(monkeypatch):
    orders = _frame_orders(monkeypatch)
    s = gallery.darboux(1)["gacs"]
    label, _ = S.involutivity_class(s, s.chart.sample(seed=4, count=2))
    assert label == "contact(-)"
    assert orders and set(orders) == {1}


def test_cone_crosscheck_hands_frame_nij_order_one_jets(monkeypatch):
    orders = _frame_orders(monkeypatch)
    s = gallery.heisenberg_cone_kahler()["gacs"]
    assert I.cone_crosscheck(s, s.chart.sample(seed=4, count=2), ts=(0.1,)).passed
    assert orders and set(orders) == {1}


def _structure_fields(products):
    """(name, field) for every field of a gallery entry, records unpacked, in a fixed order."""
    out = []

    def walk(name, obj):
        if isinstance(obj, F.Field):
            out.append((name, obj))
        elif isinstance(obj, (tuple, list)):
            for i, item in enumerate(obj):
                walk(f"{name}[{i}]", item)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(f"{name}.{f.name}", getattr(obj, f.name))
            if isinstance(obj, S.AlmostContactMetric) and obj.g is not None:
                walk(f"{name}.theta", obj.theta)

    for key in sorted(products):
        walk(key, products[key])
    return out


@pytest.mark.parametrize("name", gallery.names())
def test_lower_orders_match_the_full_jet_bit_for_bit(name):
    entry = gallery.entry(name)
    builds = {order: _structure_fields(entry.build()) for order in (0, 1, 2)}
    pts = builds[2][0][1].chart.sample(seed=11, count=3)
    assert len(builds[2]) >= 4
    for k, (label, full_field) in enumerate(builds[2]):
        for p in pts:
            full = full_field.at(p, 2)
            value = builds[0][k][1].at(p, 0)
            first = builds[1][k][1].at(p, 1)
            assert value.order == 0, label
            assert np.array_equal(value.value, full.value), label
            assert np.array_equal(first.value, full.value), label
            if full.grad is not None:
                assert np.array_equal(first.grad, full.grad), label


def test_empty_point_sets_are_refused_by_name():
    heis = gallery.build("heisenberg_sasakian")
    with pytest.raises(EmptyPointSetError, match="sample point set is empty"):
        I.sasakian_criterion(heis["acs"], [])
    with pytest.raises(EmptyPointSetError, match="sample point set is empty"):
        S.gacs_check(heis["gacs"], [])
