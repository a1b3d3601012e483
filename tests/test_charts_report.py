"""Chart sampling and residual report plumbing."""

import json

import numpy as np
import pytest

from gencontact.charts import Chart, ConeChart, box
from gencontact.report import CheckRow, ResidualReport


def test_sample_margin_and_determinism():
    ch = Chart(3, ((-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0)))
    pts = ch.sample(seed=5, count=200)
    assert pts.shape == (200, 3)
    for (lo, hi), col in zip(ch.domain, pts.T):
        width = hi - lo
        assert col.min() >= lo + 0.05 * width - 1e-12
        assert col.max() <= hi - 0.05 * width + 1e-12
    again = ch.sample(seed=5, count=200)
    assert np.array_equal(pts, again)
    other = ch.sample(seed=6, count=200)
    assert not np.array_equal(pts, other)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(0, ())
    with pytest.raises(ValueError):
        Chart(2, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        Chart(1, ((1.0, 0.0),))
    with pytest.raises(ValueError):
        Chart(2, ((0.0, 1.0), (0.0, 1.0)), ("x",))


def test_default_names_and_lookup():
    assert box(3).names == ("x", "y", "z")
    assert box(5).names == ("x1", "x2", "x3", "x4", "x5")


def test_cone_chart():
    base = box(3)
    cone = ConeChart.over(base)
    assert cone.dim == 4
    assert cone.names == ("x", "y", "z", "t")
    assert cone.t_index == 3
    assert cone.domain[3] == (-1.0, 1.0)
    pts = cone.sample(seed=2, count=50)
    assert np.abs(pts[:, 3]).max() <= 1.0 - 0.1


def test_report_rows_and_serialization():
    rep = ResidualReport()
    rep.add("a", [1e-12, 3e-11], points=[[0, 0], [1, 1]], tolerance=1e-8)
    rep.add("b", [0.5], tolerance=1e-2)
    rep.add("probe", [7.0], tolerance=None)
    assert rep["a"].passed is True
    assert rep["b"].passed is False
    assert rep["probe"].passed is None
    assert not rep.passed  # b fails, the probe does not count
    assert rep.max_residual == 0.5  # probes excluded
    payload = json.loads(rep.to_json(seed=3))
    assert payload["seed"] == 3 and payload["pass"] is False
    assert payload["results"][0]["argmax_point"] == [1.0, 1.0]
    # deterministic text
    assert rep.to_json() == rep.to_json()
    summary = rep.summary()
    assert "PASS" in summary and "FAIL" in summary and "----" in summary


def test_summary_margin_column():
    """Gated rows end with log10(tol / max residual), inf at a zero residual;
    probe rows carry no margin, and the JSON report has no margin field."""
    rep = ResidualReport()
    rep.add("tight", [1e-12, 3e-11], tolerance=1e-8)
    rep.add("exact", [0.0, 0.0], tolerance=1e-8)
    rep.add("broken", [0.5], tolerance=1e-2)
    rep.add("probe", [7.0], tolerance=None)
    lines = dict(zip(("tight", "exact", "broken", "probe"), rep.summary().splitlines()))
    assert lines["tight"].endswith(f"(tol 1e-08) margin {np.log10(1e-8 / 3e-11):.2f}")
    assert lines["tight"].endswith("margin 2.52")
    assert lines["exact"].endswith("(tol 1e-08) margin inf")
    assert lines["broken"].endswith("margin -1.70")
    assert lines["probe"] == "----  probe: max 7.000e+00"
    assert "margin" not in rep.to_json()

