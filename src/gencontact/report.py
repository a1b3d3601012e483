"""Residual reports: named max/mean residual rows with pass/fail flags.

Checkers build their rows from value stacks with the sample axis first: a
field is evaluated once over the whole (P, n) point set, and
:func:`stack_values` moves the batch axis of its ``(*comps, P)`` values to
the front, giving ``(P, *comps)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np


class EmptyPointSetError(ValueError):
    """A sample-set checker was given no points to evaluate at."""


@dataclass
class CheckRow:
    name: str
    max_residual: float
    mean_residual: float
    argmax_point: Optional[List[float]]
    tolerance: Optional[float]  # None marks an informational probe

    @property
    def passed(self) -> Optional[bool]:
        if self.tolerance is None:
            return None
        return bool(self.max_residual < self.tolerance)

    def to_dict(self) -> dict:
        return {
            "condition": self.name,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "argmax_point": self.argmax_point,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


@dataclass
class ResidualReport:
    rows: List[CheckRow] = field(default_factory=list)

    def add(self, name: str, values: Sequence[float], points=None,
            tolerance: Optional[float] = None) -> CheckRow:
        vals = np.asarray([float(v) for v in values], dtype=float)
        if vals.size == 0:
            row = CheckRow(name, 0.0, 0.0, None, tolerance)
        else:
            k = int(np.argmax(vals))
            arg = None
            if points is not None:
                arg = [float(c) for c in np.asarray(points[k]).ravel()]
            row = CheckRow(name, float(vals[k]), float(vals.mean()), arg, tolerance)
        self.rows.append(row)
        return row

    def extend(self, other: "ResidualReport", prefix: str = "") -> "ResidualReport":
        for row in other.rows:
            self.rows.append(
                CheckRow(prefix + row.name, row.max_residual, row.mean_residual,
                         row.argmax_point, row.tolerance)
            )
        return self

    def __getitem__(self, name: str) -> CheckRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows if row.passed is not None)

    @property
    def max_residual(self) -> float:
        gated = [r.max_residual for r in self.rows if r.tolerance is not None]
        return max(gated) if gated else 0.0

    def to_dict(self) -> dict:
        return {"results": [r.to_dict() for r in self.rows], "pass": self.passed}

    def to_json(self, **extra) -> str:
        payload = dict(extra)
        payload.update(self.to_dict())
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> str:
        """One line per row; gated rows end with their margin log10(tol / max residual)."""
        lines = []
        for r in self.rows:
            flag = "----" if r.passed is None else ("PASS" if r.passed else "FAIL")
            tol = "" if r.tolerance is None else f" (tol {r.tolerance:g}) margin {margin(r):.2f}"
            lines.append(f"{flag}  {r.name}: max {r.max_residual:.3e}{tol}")
        return "\n".join(lines)


def margin(row: CheckRow) -> float:
    """Decades between a gated row's tolerance and its max residual (inf at zero)."""
    if row.max_residual <= 0:
        return math.inf
    return math.log10(row.tolerance / row.max_residual)


def map_points(fn: Callable, points: Iterable) -> list:
    """Apply fn over sample points in order.

    The checkers evaluate each field once per point set and no longer call
    this; ``benchmarks/tracer.py`` still resolves it by name.
    """
    return [fn(p) for p in points]


def _require_points(count: int):
    if count == 0:
        raise EmptyPointSetError("the sample point set is empty; checks need at least one point")


def stack_values(field, points) -> np.ndarray:
    """A field's values (one order-0 jet over the (P, n) point set) as a (P, ...) array."""
    _require_points(len(points))
    return batch_first(field.values(np.asarray(points, dtype=float)))


def batch_first(values: np.ndarray) -> np.ndarray:
    """Values ``(*comps, P)`` of a one-axis batch as a C-contiguous ``(P, *comps)`` stack."""
    return np.ascontiguousarray(np.moveaxis(values, -1, 0))


def sup_norm(stack: np.ndarray) -> np.ndarray:
    """Max |entry| of each point's value in a (P, ...) stack."""
    _require_points(len(stack))
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)
