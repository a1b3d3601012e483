"""Coordinate charts: open boxes with named coordinates and seeded sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

#: fraction of each interval kept away from the boundary when sampling
SAMPLE_MARGIN = 0.05


def default_names(dim: int) -> Tuple[str, ...]:
    if dim <= 3:
        return ("x", "y", "z")[:dim]
    return tuple(f"x{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class Chart:
    """An open coordinate box with a deterministic interior sampler."""

    dim: int
    domain: Tuple[Tuple[float, float], ...]
    names: Tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be positive")
        if len(self.domain) != self.dim:
            raise ValueError("domain must list one interval per coordinate")
        for lo, hi in self.domain:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bad interval ({lo}, {hi})")
        if not self.names:
            object.__setattr__(self, "names", default_names(self.dim))
        if len(self.names) != self.dim:
            raise ValueError("need one coordinate name per dimension")

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def sample(self, seed: int, count: int) -> np.ndarray:
        """``count`` interior points, strictly inside a 5% margin. Deterministic."""
        rng = np.random.default_rng(seed)
        lo = np.array([d[0] for d in self.domain])
        hi = np.array([d[1] for d in self.domain])
        width = hi - lo
        u = rng.uniform(size=(count, self.dim))
        return lo + width * (SAMPLE_MARGIN + (1 - 2 * SAMPLE_MARGIN) * u)

    def contains(self, point: Sequence[float]) -> bool:
        p = np.asarray(point, dtype=float)
        return all(lo < v < hi for v, (lo, hi) in zip(p, self.domain))


def box(dim: int, lo: float = -1.0, hi: float = 1.0, names: Optional[Sequence[str]] = None) -> Chart:
    return Chart(dim, tuple((lo, hi) for _ in range(dim)), tuple(names or ()))


@dataclass(frozen=True)
class ConeChart(Chart):
    """Chart on the cone M x R, base coordinates first, t last.

    The radial coordinate of the cone is r = e^t, so any t-interval is a
    legitimate slice of M x R_{>0}.
    """

    base: Chart = None  # type: ignore[assignment]

    @staticmethod
    def over(base: Chart) -> "ConeChart":
        """The cone over ``base``, with t in (-1, 1)."""
        return ConeChart(
            dim=base.dim + 1,
            domain=base.domain + ((-1.0, 1.0),),
            names=base.names + ("t",),
            base=base,
        )

    @property
    def t_index(self) -> int:
        return self.dim - 1
