"""Built-in example structures used as fixtures by every checker.

Each entry builds closed-form data on an explicit chart and records which
checks it is expected to pass; the golden tests reproduce that table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

import numpy as np

from . import fields as F
from . import jets as J
from .charts import Chart, box
from .fields import MatrixField, OneFormField
from .structures import (
    AlmostContactMetric,
    Gacs,
    gacs_from_acs,
    gacs_from_contact,
    gmetric_from_gb,
)


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    description: str
    builder: Callable[[], dict]
    expected: Dict[str, bool]

    def build(self) -> dict:
        return self.builder()


# -- Darboux contact charts ------------------------------------------------------


def darboux_eta(k: int = 1) -> OneFormField:
    """eta = dz - sum_i y_i dx_i on R^(2k+1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        chart = box(3)
        names = ("x", "y", "z")
    else:
        names = tuple(f"x{i+1}" for i in range(k)) + tuple(f"y{i+1}" for i in range(k)) + ("z",)
        chart = box(2 * k + 1, names=names)
    comps = []
    for i in range(k):
        comps.append(-1 * F.coordinate(chart, k + i))  # -y_i in the dx_i slot
    comps += [F.constant(chart, 0)] * k
    comps.append(F.constant(chart, 1))
    return F.one_form(chart, comps)


def darboux(k: int = 1) -> dict:
    eta = darboux_eta(k)
    chart = eta.chart
    gacs = gacs_from_contact(eta)
    return {"chart": chart, "eta": eta, "gacs": gacs}


# -- Heisenberg Sasakian ---------------------------------------------------------


def _heisenberg_data(distribution_scale: float) -> dict:
    chart = box(3)
    y = F.coordinate(chart, 1)
    eta = F.one_form(chart, [-1 * y, F.constant(chart, 0), F.constant(chart, 1)])
    xi = F.basis_vector(chart, 2)
    zero = F.constant(chart, 0)
    one = F.constant(chart, 1)
    a = F.constant(chart, distribution_scale)
    g = F.matrix_field(
        chart,
        [[a + y * y, zero, -1 * y], [zero, a, zero], [-1 * y, zero, one]],
    )

    # phi e1 = -e2: the sign the Sasakian criterion picks for both normalisations
    s = F.constant(chart, -1.0)
    phi = F.matrix_field(
        chart,
        [[zero, -1 * s, zero], [s, zero, zero], [zero, -1 * (s * y), zero]],
    )
    acs = AlmostContactMetric(chart, phi, xi, eta, g)
    return {"chart": chart, "acs": acs, "gacs": sasakian_to_gs(acs)}


def heisenberg_sasakian() -> dict:
    """The standard Sasakian structure on the Heisenberg chart R^3.

    eta = dz - y dx, xi = d/dz, g = eta (x) eta + dx^2 + dy^2; phi rotates
    the orthonormal legs e1 = d/dx + y d/dz, e2 = d/dy with the sign fixed
    by the Sasakian criterion theta = d eta (determinant convention, which
    is the convention of this package's exterior derivative).
    """
    return _heisenberg_data(1.0)


def heisenberg_cone_kahler() -> dict:
    """Heisenberg structure normalised so the cone metric is Kaehler.

    Same (phi, xi, eta) as heisenberg_sasakian with the distribution metric
    halved, so 2 theta = d eta.  With this package's exterior derivative the
    closure of the cone 2-form e^2t (dt ^ eta + theta) needs exactly that
    factor, and it is this variant whose metric lift passes both branches
    of the generalized Sasakian check; the unit-normalised variant passes
    the pointwise criterion theta = d eta instead.  The two normalisations
    cannot be reconciled inside one structure.
    """
    return _heisenberg_data(0.5)


# -- the warped Kaehler interval --------------------------------------------------


def kahler_interval() -> dict:
    """M = R^2 x (0, pi/2) with g = sin(2z) g' + dz^2 over the flat Kaehler plane.

    Both classical structures (+-phi, xi, eta, g) are normal but not
    Sasakian; the displayed (G, Phi, E+-) form a generalized almost contact
    metric structure that passes the generalized Sasakian checks.
    """
    chart = Chart(3, ((-1.0, 1.0), (-1.0, 1.0), (0.0, np.pi / 2)), ("x", "y", "z"))
    zero = F.constant(chart, 0)
    one = F.constant(chart, 1)
    z = F.coordinate(chart, 2)
    s2z = F.ScalarField(chart, lambda p, o: J.sin(2 * z.jet(p, o)))
    c2z = F.ScalarField(chart, lambda p, o: J.cos(2 * z.jet(p, o)))
    g = F.matrix_field(chart, [[s2z, zero, zero], [zero, s2z, zero], [zero, zero, one]])
    # J' d/dy = d/dx, J' d/dx = -d/dy, so that omega'(X, Y) = g'(X, J'Y) = dx ^ dy
    phi = F.constant(chart, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], MatrixField)
    xi = F.basis_vector(chart, 2)
    eta = F.basis_form(chart, 2)
    acs_plus = AlmostContactMetric(chart, phi, xi, eta, g)
    acs_minus = acs_plus.flipped()

    omega_prime = F.wedge11(F.basis_form(chart, 0), F.basis_form(chart, 1))
    b = -1 * (c2z * omega_prime)
    metric = gmetric_from_gb(g, b)

    # Phi = e^b (0, rho / sin 2z; -sin 2z omega', 0) e^-b with rho = omega'^-1.
    # The off-diagonal blocks contract in the second slot (see
    # gacs_from_contact): with i_X-style map matrices that negates both.
    omega_map = F.constant(chart, [[0, -1, 0], [1, 0, 0], [0, 0, 0]], MatrixField)
    rho_map = F.constant(chart, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], MatrixField)
    inv_s = one / s2z
    middle = F.endo_from_blocks(None, -1 * (inv_s * rho_map), s2z * omega_map, None)
    gacs = Gacs(chart, *F.b_action(b, middle, F.section(vec=xi), F.section(form=eta)),
                metric=metric)
    return {
        "chart": chart,
        "acs_pair": (acs_plus, acs_minus),
        "gacs": gacs,
        "b": b,
        "omega_prime": omega_prime,
        "g": g,
    }


def sasakian_to_gs(acs: AlmostContactMetric) -> Gacs:
    """Metric lift of a Sasakian structure: G = (0, g^-1; g, 0), Phi = diag(phi, -phi*), E+ = xi, E- = eta."""
    if acs.g is None:
        raise ValueError("need a metric")
    return replace(gacs_from_acs(acs), metric=gmetric_from_gb(acs.g))


# -- registry ---------------------------------------------------------------------


ENTRIES: Tuple[GalleryEntry, ...] = (
    GalleryEntry(
        "darboux",
        "standard contact chart eta = dz - y dx with its bivector lift",
        darboux,
        expected={
            "gacs": True,
            "phi_kernel": True,
            "fgacs": True,
            "cone_algebra": True,
            # L- is involutive but L+ is not, so neither the strong class nor
            # the conjugated cone integrability holds
            "involutivity": False,
            "plain_cone": False,
            "rcone_condition": False,
        },
    ),
    GalleryEntry(
        "heisenberg_sasakian",
        "Sasakian structure on the Heisenberg chart (theta = d eta normalisation)",
        heisenberg_sasakian,
        expected={
            "acms": True,
            "normality": True,
            "sasakian": True,
            "gacs": True,
            "phi_kernel": True,
            "gacm": True,
            # the classical branch of the cone lift is integrable, but the
            # companion (G Phi, G E+-) branch needs 2 theta = d eta
            "generalized_sasakian": False,
            "vaisman_pair": True,
            # L+ and L- both involutive: the strong class
            "involutivity": True,
        },
    ),
    GalleryEntry(
        "heisenberg_cone_kahler",
        "Heisenberg structure with the cone-Kaehler normalisation 2 theta = d eta",
        heisenberg_cone_kahler,
        expected={
            "acms": True,
            "normality": True,
            "sasakian": False,
            "gacs": True,
            "phi_kernel": True,
            "gacm": True,
            "generalized_sasakian": True,
        },
    ),
    GalleryEntry(
        "kahler_interval",
        "warped Kaehler interval: generalized Sasakian, not a Sasakian pair",
        kahler_interval,
        expected={
            "acms": True,
            "normality": True,
            "sasakian": False,
            "gacm": True,
            "generalized_sasakian": True,
            "vaisman_pair": True,
        },
    ),
)


_CACHE: Dict[str, dict] = {}


def names() -> Tuple[str, ...]:
    return tuple(e.name for e in ENTRIES)


def entry(name: str) -> GalleryEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"unknown gallery entry {name!r}; available: {', '.join(names())}")


def build(name: str) -> dict:
    if name not in _CACHE:
        _CACHE[name] = entry(name).build()
    return _CACHE[name]
