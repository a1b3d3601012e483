"""Fields on charts: jet-valued closures plus exterior/Courant calculus.

A field evaluates at a point array of shape ``(*B, n)`` to one
:class:`~gencontact.jets.JetArray` for the whole batch, holding the
component values and their exact derivatives up to the order its consumer
demands: ``field.at(points, order)``, with ``order`` capped at 2.  A single
point is the batch ``B = ()`` and takes the same code path.
``field.values(points)`` reads the values batch first, as a C-contiguous
``(*B, *comps)`` stack (a Nijenhuis table's are ``(*B, T)``).  A field is a
closure ``fn(p, order)`` over such a point array, and the order flows from
each consumer down to the leaves, which read the batch shape
``p.shape[:-1]``.  Algebraic combinators ask their inputs for the
same order; operations that consume a derivative (exterior and Lie
derivative, Courant bracket) ask theirs for one order more.  A
checker that reads only values thus never pays for a hessian, while a jet of
a given order has the same values and gradient whatever it was demanded
for.  Nesting deeper than the order-2 cap allows returns a jet of lower
order than demanded, and reading the missing data raises ``JetOrderError``.

How a jet's value, gradient and hessian are laid out, read, sliced, moved
and joined is decided in :mod:`gencontact.jets` alone: this module reads a
jet with ``jets.parts``, moves component axes with ``JetArray.moveaxis``,
maps the parts with ``JetArray.map`` and joins them with ``jets.concat``.  A
derivative is consumed by ``jets.dshift``, which makes the derivative axis
the first component axis, so d and the Courant bracket contract with plain
specs (``'j,ji->i'`` for X^j d_j Y^i).  Batch axes broadcast, so
``courant_jets`` brackets a stack of section pairs laid out on batch axes
in one call, item by item as the unbatched call would.

Generalized-tangent conventions on jets: ``swap_jet`` (the pairing swap,
one ``JetArray.map``), ``block_jet`` (the (2n, 2n) block layout),
``b_endo`` (e^B) and ``b_action``.  A constant enters through one leaf,
``constant(chart, value, cls)`` (a scalar or a component array, as a field
of any class), and a zero part of ``section``, ``endo_from_blocks`` or
``block_jet`` is passed as ``None``: ``jets.concat`` builds the zeros.

Form components are stored as full antisymmetric arrays.  The wedge and the
exterior derivative use the determinant convention,

    (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X),
    d(omega)(X, Y) = X omega(Y) - Y omega(X) - omega([X, Y]),

so d(dz - y dx) has component value 1 on the (x, y) slot.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import gta
from . import jets as J
from .charts import Chart
from .jets import MAX_ORDER, JetArray
from .report import EmptyPointSetError


class Field:
    """A chart plus a pure (points, order) -> JetArray closure with a one-slot memo.

    The slot holds the last point array evaluated, keyed on its batch shape
    and bytes, with the highest order demanded there so far and its jet.  A
    demand at that order or below is served by truncating the jet; a higher
    demand, or a demand at other points, calls the closure and replaces the
    slot.
    """

    def __init__(self, chart: Chart, fn: Callable[[np.ndarray, int], JetArray]):
        self.chart = chart
        self._fn = fn
        self._memo = None  # (key, order, jet)

    def at(self, point, order: int = MAX_ORDER) -> JetArray:
        """The jet at the points ``(*B, n)`` to ``order`` (capped at 2); the full jet by default."""
        return self.jet(point, order)

    def jet(self, point, order: int) -> JetArray:
        """The jet at the points ``(*B, n)`` to ``order``, as :meth:`at`.

        Closures demand their inputs through this method; ``at`` keeps the
        one-argument call form for outside callers and for wrappers that
        forward only the point.
        """
        order = min(order, MAX_ORDER)
        p = np.asarray(point, dtype=float)
        key = (p.shape[:-1], p.tobytes())
        memo = self._memo
        if memo is not None and memo[1] >= order and memo[0] == key:
            return memo[2].truncate(order)
        jet = self._fn(p, order).truncate(order)
        self._memo = (key, order, jet)
        return jet

    def values(self, point) -> np.ndarray:
        """The values at the points ``(*B, n)``, a C-contiguous ``(*B, *comps)`` stack."""
        p = np.asarray(point, dtype=float)
        if len(p) == 0:
            raise EmptyPointSetError("the sample point set is empty; checks need at least one point")
        return np.asarray(J.parts(self.jet(p, 0), p.ndim - 1)[0], order="C")

    # -- shared combinators --------------------------------------------------

    def _wrap(self, fn) -> "Field":
        return type(self)(self.chart, fn)

    def __add__(self, other):
        _same_chart(self, other)
        return self._wrap(lambda p, o: self.jet(p, o) + other.jet(p, o))

    def __sub__(self, other):
        _same_chart(self, other)
        return self._wrap(lambda p, o: self.jet(p, o) - other.jet(p, o))

    def __neg__(self):
        return self._wrap(lambda p, o: -self.jet(p, o))

    def __mul__(self, c):
        if isinstance(c, ScalarField):
            _same_chart(self, c)
            # the scalar's (*B) jet scales every component of the (*B, *comps) jet
            return self._wrap(lambda p, o: c.jet(p, o) * self.jet(p, o))
        return self._wrap(lambda p, o: self.jet(p, o) * c)

    __rmul__ = __mul__


def _same_chart(a: Field, b: Field, message: str = "fields live on different charts"):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError(message)


class ScalarField(Field):
    def __mul__(self, c):
        # a field factor keeps its class, and this scalar's jet goes first
        return Field.__mul__(c, self) if isinstance(c, Field) else Field.__mul__(self, c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, ScalarField):
            _same_chart(self, c)
            return ScalarField(self.chart, lambda p, o: self.jet(p, o) / c.jet(p, o))
        return ScalarField(self.chart, lambda p, o: self.jet(p, o) / c)


class VectorField(Field):
    pass


class OneFormField(Field):
    pass


class TwoFormField(Field):
    pass


class ThreeFormField(Field):
    pass


class SectionField(Field):
    """Section of (TM + T*M) x C: 2n components, vector part first."""


class _SquareField(Field):
    """Square matrices of scalars: ``a @ b`` keeps a's class, ``apply`` gives an ``image``."""

    image: type

    def __matmul__(self, other):
        _same_chart(self, other)
        return self._wrap(lambda p, o: J.jet_einsum("ij,jk->ik", self.jet(p, o), other.jet(p, o)))

    def apply(self, x):
        _same_chart(self, x)
        return self.image(
            self.chart, lambda p, o: J.jet_einsum("ij,j->i", self.jet(p, o), x.jet(p, o)))


class MatrixField(_SquareField):
    """An (n, n) matrix of scalars: TM endomorphisms, metrics, form-maps."""

    image = VectorField


class GtEndoField(_SquareField):
    """Field of endomorphisms of (TM + T*M) x C, one 2n x 2n matrix of scalars."""

    image = SectionField


# -- constructors -------------------------------------------------------------


def coordinate(chart: Chart, i: int) -> ScalarField:
    n = chart.dim

    def fn(p, order):
        return J.seed_point(p, n, order)[i]

    return ScalarField(chart, fn)


def constant(chart: Chart, value, cls=ScalarField) -> Field:
    """The constant ``cls`` field of a scalar or a component array: the one
    place a constant is lifted with the batch (read-only, zero derivatives)."""
    n = chart.dim
    c = J.as_array(value).copy()
    c.flags.writeable = False
    return cls(chart, lambda p, o: J.lift(c, n, o, p.shape[:-1]))


def from_components(cls, chart: Chart, comps: Sequence) -> Field:
    """Stack scalar fields (arbitrarily nested lists) into a component field."""
    arr = np.asarray(comps, dtype=object)
    flat = list(arr.ravel())

    def fn(p, order):
        return J.stack([f.jet(p, order) for f in flat]).reshape(arr.shape, p.shape[:-1])

    return cls(chart, fn)


def vector_field(chart: Chart, comps) -> VectorField:
    return from_components(VectorField, chart, comps)


def one_form(chart: Chart, comps) -> OneFormField:
    return from_components(OneFormField, chart, comps)


def matrix_field(chart: Chart, comps) -> MatrixField:
    return from_components(MatrixField, chart, comps)


def basis_vector(chart: Chart, i: int) -> VectorField:
    return constant(chart, np.eye(chart.dim)[i], VectorField)


def basis_form(chart: Chart, i: int) -> OneFormField:
    return constant(chart, np.eye(chart.dim)[i], OneFormField)


def _from_parts(cls, parts: Sequence[Optional[Field]], assemble) -> Field:
    """A ``cls`` field assembled from the jets of ``parts``; a ``None`` (zero) part stays ``None``."""
    some = [f for f in parts if f is not None]
    if not some:
        raise ValueError("need at least one nonzero part")
    return cls(some[0].chart,
               lambda p, o: assemble([None if f is None else f.jet(p, o) for f in parts]))


def section(vec: Optional[VectorField] = None, form: Optional[OneFormField] = None) -> SectionField:
    """The section X + a; a part left ``None`` is zero."""
    return _from_parts(SectionField, (vec, form), J.concat)


def endo_from_blocks(tt, tc, ct, cc) -> GtEndoField:
    """The endomorphism field (tt, tc; ct, cc) of four matrix fields or ``None`` (zero blocks)."""
    return _from_parts(GtEndoField, (tt, tc, ct, cc), lambda jets: block_jet(*jets))


def tensor_pair_field(e: SectionField, f: SectionField) -> GtEndoField:
    """Field version of the rank-one map A -> 2<F, A> E."""
    _same_chart(e, f)
    return GtEndoField(
        e.chart, lambda p, o: J.jet_einsum("i,j->ij", e.jet(p, o), swap_jet(f.jet(p, o))))


def b_endo(b: TwoFormField) -> GtEndoField:
    """e^B as an endomorphism field: X+a -> X + a + i_X B."""
    n = b.chart.dim
    eye = np.eye(n)

    def fn(p, order):
        one = J.lift(eye, n, order, p.shape[:-1])
        return block_jet(one, None, b.jet(p, order).moveaxis(0, 1), one)

    return GtEndoField(b.chart, fn)


def b_action(b: TwoFormField, *items: Field) -> tuple:
    """The B-field action on each item: e^B P e^-B for an endomorphism field
    P, e^B A for a section A.  e^B and e^-B are built once for all items."""
    eb, ebinv = b_endo(b), b_endo(-1 * b)
    return tuple(eb @ x @ ebinv if isinstance(x, GtEndoField) else eb.apply(x) for x in items)


# -- jet-level utilities ------------------------------------------------------


def block_jet(tt, tc, ct, cc) -> JetArray:
    """The (2n, 2n) jet (tt, tc; ct, cc) from four (n, n) jets or ``None`` (zero
    blocks): rows and columns run over the vector half, then the form half."""
    return J.concat([J.concat([tt, tc], axis=1), J.concat([ct, cc], axis=1)])


def swap_jet(j: JetArray) -> JetArray:
    """The pairing swap (:func:`gencontact.gta.swap`) along the component axis of a jet."""
    return j.map(gta.swap)


def pair_jets(a: JetArray, b: JetArray) -> JetArray:
    """<A, B> of two section jets: its value is :func:`gencontact.gta.pair` of
    their values bit for bit (one row-times-column ``jets.matmul``)."""
    return 0.5 * J.jet_einsum("i,i->", swap_jet(a), b)


def pair_field(a: SectionField, b: SectionField) -> ScalarField:
    _same_chart(a, b)
    return ScalarField(a.chart, lambda p, o: pair_jets(a.jet(p, o), b.jet(p, o)))


# -- exterior calculus --------------------------------------------------------

_FORM_RANK = {ScalarField: 0, OneFormField: 1, TwoFormField: 2, ThreeFormField: 3}
_FORM_BY_RANK = {0: ScalarField, 1: OneFormField, 2: TwoFormField, 3: ThreeFormField}


def d_jet(j: JetArray, k: int) -> JetArray:
    """d of a k-form jet: the derivative axis of :func:`~gencontact.jets.dshift`
    (axis 0) antisymmetrised against the k form slots."""
    a = J.dshift(j)
    out = a
    for m in range(1, k + 1):
        out = out + (-1) ** m * a.moveaxis(0, m)
    return out


def d(omega: Field) -> Field:
    k = _FORM_RANK.get(type(omega))
    if k is None or k > 2:
        raise ValueError("d supports scalar, 1-form and 2-form fields only")
    cls = _FORM_BY_RANK[k + 1]
    return cls(omega.chart, lambda p, o: d_jet(omega.jet(p, o + 1), k))


def interior_jet(xj: JetArray, oj: JetArray, k: int) -> JetArray:
    subs = {1: "i,i->", 2: "i,ij->j", 3: "i,ijk->jk"}[k]
    return J.jet_einsum(subs, xj, oj)


def interior(x: VectorField, omega: Field) -> Field:
    k = _FORM_RANK.get(type(omega))
    if not k:
        raise ValueError("interior product needs a form of degree >= 1")
    _same_chart(x, omega)
    cls = _FORM_BY_RANK[k - 1]
    return cls(omega.chart, lambda p, o: interior_jet(x.jet(p, o), omega.jet(p, o), k))


def wedge11(a: OneFormField, b: OneFormField) -> TwoFormField:
    _same_chart(a, b)

    def fn(p, order):
        ja, jb = a.jet(p, order), b.jet(p, order)
        m = J.jet_einsum("i,j->ij", ja, jb)
        return m - m.moveaxis(0, 1)

    return TwoFormField(a.chart, fn)


def wedge12(a: OneFormField, w: TwoFormField) -> ThreeFormField:
    """(a ^ w)(X,Y,Z) = a(X) w(Y,Z) - a(Y) w(X,Z) + a(Z) w(X,Y)."""
    _same_chart(a, w)

    def fn(p, order):
        m = J.jet_einsum("i,jk->ijk", a.jet(p, order), w.jet(p, order))
        return m - m.moveaxis(0, 1) + m.moveaxis(0, 2)

    return ThreeFormField(a.chart, fn)


def lie_derivative(x: VectorField, omega: Field) -> Field:
    """Cartan formula i_X d(omega) + d(i_X omega)."""
    k = _FORM_RANK.get(type(omega))
    if k is None or k > 2:
        raise ValueError("lie_derivative supports form degree <= 2")
    _same_chart(x, omega)
    cls = _FORM_BY_RANK[k]

    def fn(p, order):
        jx, jo = x.jet(p, order + 1), omega.jet(p, order + 1)
        term1 = interior_jet(jx, d_jet(jo, k), k + 1)
        if k == 0:
            return term1
        term2 = d_jet(interior_jet(jx, jo, k), k - 1)
        return term1 + term2

    return cls(omega.chart, fn)


def c_transform(omega: Field, phi: MatrixField) -> Field:
    """Pull every slot of a k-form through a TM endomorphism field."""
    k = _FORM_RANK.get(type(omega))
    if k not in (1, 2, 3):
        raise ValueError("c_transform supports form degree 1..3")
    _same_chart(omega, phi)
    cls = type(omega)
    rest = "bc"[:k - 1]
    sub = f"{rest}a,ai->{rest}i"

    def fn(p, order):
        out = omega.jet(p, order)
        jp = phi.jet(p, order)
        for slot in range(k):
            out = J.jet_einsum(sub, out.moveaxis(slot, k - 1), jp).moveaxis(k - 1, slot)
        return out

    return cls(omega.chart, fn)


# -- Courant bracket and integrability operators ------------------------------


def courant_jets(ja: JetArray, jb: JetArray, n: int) -> JetArray:
    """[[X+a, Y+b]] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2, on jets.

    The batch axes broadcast, so one call brackets a whole stack of section
    pairs laid out on batch axes (pairs x points, say).
    """
    x, a = ja[:n], ja[n:]
    y, b = jb[:n], jb[n:]
    dx, da = J.dshift(x), J.dshift(a)
    dy, db = J.dshift(y), J.dshift(b)
    # b_i d_j X^i and a_i d_j Y^i enter both the Lie derivatives and the exact term
    bdx = J.jet_einsum("ji,i->j", dx, b)
    ady = J.jet_einsum("ji,i->j", dy, a)
    # L_X b - L_Y a - d(i_X b - i_Y a)/2, with L_X b = X^i d_i b_j + b_i d_j X^i
    # and d(i_X b - i_Y a)_j = d_j(X^i b_i - Y^i a_i)
    form = (
        (J.jet_einsum("i,ij->j", x, db) + bdx)
        - (J.jet_einsum("i,ij->j", y, da) + ady)
        - 0.5 * (bdx + J.jet_einsum("ji,i->j", db, x) - ady
                 - J.jet_einsum("ji,i->j", da, y))
    )
    vec = J.jet_einsum("j,ji->i", x, dy) - J.jet_einsum("j,ji->i", y, dx)
    return J.concat([vec, form])


def courant(a: SectionField, b: SectionField) -> SectionField:
    _same_chart(a, b)
    n = a.chart.dim
    return SectionField(
        a.chart, lambda p, o: courant_jets(a.jet(p, o + 1), b.jet(p, o + 1), n))


def nij_jets(ja: JetArray, jb: JetArray, jc: JetArray, n: int) -> JetArray:
    s = pair_jets(courant_jets(ja, jb, n), jc)
    s = s + pair_jets(courant_jets(jb, jc, n), ja)
    s = s + pair_jets(courant_jets(jc, ja, n), jb)
    return (1.0 / 3.0) * s


# -- finite-difference validation ---------------------------------------------


def jet_validate(field: Field, point, step: float = 1e-5) -> float:
    """Max relative error of the field's jet against central differences.

    Second derivatives use a coarser step (eps**0.25) so the difference
    quotient is not dominated by rounding.
    """
    p = np.asarray(point, dtype=float)
    eye = np.eye(field.chart.dim)
    value, *derivs = J.parts(field.at(p), p.ndim - 1)
    if not derivs:
        raise ValueError("field carries no derivative data to validate")
    val = field.values
    scale = max(1.0, float(np.abs(value).max()) if value.size else 1.0)
    worst = 0.0
    for i, ei in enumerate(step * eye):
        fd = (val(p + ei) - val(p - ei)) / (2 * step)
        worst = max(worst, float(np.abs(fd - derivs[0][..., i]).max() / scale))
    for hess in derivs[1:]:
        h = max(step, float(np.finfo(float).eps) ** 0.25)
        f0 = val(p)
        for i, ei in enumerate(h * eye):
            fd = (val(p + ei) - 2 * f0 + val(p - ei)) / h**2
            worst = max(worst, float(np.abs(fd - hess[..., i, i]).max() / scale))
            for j, ej in enumerate(h * eye[i + 1:], i + 1):
                fd = (
                    val(p + ei + ej) - val(p + ei - ej) - val(p - ei + ej) + val(p - ei - ej)
                ) / (4 * h**2)
                worst = max(worst, float(np.abs(fd - hess[..., i, j]).max() / scale))
    return worst
