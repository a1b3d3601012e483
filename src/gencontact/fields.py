"""Fields on charts: jet-valued closures plus exterior/Courant calculus.

A field evaluates at a point array of shape ``(*B, n)`` to one
:class:`~gencontact.jets.JetArray` for the whole batch, holding the
component values and their exact derivatives up to the order its consumer
demands: ``field.at(points, order)``, with ``order`` capped at 2.  The jet's
value has shape ``(*comps, *B)`` (see :mod:`gencontact.jets`); a single
point is the batch ``B = ()`` and takes the same code path.  A field is a
closure ``fn(p, order)`` over such a point array, and the order flows from
each consumer down to the leaves, which read the batch shape
``p.shape[:-1]``.  Algebraic combinators ask their inputs for the
same order; operations that consume a derivative (exterior and Lie
derivative, Lie and Courant bracket, Nij) ask theirs for one order more.  A
checker that reads only values thus never pays for a hessian, while a jet of
a given order has the same values and gradient whatever it was demanded
for.  Nesting deeper than the order-2 cap allows returns a jet of lower
order than demanded, and reading the missing data raises ``JetOrderError``.

The jet-level operators keep the component axes first and the batch axes
after them.  ``courant_jets`` accepts any axes after the leading component
axis (its subscripts use ``...``), which broadcast: a stack of sections
brackets pairwise in one call, item by item as the unbatched call would.

Form components are stored as full antisymmetric arrays.  The wedge and the
exterior derivative use the determinant convention,

    (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X),
    d(omega)(X, Y) = X omega(Y) - Y omega(X) - omega([X, Y]),

so d(dz - y dx) has component value 1 on the (x, y) slot.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import jets as J
from .charts import Chart
from .jets import MAX_ORDER, JetArray


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
        """Component values at the points ``(*B, n)``, shape ``(*comps, *B)``."""
        return self.jet(point, 0).value

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
            sub = _scale_sub(self)
            return self._wrap(lambda p, o: J.jet_einsum(sub, c.jet(p, o), self.jet(p, o)))
        return self._wrap(lambda p, o: self.jet(p, o) * c)

    __rmul__ = __mul__

    def conj(self):
        return self._wrap(lambda p, o: self.jet(p, o).conj())


def _scale_sub(field: Field) -> str:
    rank = {ScalarField: 0, VectorField: 1, OneFormField: 1, SectionField: 1,
            MatrixField: 2, TwoFormField: 2, GtEndoField: 2, ThreeFormField: 3}[type(field)]
    idx = "abc"[:rank]
    return f",{idx}->{idx}"


def _same_chart(a: Field, b: Field):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError("fields live on different charts")


class ScalarField(Field):
    def __mul__(self, c):
        if isinstance(c, Field) and not isinstance(c, ScalarField):
            return c.__mul__(self)
        if isinstance(c, ScalarField):
            _same_chart(self, c)
            return ScalarField(self.chart, lambda p, o: self.jet(p, o) * c.jet(p, o))
        return ScalarField(self.chart, lambda p, o: self.jet(p, o) * c)

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


class MatrixField(Field):
    """An (n, n) matrix of scalars: TM endomorphisms, metrics, form-maps."""

    def __matmul__(self, other: "MatrixField") -> "MatrixField":
        _same_chart(self, other)
        return MatrixField(
            self.chart, lambda p, o: J.jet_einsum("ij,jk->ik", self.jet(p, o), other.jet(p, o)))

    def apply(self, x: VectorField) -> VectorField:
        _same_chart(self, x)
        return VectorField(
            self.chart, lambda p, o: J.jet_einsum("ij,j->i", self.jet(p, o), x.jet(p, o)))

    def inv(self) -> "MatrixField":
        return MatrixField(self.chart, lambda p, o: J.jet_inv(self.jet(p, o)))

    def transpose(self) -> "MatrixField":
        return MatrixField(self.chart, lambda p, o: _jT(self.jet(p, o)))


class SectionField(Field):
    """Section of (TM + T*M) x C: 2n components, vector part first."""


class GtEndoField(Field):
    """Field of endomorphisms of (TM + T*M) x C, one 2n x 2n matrix of scalars."""

    def apply(self, s: SectionField) -> SectionField:
        _same_chart(self, s)
        return SectionField(
            self.chart, lambda p, o: J.jet_einsum("ij,j->i", self.jet(p, o), s.jet(p, o)))

    def __matmul__(self, other: "GtEndoField") -> "GtEndoField":
        _same_chart(self, other)
        return GtEndoField(
            self.chart, lambda p, o: J.jet_einsum("ij,jk->ik", self.jet(p, o), other.jet(p, o)))


# -- constructors -------------------------------------------------------------


def coordinate(chart: Chart, i: int) -> ScalarField:
    n = chart.dim

    def fn(p, order):
        return J.seed_point(p, n, order)[i]

    return ScalarField(chart, fn)


def constant(chart: Chart, c) -> ScalarField:
    n = chart.dim
    return ScalarField(chart, lambda p, o: J.lift(complex(c), n, o, p.shape[:-1]))


def from_components(cls, chart: Chart, comps: Sequence) -> Field:
    """Stack scalar fields (arbitrarily nested lists) into a component field."""
    arr = np.asarray(comps, dtype=object)
    flat = list(arr.ravel())

    def fn(p, order):
        stacked = J.stack([f.jet(p, order) for f in flat])
        return stacked.reshape(*arr.shape, *p.shape[:-1])

    return cls(chart, fn)


def vector_field(chart: Chart, comps) -> VectorField:
    return from_components(VectorField, chart, comps)


def one_form(chart: Chart, comps) -> OneFormField:
    return from_components(OneFormField, chart, comps)


def matrix_field(chart: Chart, comps) -> MatrixField:
    return from_components(MatrixField, chart, comps)


def basis_vector(chart: Chart, i: int) -> VectorField:
    n = chart.dim
    e = np.zeros(n)
    e[i] = 1.0
    return VectorField(chart, lambda p, o: J.lift(e, n, o, p.shape[:-1]))


def basis_form(chart: Chart, i: int) -> OneFormField:
    n = chart.dim
    e = np.zeros(n)
    e[i] = 1.0
    return OneFormField(chart, lambda p, o: J.lift(e, n, o, p.shape[:-1]))


def zero_two_form(chart: Chart) -> TwoFormField:
    n = chart.dim
    return TwoFormField(chart, lambda p, o: J.lift(np.zeros((n, n)), n, o, p.shape[:-1]))


def section(vec: Optional[VectorField] = None, form: Optional[OneFormField] = None) -> SectionField:
    some = vec if vec is not None else form
    if some is None:
        raise ValueError("need a vector part or a form part")
    chart = some.chart
    n = chart.dim

    def fn(p, order):
        zeros = J.lift(np.zeros(n), n, order, p.shape[:-1])
        jv = vec.jet(p, order) if vec is not None else zeros
        jf = form.jet(p, order) if form is not None else zeros
        return jconcat([jv, jf])

    return SectionField(chart, fn)


def coordinate_sections(chart: Chart) -> List[SectionField]:
    """The 2n constant sections: basis vectors then basis forms."""
    n = chart.dim
    out = [section(vec=basis_vector(chart, i)) for i in range(n)]
    out += [section(form=basis_form(chart, i)) for i in range(n)]
    return out


def endo_from_blocks(tt: MatrixField, tc: MatrixField, ct: MatrixField, cc: MatrixField) -> GtEndoField:
    chart = tt.chart

    def fn(p, order):
        top = jconcat([tt.jet(p, order), tc.jet(p, order)], axis=1)
        bot = jconcat([ct.jet(p, order), cc.jet(p, order)], axis=1)
        return jconcat([top, bot], axis=0)

    return GtEndoField(chart, fn)


def tensor_pair_field(e: SectionField, f: SectionField) -> GtEndoField:
    """Field version of the rank-one map A -> 2<F, A> E."""
    _same_chart(e, f)
    n = e.chart.dim
    return GtEndoField(
        e.chart, lambda p, o: J.jet_einsum("i,j->ij", e.jet(p, o), _swap_half(f.jet(p, o), n)))


def b_endo(b: TwoFormField) -> GtEndoField:
    """e^B as an endomorphism field: X+a -> X + a + i_X B."""
    chart = b.chart
    n = chart.dim
    eye = np.eye(n)
    zero = np.zeros((n, n))

    def fn(p, order):
        jb = b.jet(p, order)
        one = J.lift(eye, n, order, p.shape[:-1])
        top = jconcat([one, J.lift(zero, n, order, p.shape[:-1])], axis=1)
        bot = jconcat([_jT(jb), one], axis=1)
        return jconcat([top, bot], axis=0)

    return GtEndoField(chart, fn)


# -- jet-level utilities ------------------------------------------------------


def jconcat(parts: Sequence[JetArray], axis: int = 0) -> JetArray:
    nvars = parts[0].nvars
    value = np.concatenate([j.value for j in parts], axis=axis)
    grad = None
    hess = None
    if all(j.grad is not None for j in parts):
        grad = np.concatenate([j.grad for j in parts], axis=axis)
        if all(j.hess is not None for j in parts):
            hess = np.concatenate([j.hess for j in parts], axis=axis)
    return JetArray(value, grad, hess, nvars)


def _jmove(j: JetArray, src: int, dst: int) -> JetArray:
    g = None if j.grad is None else np.moveaxis(j.grad, src, dst)
    h = None if j.hess is None else np.moveaxis(j.hess, src, dst)
    return JetArray(np.moveaxis(j.value, src, dst), g, h, j.nvars)


def _jT(j: JetArray) -> JetArray:
    """Transpose the two leading (component) axes of a matrix jet."""
    return _jmove(j, 0, 1)


def _swap_half(j: JetArray, n: int) -> JetArray:
    """Swap vector and form halves of a section jet (the pairing swap)."""
    return jconcat([j[n:], j[:n]])


def pair_jets(a: JetArray, b: JetArray, n: int) -> JetArray:
    return 0.5 * J.jet_einsum("i,i->", _swap_half(a, n), b)


def pair_field(a: SectionField, b: SectionField) -> ScalarField:
    _same_chart(a, b)
    n = a.chart.dim
    return ScalarField(a.chart, lambda p, o: pair_jets(a.jet(p, o), b.jet(p, o), n))


# -- exterior calculus --------------------------------------------------------

_FORM_RANK = {ScalarField: 0, OneFormField: 1, TwoFormField: 2, ThreeFormField: 3}
_FORM_BY_RANK = {0: ScalarField, 1: OneFormField, 2: TwoFormField, 3: ThreeFormField}


def d_jet(j: JetArray, k: int) -> JetArray:
    a = J.dshift(j)
    last = a.value.ndim - 1  # the derivative axis, after the batch axes
    out = _jmove(a, last, 0)
    for m in range(1, k + 1):
        out = out + (-1) ** m * _jmove(a, last, m)
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
        return m - _jT(m)

    return TwoFormField(a.chart, fn)


def wedge12(a: OneFormField, w: TwoFormField) -> ThreeFormField:
    """(a ^ w)(X,Y,Z) = a(X) w(Y,Z) - a(Y) w(X,Z) + a(Z) w(X,Y)."""
    _same_chart(a, w)

    def fn(p, order):
        m = J.jet_einsum("i,jk->ijk", a.jet(p, order), w.jet(p, order))
        return m - _jmove(m, 0, 1) + _jmove(m, 0, 2)

    return ThreeFormField(a.chart, fn)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    _same_chart(x, y)

    def fn(p, order):
        jx, jy = x.jet(p, order + 1), y.jet(p, order + 1)
        return J.jet_einsum("j...,i...j->i...", jx, J.dshift(jy)) - J.jet_einsum(
            "j...,i...j->i...", jy, J.dshift(jx)
        )

    return VectorField(x.chart, fn)


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
    sub = f"a{rest},ai->{rest}i"

    def fn(p, order):
        out = omega.jet(p, order)
        jp = phi.jet(p, order)
        for slot in range(k):
            out = _jmove(J.jet_einsum(sub, _jmove(out, slot, 0), jp), k - 1, slot)
        return out

    return cls(omega.chart, fn)


# -- Courant bracket and integrability operators ------------------------------


def courant_jets(ja: JetArray, jb: JetArray, n: int) -> JetArray:
    """[[X+a, Y+b]] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2, on jets.

    Axes after the leading component axis are batch axes and broadcast, so
    one call brackets a whole stack of section pairs over a point batch.
    """
    x, a = ja[:n], ja[n:]
    y, b = jb[:n], jb[n:]
    dx, da = J.dshift(x), J.dshift(a)
    dy, db = J.dshift(y), J.dshift(b)
    # b_i d_j X^i and a_i d_j Y^i enter both the Lie derivatives and the exact term
    bdx = J.jet_einsum("i...,i...j->j...", b, dx)
    ady = J.jet_einsum("i...,i...j->j...", a, dy)
    # L_X b - L_Y a - d(i_X b - i_Y a)/2, with L_X b = X^i d_i b_j + b_i d_j X^i
    # and d(i_X b - i_Y a)_j = d_j(X^i b_i - Y^i a_i)
    form = (
        (J.jet_einsum("i...,j...i->j...", x, db) + bdx)
        - (J.jet_einsum("i...,j...i->j...", y, da) + ady)
        - 0.5 * (bdx + J.jet_einsum("i...,i...j->j...", x, db) - ady
                 - J.jet_einsum("i...,i...j->j...", y, da))
    )
    vec = J.jet_einsum("j...,i...j->i...", x, dy) - J.jet_einsum("j...,i...j->i...", y, dx)
    return jconcat([vec, form])


def courant(a: SectionField, b: SectionField) -> SectionField:
    _same_chart(a, b)
    n = a.chart.dim
    return SectionField(
        a.chart, lambda p, o: courant_jets(a.jet(p, o + 1), b.jet(p, o + 1), n))


def nij_jets(ja: JetArray, jb: JetArray, jc: JetArray, n: int) -> JetArray:
    s = pair_jets(courant_jets(ja, jb, n), jc, n)
    s = s + pair_jets(courant_jets(jb, jc, n), ja, n)
    s = s + pair_jets(courant_jets(jc, ja, n), jb, n)
    return (1.0 / 3.0) * s


def nij(a: SectionField, b: SectionField, c: SectionField) -> ScalarField:
    _same_chart(a, b)
    _same_chart(a, c)
    n = a.chart.dim
    return ScalarField(
        a.chart, lambda p, o: nij_jets(a.jet(p, o + 1), b.jet(p, o + 1), c.jet(p, o + 1), n))


def jac(a: SectionField, b: SectionField, c: SectionField) -> SectionField:
    """Courant Jacobiator: one derivative order consumed per bracket level."""
    _same_chart(a, b)
    _same_chart(a, c)
    n = a.chart.dim

    def fn(p, order):
        ja, jb, jc = (s.jet(p, order + 2) for s in (a, b, c))
        jab, jbc, jca = courant_jets(ja, jb, n), courant_jets(jb, jc, n), courant_jets(jc, ja, n)
        return courant_jets(jab, jc, n) + courant_jets(jbc, ja, n) + courant_jets(jca, jb, n)

    return SectionField(a.chart, fn)


# -- finite-difference validation ---------------------------------------------


def jet_validate(field: Field, point, step: float = 1e-5) -> float:
    """Max relative error of the field's jet against central differences.

    Second derivatives use a coarser step (eps**0.25) so the difference
    quotient is not dominated by rounding.
    """
    p = np.asarray(point, dtype=float)
    n = field.chart.dim
    jet = field.at(p)
    if jet.grad is None:
        raise ValueError("field carries no derivative data to validate")

    def val(q):
        return field.values(q)

    scale = max(1.0, float(np.abs(jet.value).max()) if jet.value.size else 1.0)
    worst = 0.0
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        fd = (val(p + ei) - val(p - ei)) / (2 * step)
        err = np.abs(fd - jet.grad[..., i]).max() / scale
        worst = max(worst, float(err))
    if jet.hess is not None:
        h = max(step, float(np.finfo(float).eps) ** 0.25)
        f0 = val(p)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd = (val(p + ei) - 2 * f0 + val(p - ei)) / h**2
            worst = max(worst, float(np.abs(fd - jet.hess[..., i, i]).max() / scale))
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                fd = (
                    val(p + ei + ej) - val(p + ei - ej) - val(p - ei + ej) + val(p - ei - ej)
                ) / (4 * h**2)
                worst = max(worst, float(np.abs(fd - jet.hess[..., i, j]).max() / scale))
    return worst
