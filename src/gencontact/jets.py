"""Truncated Taylor jets of order at most 2, with numpy-vectorised arithmetic.

A jet carries a value together with exact partial derivatives with respect
to the chart coordinates, up to its order: 0 (value only), 1 (plus the
gradient) or 2 (plus the hessian).  Jets are the evaluation currency of
every field in this package: identities checked downstream (d∘d = 0, Cartan,
bracket antisymmetry, ...) then hold to rounding error instead of
finite-difference error.

A jet's dtype follows its data: the leaves (:func:`seed_point`, :func:`lift`)
keep real data float64 and complex data complex128, and numpy promotes an
operation to complex exactly where an imaginary operand enters.  A real
``log``, ``sqrt`` or non-integer power outside its domain gives NaN, not a
complex number.

One jet holds a whole batch of points.  Its value has shape ``(*comps, *B)``,
its gradient ``(*comps, *B, nvars)`` and its hessian ``(*comps, *B, nvars,
nvars)``: the component axes come first, then the batch axes of the point
array ``(*B, nvars)`` it was evaluated at, then the derivative axes.  A
single point is the batch ``B = ()``.  This module is the one place that
knows the layout: other modules read a jet's parts batch first with
:func:`parts` and place the batch with :meth:`JetArray.reshape` and
:func:`batch_shape`.  Every structural operation maps the parts present with
one :meth:`JetArray.map` (indexing ``j[:n]``, :meth:`~JetArray.reshape`,
:meth:`~JetArray.moveaxis` of component axes, negation,
:func:`take_batch`), and :func:`stack` and :func:`concat` (a ``None`` part
is zero) share one join over the parts present in every operand.  They act
on the leading axes and never see the batch.  :func:`jet_einsum` takes plain
specs over the component axes and appends ``...`` to every operand spec so
that the batch axes ride along; a spec naming ``...`` is refused.  A
consumed derivative becomes the first component axis (:func:`dshift`), so
derivative contractions need no other spec form.

Elementwise arithmetic broadcasts numpy-style, so an array constant must be
lifted with the batch shape (``lift(c, n, order, batch)``) before it meets a
batched jet.  A scalar operand of ``+ - * /`` (a Python or numpy number) is
never lifted: value, gradient and hessian each get the floating-point
operation a lifted constant would give them, without the exact ``+ 0``
terms of its zero derivatives.  The binary operations spell out each part,
since their operand order fixes the rounding.

The order is demanded by the consumer, capped at :data:`MAX_ORDER`: the
leaves (:func:`seed_point`, :func:`lift`) build jets of the order asked for,
and arithmetic lifts an array constant at the order of the jet it combines
it with.  Every operation computes each order with the same calls whether
higher orders are present or not, so a value or gradient never depends on
the order it was computed at (truncated Taylor propagation).  An operation
that consumes one derivative order (see :func:`dshift`) produces a jet one
order lower.  Asking for derivative data a jet does not carry raises
:class:`JetOrderError`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

Number = Union[int, float, complex]
_SCALARS = (int, float, complex, np.number)

#: the highest derivative order a jet carries
MAX_ORDER = 2


class JetOrderError(ValueError):
    """Raised when an operation needs derivative data that was consumed."""


class SingularMatrixError(ValueError):
    """Raised by :func:`jet_inv` on a matrix jet that is singular at some batch item."""


def as_array(a) -> np.ndarray:
    """``a`` as a float64 array, or complex128 when it holds complex numbers: the
    dtype follows the data, so real data stays real."""
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


@dataclass(slots=True)
class JetArray:
    """A batch of order-<=2 jets in ``nvars`` variables.

    ``value`` has shape S = comps + batch; ``grad`` (if present) has shape
    S+(nvars,) and ``hess`` shape S+(nvars, nvars).  ``hess`` present
    implies ``grad`` present.
    """

    value: np.ndarray
    grad: Optional[np.ndarray]
    hess: Optional[np.ndarray]
    nvars: int

    @property
    def shape(self):
        return self.value.shape

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    # -- structure: one array map over the parts present ---------------------

    def map(self, fn) -> "JetArray":
        """Apply an array map to the value, gradient and hessian; a missing part stays missing.

        ``fn`` must act on the value's axes (components and batch) only, so
        that each part keeps its trailing derivative axes.
        """
        g = None if self.grad is None else fn(self.grad)
        h = None if self.hess is None else fn(self.hess)
        return JetArray(fn(self.value), g, h, self.nvars)

    def __getitem__(self, idx) -> "JetArray":
        return self.map(lambda a: a[idx])

    def reshape(self, comps, batch) -> "JetArray":
        """Reshape the component axes to ``comps``; the batch axes, of shape ``batch``, stay."""
        nd = self.value.ndim
        return self.map(lambda a: a.reshape(*comps, *batch, *a.shape[nd:]))

    def moveaxis(self, src: int, dst: int) -> "JetArray":
        """Move a component axis (``src`` and ``dst`` count from the front), as
        ``np.moveaxis`` views: one axis order, extended over each part's
        derivative axes."""
        order = list(range(self.value.ndim))
        order.insert(dst, order.pop(src))
        return self.map(lambda a: a.transpose(*order, *range(len(order), a.ndim)))

    # -- arithmetic (a scalar operand is not lifted) ------------------------

    __array_ufunc__ = None  # numpy scalars and arrays defer to the reflected operators

    def _operand(self, other) -> "JetArray":
        """A jet operand as it is; an array constant lifted at this jet's order."""
        return other if isinstance(other, JetArray) else lift(other, self.nvars, self.order)

    def __add__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return JetArray(self.value + other, self.grad, self.hess, self.nvars)
        other = self._operand(other)
        g = None if (self.grad is None or other.grad is None) else self.grad + other.grad
        h = None if (self.hess is None or other.hess is None) else self.hess + other.hess
        return JetArray(self.value + other.value, g, h, self.nvars)

    __radd__ = __add__

    def __neg__(self) -> "JetArray":
        return self.map(operator.neg)

    def __sub__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return self + -other
        return self + (-self._operand(other))

    def __rsub__(self, other) -> "JetArray":
        return -self + other

    def __mul__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            g = None if self.grad is None else other * self.grad
            h = None if self.hess is None else other * self.hess
            return JetArray(self.value * other, g, h, self.nvars)
        a, b = self, self._operand(other)
        value = a.value * b.value
        grad = None
        hess = None
        if a.grad is not None and b.grad is not None:
            grad = a.value[..., None] * b.grad + b.value[..., None] * a.grad
            if a.hess is not None and b.hess is not None:
                cross = a.grad[..., :, None] * b.grad[..., None, :]
                hess = (
                    a.value[..., None, None] * b.hess
                    + b.value[..., None, None] * a.hess
                    + cross
                    + np.swapaxes(cross, -1, -2)
                )
        return JetArray(value, grad, hess, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return self * (1.0 / as_array(other))
        return self * reciprocal(self._operand(other))

    def __rtruediv__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return reciprocal(self) * other
        return self._operand(other) * reciprocal(self)

    def __pow__(self, expo: Number) -> "JetArray":
        return powc(self, expo)

    def truncate(self, order: int) -> "JetArray":
        """The same jet without the derivative orders above ``order``."""
        if self.order <= order:
            return self
        return JetArray(self.value, self.grad if order >= 1 else None, None, self.nvars)

    def require(self, order: int) -> "JetArray":
        if self.order < order:
            raise JetOrderError(
                f"jet of order {self.order} cannot supply order-{order} data "
                "(derivative budget exhausted by nested brackets/derivatives)"
            )
        return self


def parts(j: JetArray, nbatch: int) -> tuple:
    """The parts a jet has, value first, as views with its ``nbatch`` batch axes
    first: value ``(*B, *comps)``, gradient ``(*B, *comps, nvars)`` and hessian
    ``(*B, *comps, nvars, nvars)``."""
    nd = j.value.ndim
    order = (*range(nd - nbatch, nd), *range(nd - nbatch))
    return tuple(a.transpose(*order, *range(nd, a.ndim))
                 for a in (j.value, j.grad, j.hess) if a is not None)


def batch_shape(j: JetArray, ncomps: int) -> tuple:
    """The batch shape of a jet with ``ncomps`` component axes."""
    return j.shape[ncomps:]


def lift(x, nvars: int, order: int = MAX_ORDER, batch=()) -> JetArray:
    """Lift a constant (scalar or ndarray) to a constant jet of the given order.

    With a batch shape the constant's components are followed by the batch
    axes; the value and the zero derivatives are broadcast views, not copies.
    """
    if isinstance(x, JetArray):
        return x
    v = as_array(x)
    if batch:
        v = np.broadcast_to(v.reshape(v.shape + (1,) * len(batch)), v.shape + tuple(batch))
    g = _zeros(v.shape + (nvars,), v.dtype) if order >= 1 else None
    h = _zeros(v.shape + (nvars, nvars), v.dtype) if order >= 2 else None
    return JetArray(v, g, h, nvars)


def _zeros(shape, dtype) -> np.ndarray:
    """A read-only zero array of any size, as a broadcast view of one scalar."""
    return np.broadcast_to(np.zeros((), dtype), shape)


def _join(join, jets, axis: int) -> JetArray:
    """Join jets part by part with ``join`` (``np.stack`` or ``np.concatenate``);
    a derivative part missing from one operand is missing from the result."""
    value = join([j.value for j in jets], axis=axis)
    grad = None
    hess = None
    if all(j.grad is not None for j in jets):
        grad = join([j.grad for j in jets], axis=axis)
        if all(j.hess is not None for j in jets):
            hess = join([j.hess for j in jets], axis=axis)
    return JetArray(value, grad, hess, jets[0].nvars)


def stack(jets, axis: int = 0) -> JetArray:
    """Stack jets of identical shape along a new axis (a component axis unless
    ``axis`` is past the value's last axis)."""
    return _join(np.stack, jets, axis)


def concat(parts: Sequence[Optional[JetArray]], axis: int = 0) -> JetArray:
    """Concatenate jets along a component axis.  A ``None`` part is zero, shaped like the
    first present part (the one place zero parts are built)."""
    present = [j for j in parts if j is not None]
    if not present:
        raise ValueError("need at least one nonzero part")
    if len(present) < len(parts):
        zero = present[0].map(lambda a: np.broadcast_to(np.zeros((), a.dtype), a.shape))
        parts = [zero if j is None else j for j in parts]
    return _join(np.concatenate, parts, axis)


def take_batch(j: JetArray, index, batch) -> JetArray:
    """The items ``index`` of a jet over a one-axis batch, as a jet over the batch shape ``batch``."""
    axis = j.value.ndim - 1
    return j.map(lambda a: a.take(index, axis=axis).reshape(
        a.shape[:axis] + tuple(batch) + a.shape[axis + 1:]))


def seed_point(point, nvars: int, order: int = MAX_ORDER) -> JetArray:
    """Jet of the identity map at the points ``(*B, nvars)``: value p, grad = Id, hess = 0.

    The coordinate index is the component axis, so ``seed_point(p, n)[i]`` is
    the i-th coordinate over the batch.
    """
    p = as_array(point)
    if p.shape[-1:] != (nvars,):
        raise ValueError(f"point has shape {p.shape}, expected (..., {nvars})")
    batch = p.shape[:-1]
    grad = None
    if order >= 1:
        eye = np.eye(nvars, dtype=p.dtype).reshape((nvars,) + (1,) * len(batch) + (nvars,))
        grad = np.broadcast_to(eye, (nvars,) + batch + (nvars,))
    hess = _zeros((nvars,) + batch + (nvars, nvars), p.dtype) if order >= 2 else None
    return JetArray(np.ascontiguousarray(np.moveaxis(p, -1, 0)), grad, hess, nvars)


def dshift(j: JetArray) -> JetArray:
    """Trade one derivative order for a new first component axis.

    The result's value is the input's gradient and its gradient the input's
    hessian, each with the consumed derivative axis moved to the front (a
    view, not a copy); its hessian is gone.  This is how d, Lie and Courant
    operations consume derivative budget: their subscripts name the new axis
    first (``'j,ji->i'`` for ``x^j d_j y^i``).
    """
    j.require(1)
    nd = j.value.ndim  # the consumed axis is grad's last and hess's second to last
    hess = None if j.hess is None else j.hess.transpose(nd, *range(nd), nd + 1)
    return JetArray(j.grad.transpose(nd, *range(nd)), hess, None, j.nvars)


@functools.lru_cache(maxsize=256)
def _einsum_plan(subscripts: str):
    """The output's component-axis count and the six einsum specs of a jet
    product, with ``...`` appended for the batch."""
    if "z" in subscripts or "w" in subscripts:
        raise ValueError("subscripts must not use reserved letters z/w")
    if "." in subscripts:
        raise ValueError(f"subscripts {subscripts!r} must name the component axes only: "
                         "the batch axes are appended as '...'")
    lhs, out = subscripts.split("->")
    nout = len(out)
    s1, s2, out = (s + "..." for s in (*lhs.split(","), out))
    return (nout, f"{s1},{s2}->{out}",
            f"{s1}z,{s2}->{out}z", f"{s1},{s2}z->{out}z",
            f"{s1}z,{s2}w->{out}zw", f"{s1}zw,{s2}->{out}zw", f"{s1},{s2}zw->{out}zw")


def jet_einsum(subscripts: str, a: JetArray, b: JetArray) -> JetArray:
    """Einsum of two jets with product-rule propagation of grad and hess.

    ``subscripts`` must be a plain two-operand spec over the component axes,
    like ``'ij,j->i'``, and must not use the reserved letters ``z`` and
    ``w`` or name ``...``; it runs as ``'ij...,j...->i...'``, item by item
    over the batch.
    """
    plan = _einsum_plan(subscripts)
    nout, val = plan[:2]
    value = np.einsum(val, a.value, b.value)
    if math.prod(value.shape[nout:]) != 1:
        return _product_rule(plan, a, b, value)
    # Over one item, numpy's inner loop can be the contracted axis, where a
    # float64 sum runs SIMD-unrolled; over a batch it is the batch axis, and
    # every sum runs in index order.  Two copies of the item give it the
    # batch's rounding, so a point's jet is its batch item bit for bit.
    a, b = _twice(a), _twice(b)
    out = _product_rule(plan, a, b, np.einsum(val, a.value, b.value))
    at = (slice(None),) * (out.value.ndim - 1) + (0,)
    return out.map(lambda x: x[at])


def _product_rule(plan, a: JetArray, b: JetArray, value: np.ndarray) -> JetArray:
    """The jet of :func:`jet_einsum` with its value computed: the gradient and
    hessian by the product rule."""
    _, _, g1, g2, cross_spec, h1, h2 = plan
    grad = None
    hess = None
    if a.grad is not None and b.grad is not None:
        grad = np.einsum(g1, a.grad, b.value) + np.einsum(g2, a.value, b.grad)
        if a.hess is not None and b.hess is not None:
            cross = np.einsum(cross_spec, a.grad, b.grad)
            hess = (
                np.einsum(h1, a.hess, b.value)
                + np.einsum(h2, a.value, b.hess)
                + cross
                + np.swapaxes(cross, -1, -2)
            )
    return JetArray(value, grad, hess, a.nvars)


def _twice(j: JetArray) -> JetArray:
    """The jet with one more batch axis, last, holding two copies of it."""
    nd = j.value.ndim
    return j.map(lambda x: np.stack([x, x], axis=nd))


def _chain(j: JetArray, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> JetArray:
    """Apply an elementwise function with derivatives f1, f2 at j.value."""
    grad = None
    hess = None
    if j.grad is not None:
        grad = f1[..., None] * j.grad
        if j.hess is not None:
            outer = j.grad[..., :, None] * j.grad[..., None, :]
            hess = f1[..., None, None] * j.hess + f2[..., None, None] * outer
    return JetArray(f0, grad, hess, j.nvars)


def sin(j: JetArray) -> JetArray:
    v = j.value
    return _chain(j, np.sin(v), np.cos(v), -np.sin(v))


def cos(j: JetArray) -> JetArray:
    v = j.value
    return _chain(j, np.cos(v), -np.sin(v), -np.cos(v))


def exp(j: JetArray) -> JetArray:
    e = np.exp(j.value)
    return _chain(j, e, e, e)


# Outside its real domain a real log, sqrt or power is NaN (inf at a pole), with
# numpy's warning silenced: the builders refuse non-finite data by the point
# (``structures.require_real``), and that refusal is the one report of it.
_quiet = np.errstate(invalid="ignore", divide="ignore")


@_quiet
def log(j: JetArray) -> JetArray:
    v = j.value
    return _chain(j, np.log(v), 1.0 / v, -1.0 / v**2)


@_quiet
def sqrt(j: JetArray) -> JetArray:
    s = np.sqrt(j.value)
    return _chain(j, s, 0.5 / s, -0.25 / (s * j.value))


def reciprocal(j: JetArray) -> JetArray:
    v = j.value
    return _chain(j, 1.0 / v, -1.0 / v**2, 2.0 / v**3)


@_quiet
def powc(j: JetArray, c: Number) -> JetArray:
    if isinstance(c, JetArray):
        return exp(c * log(j))
    if c == 0:
        return lift(np.ones_like(j.value), j.nvars, j.order)
    if c == 1:
        return j
    v = j.value
    return _chain(j, v**c, c * v ** (c - 1), c * (c - 1) * v ** (c - 2))


def jet_inv(j: JetArray) -> JetArray:
    """Inverse of a square-matrix jet (components (k, k)), order preserved.

    Uses d(A^-1) = -A^-1 dA A^-1 and its second-order extension.  A singular
    value raises :class:`SingularMatrixError` naming its first batch index.
    """
    a = np.moveaxis(j.value, (0, 1), (-2, -1))
    try:
        v = np.moveaxis(np.linalg.inv(a), (-2, -1), (0, 1))
    except np.linalg.LinAlgError:
        bad = tuple(int(i) for i in np.argwhere(np.linalg.det(a) == 0)[0])
        raise SingularMatrixError(f"singular matrix at batch index {bad}") from None
    grad = None
    hess = None
    if j.grad is not None:
        grad = -np.einsum("ij...,jk...z,kl...->il...z", v, j.grad, v)
        if j.hess is not None:
            t1 = -np.einsum("ij...,jk...zw,kl...->il...zw", v, j.hess, v)
            t2 = np.einsum("ij...,jk...z,kl...,lm...w,mn...->in...zw", v, j.grad, v, j.grad, v)
            hess = t1 + t2 + np.swapaxes(t2, -1, -2)
    return JetArray(v, grad, hess, j.nvars)


def extend_vars(j: JetArray, total: int, shape=None, index=None) -> JetArray:
    """View a jet in ``nvars`` variables as one in ``total`` (new vars appended).

    Derivatives in the appended variables are zero: this is the lift of a
    base-chart quantity to a product chart.  With a placement, the jet's
    value, gradient and hessian are written at ``index`` (anything numpy
    accepts for ``zeros(shape)[index] = j.value``: a slice, an index list, an
    ``np.ix_`` block, a tuple) into zeros of component shape ``shape``; this
    is how a base-chart component block is placed inside a cone quantity.
    ``shape`` names the component axes only; the jet's batch axes follow
    them.  Without a placement, the value array is shared, not copied.
    """
    if total < j.nvars:
        raise ValueError("cannot shrink the variable count")
    k = j.nvars
    if shape is None:
        value, lead, at = j.value, j.value.shape, ()
    else:
        at = index if isinstance(index, tuple) else (index,)
        block = np.empty(shape)[at].shape
        lead = tuple(shape) + j.value.shape[len(block):]
        value = np.zeros(lead, dtype=j.value.dtype)
        value[at] = j.value
    grad = None
    hess = None
    if j.grad is not None:
        grad = np.zeros(lead + (total,), dtype=j.grad.dtype)
        grad[at + (Ellipsis, slice(k))] = j.grad
        if j.hess is not None:
            hess = np.zeros(lead + (total, total), dtype=j.hess.dtype)
            hess[at + (Ellipsis, slice(k), slice(k))] = j.hess
    return JetArray(value, grad, hess, total)


def restrict_vars(j: JetArray, keep: int) -> JetArray:
    """Drop trailing variables from a jet (valid when it does not depend on them)."""
    if keep > j.nvars:
        raise ValueError("cannot grow the variable count")
    grad = None if j.grad is None else j.grad[..., :keep]
    hess = None if j.hess is None else j.hess[..., :keep, :keep]
    return JetArray(j.value, grad, hess, keep)
