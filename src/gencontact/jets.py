"""Truncated Taylor jets of order at most 2, with numpy-vectorised arithmetic.

A jet carries a complex value together with exact partial derivatives with
respect to the chart coordinates, up to its order: 0 (value only), 1 (plus
the gradient) or 2 (plus the hessian).  Jets are the evaluation currency of
every field in this package: identities checked downstream (d∘d = 0, Cartan,
bracket antisymmetry, ...) then hold to rounding error instead of
finite-difference error.

One jet holds a whole batch of points.  Its value has shape ``(*comps, *B)``,
its gradient ``(*comps, *B, nvars)`` and its hessian ``(*comps, *B, nvars,
nvars)``: the component axes come first, then the batch axes of the point
array ``(*B, nvars)`` it was evaluated at, then the derivative axes.  A
single point is the batch ``B = ()``.  Component indexing (``j[:n]``),
:func:`stack` and concatenation act on the leading axes and never see the
batch; :func:`jet_einsum` appends ``...`` to every operand spec so that the
batch axes ride along.  Elementwise arithmetic broadcasts numpy-style, so an
array constant must be lifted with the batch shape (``lift(c, n, order,
batch)``) before it meets a batched jet; scalars broadcast as they are.

The order is demanded by the consumer, capped at :data:`MAX_ORDER`: the
leaves (:func:`seed_point`, :func:`lift`) build jets of the order asked for,
and arithmetic lifts constants at the order of the jet it combines them
with.  Every operation computes each order with the same calls whether
higher orders are present or not, so a value or gradient never depends on
the order it was computed at (truncated Taylor propagation).  An operation
that consumes one derivative order (see :func:`dshift`) produces a jet one
order lower.  Asking for derivative data a jet does not carry raises
:class:`JetOrderError`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

Number = Union[int, float, complex]

#: the highest derivative order a jet carries
MAX_ORDER = 2


class JetOrderError(ValueError):
    """Raised when an operation needs derivative data that was consumed."""


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


@dataclass(frozen=True)
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

    def __getitem__(self, idx) -> "JetArray":
        g = None if self.grad is None else self.grad[idx]
        h = None if self.hess is None else self.hess[idx]
        return JetArray(self.value[idx], g, h, self.nvars)

    def reshape(self, *shape) -> "JetArray":
        g = None if self.grad is None else self.grad.reshape(*shape, self.nvars)
        h = None if self.hess is None else self.hess.reshape(*shape, self.nvars, self.nvars)
        return JetArray(self.value.reshape(*shape), g, h, self.nvars)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "JetArray":
        other = lift(other, self.nvars, self.order)
        g = None if (self.grad is None or other.grad is None) else self.grad + other.grad
        h = None if (self.hess is None or other.hess is None) else self.hess + other.hess
        return JetArray(self.value + other.value, g, h, self.nvars)

    __radd__ = __add__

    def __neg__(self) -> "JetArray":
        g = None if self.grad is None else -self.grad
        h = None if self.hess is None else -self.hess
        return JetArray(-self.value, g, h, self.nvars)

    def __sub__(self, other) -> "JetArray":
        return self + (-lift(other, self.nvars, self.order))

    def __rsub__(self, other) -> "JetArray":
        return lift(other, self.nvars, self.order) + (-self)

    def __mul__(self, other) -> "JetArray":
        other = lift(other, self.nvars, self.order)
        a, b = self, other
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
        return self * reciprocal(lift(other, self.nvars, self.order))

    def __rtruediv__(self, other) -> "JetArray":
        return lift(other, self.nvars, self.order) * reciprocal(self)

    def __pow__(self, expo: Number) -> "JetArray":
        return powc(self, expo)

    def conj(self) -> "JetArray":
        g = None if self.grad is None else np.conj(self.grad)
        h = None if self.hess is None else np.conj(self.hess)
        return JetArray(np.conj(self.value), g, h, self.nvars)

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


def lift(x, nvars: int, order: int = MAX_ORDER, batch=()) -> JetArray:
    """Lift a constant (scalar or ndarray) to a constant jet of the given order.

    With a batch shape the constant's components are followed by the batch
    axes; the value and the zero derivatives are broadcast views, not copies.
    """
    if isinstance(x, JetArray):
        return x
    v = _as_complex(x)
    if batch:
        v = np.broadcast_to(v.reshape(v.shape + (1,) * len(batch)), v.shape + tuple(batch))
    g = _zeros(v.shape + (nvars,)) if order >= 1 else None
    h = _zeros(v.shape + (nvars, nvars)) if order >= 2 else None
    return JetArray(v, g, h, nvars)


def _zeros(shape) -> np.ndarray:
    """A read-only zero array of any size, as a broadcast view of one scalar."""
    return np.broadcast_to(np.zeros((), dtype=complex), shape)


def stack(jets, axis: int = 0) -> JetArray:
    """Stack jets of identical shape along a new axis (a component axis unless
    ``axis`` is past the value's last axis)."""
    nvars = jets[0].nvars
    value = np.stack([j.value for j in jets], axis=axis)
    grad = None
    hess = None
    if all(j.grad is not None for j in jets):
        grad = np.stack([j.grad for j in jets], axis=axis)
        if all(j.hess is not None for j in jets):
            hess = np.stack([j.hess for j in jets], axis=axis)
    return JetArray(value, grad, hess, nvars)


def take_batch(j: JetArray, index, batch) -> JetArray:
    """The items ``index`` of a jet over a one-axis batch, as a jet over the batch shape ``batch``."""
    axis = j.value.ndim - 1

    def pick(a, tail):
        if a is None:
            return None
        return a.take(index, axis=axis).reshape(a.shape[:axis] + tuple(batch) + tail)

    return JetArray(pick(j.value, ()), pick(j.grad, (j.nvars,)),
                    pick(j.hess, (j.nvars, j.nvars)), j.nvars)


def seed_point(point, nvars: int, order: int = MAX_ORDER) -> JetArray:
    """Jet of the identity map at the points ``(*B, nvars)``: value p, grad = Id, hess = 0.

    The coordinate index is the component axis, so ``seed_point(p, n)[i]`` is
    the i-th coordinate over the batch.
    """
    p = _as_complex(point)
    if p.shape[-1:] != (nvars,):
        raise ValueError(f"point has shape {p.shape}, expected (..., {nvars})")
    batch = p.shape[:-1]
    grad = None
    if order >= 1:
        eye = np.eye(nvars, dtype=complex).reshape((nvars,) + (1,) * len(batch) + (nvars,))
        grad = np.broadcast_to(eye, (nvars,) + batch + (nvars,))
    hess = _zeros((nvars,) + batch + (nvars, nvars)) if order >= 2 else None
    return JetArray(np.ascontiguousarray(np.moveaxis(p, -1, 0)), grad, hess, nvars)


def dshift(j: JetArray) -> JetArray:
    """Trade one derivative order for an extra value axis, after the batch axes.

    The result's value is the input's gradient; its gradient is the input's
    hessian; its hessian is gone.  This is how d, Lie and Courant operations
    consume derivative budget: their subscripts name the new axis after
    ``...`` (``'j...,i...j->i...'``).
    """
    j.require(1)
    return JetArray(j.grad, j.hess, None, j.nvars)


@functools.lru_cache(maxsize=256)
def _einsum_plan(subscripts: str):
    """The six einsum specs of a jet product, with ``...`` appended for the batch.

    A spec that already names ``...`` (a middle ellipsis such as ``i...j``)
    is kept as it is.
    """
    if "z" in subscripts or "w" in subscripts:
        raise ValueError("subscripts must not use reserved letters z/w")
    lhs, out = subscripts.split("->")
    s1, s2, out = (s if "..." in s else s + "..." for s in (*lhs.split(","), out))
    return (f"{s1},{s2}->{out}",
            f"{s1}z,{s2}->{out}z", f"{s1},{s2}z->{out}z",
            f"{s1}z,{s2}w->{out}zw", f"{s1}zw,{s2}->{out}zw", f"{s1},{s2}zw->{out}zw")


def jet_einsum(subscripts: str, a: JetArray, b: JetArray) -> JetArray:
    """Einsum of two jets with product-rule propagation of grad and hess.

    ``subscripts`` must be a plain two-operand spec over the component axes,
    like ``'ij,j->i'``, and must not use the reserved letters ``z`` and
    ``w``; it runs as ``'ij...,j...->i...'``, item by item over the batch.
    """
    val, g1, g2, cross_spec, h1, h2 = _einsum_plan(subscripts)
    value = np.einsum(val, a.value, b.value)
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


def log(j: JetArray) -> JetArray:
    v = j.value
    return _chain(j, np.log(v), 1.0 / v, -1.0 / v**2)


def sqrt(j: JetArray) -> JetArray:
    s = np.sqrt(j.value)
    return _chain(j, s, 0.5 / s, -0.25 / (s * j.value))


def reciprocal(j: JetArray) -> JetArray:
    v = j.value
    return _chain(j, 1.0 / v, -1.0 / v**2, 2.0 / v**3)


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

    Uses d(A^-1) = -A^-1 dA A^-1 and its second-order extension.
    """
    v = np.moveaxis(np.linalg.inv(np.moveaxis(j.value, (0, 1), (-2, -1))), (-2, -1), (0, 1))
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
