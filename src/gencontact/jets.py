"""Truncated Taylor jets of order at most 2, with numpy-vectorised arithmetic.

A jet carries a complex value together with exact partial derivatives with
respect to the chart coordinates, up to its order: 0 (value only), 1 (plus
the gradient) or 2 (plus the hessian).  Jets are the evaluation currency of
every field in this package: identities checked downstream (d∘d = 0, Cartan,
bracket antisymmetry, ...) then hold to rounding error instead of
finite-difference error.

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

    ``value`` has an arbitrary leading shape S; ``grad`` (if present) has
    shape S+(nvars,) and ``hess`` shape S+(nvars, nvars).  ``hess`` present
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

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None) -> "JetArray":
        if axis is None:
            axis = tuple(range(self.value.ndim))
        g = None if self.grad is None else self.grad.sum(axis=axis)
        h = None if self.hess is None else self.hess.sum(axis=axis)
        return JetArray(self.value.sum(axis=axis), g, h, self.nvars)

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


def lift(x, nvars: int, order: int = MAX_ORDER) -> JetArray:
    """Lift a constant (scalar or ndarray) to a constant jet of the given order."""
    if isinstance(x, JetArray):
        return x
    v = _as_complex(x)
    g = np.zeros(v.shape + (nvars,), dtype=complex) if order >= 1 else None
    h = np.zeros(v.shape + (nvars, nvars), dtype=complex) if order >= 2 else None
    return JetArray(v, g, h, nvars)


def stack(jets, axis: int = 0) -> JetArray:
    """Stack jets of identical shape along a new leading axis."""
    nvars = jets[0].nvars
    value = np.stack([j.value for j in jets], axis=axis)
    grad = None
    hess = None
    if all(j.grad is not None for j in jets):
        grad = np.stack([j.grad for j in jets], axis=axis)
        if all(j.hess is not None for j in jets):
            hess = np.stack([j.hess for j in jets], axis=axis)
    return JetArray(value, grad, hess, nvars)


def seed_point(point, nvars: int, order: int = MAX_ORDER) -> JetArray:
    """Jet of the identity map at ``point``: value p, grad = Id, hess = 0, up to ``order``."""
    p = _as_complex(point)
    if p.shape != (nvars,):
        raise ValueError(f"point has shape {p.shape}, expected ({nvars},)")
    return JetArray(
        p,
        np.eye(nvars, dtype=complex) if order >= 1 else None,
        np.zeros((nvars, nvars, nvars), dtype=complex) if order >= 2 else None,
        nvars,
    )


def dshift(j: JetArray) -> JetArray:
    """Trade one derivative order for an extra trailing component axis.

    The result's value is the input's gradient; its gradient is the input's
    hessian; its hessian is gone.  This is how d, Lie and Courant operations
    consume derivative budget.
    """
    j.require(1)
    return JetArray(j.grad, j.hess, None, j.nvars)


def jet_einsum(subscripts: str, a: JetArray, b: JetArray) -> JetArray:
    """Einsum of two jets with product-rule propagation of grad and hess.

    ``subscripts`` must be a plain two-operand spec like ``'ij,j->i'`` and
    must not use the reserved letters ``z`` and ``w``.
    """
    if "z" in subscripts or "w" in subscripts:
        raise ValueError("subscripts must not use reserved letters z/w")
    lhs, out = subscripts.split("->")
    s1, s2 = lhs.split(",")
    value = np.einsum(subscripts, a.value, b.value)
    grad = None
    hess = None
    if a.grad is not None and b.grad is not None:
        grad = np.einsum(f"{s1}z,{s2}->{out}z", a.grad, b.value) + np.einsum(
            f"{s1},{s2}z->{out}z", a.value, b.grad
        )
        if a.hess is not None and b.hess is not None:
            cross = np.einsum(f"{s1}z,{s2}w->{out}zw", a.grad, b.grad)
            hess = (
                np.einsum(f"{s1}zw,{s2}->{out}zw", a.hess, b.value)
                + np.einsum(f"{s1},{s2}zw->{out}zw", a.value, b.hess)
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
    """Inverse of a square-matrix jet (shape (k, k)), order preserved.

    Uses d(A^-1) = -A^-1 dA A^-1 and its second-order extension.
    """
    v = np.linalg.inv(j.value)
    grad = None
    hess = None
    if j.grad is not None:
        grad = -np.einsum("ij,jkz,kl->ilz", v, j.grad, v)
        if j.hess is not None:
            t1 = -np.einsum("ij,jkzw,kl->ilzw", v, j.hess, v)
            t2 = np.einsum("ij,jkz,kl,lmw,mn->inzw", v, j.grad, v, j.grad, v)
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
    Without one, the value array is shared, not copied.
    """
    if total < j.nvars:
        raise ValueError("cannot shrink the variable count")
    k = j.nvars
    if shape is None:
        value, lead, at = j.value, j.value.shape, (Ellipsis,)
    else:
        value, lead = np.zeros(shape, dtype=j.value.dtype), tuple(shape)
        at = index if isinstance(index, tuple) else (index,)
        value[at] = j.value
    grad = None
    hess = None
    if j.grad is not None:
        grad = np.zeros(lead + (total,), dtype=j.grad.dtype)
        grad[at + (slice(k),)] = j.grad
        if j.hess is not None:
            hess = np.zeros(lead + (total, total), dtype=j.hess.dtype)
            hess[at + (slice(k), slice(k))] = j.hess
    return JetArray(value, grad, hess, total)


def restrict_vars(j: JetArray, keep: int) -> JetArray:
    """Drop trailing variables from a jet (valid when it does not depend on them)."""
    if keep > j.nvars:
        raise ValueError("cannot grow the variable count")
    grad = None if j.grad is None else j.grad[..., :keep]
    hess = None if j.hess is None else j.hess[..., :keep, :keep]
    return JetArray(j.value, grad, hess, keep)
