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

One jet holds a whole batch of points, batch first: its value has shape
``(*B, *comps)``, its gradient ``(*B, nvars, *comps)`` and its hessian
``(*B, nvars, nvars, *comps)``, for the point array ``(*B, nvars)`` it was
evaluated at, and it knows its batch rank ``nbatch``.  A single point is
the batch ``B = ()``.  Hessian entry ``[l, k]`` is d_l of gradient entry
``[k]``, so :func:`dshift` takes the gradient and hessian as they are.  This
module is the one place that knows the layout: other modules read a jet
with :func:`parts` (derivative axes last) and place the batch with
:meth:`JetArray.reshape` and :func:`batch_shape`; indexing ``j[:n]``,
``reshape``, ``moveaxis``, :func:`take_batch`, :func:`stack` and
:func:`concat` (a ``None`` part is zero) act on the component axes, counted
from the front.

:func:`jet_einsum` takes two-operand specs over the component axes in one
kernel form (see :func:`_plan`): the first operand lists its rows, then the
summed letters; the second its stacked letters, the summed letters and its
columns; the output the stacked letters, the rows and the columns.  Each
product-rule term is one broadcasting ``*`` (no summed letter: an outer or
scalar product) or ``@`` (:func:`matmul`, rows of the first operand against
columns of the second), with an operand's derivative axes folded into its
rows, so one call serves a whole batch.  A stacked second operand is a stack
of vectors, each multiplied as it would be alone: each ``k`` of
``'ij,kj->ki'`` has the bits of ``'ij,j->i'``.  The matrices are
C-contiguous, so numpy runs the same BLAS call on a point as on each batch
item and a point's jet is its batch item bit for bit; a complex ``@`` is
assembled from real ones, so a real jet has the real part's bits of its
complex copy.  :func:`jet_inv` is chained ``@`` on A^-1 dA.

Elementwise arithmetic broadcasts over the batch, and component axes align
from the end: a ``(*B)`` scalar jet scales every component of a
``(*B, 2n)`` section.  An array operand is a constant over the value's
axes, numpy-style.  A scalar operand of ``+ - * /`` (a Python or numpy
number) is never lifted: value, gradient and hessian each get the
floating-point operation a lifted constant would give them, without the
exact ``+ 0`` terms of its zero derivatives.  The binary operations spell
out each part, since their operand order fixes the rounding.

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

    ``value`` has shape B + C (``nbatch`` batch axes B, component axes C);
    ``grad`` (if present) has shape B + (nvars,) + C and ``hess`` shape
    B + (nvars, nvars) + C.  ``hess`` present implies ``grad`` present.
    """

    value: np.ndarray
    grad: Optional[np.ndarray]
    hess: Optional[np.ndarray]
    nvars: int
    nbatch: int = 0

    @property
    def shape(self):
        return self.value.shape

    @property
    def ncomps(self) -> int:
        return self.value.ndim - self.nbatch

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    # -- structure: one array map over the parts present ---------------------

    def _at(self, fn, nbatch=None) -> "JetArray":
        """``fn(part, lead)`` on each part present, ``lead`` its count of batch and
        derivative axes; the result has ``nbatch`` batch axes (unchanged by default)."""
        nb = self.nbatch
        g = None if self.grad is None else fn(self.grad, nb + 1)
        h = None if self.hess is None else fn(self.hess, nb + 2)
        return JetArray(fn(self.value, nb), g, h, self.nvars, nb if nbatch is None else nbatch)

    def map(self, fn) -> "JetArray":
        """Apply an array map to the value, gradient and hessian; a missing part stays missing.

        ``fn`` must act on the trailing component axes only (negative axis
        numbers), so that each part keeps its batch and derivative axes.
        """
        return self._at(lambda a, lead: fn(a))

    def __getitem__(self, idx) -> "JetArray":
        at = (slice(None),) * self.nbatch + (idx if isinstance(idx, tuple) else (idx,))
        g, h = self.grad, self.hess
        return JetArray(self.value[at], None if g is None else g[(slice(None),) + at],
                        None if h is None else h[(slice(None),) * 2 + at], self.nvars, self.nbatch)

    def reshape(self, comps, batch) -> "JetArray":
        """The jet with component shape ``comps`` over the batch shape ``batch``.

        The batch and component axes each keep their element order, so an
        order-0 jet may also move axes between them (a lifted ``(*B, T)``
        array read as T components over B).
        """
        nb, batch = self.nbatch, tuple(batch)
        return self._at(lambda a, lead: a.reshape(batch + a.shape[nb:lead] + tuple(comps)),
                        len(batch))

    def moveaxis(self, src: int, dst: int) -> "JetArray":
        """Move a component axis (``src`` and ``dst`` count from the front, a
        negative one from the back), as ``np.moveaxis`` views."""
        order = list(range(self.ncomps))
        order.insert(range(self.ncomps)[dst], order.pop(src))
        return self._at(lambda a, lead: a.transpose(*range(lead), *(lead + k for k in order)))

    def _pad(self, ncomps: int) -> "JetArray":
        """The jet with size-1 component axes in front of its own, ``ncomps`` in all."""
        extra = (1,) * (ncomps - self.ncomps)
        return self._at(lambda a, lead: a.reshape(a.shape[:lead] + extra + a.shape[lead:]))

    # -- arithmetic (a scalar operand is not lifted) ------------------------

    __array_ufunc__ = None  # numpy scalars and arrays defer to the reflected operators

    def _operands(self, other) -> tuple:
        """This jet and ``other`` with equal component counts: an array constant
        lifted at this jet's order over the value's axes, numpy-style, and
        size-1 component axes in front of the fewer components."""
        na = self.value.ndim - self.nbatch
        if not isinstance(other, JetArray):
            v = as_array(other)
            other = _constant(v, self.nvars, self.order, max(0, v.ndim - na))
        nb = other.value.ndim - other.nbatch
        if na == nb:
            return self, other
        return (self._pad(nb), other) if na < nb else (self, other._pad(na))

    def __add__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return JetArray(self.value + other, self.grad, self.hess, self.nvars, self.nbatch)
        a, b = self._operands(other)
        g = None if (a.grad is None or b.grad is None) else a.grad + b.grad
        h = None if (a.hess is None or b.hess is None) else a.hess + b.hess
        return JetArray(a.value + b.value, g, h, self.nvars, max(a.nbatch, b.nbatch))

    __radd__ = __add__

    def __neg__(self) -> "JetArray":
        g, h = self.grad, self.hess
        return JetArray(-self.value, None if g is None else -g, None if h is None else -h,
                        self.nvars, self.nbatch)

    def __sub__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return self + -other
        a, b = self._operands(other)
        return a + (-b)

    def __rsub__(self, other) -> "JetArray":
        return -self + other

    def __mul__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            g = None if self.grad is None else other * self.grad
            h = None if self.hess is None else other * self.hess
            return JetArray(self.value * other, g, h, self.nvars, self.nbatch)
        a, b = self._operands(other)
        nc = a.ncomps
        value = a.value * b.value
        grad = None
        hess = None
        if a.grad is not None and b.grad is not None:
            grad = _d(a.value, 1, nc) * b.grad + _d(b.value, 1, nc) * a.grad
            if a.hess is not None and b.hess is not None:
                cross = _d(a.grad, 1, nc + 1) * _d(b.grad, 1, nc)  # [l, k] = da_k db_l
                hess = (
                    _d(a.value, 2, nc) * b.hess
                    + _d(b.value, 2, nc) * a.hess
                    + cross
                    + np.swapaxes(cross, -nc - 2, -nc - 1)
                )
        return JetArray(value, grad, hess, self.nvars, max(a.nbatch, b.nbatch))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return self * (1.0 / as_array(other))
        a, b = self._operands(other)
        return a * reciprocal(b)

    def __rtruediv__(self, other) -> "JetArray":
        if isinstance(other, _SCALARS):
            return reciprocal(self) * other
        a, b = self._operands(other)
        return b * reciprocal(a)

    def __pow__(self, expo: Number) -> "JetArray":
        return powc(self, expo)

    def truncate(self, order: int) -> "JetArray":
        """The same jet without the derivative orders above ``order``."""
        if self.order <= order:
            return self
        return JetArray(self.value, self.grad if order >= 1 else None, None, self.nvars,
                        self.nbatch)

    def require(self, order: int) -> "JetArray":
        if self.order < order:
            raise JetOrderError(
                f"jet of order {self.order} cannot supply order-{order} data "
                "(derivative budget exhausted by nested brackets/derivatives)"
            )
        return self


def _d(a: np.ndarray, k: int, ncomps: int) -> np.ndarray:
    """``a`` with ``k`` size-1 derivative axes in front of its last ``ncomps`` axes."""
    at = a.ndim - ncomps
    return a.reshape(a.shape[:at] + (1,) * k + a.shape[at:])


def parts(j: JetArray, nbatch: int) -> tuple:
    """The parts a jet has, value first, as views with its ``nbatch`` batch axes
    first and the derivative axes last: value ``(*B, *comps)``, gradient
    ``(*B, *comps, nvars)`` and hessian ``(*B, *comps, nvars, nvars)``, whose
    entry ``[..., k, l]`` is d_l of gradient entry ``[..., k]``."""
    out = [j.value]
    if j.grad is not None:
        out.append(np.moveaxis(j.grad, nbatch, -1))
    if j.hess is not None:
        out.append(np.moveaxis(j.hess, (nbatch + 1, nbatch), (-2, -1)))
    return tuple(out)


def batch_shape(j: JetArray, ncomps: int) -> tuple:
    """The batch shape of a jet with ``ncomps`` component axes."""
    return j.shape[:j.value.ndim - ncomps]


def lift(x, nvars: int, order: int = MAX_ORDER, batch=()) -> JetArray:
    """Lift a constant (scalar or ndarray) to a constant jet of the given order.

    With a batch shape the constant's components follow the batch axes; the
    value and the zero derivatives are broadcast views, not copies.
    """
    if isinstance(x, JetArray):
        return x
    v = as_array(x)
    batch = tuple(batch)
    return _constant(np.broadcast_to(v, batch + v.shape) if batch else v, nvars, order, len(batch))


def _constant(v: np.ndarray, nvars: int, order: int, nbatch: int) -> JetArray:
    """The constant jet of value ``v``, whose first ``nbatch`` axes are batch axes."""
    lead, comps = v.shape[:nbatch], v.shape[nbatch:]
    g = _zeros(lead + (nvars,) + comps, v.dtype) if order >= 1 else None
    h = _zeros(lead + (nvars, nvars) + comps, v.dtype) if order >= 2 else None
    return JetArray(v, g, h, nvars, nbatch)


@functools.lru_cache(maxsize=256)
def _zeros(shape, dtype) -> np.ndarray:
    """A read-only zero array of any size, as a broadcast view of one scalar
    (kept: a jet's zero parts are shared, never written)."""
    return np.broadcast_to(np.zeros((), dtype), shape)


@functools.lru_cache(maxsize=64)
def _identity(shape, dtype) -> np.ndarray:
    """The read-only (..., n, n) identity of a seed's gradient, as a broadcast view (kept)."""
    return np.broadcast_to(np.eye(shape[-1], dtype=dtype), shape)


def _join(join, jets, axis: int) -> JetArray:
    """Join jets part by part with ``join`` (``np.stack`` or ``np.concatenate``)
    along a component axis; a derivative part missing from one operand is
    missing from the result."""
    nb = jets[0].nbatch
    at = axis if axis < 0 else nb + axis
    value = join([j.value for j in jets], axis=at)
    grad = None
    hess = None
    if all(j.grad is not None for j in jets):
        grad = join([j.grad for j in jets], axis=at if axis < 0 else at + 1)
        if all(j.hess is not None for j in jets):
            hess = join([j.hess for j in jets], axis=at if axis < 0 else at + 2)
    return JetArray(value, grad, hess, jets[0].nvars, nb)


def stack(jets, axis: int = 0) -> JetArray:
    """Stack jets of identical shape along a new component axis."""
    return _join(np.stack, jets, axis)


def concat(parts: Sequence[Optional[JetArray]], axis: int = 0) -> JetArray:
    """Concatenate jets along a component axis.  A ``None`` part is zero, shaped like the
    first present part (the one place zero parts are built)."""
    present = [j for j in parts if j is not None]
    if not present:
        raise ValueError("need at least one nonzero part")
    if len(present) < len(parts):
        zero = present[0].map(lambda a: _zeros(a.shape, a.dtype))
        parts = [zero if j is None else j for j in parts]
    return _join(np.concatenate, parts, axis)


def take_batch(j: JetArray, index, batch) -> JetArray:
    """The items ``index`` of a jet over a one-axis batch, as a jet over the batch shape ``batch``."""
    batch = tuple(batch)
    return j._at(lambda a, lead: a.take(index, axis=0).reshape(batch + a.shape[1:]), len(batch))


def seed_point(point, nvars: int, order: int = MAX_ORDER) -> JetArray:
    """Jet of the identity map at the points ``(*B, nvars)``: value p, grad = Id, hess = 0.

    The coordinate index is the component axis, so ``seed_point(p, n)[i]`` is
    the i-th coordinate over the batch.
    """
    p = np.array(as_array(point))
    if p.shape[-1:] != (nvars,):
        raise ValueError(f"point has shape {p.shape}, expected (..., {nvars})")
    batch = p.shape[:-1]
    grad = _identity(batch + (nvars, nvars), p.dtype) if order >= 1 else None
    hess = _zeros(batch + (nvars,) * 3, p.dtype) if order >= 2 else None
    return JetArray(p, grad, hess, nvars, len(batch))


def dshift(j: JetArray) -> JetArray:
    """Trade one derivative order for a new first component axis.

    The result's value is the input's gradient and its gradient the input's
    hessian, as they are (the same arrays); its hessian is gone.  This is how
    d, Lie and Courant operations consume derivative budget: their subscripts
    name the new axis first (``'j,ji->i'`` for ``x^j d_j y^i``).
    """
    j.require(1)
    return JetArray(j.grad, j.hess, None, j.nvars, j.nbatch)


# -- the contraction kernel ------------------------------------------------------


def _c(a: np.ndarray) -> np.ndarray:
    """``a`` with C-contiguous trailing matrices (a copy unless it has them)."""
    s, size = a.strides, a.itemsize
    if s[-1] == size and s[-2] == size * a.shape[-1]:
        return a
    return np.ascontiguousarray(a)


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` with broadcasting, on C-contiguous matrices: numpy then runs the
    same BLAS call on every matrix pair, one point's or a batch item's.  A
    complex product is assembled from real ones, so that a zero imaginary
    part adds exact zeros: the real part of a complex product with real
    operands has the real product's bits (complex BLAS rounds differently)."""
    cx, cy = x.dtype.kind == "c", y.dtype.kind == "c"
    if not (cx or cy):
        return _c(x) @ _c(y)
    xr, xi = (_c(x.real), _c(x.imag)) if cx else (_c(x), None)
    yr, yi = (_c(y.real), _c(y.imag)) if cy else (_c(y), None)
    re = xr @ yr
    if cx and cy:
        re = re - xi @ yi
        im = xr @ yi + xi @ yr
    else:
        im = xi @ yr if cx else xr @ yi
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _term(x: np.ndarray, dx: int, y: np.ndarray, dy: int, contract: bool) -> np.ndarray:
    """One product-rule term: ``x`` (..., dx derivative axes, R, J) times ``y``
    (..., dy derivative axes, J, C), summed over J when ``contract`` (else J
    is 1), as (..., y's then x's derivative axes, R, C): a cross term's
    entry [l, k] is dx_k dy_l.  x's derivative axes fold into its rows."""
    if not (dx or dy):
        return matmul(x, y) if contract else x * y
    lead = x.ndim - dx - 2
    xf = x.reshape(x.shape[:lead] + (1,) * dy + (-1, x.shape[-1]))
    out = matmul(xf, y) if contract else xf * y
    return out.reshape(out.shape[:-2] + x.shape[lead:-1] + out.shape[-1:])


def _product(x: list, y: list, contract: bool) -> list:
    """The value, gradient and hessian arrays of the product rule on arranged
    parts (see :func:`_term`), as far as both operands carry them."""
    out = [_term(x[0], 0, y[0], 0, contract)]
    if len(x) > 1 and len(y) > 1:
        out.append(_term(x[1], 1, y[0], 0, contract) + _term(x[0], 0, y[1], 1, contract))
        if len(x) > 2 and len(y) > 2:
            cross = _term(x[1], 1, y[1], 1, contract)
            out.append(_term(x[2], 2, y[0], 0, contract) + _term(x[0], 0, y[2], 2, contract)
                       + cross + cross.swapaxes(-3, -4))
    return out


@functools.lru_cache(maxsize=256)
def _plan(subscripts: str) -> tuple:
    """The counts (stacked, rows, summed) of a spec in the kernel form of
    :func:`jet_einsum`; any other spec raises ``ValueError`` naming that form.

    The summed letters are the letters both operands name, and the output
    names none of them.  The first operand lists its rows, then the summed
    letters; the second lists its stacked letters, then the summed letters
    in the same order, then its columns; the output lists the stacked
    letters, the rows, then the columns.  Only a first operand with rows
    takes a stack: a matrix times a vector is written ``'ji,i->j'``.  With
    no summed letter there is no stack, an outer or scalar product.
    """
    if "." in subscripts:
        raise ValueError(f"subscripts {subscripts!r} must name the component axes only: "
                         "the batch axes are appended to every operand as its leading axes")
    lhs, out = subscripts.split("->")
    s1, s2 = lhs.split(",")
    if len(set(s1)) < len(s1) or len(set(s2)) < len(s2) or set(out) - set(s1 + s2):
        raise ValueError(f"subscripts {subscripts!r}: a letter repeats in an operand "
                         "or the output names a letter no operand has")
    nsum = sum(c in s2 for c in s1)
    rows, summed = s1[:len(s1) - nsum], s1[len(s1) - nsum:]
    at = s2.find(summed)
    stacked, cols = s2[:at], s2[at + nsum:]
    if at < 0 or (stacked and not rows) or out != stacked + rows + cols:
        raise ValueError(f"subscripts {subscripts!r} are not in the kernel form 'rows summed,"
                         "stacked summed columns->stacked rows columns', summed the letters both "
                         "operands name, with a stack only against rows")
    return len(stacked), len(rows), nsum


def _arranged(j: JetArray, front: int, extra: int, split: int) -> list:
    """The parts of ``j`` with its first ``front`` component axes moved in front
    of the derivative axes and followed by ``extra`` size-1 axes, and its other
    component axes merged into two, the first ``split`` of them into the first
    (either may be size 1)."""
    nb = j.nbatch
    parts = (j.value,) if j.grad is None else (j.value, j.grad) if j.hess is None else (
        j.value, j.grad, j.hess)
    comps = j.value.shape[nb + front:]
    m = (math.prod(comps[:split]), math.prod(comps[split:]))
    if not (front or extra):
        return parts if comps == m else [a.reshape(a.shape[:a.ndim - len(comps)] + m)
                                         for a in parts]
    out = []
    for d, a in enumerate(parts):
        lead = nb + d
        a = a.transpose(*range(nb), *range(lead, lead + front), *range(nb, lead),
                        *range(lead + front, a.ndim))
        out.append(a.reshape(a.shape[:nb + front] + (1,) * extra
                             + a.shape[nb + front:front + lead] + m))
    return out


def jet_einsum(subscripts: str, a: JetArray, b: JetArray) -> JetArray:
    """Einsum of two jets with product-rule propagation of grad and hess.

    ``subscripts`` names the component axes only, with no letter twice in
    one operand, in the kernel form of :func:`_plan` (``'ij,jk->ik'``,
    ``'ji,i->j'``, ``'ij,kj->ki'``, ``'i,j->ij'``, ...); it runs item by
    item over the broadcast batch.
    """
    ns, nr, nsum = _plan(subscripts)
    dims = a.shape[a.nbatch:a.nbatch + nr] + b.shape[b.nbatch + ns + nsum:]
    out = []
    for d, part in enumerate(_product(_arranged(a, 0, ns, nr), _arranged(b, ns, 0, nsum),
                                      nsum > 0)):
        part = part.reshape(part.shape[:-2] + dims)
        if ns and d:  # the stacked axes go behind the derivative axes
            s = part.ndim - len(dims) - d - ns
            part = np.ascontiguousarray(part.transpose(
                *range(s), *range(s + ns, s + ns + d), *range(s, s + ns),
                *range(s + ns + d, part.ndim)))
        out.append(part)
    out += [None] * (3 - len(out))
    return JetArray(*out, a.nvars, out[0].ndim - len(dims) - ns)


def _chain(j: JetArray, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> JetArray:
    """Apply an elementwise function with derivatives f1, f2 at j.value."""
    nc = j.ncomps
    grad = None
    hess = None
    if j.grad is not None:
        grad = _d(f1, 1, nc) * j.grad
        if j.hess is not None:
            outer = _d(j.grad, 1, nc + 1) * _d(j.grad, 1, nc)
            hess = _d(f1, 2, nc) * j.hess + _d(f2, 2, nc) * outer
    return JetArray(f0, grad, hess, j.nvars, j.nbatch)


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
    # one division, then products: a complex copy with a zero imaginary part
    # gets the real jet's bits
    r = 1.0 / j.value
    r2 = r * r
    return _chain(j, r, -r2, 2.0 * (r2 * r))


@_quiet
def powc(j: JetArray, c: Number) -> JetArray:
    if isinstance(c, JetArray):
        return exp(c * log(j))
    if c == 0:
        return lift(np.ones(j.shape[j.nbatch:], j.value.dtype), j.nvars, j.order,
                    j.shape[:j.nbatch])
    if c == 1:
        return j
    v = j.value
    return _chain(j, v**c, c * v ** (c - 1), c * (c - 1) * v ** (c - 2))


def jet_inv(j: JetArray) -> JetArray:
    """Inverse of a square-matrix jet (components (k, k)), order preserved.

    Uses d(A^-1) = -A^-1 dA A^-1 and its second-order extension, as chained
    ``@`` on M = A^-1 dA: the gradient is -M A^-1, and the hessian's cross
    terms are M_k M_l A^-1.  A singular value raises
    :class:`SingularMatrixError` naming its first batch index.
    """
    a = j.value
    try:
        v = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        bad = tuple(int(i) for i in np.argwhere(np.linalg.det(a) == 0)[0])
        raise SingularMatrixError(f"singular matrix at batch index {bad}") from None
    grad = None
    hess = None
    if j.grad is not None:
        m = matmul(v[..., None, :, :], j.grad)  # M_k = A^-1 d_k A
        grad = -_term(m, 1, v, 0, True)
        if j.hess is not None:
            t1 = -_term(matmul(v[..., None, None, :, :], j.hess), 2, v, 0, True)
            t2 = -matmul(m[..., None, :, :, :], grad[..., None, :, :])  # [l, k] = M_k M_l A^-1
            hess = t1 + t2 + np.swapaxes(t2, -3, -4)
    return JetArray(v, grad, hess, j.nvars, j.nbatch)


def extend_vars(j: JetArray, total: int, shape=None, index=None) -> JetArray:
    """View a jet in ``nvars`` variables as one in ``total`` (new vars appended).

    Derivatives in the appended variables are zero: this is the lift of a
    base-chart quantity to a product chart.  With a placement, the jet's
    value, gradient and hessian are written at ``index`` (anything numpy
    accepts for ``zeros(shape)[index] = j.value``: a slice, an index list, an
    ``np.ix_`` block, a tuple) into zeros of component shape ``shape``; this
    is how a base-chart component block is placed inside a cone quantity.
    ``shape`` names the component axes only; the jet's batch axes precede
    them.  Without a placement, the value array is shared, not copied.
    """
    if total < j.nvars:
        raise ValueError("cannot shrink the variable count")
    k, nb = j.nvars, j.nbatch
    batch, every = j.shape[:nb], (slice(None),) * nb
    if shape is None:
        value, comps, at = j.value, j.shape[nb:], ()
    else:
        at = index if isinstance(index, tuple) else (index,)
        comps = tuple(shape)
        value = np.zeros(batch + comps, dtype=j.value.dtype)
        value[every + at] = j.value
    grad = None
    hess = None
    if j.grad is not None:
        grad = np.zeros(batch + (total,) + comps, dtype=j.grad.dtype)
        grad[every + (slice(k),) + at] = j.grad
        if j.hess is not None:
            hess = np.zeros(batch + (total, total) + comps, dtype=j.hess.dtype)
            hess[every + (slice(k), slice(k)) + at] = j.hess
    return JetArray(value, grad, hess, total, nb)


def restrict_vars(j: JetArray, keep: int) -> JetArray:
    """Drop trailing variables from a jet (valid when it does not depend on them)."""
    if keep > j.nvars:
        raise ValueError("cannot grow the variable count")
    every = (slice(None),) * j.nbatch
    grad = None if j.grad is None else j.grad[every + (slice(keep),)]
    hess = None if j.hess is None else j.hess[every + (slice(keep), slice(keep))]
    return JetArray(j.value, grad, hess, keep, j.nbatch)
