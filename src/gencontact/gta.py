"""Pointwise linear algebra of the generalized tangent bundle TM + T*M.

Values are plain numpy arrays, float64 or complex128 as the data is (the
frames of the +i eigenbundle are complex).  A section value has shape (..., 2n),
n tangent components then n cotangent components; an endomorphism value has
shape (..., 2n, 2n) and acts on that stack.  Any leading batch shape works,
so a checker can pass the values of a field at all its sample points at
once; n is read from the last axis.  All maps here are pure.

Conventions fixed for the whole package:

* pairing  <X+a, Y+b> = (b(X) + a(Y)) / 2          (symmetric, bilinear)
* minus pairing <X+a, Y+b>_- = (a(Y) - b(X)) / 2   (antisymmetric)
* swap exchanges the vector and form halves, so <A, B> = swap(A) . B / 2;
  it is the package's one swap (``fields.swap_jet`` applies it to jets), and
  the dot is ``jets.matmul``'s, as in ``fields.pair_jets``
* tensor_pair(E, F) sends A to 2<F, A> E
"""

from __future__ import annotations

import numpy as np

from .jets import matmul


def _half(*arrays: np.ndarray) -> int:
    """n for arrays that all carry 2n components on the last axis."""
    sizes = sorted({a.shape[-1] for a in arrays})
    if len(sizes) > 1:
        raise ValueError(f"dimension mismatch: {sizes[0]} vs {sizes[1]}")
    if sizes[0] % 2:
        raise ValueError(f"expected 2n components on the last axis, got {sizes[0]}")
    return sizes[0] // 2


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the row-times-column jets.matmul of fields.pair_jets, so that a pairing of
    # jets has the bits of the pairing of their values
    return matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def swap(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """The pairing swap (vec, form) -> (form, vec) along one axis of 2n components."""
    n = a.shape[axis] // 2
    lead = (slice(None),) * (axis % a.ndim)
    return np.concatenate([a[lead + (slice(n, None),)], a[lead + (slice(None, n),)]], axis=axis)


def pair(a, b) -> np.ndarray:
    """<X+a, Y+b> = (b(X) + a(Y)) / 2; symmetric and complex-bilinear."""
    a, b = np.asarray(a), np.asarray(b)
    _half(a, b)
    return 0.5 * _dot(swap(a), b)


def pair_minus(a, b) -> np.ndarray:
    """<X+a, Y+b>_- = (a(Y) - b(X)) / 2; antisymmetric."""
    a, b = np.asarray(a), np.asarray(b)
    n = _half(a, b)
    return 0.5 * (_dot(a[..., n:], b[..., :n]) - _dot(b[..., n:], a[..., :n]))


def adjoint(p) -> np.ndarray:
    """The pairing adjoint P*: <P A, B> = <A, P* B>.

    Blockwise (TT, TC, CT, CC) -> (CC^T, TC^T, CT^T, TT^T).
    """
    pt = np.swapaxes(np.asarray(p), -1, -2)
    _half(pt)
    return swap(swap(pt, -1), -2)


def apply(p, a) -> np.ndarray:
    """P A for endomorphism values (..., 2n, 2n) and section values (..., 2n)."""
    return (np.asarray(p) @ np.asarray(a)[..., :, None])[..., 0]


def pairing_gram(p) -> np.ndarray:
    """Matrix of (A, B) -> <P A, B> in the 2n coordinates."""
    sp = swap(np.asarray(p), -2)
    return 0.25 * (sp + np.swapaxes(sp, -1, -2))


def least_pairing(p) -> float:
    """min Re <P A, A> over real unit A and a stack of P: the Gram's least eigenvalue."""
    return float(np.linalg.eigvalsh(pairing_gram(p).real).min())


def tensor_pair(e, f) -> np.ndarray:
    """The rank-one map A -> 2<F, A> E."""
    e, f = np.asarray(e), np.asarray(f)
    _half(e, f)
    return e[..., :, None] * swap(f)[..., None, :]
