"""Order-2 jet arithmetic against finite differences and exact identities."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencontact import cone as C
from gencontact import jets as J


def fn(p):
    """A scalar with all the unary operations mixed in."""
    x, y, z = p
    return np.sin(x * y) * np.exp(z) + np.sqrt(2.0 + x * x) / (1.5 + np.cos(y)) + np.log(2.0 + z)


def jet_fn(seed):
    x, y, z = seed[0], seed[1], seed[2]
    return (
        J.sin(x * y) * J.exp(z)
        + J.sqrt(2.0 + x * x) / (1.5 + J.cos(y))
        + J.log(2.0 + z)
    )


def fd_grad(f, p, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(p + e) - f(p - e)) / (2 * h)
    return g


def fd_hess(f, p, h=1e-4):
    hess = np.zeros((3, 3))
    f0 = f(p)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        hess[i, i] = (f(p + ei) - 2 * f0 + f(p - ei)) / h**2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)
            ) / (4 * h**2)
    return hess


def test_jet_matches_finite_differences():
    p = np.array([0.3, -0.4, 0.2])
    jet = jet_fn(J.seed_point(p, 3))
    assert jet.value == pytest.approx(fn(p))
    assert np.allclose(jet.grad.real, fd_grad(fn, p), atol=1e-8)
    assert np.allclose(jet.hess.real, fd_hess(fn, p), atol=1e-5)
    assert np.abs(jet.hess - np.swapaxes(jet.hess, -1, -2)).max() < 1e-12


def test_power_and_rtruediv():
    p = np.array([0.7, 0.2, -0.1])
    x = J.seed_point(p, 3)[0]
    j = x**3
    assert j.value == pytest.approx(0.7**3)
    assert j.grad[0] == pytest.approx(3 * 0.7**2)
    assert j.hess[0, 0] == pytest.approx(6 * 0.7)
    r = 1.0 / x
    assert r.grad[0] == pytest.approx(-1 / 0.7**2)


def test_jet_einsum_product_rule():
    rng = np.random.default_rng(3)
    p = rng.normal(size=3)
    seed = J.seed_point(p, 3)
    x, y = seed[0], seed[1]
    a = J.stack([x * y, x + y, y * y])
    m = J.stack([J.stack([x, y, x * y]), J.stack([y, x, x]), J.stack([x + y, x, y])])
    out = J.jet_einsum("ij,j->i", m, a)
    # compare against scalar expansion
    for i in range(3):
        manual = m[i, 0] * a[0] + m[i, 1] * a[1] + m[i, 2] * a[2]
        assert np.allclose(out[i].value, manual.value)
        assert np.allclose(out[i].grad, manual.grad)
        assert np.allclose(out[i].hess, manual.hess)


def test_jet_inv_derivatives():
    rng = np.random.default_rng(5)
    p = rng.normal(size=2) * 0.3

    def mat(q):
        x, y = q
        return np.array([[2 + x * x, x * y], [np.sin(y), 3 + y]])

    seed = J.seed_point(p, 2)
    x, y = seed[0], seed[1]
    m = J.stack([J.stack([2 + x * x, x * y]), J.stack([J.sin(y), 3 + y])])
    inv = J.jet_inv(m)
    assert np.allclose(inv.value, np.linalg.inv(mat(p)))
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (np.linalg.inv(mat(p + e)) - np.linalg.inv(mat(p - e))) / (2 * h)
        assert np.allclose(inv.grad[d].real, fd, atol=1e-7)
    # identity A A^-1 = id with exact derivative data
    prod = J.jet_einsum("ij,jk->ik", m, inv)
    assert np.abs(prod.value - np.eye(2)).max() < 1e-13
    assert np.abs(prod.grad).max() < 1e-12
    assert np.abs(prod.hess).max() < 1e-11


def test_dshift_consumes_order():
    seed = J.seed_point(np.zeros(3), 3)
    x = seed[0]
    d1 = J.dshift(x * x)
    assert d1.order == 1
    d2 = J.dshift(d1)
    assert d2.order == 0
    with pytest.raises(J.JetOrderError):
        J.dshift(d2)


def test_order_degrades_through_products():
    seed = J.seed_point(np.array([0.5, 0.5, 0.5]), 3)
    x = seed[0]
    partial = J.dshift(x * x)  # order 1
    prod = partial * x
    assert prod.order == 1
    assert prod.hess is None


def random_jet(rng, shape, nvars, order, nbatch=0):
    """A random complex jet whose value has ``shape``, its first ``nbatch`` axes the batch."""
    def draw(s):
        return rng.normal(size=s) + 1j * rng.normal(size=s)

    batch, comps = shape[:nbatch], shape[nbatch:]
    grad = draw(batch + (nvars,) + comps) if order >= 1 else None
    hess = draw(batch + (nvars, nvars) + comps) if order >= 2 else None
    return J.JetArray(draw(shape), grad, hess, nvars, nbatch)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_extend_vars_matches_np_pad(order):
    j = random_jet(np.random.default_rng(order), (2, 3), 3, order)
    out = J.extend_vars(j, 5)
    assert out.nvars == 5 and out.order == order
    assert out.value is j.value
    if order >= 1:
        want = np.pad(j.grad, [(0, 2), (0, 0), (0, 0)])
        assert out.grad.dtype == want.dtype and np.array_equal(out.grad, want)
    if order >= 2:
        want = np.pad(j.hess, [(0, 2), (0, 2), (0, 0), (0, 0)])
        assert out.hess.dtype == want.dtype and np.array_equal(out.hess, want)

    # placements: a cone-section vector, an np.ix_ endo block, one column
    rows = C._slots(3)[0]
    for comp, shape, index in (
        ((6,), (8,), rows),
        ((6, 6), (8, 8), np.ix_(rows, rows)),
        ((3,), (4, 4), (slice(3), 3)),
    ):
        j = random_jet(np.random.default_rng(order), comp, 3, order)
        out = J.extend_vars(j, 4, shape, index)
        assert out.nvars == 4 and out.order == order and out.shape == shape
        want = np.zeros(shape, dtype=complex)
        want[index] = j.value
        assert np.array_equal(out.value, want)
        if order >= 1:
            want = np.zeros((4,) + shape, dtype=complex)
            want[(slice(None),) + np.index_exp[index]] = np.pad(
                j.grad, [(0, 1)] + [(0, 0)] * len(comp))
            assert np.array_equal(out.grad, want)
        if order >= 2:
            want = np.zeros((4, 4) + shape, dtype=complex)
            want[(slice(None),) * 2 + np.index_exp[index]] = np.pad(
                j.hess, [(0, 1), (0, 1)] + [(0, 0)] * len(comp))
            assert np.array_equal(out.hess, want)


def test_jet_einsum_derivative_first_matches_per_item():
    """A derivative-first operand over a batch, as dshift lays it out, with a
    plain spec: each item equals the unbatched product."""
    rng = np.random.default_rng(7)
    a = random_jet(rng, (4, 3), 3, 2, nbatch=1)
    m = random_jet(rng, (4, 3, 3), 3, 2, nbatch=1).moveaxis(1, 0)  # (batch, j, i)
    out = J.jet_einsum("j,ji->i", a, m)
    assert out.shape == (4, 3)
    for b in range(4):
        item = J.jet_einsum("j,ji->i", J.take_batch(a, b, ()), J.take_batch(m, b, ()))
        got = J.take_batch(out, b, ())
        assert np.array_equal(got.value, item.value)
        assert np.array_equal(got.grad, item.grad)
        assert np.array_equal(got.hess, item.hess)


def test_dshift_puts_the_derivative_axis_first_as_a_view():
    j = random_jet(np.random.default_rng(3), (2, 5), 3, 2)
    d = J.dshift(j)
    assert d.shape == (3, 2, 5) and d.order == 1
    assert np.shares_memory(d.value, j.grad) and np.shares_memory(d.grad, j.hess)
    for k in range(3):
        assert np.array_equal(d[k].value, j.grad[k])
        assert np.array_equal(d[k].grad, j.hess[:, k])


def test_moveaxis_matches_np_moveaxis_on_every_part():
    """Every src, dst in [-nc, nc): each batch and derivative item of each part
    moves its component axes as np.moveaxis moves them, and the parts are views."""
    rng = np.random.default_rng(11)
    j = random_jet(rng, (2, 2, 3, 4), 2, 2, nbatch=1)
    nc = j.ncomps
    for src in range(-nc, nc):
        for dst in range(-nc, nc):
            got = j.moveaxis(src, dst)
            for part, lead in (("value", 1), ("grad", 2), ("hess", 3)):
                a, g = getattr(j, part), getattr(got, part)
                assert np.shares_memory(g, a)
                for idx in np.ndindex(*a.shape[:lead]):
                    want = np.moveaxis(a[idx], src, dst)
                    assert g[idx].shape == want.shape and np.array_equal(g[idx], want), (
                        src, dst, part)


def test_jet_einsum_refuses_an_ellipsis_spec():
    rng = np.random.default_rng(7)
    a = random_jet(rng, (3, 4), 3, 1)
    m = random_jet(rng, (3, 4, 3), 3, 1)
    with pytest.raises(ValueError, match="batch axes are appended"):
        J.jet_einsum("j...,i...j->i...", a, m)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_concat_none_parts_equal_explicit_zeros(order):
    rng = np.random.default_rng(order)
    a, b = random_jet(rng, (4, 2, 2), 3, order, 1), random_jet(rng, (4, 2, 2), 3, order, 1)
    zero = J.lift(np.zeros((2, 2)), 3, order, (4,))
    for parts, axis in (([a, None], 0), ([None, b], 0), ([None, a, None, b], 1)):
        got = J.concat(parts, axis)
        want = J.concat([zero if p is None else p for p in parts], axis)
        assert got.order == want.order == order
        for part in ("value", "grad", "hess"):
            g, w = getattr(got, part), getattr(want, part)
            assert (g is None) == (w is None)
            assert g is None or (g.shape == w.shape and np.array_equal(g, w))


def test_parts_put_the_batch_axes_first_as_views():
    """parts reads the parts a jet has, value first, with the batch axes moved
    in front of the component axes and the derivative axes kept last."""
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 5, 3))
    j = J.jet_einsum("i,j->ij", J.seed_point(p, 3), J.seed_point(p, 3))
    value, grad, hess = J.parts(j, 2)
    assert value.shape == (4, 5, 3, 3) and grad.shape == (4, 5, 3, 3, 3)
    assert hess.shape == (4, 5, 3, 3, 3, 3)
    assert np.array_equal(value, j.value)
    assert np.array_equal(hess, np.moveaxis(j.hess, (3, 2), (-2, -1)))
    assert np.shares_memory(grad, j.grad)
    assert len(J.parts(j.truncate(0), 2)) == 1
    (single,) = J.parts(J.seed_point(p[0, 0], 3, 0), 0)
    assert single.shape == (3,) and J.batch_shape(J.seed_point(p, 3), 1) == (4, 5)


def test_only_jets_reads_the_parts_of_a_jet():
    """Outside jets.py no module of the package reads an attribute named value,
    grad or hess, or calls JetArray: the jet layout is read through jets.parts."""
    import ast
    from pathlib import Path

    src = Path(J.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("value", "grad", "hess"):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.Call) and "JetArray" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno} calls JetArray")
    assert not found, found


def test_jet_inv_of_a_singular_matrix_names_its_first_singular_batch_index():
    """numpy's LinAlgError is not a ValueError; jet_inv raises one that names
    the first batch item whose matrix is singular, and inverts the rest as before."""
    stack = np.stack([np.eye(2), [[2.0, 1.0], [1.0, 1.0]]])
    inv = J.jet_inv(J.lift(stack, 3, 1).reshape((2, 2), (2,)))
    assert np.array_equal(J.parts(inv, 1)[0], np.linalg.inv(stack))
    singular = np.stack([stack, np.zeros((2, 2, 2)), 0 * stack], axis=1)
    with pytest.raises(J.SingularMatrixError, match=r"batch index \(0, 1\)$"):
        J.jet_inv(J.lift(singular, 3, 2).reshape((2, 2), (2, 3)))
    assert issubclass(J.SingularMatrixError, ValueError)



# -- real jets against the real part of the same jets as complex128 ----------------

EPS = np.finfo(float).eps


@st.composite
def real_jet_cases(draw):
    """A numpy generator, a batch shape (one point and a one-item batch included),
    a component count and a variable count for random real order-2 jets."""
    seed = draw(st.integers(0, 2**32 - 1))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,), (2, 2)]))
    return np.random.default_rng(seed), batch, draw(st.integers(2, 5)), draw(st.integers(1, 4))


def real_jet(rng, comps, batch, nvars, low=None):
    """A random real order-2 jet; with ``low``, its value is at least ``low``."""
    batch, comps = tuple(batch), tuple(comps)
    value = rng.normal(size=batch + comps)
    if low is not None:
        value = low + np.abs(value)
    return J.JetArray(value, rng.normal(size=batch + (nvars,) + comps),
                      rng.normal(size=batch + (nvars, nvars) + comps), nvars, len(batch))


def as_complex(j):
    return j.map(lambda a: a.astype(complex))


def compare(op, *jets, ulps=None):
    """op on the real jets against the real part of op on their complex128 copies:
    bit for bit, or within ``ulps`` units of the largest part entry."""
    got, ref = op(*jets), op(*map(as_complex, jets))
    for part in ("value", "grad", "hess"):
        x, y = getattr(got, part), getattr(ref, part)
        assert (x is None) == (y is None), part
        if x is None:
            continue
        assert x.dtype == np.float64 and y.dtype == np.complex128, part
        if ulps is None:
            assert np.array_equal(x, y.real), part
        else:
            scale = max(np.abs(y).max(initial=0.0), np.finfo(float).tiny)
            assert np.abs(x - y.real).max(initial=0.0) <= ulps * EPS * scale, part


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(real_jet_cases())
def test_real_jets_equal_the_real_part_of_complex_jets_bit_for_bit(case):
    """+ - *, scalars, jet_einsum, stack/concat, dshift and extend_vars need no
    imaginary part: float64 gives the real part's bits at every batch shape."""
    rng, batch, n, nvars = case
    a, b = real_jet(rng, (n,), batch, nvars), real_jet(rng, (n,), batch, nvars)
    m, w = real_jet(rng, (n, n), batch, nvars), real_jet(rng, (n, n), batch, nvars)
    for op in (operator.add, operator.sub, operator.mul, lambda x, y: -x + 2.5 * y - 0.75,
               lambda x, y: 0.5 - x * 3 + y / 4.0):
        compare(op, a, b)
    for spec, x, y in (("i,i->", a, b), ("i,j->ij", a, b), ("ij,j->i", m, a),
                       ("ij,jk->ik", m, w), ("j,ji->i", a, m), ("ij,ij->", m, w)):
        compare(functools.partial(J.jet_einsum, spec), x, y)
    # derivative-first operands, as the Courant bracket contracts them
    c = real_jet(rng, (nvars,), batch, nvars)
    compare(lambda x, y: J.jet_einsum("ji,i->j", J.dshift(y), x), a, b)
    compare(lambda x, y: J.jet_einsum("j,ji->i", x, J.dshift(y)), c, a)
    compare(lambda x, y: J.stack([x, y], axis=1), a, b)
    compare(lambda x, y: J.concat([x, None, y]), a, b)
    compare(lambda x: J.dshift(x), m)
    compare(lambda x: J.extend_vars(x, nvars + 2), a)
    compare(lambda x: J.extend_vars(x, nvars + 1, (n + 1,), slice(n)), a)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(real_jet_cases())
def test_real_jets_match_complex_jets_to_rounding_in_division_and_functions(case):
    """/, reciprocal, exp, log, sqrt, powc, sin, cos and jet_inv round differently
    as complex128 (Smith's division, complex exp and log): within a few ulps of
    the largest entry of each part, on positive arguments where the real
    function is defined."""
    rng, batch, n, nvars = case
    a, pos = real_jet(rng, (n,), batch, nvars), real_jet(rng, (n,), batch, nvars, low=0.5)
    compare(operator.truediv, a, pos, ulps=4)
    compare(lambda x: 1.7 / x, pos, ulps=4)
    for fn in (J.reciprocal, J.log, J.sqrt, J.exp, J.sin, J.cos,
               lambda x: J.powc(x, 2.5), lambda x: J.powc(x, -0.5), lambda x: x ** 3):
        compare(fn, pos, ulps=4)
    m = real_jet(rng, (n, n), batch, nvars)
    m = J.JetArray(m.value * 0.1 + 2 * np.eye(n), m.grad, m.hess, nvars, len(batch))
    compare(J.jet_inv, m, ulps=4)
