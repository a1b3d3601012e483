"""Pointwise generalized-tangent algebra: pairings, adjoint, rank-one maps,
and the e^B and R fields that carry its conventions."""

import numpy as np
import pytest

from gencontact import fields as F
from gencontact import gta
from gencontact import jets as J
from gencontact.charts import ConeChart, box
from gencontact.exprs import parse_scalar
from gencontact.gta import (
    adjoint,
    apply,
    pair,
    pair_minus,
    pairing_gram,
    tensor_pair,
)
from oracles import r_endo

RNG = np.random.default_rng(7)
CH = box(3)
PTS = CH.sample(seed=5, count=6)


def rand_vec(n=3):
    return RNG.normal(size=2 * n) + 1j * RNG.normal(size=2 * n)


def rand_endo(n=3, complex_=True):
    m = RNG.normal(size=(2 * n, 2 * n))
    return m + 1j * RNG.normal(size=(2 * n, 2 * n)) if complex_ else m


def rand_form_matrix(n=3):
    a = RNG.normal(size=(n, n))
    return a - a.T


def gt(vec, form):
    return np.concatenate([vec, form]).astype(complex)


def b_field(bmat):
    """The 2-form (1 + x) bmat on CH, so that e^B varies over the point batch."""
    scale = F.constant(CH, 1) + F.coordinate(CH, 0)
    return F.from_components(F.TwoFormField, CH, [[scale * float(v) for v in row] for row in bmat])


def b_endo_values(bmat, points=PTS):
    """(P, 2n, 2n) values of e^B for B = b_field(bmat)."""
    return F.b_endo(b_field(bmat)).values(points)


def sup(a):
    return float(np.abs(a).max())


def test_pair_basis_examples():
    # <d_1, dx^1> = 1/2 and pure vectors are isotropic
    a = gt([1, 0, 0], [0, 0, 0])
    b = gt([0, 0, 0], [1, 0, 0])
    assert pair(a, b) == pytest.approx(0.5)
    assert pair(gt([1, 0, 0], [0, 0, 0]), gt([0, 1, 0], [0, 0, 0])) == 0


def test_pair_symmetric_bilinear():
    for _ in range(100):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        s = RNG.normal() + 1j * RNG.normal()
        assert abs(pair(a, b) - pair(b, a)) < 1e-12
        assert abs(pair(a * s + c, b) - (s * pair(a, b) + pair(c, b))) < 1e-12


def test_pair_minus_examples():
    a = gt([0, 0, 0], [0, 0, 1])  # dz
    b = gt([0, 0, 1], [0, 0, 0])  # d/dz
    assert pair_minus(a, b) == pytest.approx(0.5)
    assert pair_minus(b, a) == pytest.approx(-0.5)
    v = rand_vec()
    assert pair_minus(v, v) == 0


def test_pair_minus_antisymmetric():
    for _ in range(100):
        a, b = rand_vec(), rand_vec()
        assert abs(pair_minus(a, b) + pair_minus(b, a)) < 1e-12


def test_pair_dimension_mismatch():
    with pytest.raises(ValueError):
        pair(rand_vec(3), rand_vec(2))
    with pytest.raises(ValueError):
        pair_minus(rand_vec(3), rand_vec(2))
    with pytest.raises(ValueError):
        tensor_pair(rand_vec(3), rand_vec(2))
    with pytest.raises(ValueError):
        pair(np.ones(5), np.ones(5))  # no (vec, form) split of an odd stack


def test_adjoint_identity_and_defining_relation():
    n = 3
    assert np.array_equal(adjoint(np.eye(2 * n)), np.eye(2 * n))
    for p in (rand_endo(n), b_endo_values(rand_form_matrix())[0]):
        pstar = adjoint(p)
        for _ in range(20):
            a, b = rand_vec(), rand_vec()
            assert abs(pair(p @ a, b) - pair(a, pstar @ b)) < 1e-12


def test_adjoint_involution_and_antihomomorphism():
    p = rand_endo(complex_=False)
    q = rand_endo(complex_=False)
    assert sup(adjoint(adjoint(p)) - p) < 1e-14
    assert sup(adjoint(p @ q) - adjoint(q) @ adjoint(p)) < 1e-13


def test_pairing_gram_is_the_pairing_of_p():
    p = rand_endo()
    gram = pairing_gram(p)
    assert np.array_equal(gram, gram.T)
    for _ in range(20):
        a = RNG.normal(size=6)
        assert abs(a @ gram @ a - pair(p @ a, a)) < 1e-12


def test_tensor_pair_examples():
    dx_vec = gt([1, 0, 0], [0, 0, 0])
    dx_form = gt([0, 0, 0], [1, 0, 0])
    m = tensor_pair(dx_vec, dx_form)
    assert np.allclose(m @ dx_vec, dx_vec)  # 2 * (1/2) * d/dx
    # annihilates anything pairing to zero with F
    dy_vec = gt([0, 1, 0], [0, 0, 0])
    assert sup(m @ dy_vec) == 0


def test_tensor_pair_pairing_identity():
    for _ in range(50):
        e, f, a, b = rand_vec(), rand_vec(), rand_vec(), rand_vec()
        lhs = pair(tensor_pair(e, f) @ a, b)
        rhs = 2 * pair(f, a) * pair(e, b)
        assert abs(lhs - rhs) < 1e-12


def test_tensor_pair_classical_eta_xi():
    # E+ = xi (vector), E- = eta (form): (E+ (x) E-)(X) = eta(X) xi
    xi = gt([0, 0, 1], [0, 0, 0])
    eta = gt([0, 0, 0], [-0.7, 0, 1])  # dz - y dx at y = 0.7
    m = tensor_pair(xi, eta)
    x = gt([1.0, 2.0, 3.0], [0, 0, 0])
    eta_x = -0.7 * 1.0 + 3.0
    assert np.allclose(m @ x, eta_x * xi)


def test_b_field_matrix():
    n = 3
    eye = np.broadcast_to(np.eye(2 * n), (len(PTS), 2 * n, 2 * n))
    assert np.array_equal(b_endo_values(np.zeros((n, n))), eye)
    dxdy = F.wedge11(F.basis_form(CH, 0), F.basis_form(CH, 1))
    out = F.b_endo(dxdy).values(PTS) @ gt([1, 0, 0], [0, 0, 0])
    assert np.allclose(out, gt([1, 0, 0], [0, 1, 0]))  # d/dx + dy at every point


def test_b_field_orthogonal_and_inverse():
    n = 3
    b = b_field(rand_form_matrix())
    eb = F.b_endo(b).values(PTS)
    ebinv = F.b_endo(-1 * b).values(PTS)
    assert sup(eb @ ebinv - np.eye(2 * n)) < 1e-13
    for k in range(len(PTS)):
        for _ in range(20):
            a, c = rand_vec(), rand_vec()
            assert abs(pair(eb[k] @ a, eb[k] @ c) - pair(a, c)) < 1e-12


def test_r_scaling():
    cone = ConeChart.over(CH)
    N = cone.dim

    def r_at(t):
        return r_endo(cone).values(np.column_stack([PTS, np.full(len(PTS), t)]))

    assert np.array_equal(r_at(0.0), np.broadcast_to(np.eye(2 * N), (len(PTS), 2 * N, 2 * N)))
    out = r_at(1.0) @ np.eye(2 * N)[0]  # R d/dx
    assert np.allclose(out[:, :N], [np.exp(-1), 0, 0, 0])
    assert np.allclose(out[:, N:], 0)
    assert sup(r_at(1.0) @ r_at(-1.0) - np.eye(2 * N)) < 1e-15
    r = r_at(0.4)
    for k in range(len(PTS)):
        for _ in range(20):
            a, c = rand_vec(N), rand_vec(N)
            assert abs(pair(r[k] @ a, r[k] @ c) - pair(a, c)) < 1e-12


def test_pair_jets_share_the_pointwise_swap():
    """fields.pair_jets pairs jets with gta's swap, applied to each part of the jet.

    The swap copies the same elements as the half concatenation it replaced,
    bit for bit, and the pairing equals gta.pair on the batch-first values at
    orders 0, 1 and 2, within a dot-product rounding bound (and bit for bit:
    see test_pair_jets_equal_gta_pair_bit_for_bit).
    """
    n = 3

    def rand_section():
        comps = [parse_scalar(f"{a:.6f}*x*y + {b:.6f}*sin(z) + {c:.6f}", CH)
                 for a, b, c in RNG.normal(size=(2 * n, 3))]
        sec = F.section(vec=F.vector_field(CH, comps[:n]), form=F.one_form(CH, comps[n:]))
        return sec * complex(*RNG.normal(size=2))

    eps = np.finfo(float).eps
    for _ in range(10):
        a, b = rand_section(), rand_section()
        ja, jb = a.at(PTS), b.at(PTS)
        swapped = F.swap_jet(ja)
        halves = J.concat([ja[n:], ja[:n]])
        for part in ("value", "grad", "hess"):
            assert np.array_equal(getattr(swapped, part), getattr(halves, part))
        va, vb = J.parts(ja, 1)[0], J.parts(jb, 1)[0]
        want = pair(va, vb)
        scale = 0.5 * (np.abs(gta.swap(va)) * np.abs(vb)).sum(axis=-1)
        for order in (0, 1, 2):
            got = F.pair_jets(a.at(PTS, order), b.at(PTS, order)).value
            assert np.array_equal(got, F.pair_jets(ja, jb).value)
            assert np.all(np.abs(got - want) <= 4 * n * eps * scale)


def test_pair_jets_equal_gta_pair_bit_for_bit():
    """fields.pair_jets and gta.pair run one arithmetic form, the row-times-column
    jets.matmul: dense random sections, real and complex, at several batch
    shapes, and the kahler_interval eigenframe pairs give the same bits."""
    from itertools import combinations

    from gencontact import gallery

    rng = np.random.default_rng(19)
    n = 3
    for batch in ((), (1,), (5,), (2, 3)):
        for imag in (0.0, 1.0):
            a, b = (rng.normal(size=batch + (2 * n,)) + imag * 1j * rng.normal(size=batch + (2 * n,))
                    for _ in range(2))
            ja, jb = (J.JetArray(v, None, None, n, len(batch)) for v in (a, b))
            assert np.array_equal(F.pair_jets(ja, jb).value, pair(a, b))
    s = gallery.build("kahler_interval")["gacs"]
    points = s.chart.sample(seed=7, count=7)
    members = s.frame.members
    for order in (0, 2):
        jets = [m.jet(points, order) for m in members]
        for i, k in combinations(range(len(members)), 2):
            want = pair(members[i].values(points), members[k].values(points))
            assert np.array_equal(F.pair_jets(jets[i], jets[k]).value, want), (order, i, k)


def test_endo_apply_is_linear():
    p = rand_endo()
    for _ in range(20):
        a, b = rand_vec(), rand_vec()
        s = RNG.normal() + 1j * RNG.normal()
        lhs = apply(p, a * s + b)
        assert sup(lhs - (apply(p, a) * s + apply(p, b))) < 1e-12
        assert np.all(np.isfinite(lhs))


def test_stacks_give_the_per_point_results():
    """A (P, 2n) or (P, 2n, 2n) stack gives what each point gives alone."""
    P = 7
    a = np.stack([rand_vec() for _ in range(P)])
    b = np.stack([rand_vec() for _ in range(P)])
    p = np.stack([rand_endo() for _ in range(P)])
    batched = (pair(a, b), pair_minus(a, b), tensor_pair(a, b), adjoint(p), pairing_gram(p),
               apply(p, a))
    for k in range(P):
        single = (pair(a[k], b[k]), pair_minus(a[k], b[k]), tensor_pair(a[k], b[k]),
                  adjoint(p[k]), pairing_gram(p[k]), p[k] @ a[k])
        for whole, one in zip(batched, single):
            assert np.array_equal(whole[k], one)
