"""Constants are values: one constant leaf, zero parts as ``None``, scalar scaling by broadcasting."""

import numpy as np
import pytest

from gencontact import cone as C
from gencontact import config
from gencontact import deformations as D
from gencontact import fields as F
from gencontact import gallery
from gencontact import jets as J
from gencontact.charts import box

CH = box(3)
N = CH.dim
BATCH = (5,)
PTS = CH.sample(seed=17, count=BATCH[0])


def _random_jet(rng, comps, order, imag=1.0):
    shapes = [BATCH + (N,) * k + tuple(comps) for k in range(order + 1)]
    parts = [rng.normal(size=shape) + imag * 1j * rng.normal(size=shape) for shape in shapes]
    parts += [None] * (2 - order)
    return J.JetArray(*parts, N, len(BATCH))


def _assert_bitwise(a, b):
    assert a.order == b.order
    for part in ("value", "grad", "hess"):
        x, y = getattr(a, part), getattr(b, part)
        assert (x is None) == (y is None), part
        if x is not None:
            assert x.shape == y.shape, part
            assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), part


def _zeros(comps, order):
    return J.lift(np.zeros(comps), N, order, BATCH)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("present", [(1, 2), (0, 3), (0, 2), (1, 3), (0, 1, 2)])
def test_block_jet_none_equals_lifted_zeros(order, present):
    rng = np.random.default_rng(order)
    blocks = [_random_jet(rng, (N, N), order) for _ in range(4)]
    explicit = [b if i in present else _zeros((N, N), order) for i, b in enumerate(blocks)]
    implicit = [b if i in present else None for i, b in enumerate(blocks)]
    _assert_bitwise(F.block_jet(*implicit), F.block_jet(*explicit))


def test_block_jet_refuses_a_row_of_zeros():
    """Each block row needs one present block to take the zero blocks' shape from."""
    block = _random_jet(np.random.default_rng(0), (N, N), 1)
    with pytest.raises(ValueError, match="nonzero part"):
        F.block_jet(block, block, None, None)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_section_none_equals_lifted_zeros(order):
    vec = F.vector_field(CH, [F.coordinate(CH, 1) * F.coordinate(CH, 2), F.constant(CH, 2),
                              F.coordinate(CH, 0)])
    form = F.one_form(CH, [F.coordinate(CH, 2), F.coordinate(CH, 0) * F.coordinate(CH, 0),
                           F.constant(CH, -1)])
    zero = _zeros((N,), order)
    _assert_bitwise(F.section(vec=vec).at(PTS, order),
                    J.concat([vec.at(PTS, order), zero]))
    _assert_bitwise(F.section(form=form).at(PTS, order),
                    J.concat([zero, form.at(PTS, order)]))
    with pytest.raises(ValueError):
        F.section()


def test_endo_from_blocks_takes_none_for_zero_blocks():
    m = F.constant(CH, np.arange(9.0).reshape(3, 3), F.MatrixField)
    zero = F.constant(CH, np.zeros((3, 3)), F.MatrixField)
    _assert_bitwise(F.endo_from_blocks(None, m, -1 * m, None).at(PTS),
                    F.endo_from_blocks(zero, m, -1 * m, zero).at(PTS))


_RANK_CLS = {1: F.VectorField, 2: F.MatrixField, 3: F.ThreeFormField}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_scalar_scaling_broadcasts_like_the_einsum_path(rank, order):
    """c * f through broadcasting equals the old ``jet_einsum(",abc->abc", c, f)`` bit for bit.

    The scalar is real-valued, as every scalar that scales a field of a
    structure is; for a complex scalar, einsum's complex product and numpy's
    can round the last bit differently.
    """
    rng = np.random.default_rng(10 * rank + order)
    cj = _random_jet(rng, (), order, imag=0.0)
    fj = _random_jet(rng, (N,) * rank, order)
    idx = "abc"[:rank]
    reference = J.jet_einsum(f",{idx}->{idx}", cj, fj)
    _assert_bitwise(cj * fj, reference)
    if rank:
        c = F.ScalarField(CH, lambda p, o: cj.truncate(o))
        f = _RANK_CLS[rank](CH, lambda p, o: fj.truncate(o))
        for scaled in (f * c, c * f):
            assert type(scaled) is type(f)
            _assert_bitwise(scaled.at(PTS, order), reference)


def test_constant_takes_scalars_and_component_arrays():
    one = F.constant(CH, 1)
    assert type(one) is F.ScalarField
    j = one.at(PTS)
    assert j.value.shape == BATCH and np.all(j.value == 1) and not j.grad.any() and not j.hess.any()
    e = F.constant(CH, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], F.MatrixField)
    assert type(e) is F.MatrixField
    assert e.values(PTS).shape == BATCH + (3, 3)
    assert np.all(e.values(PTS[0]) == [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert not e.values(PTS[0]).flags.writeable
    _assert_bitwise(F.basis_vector(CH, 1).at(PTS), J.lift(np.eye(3)[1], N, 2, BATCH))


# Field objects made by one build of each entry.  Built from per-entry scalar
# constants, kahler_interval made 74; conjugating the B-less metric by e^0 made
# 43 for each Heisenberg entry, and choosing the sign of phi by evaluating the
# Sasakian criterion on both candidates made 37.
FIELD_BOUNDS = {"darboux": 9, "heisenberg_sasakian": 26, "heisenberg_cone_kahler": 26,
                "kahler_interval": 37}


@pytest.fixture
def fields_made(monkeypatch):
    """The types of the Field objects made while the test runs."""
    made = []
    init = F.Field.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(F.Field, "__init__", counting)
    return made


@pytest.mark.parametrize("name", gallery.names())
def test_field_objects_per_gallery_build(name, fields_made):
    gallery.entry(name).build()
    assert len(fields_made) <= FIELD_BOUNDS[name]


def test_field_objects_of_a_contact_config_with_fgacs_and_cone_algebra(fields_made):
    """f = 0 is None: fgacs and the cone structure build no zero f field, no
    f * kappa terms and no f-extension of Psi; Phi and the Reeb field share one
    rho^-1 field; I' is one field of placed base jets.  With a zero f field and
    two rho^-1 closures this made 32, and with Psi built from tensor pairs of
    constant d/dt and dt sections (13 fields per I') 24."""
    cfg = config.parse_config({
        "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": ["-y", "0", "1"]},
        "checks": ["fgacs", "cone_algebra"],
        "samples": 4,
    })
    assert config.run_checks(cfg).passed
    assert len(fields_made) <= 12


@pytest.mark.parametrize("kappa", [None, 2], ids=["f_none", "k_minus_dz"])
def test_one_i_prime_builds_one_field(kappa, fields_made):
    """I' = Phi + Psi^f is one closure over the base jets, with f and without."""
    s = gallery.build("darboux")["gacs"]
    if kappa is not None:
        s = D.k_minus(s, F.basis_form(s.chart, kappa))
        assert s.f is not None
    fields_made.clear()
    C.i_prime(s)
    assert len(fields_made) == 1
