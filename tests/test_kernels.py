"""The contraction kernels of jets.jet_einsum and jets.jet_inv against plain
np.einsum, and a guard that every spec the package passes is tested here."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from gencontact import jets as J
from oracles import einsum_jet, jet_inv_einsum

EPS = np.finfo(float).eps
BATCHES = [(), (1,), (3,), (2, 2)]

#: every spec the package passes to jets.jet_einsum (test_every_spec_of_the_package_is_tested)
SPECS = (
    "i,i->", ",i->i", "i,j->ij", "j,i->ji", "i,jk->ijk",  # pairings, scalings, outer products
    "ij,j->i", "ji,i->j", "i,ij->j", "j,ji->i", "i,ijk->jk",  # matrix-vector, interiors, Courant
    "ij,jk->ik", "ik,kj->ij", "il,lj->ij", "ik,kl->il", "ij,kj->ki",  # matrix products
    "a,ai->i", "ba,ai->bi", "bca,ai->bci",  # fields.c_transform, one form slot at a time
)
#: the specs of the call sites that build their spec: function name -> specs
BUILT = {"interior_jet": ("i,i->", "i,ij->j", "i,ijk->jk"),
         "c_transform": ("a,ai->i", "ba,ai->bi", "bca,ai->bci")}


def random_jet(rng, comps, batch, nvars, imag):
    def draw(shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if imag else x

    b = tuple(batch)
    return J.JetArray(draw(b + comps), draw(b + (nvars,) + comps),
                      draw(b + (nvars, nvars) + comps), nvars, len(b))


def spec_operands(rng, spec, batch, imag, nvars=3):
    lhs = spec.split("->")[0]
    sizes = dict(zip("abcijkl", (2, 3, 4, 3, 4, 2, 3)))
    return [random_jet(rng, tuple(sizes[c] for c in s), batch, nvars, imag)
            for s in lhs.split(",")]


def parts_of(j):
    return [p for p in (j.value, j.grad, j.hess) if p is not None]


def item(j, idx):
    """Batch item ``idx`` of a jet as a jet of its own (a copy, as one point's jet is)."""
    nb = len(idx)
    return J.JetArray(*(None if p is None else np.array(p[idx]) for p in (j.value, j.grad, j.hess)),
                      j.nvars, j.nbatch - nb)


def assert_close(got, ref, scale, ulps, label):
    assert got.nbatch == ref.nbatch and got.order == ref.order, label
    for g, r, s in zip(parts_of(got), parts_of(ref), parts_of(scale)):
        assert g.shape == r.shape and g.dtype == r.dtype, label
        assert np.all(np.abs(g - r) <= ulps * EPS * np.abs(s)), label


def absolute(j):
    return j.map(np.abs)


def assert_items_bitwise(op, operands, batch, label):
    """op on a batch equals op on each batch item alone, bit for bit."""
    whole = op(*operands)
    for idx in np.ndindex(*batch):
        one = op(*(item(x, idx) for x in operands))
        for w, o in zip(parts_of(whole), parts_of(one)):
            assert w[idx].tobytes() == np.ascontiguousarray(o).tobytes(), (label, idx)


@pytest.mark.parametrize("spec", SPECS)
def test_kernel_matches_the_einsum_product_rule(spec):
    """Every order and operand order combination, real and complex, at four batch
    shapes: within a few ulps of the sum of the magnitudes of each entry's terms."""
    rng = np.random.default_rng(sum(map(ord, spec)))
    for batch in BATCHES:
        for imag in (False, True):
            a, b = spec_operands(rng, spec, batch, imag)
            for oa, ob in ((2, 2), (1, 2), (2, 1), (0, 2), (1, 1), (0, 0)):
                x, y = a.truncate(oa), b.truncate(ob)
                scale = einsum_jet(spec, absolute(x), absolute(y))
                assert_close(J.jet_einsum(spec, x, y), einsum_jet(spec, x, y), scale, 8,
                             (spec, batch, imag, oa, ob))


@pytest.mark.parametrize("spec", SPECS)
def test_kernel_gives_a_point_its_batch_items_bits(spec):
    rng = np.random.default_rng(sum(map(ord, spec)) + 1)
    for batch in BATCHES[1:]:
        for imag in (False, True):
            assert_items_bitwise(lambda x, y: J.jet_einsum(spec, x, y),
                                 spec_operands(rng, spec, batch, imag), batch, (spec, batch))


@pytest.mark.parametrize("spec", SPECS)
def test_kernel_gives_real_jets_the_real_part_of_complex_jets(spec):
    rng = np.random.default_rng(sum(map(ord, spec)) + 2)
    for batch in BATCHES:
        a, b = spec_operands(rng, spec, batch, False)
        got = J.jet_einsum(spec, a, b)
        ref = J.jet_einsum(spec, *(x.map(lambda p: p.astype(complex)) for x in (a, b)))
        for g, r in zip(parts_of(got), parts_of(ref)):
            assert g.dtype == np.float64 and np.array_equal(g, r.real), (spec, batch)


def invertible(rng, k, batch, imag):
    j = random_jet(rng, (k, k), batch, 3, imag)
    return J.JetArray(0.1 * j.value + 2 * np.eye(k), j.grad, j.hess, 3, len(batch))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_jet_inv_matches_the_einsum_formula(k):
    rng = np.random.default_rng(k)
    for batch in BATCHES:
        for imag in (False, True):
            m = invertible(rng, k, batch, imag)
            for order in (0, 1, 2):
                x = m.truncate(order)
                ref = jet_inv_einsum(x)
                v = np.abs(ref.value)
                # |A^-1| bounds every factor; the terms are products of |A^-1| and |dA|
                scale = jet_inv_einsum(J.JetArray(v, *(None if p is None else np.abs(p)
                                                       for p in (x.grad, x.hess)), 3, x.nbatch))
                scale = J.JetArray(*(np.maximum(np.abs(p), q) for p, q in
                                     zip(parts_of(scale), parts_of(ref))), *[None] * (2 - order),
                                   3, x.nbatch)
                assert_close(J.jet_inv(x), ref, scale, 16, (k, batch, imag, order))
            if batch:
                assert_items_bitwise(J.jet_inv, [m], batch, (k, batch, imag))


def einsum_sites():
    """The literal specs of every jets.jet_einsum call in the package, and per
    top-level function (or method) whose call builds its spec, the plain spec
    strings that function holds and a pattern for each f-string spec it holds
    (its formatted values read as any letters)."""
    src = Path(J.__file__).parent
    literal, built = set(), {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        tops = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        tops += [f for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body
                 if isinstance(f, ast.FunctionDef)]
        for fn in tops:
            fstrings = [f for f in ast.walk(fn) if isinstance(f, ast.JoinedStr)]
            pieces = {id(v) for f in fstrings for v in f.values}
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and "jet_einsum" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None))):
                    continue
                if isinstance(node.args[0], ast.Constant):
                    literal.add(node.args[0].value)
                else:
                    held = {c.value for c in ast.walk(fn) if isinstance(c, ast.Constant)
                            and isinstance(c.value, str) and "->" in c.value
                            and id(c) not in pieces}
                    patterns = ["".join(re.escape(v.value) if isinstance(v, ast.Constant)
                                        else "[a-z]*" for v in f.values) for f in fstrings
                                if any(isinstance(v, ast.Constant) and "->" in v.value
                                       for v in f.values)]
                    built[f"{path.name}:{fn.name}"] = (held, patterns)
    return literal, built


def test_every_spec_of_the_package_is_tested():
    """An ast scan of src/: every literal spec passed to jet_einsum is in SPECS,
    and every call that builds its spec sits in a function of BUILT whose
    listed specs (all of them in SPECS) cover the spec strings it holds.  Both
    ways: every entry of SPECS is still written in src/, as a literal or in
    BUILT, and every entry of BUILT is still written in its function, as a
    plain string or by one of its f-strings."""
    literal, built = einsum_sites()
    assert literal and literal - set(SPECS) == set(), sorted(literal - set(SPECS))
    for site, (held, patterns) in built.items():
        name = site.split(":")[1]
        assert name in BUILT, f"{site} builds a jet_einsum spec; list its specs in BUILT"
        assert held <= set(BUILT[name]) and set(BUILT[name]) <= set(SPECS), site
        stale = [s for s in BUILT[name]
                 if s not in held and not any(re.fullmatch(p, s) for p in patterns)]
        assert not stale, (site, stale)
    assert set(BUILT) == {site.split(":")[1] for site in built}
    written = literal.union(*BUILT.values())
    assert set(SPECS) <= written, sorted(set(SPECS) - written)


def test_jet_einsum_refuses_specs_outside_the_kernel_form():
    """A kept letter, a summed letter in front of a row, a stack against no
    rows and an output out of the kernel's order are refused by name."""
    rng = np.random.default_rng(0)
    v, m = random_jet(rng, (3,), (), 3, False), random_jet(rng, (3, 3), (), 3, False)
    for spec, x, y in (("i,ij->ij", v, m), ("kl,ki->il", m, m), ("i,ji->j", v, m),
                       ("ij,kj->ik", m, m)):
        with pytest.raises(ValueError, match="kernel form"):
            J.jet_einsum(spec, x, y)


def test_jet_einsum_refuses_repeated_and_unknown_letters():
    a = random_jet(np.random.default_rng(0), (2, 2), (), 3, False)
    for spec in ("ii,i->i", "ij,j->k"):
        with pytest.raises(ValueError, match="repeats|no operand"):
            J.jet_einsum(spec, a, a[0])
