"""Expression grammar: parsing, evaluation with jets, error reporting."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencontact import config
from gencontact import fields as F
from gencontact import jets as J
from gencontact.charts import Chart, box
from gencontact.exprs import (FUNCTIONS, ExprError, Parser, _compile, component_field,
                              parse_scalar)
from gencontact.fields import jet_validate

CH = box(3)


def val(expr, p):
    return parse_scalar(expr, CH).values(np.asarray(p, dtype=float))


@pytest.mark.parametrize("power, quotient", [("y^-1", "1/y"), ("(y-2)^-1", "1/(y-2)"),
                                             ("x^(0-2)", "1/(x*x)")])
def test_constant_exponents_equal_the_quotients(power, quotient):
    """An exponent that folds to a real constant is a real power, not exp(b log a):
    no imaginary rounding at a negative base."""
    pts = np.array([[0.3, -0.5, 0.1], [-0.7, 0.4, -0.2], [0.9, -0.9, 0.5]])
    for order in (0, 1, 2):
        got = parse_scalar(power, CH).jet(pts, order)
        ref = parse_scalar(quotient, CH).jet(pts, order)
        for a, b in zip((got.value, got.grad, got.hess), (ref.value, ref.grad, ref.hess)):
            if b is None:
                assert a is None
                continue
            assert not np.any(a.imag)
            np.testing.assert_allclose(a.real, b.real, rtol=1e-14, atol=1e-14)


def test_basic_arithmetic_and_precedence():
    assert val("1+2*3", [0, 0, 0]) == pytest.approx(7)
    assert val("(1+2)*3", [0, 0, 0]) == pytest.approx(9)
    assert val("2*x^2+1", [3, 0, 0]) == pytest.approx(19)
    assert val("-x^2", [2, 0, 0]) == pytest.approx(-4)  # unary minus binds the power
    assert val("2^3^2", [0, 0, 0]) == pytest.approx(512)  # right-associative
    assert val("6/3/2", [0, 0, 0]) == pytest.approx(1)
    assert val(" 1 +  x * y ", [2, 3, 0]) == pytest.approx(7)


def test_functions_and_jets():
    f = parse_scalar("sin(2*z)", CH)
    p = np.array([0.2, 0.3, 0.4])
    assert f.values(p) == pytest.approx(np.sin(0.8))
    jet = f.at(p)
    assert jet.grad[2] == pytest.approx(2 * np.cos(0.8))
    assert jet.hess[2, 2] == pytest.approx(-4 * np.sin(0.8))
    assert jet_validate(f, p) < 1e-5
    g = parse_scalar("exp(-x)*log(2+y)+sqrt(1+z^2)", CH)
    assert jet_validate(g, p) < 1e-5


def test_coordinate_aliases():
    assert val("x1+2*x2+4*x3", [1, 1, 1]) == pytest.approx(7)
    ch5 = box(5)
    f = parse_scalar("x4*x5", ch5)
    assert f.values(np.array([0, 0, 0, 2.0, 3.0])) == pytest.approx(6)


def test_unknown_coordinate_error_names_it():
    with pytest.raises(ExprError, match="unknown coordinate 'w'"):
        parse_scalar("sin(2*w)", CH)


def test_error_offsets():
    with pytest.raises(ExprError) as err:
        parse_scalar("x+*y", CH)
    assert err.value.offset == 2
    with pytest.raises(ExprError, match="expected operator or end of input"):
        parse_scalar("x y", CH)
    with pytest.raises(ExprError, match="expected '\\)'"):
        parse_scalar("sin(x", CH)
    with pytest.raises(ExprError, match="end of input"):
        parse_scalar("1+", CH)
    with pytest.raises(ExprError, match="unexpected character"):
        parse_scalar("x + $", CH)


def test_named_coordinates_of_custom_chart():
    ch = Chart(2, ((0.0, 1.0), (0.0, 2.0)), ("u", "v"))
    f = parse_scalar("u*v^2", ch)
    assert f.values(np.array([2.0, 3.0])) == pytest.approx(18)


# -- the compiled evaluator against the tree walk it replaced ------------------------------


def tree_walk(node, seed: J.JetArray):
    """The reference evaluator: walk the AST at every evaluation, each literal
    lifted to a constant jet with the seed's batch shape."""
    kind = node[0]
    if kind == "num":
        return J.lift(node[1], seed.nvars, seed.order, J.batch_shape(seed, 1))
    if kind == "coord":
        return seed[node[1]]
    if kind == "neg":
        return -tree_walk(node[1], seed)
    if kind == "call":
        return FUNCTIONS[node[1]](tree_walk(node[2], seed))
    a = tree_walk(node[1], seed)
    b = tree_walk(node[2], seed)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        if coordinate_free(node[2]) and not b.value.imag.any():
            return J.powc(a, float(b.value.real.flat[0]))  # a real constant exponent
        return J.powc(a, b)
    raise AssertionError(f"unhandled node {kind}")


def coordinate_free(node) -> bool:
    return node[0] != "coord" and all(coordinate_free(c) for c in node[1:] if isinstance(c, tuple))


LITERALS = st.sampled_from(["0.3", "2", "1.5", "0.125", "3e-1", "7", ".5", "0"])


def _compound(sub, consts):
    """One operation over subexpressions ``sub``; ``consts`` are literal-only ones."""
    safe = sub.map(lambda a: f"(1.5 + ({a})^2)")
    return st.one_of(
        LITERALS.map(lambda c: f"-{c}"),
        sub.map(lambda a: f"-({a})"),
        st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(sub, safe).map(lambda t: f"({t[0]}) / {t[1]}"),
        st.tuples(LITERALS, safe).map(lambda t: f"{t[0]} / {t[1]}"),
        st.tuples(sub, LITERALS.filter(lambda c: c != "0")).map(lambda t: f"({t[0]}) / {t[1]}"),
        st.tuples(sub, st.sampled_from(["2", "3", "0", "1", "0.5"])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(safe, consts).map(lambda t: f"{t[0]}^(({t[1]}) / (1 + ({t[1]})^2))"),
        st.tuples(safe, sub).map(lambda t: f"{t[0]}^(({t[1]}) / {t[0]})"),
        st.tuples(st.sampled_from(["sin", "cos"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda a: f"exp(({a}) / (2 + ({a})^2))"),
        st.tuples(st.sampled_from(["log", "sqrt"]), safe).map(lambda t: f"{t[0]}({t[1]})"),
        consts,
    )


#: literal-only expressions, and expressions over the coordinates with literal-only
#: subtrees; both stay real and finite at points of [0.1, 0.9]^3: log, sqrt and the
#: divisors see 1.5 + (..)^2, exp and computed exponents see bounded arguments
CONSTANTS = st.recursive(LITERALS, lambda sub: _compound(sub, sub), max_leaves=6)
EXPRESSIONS = st.recursive(st.one_of(LITERALS, st.sampled_from(["x", "y", "z", "x1"])),
                           lambda sub: _compound(sub, CONSTANTS), max_leaves=12)


POINTS = np.random.default_rng(3).uniform(0.1, 0.9, size=(5, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(EXPRESSIONS)
@example("x / 7 - y / (1.5 + (0.3)^2)")
@example("-(0.3) * x^3 - 2 / (1 + y^2) + 2^(z*x) + z^(1/3)")
def test_compiled_evaluator_matches_the_tree_walk(text):
    ref = tree_walk(Parser(text, CH).parse(), J.seed_point(POINTS, 3, 2))
    got = parse_scalar(text, CH).jet(POINTS, 2)
    assert np.isfinite(ref.hess).all(), text
    for part in ("value", "grad", "hess"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), (text, part)


def test_compiled_evaluator_matches_finite_differences():
    f = parse_scalar("-(0.3)*x^3 / (1 + y^2) + 2^(z*x) - 1/sqrt(1.5 + x*y) + exp(-z)*cos(2*y)", CH)
    assert jet_validate(f, POINTS[0]) < 1e-6


def test_literal_subtrees_fold_at_parse_time():
    """A coordinate-free subtree compiles to one real scalar (float64, not
    complex128), the value the tree walk computes for it at every point, bit for
    bit; -(0) keeps its sign."""
    text = "sin(1/3) * (4 - -(0.3)) / 7 + 2^(1/2)"
    code = _compile(Parser(text, CH).parse())
    ref = tree_walk(Parser(text, CH).parse(), J.seed_point(POINTS, 3, 0)).value
    assert type(code) is np.float64 and ref.dtype == np.float64
    assert np.array_equal(ref, np.full(5, code))
    neg = _compile(Parser("-(0.3)", CH).parse())
    assert type(neg) is np.float64 and neg == -0.3
    assert np.signbit(_compile(Parser("-(0)", CH).parse()))
    assert callable(_compile(Parser("2*x + 1", CH).parse()))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(J, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(J, name, counted)
    return calls


def test_one_seed_per_component_array(monkeypatch):
    rows = [["0", "0.3*z", "(0.2)"], ["-(0.3*z)", "0", "x*y"], ["-((0.2))", "-(x*y)", "0"]]
    bfield = component_field(F.TwoFormField, CH, [[parse_scalar(t, CH) for t in r] for r in rows])
    seeds = _counting(monkeypatch, "seed_point")
    jet = bfield.jet(POINTS, 2)
    assert jet.shape == (5, 3, 3) and len(seeds) == 1
    eta = config._expr_vector(F.OneFormField, ["-y", "0.1*x", "1"], CH, "$.eta")
    seeds.clear()
    eta.jet(POINTS, 2)
    assert len(seeds) == 1


def test_scalar_operands_are_never_lifted(monkeypatch):
    f = parse_scalar("2*x + 1", CH)
    lifts = _counting(monkeypatch, "lift")
    jet = f.jet(POINTS, 2)
    assert lifts == []
    assert np.array_equal(jet.value, 2 * POINTS[:, 0] + 1)
    assert np.array_equal(jet.grad, np.broadcast_to([2, 0, 0], (5, 3)))


DEFORM_STYLE = {
    "structure": {"chart": {"dim": 3}, "builder": "from_contact", "eta": [
        "(1 + (0.1)*x + (-0.2)*y*z)*((0.3)*x + (-1.1)*y)",
        "(1 + (0.1)*x + (-0.2)*y*z)*((0.1)*x + (0.2)*y)",
        "(1 + (0.1)*x + (-0.2)*y*z)"]},
    "apply": [
        {"op": "k_minus", "kappa": ["(0.2)*z", "(-0.1)", "(0.3)*x*y"]},
        {"op": "b_field", "B": [["0", "(0.1)*z", "(0.2)"], ["-((0.1)*z)", "0", "(-0.3)*x*y"],
                                ["-((0.2))", "-((-0.3)*x*y)", "0"]]},
        {"op": "k_plus", "kappa": ["(0.1)", "(-0.2)*x", "(0.25)*y*z"]},
        {"op": "normalize"},
    ],
    "checks": ["fgacs"],
    "seed": 5,
    "samples": 6,
}


def test_jet_operands_never_reach_lift(monkeypatch):
    """Jet arithmetic takes a jet operand as it is: parsing and checking a
    deform-style config (a contact form, K-, B, K+, normalize) hands lift
    array constants only, never a JetArray to pass through."""
    operands = []
    original = J.lift

    def recording(x, *args, **kwargs):
        operands.append(type(x).__name__)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(J, "lift", recording)
    assert config.run_checks(config.parse_config(DEFORM_STYLE)).passed
    assert operands and "JetArray" not in operands, operands


def test_check_points_are_drawn_once_per_config(monkeypatch):
    """The builder and every realness check of the pipeline read one draw of
    the seed-1 check points."""
    draws = []
    original = Chart.sample

    def recording(chart, seed, count):
        draws.append(seed)
        return original(chart, seed, count)

    monkeypatch.setattr(Chart, "sample", recording)
    config.parse_config(DEFORM_STYLE)
    assert draws.count(1) == 1, draws
