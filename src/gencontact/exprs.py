"""Infix expression language for scalar fields.

Grammar: ``+ - * / ^`` with unary minus, parentheses, numeric literals,
single-argument functions ``sin cos exp log sqrt``, and identifiers that
must name chart coordinates.  ``^`` is right-associative.  Whitespace is
ignored.  Parse errors carry the character offset and the expected tokens.

An expression compiles once, at parse time, into closures over the
coordinate seed jet of a point batch: coordinates are rows of the seed, and
every coordinate-free subtree folds to one ``np.float64`` scalar, computed by
the jet operations a constant jet goes through.  Literals thus meet jets as
scalars, which jet arithmetic never lifts.  An exponent that folds to a
constant is a real power (``jets.powc``); one over the coordinates goes
through exp(b log a).
:func:`component_field` evaluates an array of parsed expressions from one seed per point set and
order.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import jets as J
from .charts import Chart
from .fields import ScalarField

FUNCTIONS = {"sin": J.sin, "cos": J.cos, "exp": J.exp, "log": J.log, "sqrt": J.sqrt}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExprError(ValueError):
    """Parse or resolution failure, with offset and expectation context."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    offset: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprError(f"unexpected character {text[bad]!r}", bad)
        pos = m.end()
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(kind), m.start(kind)))
    tokens.append(Token("end", "", len(text)))
    return tokens


# AST nodes are plain tuples: ('num', v) ('coord', i) ('neg', a)
# ('+'|'-'|'*'|'/'|'^', a, b) ('call', fname, a)


class Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ExprError(f"expected {op!r}, found {t.text or 'end of input'!r}", t.offset)

    def parse(self):
        node = self.sum()
        t = self.peek()
        if t.kind != "end":
            raise ExprError(
                f"expected operator or end of input, found {t.text!r}", t.offset
            )
        return node

    def sum(self):
        node = self.product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = (op, node, self.product())
        return node

    def product(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = (op, node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            return ("^", base, self.unary())
        return base

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return ("num", float(t.text))
        if t.kind == "name":
            if t.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return ("call", t.text, arg)
            return ("coord", self.resolve(t))
        if t.kind == "op" and t.text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprError(
            f"expected a number, name or '(', found {t.text or 'end of input'!r}", t.offset
        )

    def resolve(self, tok: Token) -> int:
        names = self.chart.names
        if tok.text in names:
            return names.index(tok.text)
        # x1..xn aliases are always accepted
        m = re.fullmatch(r"x(\d+)", tok.text)
        if m and 1 <= int(m.group(1)) <= self.chart.dim:
            return int(m.group(1)) - 1
        raise ExprError(
            f"unknown coordinate {tok.text!r}; chart coordinates are {', '.join(names)}",
            tok.offset,
        )


_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
        "*": operator.mul, "/": operator.truediv}


def _fold(f, args) -> np.float64:
    """``f`` at constant arguments, through the jet operations of a constant jet."""
    return J.parts(f(*(J.lift(a, 0, 0) for a in args)), 0)[0][()]


def _compile(node):
    """A folded constant (``np.float64``) or a closure from the coordinate seed to a jet."""
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "coord":
        i = node[1]
        return lambda seed: seed[i]
    if kind == "^":
        e = _compile(node[2])
        if callable(e):
            # an exponent over the coordinates: exp(b log a), as for a jet exponent
            return _compile(("call", "exp", ("*", node[2], ("call", "log", node[1]))))
        f, args = (lambda j, e=float(e): J.powc(j, e)), [_compile(node[1])]
    elif kind == "call":
        f, args = FUNCTIONS[node[1]], [_compile(node[2])]
    else:
        f, args = _OPS[kind], [_compile(a) for a in node[1:]]
    if not any(map(callable, args)):
        return _fold(f, args)
    if len(args) == 1:
        a, = args
        return lambda seed: f(a(seed))
    a, b = args
    if callable(a) and callable(b):
        return lambda seed: f(a(seed), b(seed))
    return (lambda seed: f(a(seed), b)) if callable(a) else (lambda seed: f(a, b(seed)))


def _field(chart: Chart, code) -> ScalarField:
    """The scalar field of compiled code; its ``of_seed`` maps the coordinate seed to the jet."""
    n = chart.dim
    of_seed = code if callable(code) else (
        lambda seed: J.lift(code, n, seed.order, J.batch_shape(seed, 1)))
    field = ScalarField(chart, lambda p, order: of_seed(J.seed_point(p, n, order)))
    field.of_seed = of_seed
    return field


def parse_scalar(text: str, chart: Chart) -> ScalarField:
    """Compile an expression string into a scalar field on the chart."""
    return _field(chart, _compile(Parser(text, chart).parse()))


def literal(chart: Chart, value) -> ScalarField:
    """The scalar field of a number, as a parsed literal (a config number entry)."""
    return _field(chart, np.float64(value))


def component_field(cls, chart: Chart, comps: Sequence[ScalarField]):
    """The ``cls`` field of (nested lists of) parsed scalar fields, every entry
    evaluated from one coordinate seed per point set and order."""
    arr = np.asarray(comps, dtype=object)
    entries = [f.of_seed for f in arr.ravel()]
    n = chart.dim

    def fn(p, order):
        seed = J.seed_point(p, n, order)
        return J.stack([f(seed) for f in entries]).reshape(arr.shape, p.shape[:-1])

    return cls(chart, fn)
