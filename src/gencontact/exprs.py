"""Infix expression language for scalar fields.

Grammar: ``+ - * / ^`` with unary minus, parentheses, numeric literals,
single-argument functions ``sin cos exp log sqrt``, and identifiers that
must name chart coordinates.  ``^`` is right-associative.  Whitespace is
ignored.  Parse errors carry the character offset and the expected tokens.
An expression evaluates elementwise over a point batch: coordinates are rows
of the seed jet and literals are lifted with its batch shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

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
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append(Token(kind, m.group(kind), m.start(kind)))
                break
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


def _eval(node, seed: J.JetArray):
    kind = node[0]
    if kind == "num":
        return J.lift(node[1], seed.nvars, seed.order, seed.shape[1:])
    if kind == "coord":
        return seed[node[1]]
    if kind == "neg":
        return -_eval(node[1], seed)
    if kind == "call":
        return FUNCTIONS[node[1]](_eval(node[2], seed))
    a = _eval(node[1], seed)
    b = _eval(node[2], seed)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        if node[2][0] == "num":
            return J.powc(a, node[2][1])
        return J.powc(a, b)
    raise AssertionError(f"unhandled node {kind}")


def parse_scalar(text: str, chart: Chart) -> ScalarField:
    """Compile an expression string into a scalar field on the chart."""
    ast = Parser(text, chart).parse()
    n = chart.dim

    def fn(p, order):
        return _eval(ast, J.seed_point(p, n, order))

    return ScalarField(chart, fn)
