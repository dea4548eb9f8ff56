"""Small arithmetic expression language for potentials and curve specs.

Grammar (standard precedence, ^ binds tightest and right-associative, then
unary minus, then * /, then + -):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := number | name "(" expr ")" | name | "(" expr ")"

Known functions: sin cos sinh cosh tanh exp log sqrt abs.  Any other name
is a variable, bound at evaluation time (evaluation is pure and vectorizes
over numpy arrays).  Parse errors carry the 0-based byte offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ExpressionSyntaxError

FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
    "tanh": np.tanh, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, Bin, Call]


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionSyntaxError(f"bad number {text[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            e = Bin(op, e, self.factor())
        return e

    def factor(self) -> Expression:
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expression:
        kind, value, offset = self.next()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function {value!r}", offset)
                self.next()
                arg = self.expr()
                self.expect(")")
                return Call(value, arg)
            return Var(value)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExpressionSyntaxError("expected a value", offset)


def parse_expression(text: str) -> Expression:
    return _Parser(text).parse()


def evaluate(expr: Expression, env: Mapping[str, object]):
    """Evaluate over floats or numpy arrays; unknown variables raise."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise ValueError(f"unknown variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, env)
    if isinstance(expr, Call):
        return FUNCTIONS[expr.fn](evaluate(expr.arg, env))
    a, b = evaluate(expr.left, env), evaluate(expr.right, env)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if expr.op == "/":
        return a / b
    return np.power(a, b)
