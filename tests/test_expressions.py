"""The expression language, checked against the hand-written tokenizer and
recursive-descent parser it had before it was read by Python's own parser.
That reference below accepts exactly the texts parse_expression accepts,
with the same values and dtypes; only its error offsets differ."""

import ast
import functools
import math
import random
from dataclasses import dataclass
from typing import Union

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parakahler.errors import ExpressionSyntaxError
from parakahler.expressions import FUNCTIONS, evaluate, parse_expression


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
    """Grammar (^ binds tightest and right-associative, then unary minus,
    then * /, then + -):

        expr   := term (("+" | "-") term)*
        term   := factor (("*" | "/") factor)*
        factor := "-" factor | power
        power  := atom ("^" factor)?
        atom   := number | name "(" expr ")" | name | "(" expr ")"
    """

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


def _variables(expr) -> set:
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, (Neg, Call)):
        return _variables(expr.arg)
    return _variables(expr.left) | _variables(expr.right)


def _reference_evaluate(expr, env):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_reference_evaluate(expr.arg, env)
    if isinstance(expr, Call):
        return FUNCTIONS[expr.fn](_reference_evaluate(expr.arg, env))
    a, b = _reference_evaluate(expr.left, env), _reference_evaluate(expr.right, env)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if expr.op == "/":
        return np.divide(a, b)  # two constants too: 1/0 is inf, 0/0 nan
    return np.power(a, b)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(expr) -> int:
    if isinstance(expr, (Num, Var, Call)):
        return _PREC["atom"]
    if isinstance(expr, Neg):
        return _PREC["neg"]
    return _PREC[expr.op]


def _to_string(expr) -> str:
    """Minimal-parenthesis printer; _Parser(_to_string(e)).parse() == e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.fn}({_to_string(expr.arg)})"
    if isinstance(expr, Neg):
        inner = _to_string(expr.arg)
        if _prec(expr.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    lhs, rhs = _to_string(expr.left), _to_string(expr.right)
    mine = _PREC[expr.op]
    if expr.op == "^":
        # right-associative and tighter than unary minus
        if _prec(expr.left) <= mine:
            lhs = f"({lhs})"
        if _prec(expr.right) < mine:
            rhs = f"({rhs})"
    else:
        if _prec(expr.left) < mine:
            lhs = f"({lhs})"
        if _prec(expr.right) <= mine:
            rhs = f"({rhs})"
    return f"{lhs}{expr.op}{rhs}"


_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div, "^": ast.Pow}


def _python_tree(expr) -> ast.expr:
    """The Python syntax tree of a reference expression."""
    if isinstance(expr, Num):
        return ast.Constant(expr.value)
    if isinstance(expr, Var):
        return ast.Name(expr.name, ast.Load())
    if isinstance(expr, Neg):
        return ast.UnaryOp(ast.USub(), _python_tree(expr.arg))
    if isinstance(expr, Call):
        return ast.Call(ast.Name(expr.fn, ast.Load()), [_python_tree(expr.arg)], [])
    return ast.BinOp(_python_tree(expr.left), _OPS[expr.op](), _python_tree(expr.right))


def ev(text, **env):
    return evaluate(parse_expression(text, env), env)


def test_polynomial_example():
    assert ev("x1^2 - x2^2/4", x1=1.0, x2=0.4) == pytest.approx(0.96)


def test_function_example():
    assert ev("sinh(s)*2", s=1.0) == pytest.approx(2.3504, abs=5e-5)


def test_error_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("x1 +", ["x1"])
    assert exc.value.offset == 4


def test_error_unknown_function():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("3 + frob(x)", ["x"])
    assert exc.value.offset == 4


@pytest.mark.parametrize("text, offset", [
    ("2^3 + y9", 6),      # a name after a ^, which Python reads as **
    ("x1^2^x1 * )", 10),  # Python's error position after two ^
    ("θ + y9", 4),        # a name after a two-byte letter
    ("θ^θ +", 5),         # the end of the text after both
    ("\t x1 + y9", 7),    # a name after leading whitespace
])
def test_error_offsets_index_the_text(text, offset):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression(text, ["x1", "θ"])
    assert exc.value.offset == offset


def test_error_unbalanced_paren():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1 + 2", [])


def test_power_right_associative():
    assert ev("2^3^2") == 512.0
    assert ev("(2^3)^2") == 64.0


def test_unary_minus_precedence():
    # ^ binds tighter than unary minus
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-2") == 0.25
    assert ev("--3") == 3.0


def test_division_left_associative():
    assert ev("8/4/2") == 1.0
    assert ev("8/(4/2)") == 4.0


def test_numbers_scientific():
    assert ev("1.5e2 + 2E-1") == pytest.approx(150.2)


def test_leading_zeros_and_any_whitespace():
    assert ev(" \t007 +\n1e+007 + 00") == 10000007.0
    assert ev("sin\t(x)", x=0.5) == math.sin(0.5)


def test_vectorized_evaluation():
    x = np.linspace(0, 1, 5)
    out = ev("cos(t)^2 + sin(t)^2", t=x)
    assert np.allclose(out, 1.0)


def test_unknown_variable_raises():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("x1 + y9", ["x1"])
    assert exc.value.offset == 5


@pytest.mark.parametrize("text", [
    "2**3", "1_000", "2_0.5", "0x10", "0o7", "1j", "True", "+x", "x % 2", "x // 2",
    "sin(x,)", "(sin)(x)", "sin()", "sin", "x # comment", "x \\", "x\0", "x.real",
    "ｘ", "ｓin(x)", "x if x else x", "...", "[x]", "x, x", "'x'",
])
def test_python_syntax_outside_the_language_is_rejected(text):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(text, ["x"])


@pytest.mark.parametrize("text", [
    "(" * 250 + "x" + ")" * 250, "-" * 3000 + "x", "+".join(["x"] * 5000),
    "^".join(["x"] * 3000), "-" * 200 + "x", "+".join(["x"] * 201),
])
def test_deep_expressions_are_rejected(text):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(text, ["x"])


@pytest.mark.parametrize("text, value", [
    ("(" * 199 + "x" + ")" * 199, 0.5), ("-" * 199 + "x", -0.5),
    ("+".join(["x"] * 200), 100.0),
    ("^".join(["x"] * 100), functools.reduce(lambda v, _: 0.5 ** v, range(99), 0.5)),
])
def test_deep_expressions_up_to_the_limit_evaluate(text, value):
    assert ev(text, x=0.5) == pytest.approx(value)


def test_all_functions():
    for name, ref in [("sin", math.sin), ("cos", math.cos), ("sinh", math.sinh),
                      ("cosh", math.cosh), ("tanh", math.tanh), ("exp", math.exp),
                      ("log", math.log), ("sqrt", math.sqrt), ("abs", abs)]:
        assert ev(f"{name}(x)", x=0.7) == pytest.approx(ref(0.7))


NAMES = ("x1", "x2", "s", "t", "θ")
_ATOMS = ["0", "1", "2", "07", "0.5", "3.", ".25", "1e2", "2E-1", "1e+3",
          "x1", "x2", "θ", "y9"]
_TOKENS = _ATOMS + ["sin", "exp", "abs", "frob", "+", "-", "*", "/", "^", "(", ")"]
_FOREIGN = ["**", "_", "0x", "j", ",", ".", "[", "True", "%", "//", "\n", "\t", "\0", "é"]


def _random_tokens(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return [rng.choice(_ATOMS)]
    if r < 0.45:
        return ["-"] + _random_tokens(rng, depth - 1)
    if r < 0.6:
        return [rng.choice(["sin", "exp", "abs"]), "("] + _random_tokens(rng, depth - 1) + [")"]
    if r < 0.7:
        return ["("] + _random_tokens(rng, depth - 1) + [")"]
    return (_random_tokens(rng, depth - 1) + [rng.choice("+-*/^")]
            + _random_tokens(rng, depth - 1))


def random_text(rng) -> str:
    """An expression of the language's tokens, with up to three tokens
    inserted, deleted or replaced, the inserted ones from the language or
    from Python's syntax, and random spacing."""
    tokens = _random_tokens(rng, 4)
    for _ in range(rng.randrange(4)):
        at = rng.randrange(len(tokens) + 1)
        change = rng.randrange(3)
        if change > 0 and at < len(tokens):
            del tokens[at]
        if change < 2:
            tokens.insert(at, rng.choice(_TOKENS + _FOREIGN))
    return "".join(token + rng.choice(["", "", " "]) for token in tokens)


def _outcome(parse, evaluate_, text, env):
    """None for a rejected text, else its value."""
    try:
        expr = parse(text)
    except ExpressionSyntaxError:
        return None
    with np.errstate(all="ignore"):
        return evaluate_(expr, env)


def _reference_parse(text):
    expr = _Parser(text).parse()
    unknown = _variables(expr) - set(NAMES)
    if unknown:
        raise ExpressionSyntaxError(f"unknown variable {unknown.pop()!r}", 0)
    return expr


def _same(a, b) -> bool:
    return (type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_differential_against_the_reference_parser():
    rng = random.Random(20260)
    nprng = np.random.default_rng(20260)
    accepted = 0
    for _ in range(20_000):
        text = random_text(rng)
        env = {"x1": nprng.normal(size=3), "x2": float(nprng.normal()),
               "s": np.float64(nprng.normal()), "t": nprng.normal(size=(2, 1)),
               "θ": float(nprng.uniform(0, 2))}
        want = _outcome(_reference_parse, _reference_evaluate, text, env)
        got = _outcome(lambda t: parse_expression(t, NAMES), evaluate, text, env)
        assert (got is None) == (want is None), text
        assert want is None or _same(got, want), text
        accepted += want is not None
    assert 4_000 < accepted < 16_000  # both sides of the boundary are exercised


atoms = st.one_of(
    st.floats(0.1, 9.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from(["x1", "x2", "s", "t"]).map(Var),
)


def expr_strategy():
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
                lambda t: Bin(t[0], t[1], t[2])),
            sub.map(Neg),
            st.tuples(st.sampled_from(["sin", "cosh", "exp"]), sub).map(
                lambda t: Call(t[0], t[1])),
        ),
        max_leaves=12,
    )


@given(expr_strategy())
def test_print_parse_round_trip(expr):
    text = _to_string(expr)
    assert _Parser(text).parse() == expr
    assert ast.dump(parse_expression(text, NAMES)) == ast.dump(_python_tree(expr))


@given(expr_strategy())
def test_print_is_stable(expr):
    tree = parse_expression(_to_string(expr), NAMES)
    text = ast.unparse(tree).replace("**", "^")
    again = parse_expression(text, NAMES)
    assert ast.dump(again) == ast.dump(tree)
    assert ast.unparse(again).replace("**", "^") == text
