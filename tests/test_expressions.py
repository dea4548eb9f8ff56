import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parakahler.errors import ExpressionSyntaxError
from parakahler.expressions import (
    Bin,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    parse_expression,
)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(expr) -> int:
    if isinstance(expr, (Num, Var, Call)):
        return _PREC["atom"]
    if isinstance(expr, Neg):
        return _PREC["neg"]
    return _PREC[expr.op]


def _to_string(expr) -> str:
    """Minimal-parenthesis printer; parse(_to_string(e)) == e."""
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


def ev(text, **env):
    return evaluate(parse_expression(text), env)


def test_polynomial_example():
    assert ev("x1^2 - x2^2/4", x1=1.0, x2=0.4) == pytest.approx(0.96)


def test_function_example():
    assert ev("sinh(s)*2", s=1.0) == pytest.approx(2.3504, abs=5e-5)


def test_error_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("x1 +")
    assert exc.value.offset == 4


def test_error_unknown_function():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("3 + frob(x)")
    assert exc.value.offset == 4


def test_error_unbalanced_paren():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1 + 2")


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


def test_vectorized_evaluation():
    x = np.linspace(0, 1, 5)
    out = ev("cos(t)^2 + sin(t)^2", t=x)
    assert np.allclose(out, 1.0)


def test_unknown_variable_raises():
    with pytest.raises(ValueError):
        ev("x1 + y9", x1=1.0)


def test_all_functions():
    for name, ref in [("sin", math.sin), ("cos", math.cos), ("sinh", math.sinh),
                      ("cosh", math.cosh), ("tanh", math.tanh), ("exp", math.exp),
                      ("log", math.log), ("sqrt", math.sqrt), ("abs", abs)]:
        assert ev(f"{name}(x)", x=0.7) == pytest.approx(ref(0.7))


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
    assert parse_expression(_to_string(expr)) == expr


@given(expr_strategy())
def test_print_is_stable(expr):
    text = _to_string(expr)
    again = _to_string(parse_expression(text))
    assert again == text
