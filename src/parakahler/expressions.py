"""Small arithmetic expression language for potentials and curve specs.

A subset of Python's expression syntax with ^ for the power: numbers,
variables, + - * /, unary -, ^ (right-associative and binding tighter than a
unary minus on its left, as Python's **) and calls of one argument to the
FUNCTIONS.  Python's parser reads the text with each ^ as **, and one walk
over its tree rejects the rest and every variable not named.  Errors carry
the 0-based index into the text of the offending position.
"""

import ast
import operator
import re
import warnings
from typing import Collection, Mapping

import numpy as np

from .errors import ExpressionSyntaxError

FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
    "tanh": np.tanh, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs,
}
# numpy's divide and power: on two constants, as on arrays, a division by
# zero or an overflow gives inf or nan instead of raising
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: np.divide, ast.Pow: np.power}
_DIGITS = frozenset("0123456789.eE+-")  # a number's text: no 1_000, 0x10 or 1j
_MAX_DEPTH = 200  # keeps both walks within Python's recursion limit
_FOREIGN = re.compile(r"[^\w\s.+\-*/^()]|\*\*")  # a character not in the language, or **
_WORD = re.compile(r"[^\W\d]\w*|[0-9.]+(?:[eE][+-]?[0-9]+)?")  # a name or a number


def parse_expression(text: str, names: Collection[str]) -> ast.expr:
    """The syntax tree of text, whose variables must be among names."""
    foreign = _FOREIGN.search(text)
    if foreign:
        raise ExpressionSyntaxError(f"unexpected {foreign[0]!r}", foreign.start())
    # an integer's leading zeros become spaces, as Python rejects 007
    spaced = _WORD.sub(lambda m: (m[0].lstrip("0") or "0").rjust(len(m[0]))
                       if m[0].isdigit() else m[0], re.sub(r"\s", " ", text))
    source = spaced.lstrip()
    start = len(spaced) - len(source)
    source = source.replace("^", "**")
    # the index into text of each character of source, and of its end
    origin = [i for i in range(start, len(text)) for _ in range(1 + (text[i] == "^"))]
    origin.append(len(text))
    try:
        with warnings.catch_warnings():  # Python warns of 1if, which the walk rejects
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = ast.parse(source + "\n", mode="eval").body
    except SyntaxError as exc:  # one line: Python's offset counts characters from 1
        column = min((exc.offset or 1) - 1, len(source))
        raise ExpressionSyntaxError(exc.msg, origin[column]) from None
    except (RecursionError, MemoryError):  # the parser's own nesting limits
        raise ExpressionSyntaxError("expression nested too deeply", start) from None
    encoded = source.encode()  # node columns count UTF-8 bytes

    def fail(message, node):
        raise ExpressionSyntaxError(message, origin[len(encoded[:node.col_offset].decode())])

    def check(node, depth):
        if depth > _MAX_DEPTH:
            fail("expression nested too deeply", node)
        word = encoded[node.col_offset:node.end_col_offset].decode()
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            check(node.left, depth + 1)
            check(node.right, depth + 1)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            check(node.operand, depth + 1)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.col_offset == node.col_offset and len(node.args) == 1):
            # the name as written: Python reads a name in its NFKC form
            name = encoded[node.func.col_offset:node.func.end_col_offset].decode()
            if name not in FUNCTIONS:
                fail(f"unknown function {name!r}", node)
            check(node.args[0], depth + 1)
        elif isinstance(node, ast.Name):
            if word not in names:
                fail(f"unknown variable {word!r}", node)
        elif not (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                  and _DIGITS.issuperset(word)):
            fail(f"{word!r} is not in the expression language", node)

    check(tree, 1)
    return tree


def evaluate(expr: ast.expr, env: Mapping[str, object]):
    """Value of a parsed expression over floats or numpy arrays; every
    number is a float, so 2^-2 is 0.25.  A value, constant or array,
    overflows to inf, or divides to inf or nan, without a warning: the
    finiteness check of what the values build reports them."""
    with np.errstate(all="ignore"):
        return _value(expr, env)


def _value(expr: ast.expr, env: Mapping[str, object]):
    if isinstance(expr, ast.Constant):
        return float(expr.value)
    if isinstance(expr, ast.Name):
        return env[expr.id]
    if isinstance(expr, ast.UnaryOp):
        return -_value(expr.operand, env)
    if isinstance(expr, ast.Call):
        return FUNCTIONS[expr.func.id](_value(expr.args[0], env))
    return _OPERATORS[type(expr.op)](_value(expr.left, env), _value(expr.right, env))
