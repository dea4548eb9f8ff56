"""Source rules of the package, checked on its syntax tree.

- No handler catches everything: an error the code does not name is not
  turned into a result.
- A tolerance is a named module constant, not a parameter default that no
  caller sets.  Only the parameters in ALLOWED_TOLERANCES take one, because
  callers pass them.
- Geometry is queried at every node or at a node set, and a mask says
  where a quantity is undefined: no function of NODE_SET_MODULES takes a
  parameter named `node`, with no exemption.
- Every top-level function and class, private ones too, and every
  module-level ALL_CAPS or _ALL_CAPS constant has a use in the package or
  in scripts/ outside its own definition: an identifier, an attribute or
  an imported name.  A helper or tolerance that only tests use belongs in
  the tests.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

import parakahler

SRC = Path(parakahler.__file__).resolve().parent
ALLOWED_TOLERANCES = {("d_polar", "tol"), ("integrate_many", "rtol")}
NODE_SET_MODULES = ("constructions", "dcore", "geometry", "lagrangian", "solitons", "structures")


def _is_number_or_none(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and (
        node.value is None
        or (isinstance(node.value, (int, float)) and not isinstance(node.value, bool)))


def _defaults(args: ast.arguments):
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults):], args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def catch_all_handlers(tree) -> list[int]:
    """Lines of bare `except:`, `except Exception` and `except BaseException`
    handlers, also inside a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(c is None or (isinstance(c, ast.Name) and c.id in ("Exception", "BaseException"))
               for c in caught):
            lines.append(node.lineno)
    return lines


def tolerance_parameters(tree) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter whose name contains tol or
    eps and whose default is a number or None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
            found += [(func, arg.arg) for arg, default in _defaults(node.args)
                      if ("tol" in arg.arg or "eps" in arg.arg)
                      and _is_number_or_none(default)]
    return found


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods as Class.name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _references(stmt):
    """Names a statement uses: identifiers, attribute names, imported names."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _definitions(stmt):
    """Names a top-level statement defines that need a use: a def or class,
    or the ALL_CAPS names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
            yield from (node.id for node in ast.walk(target)
                        if isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id))


def unreferenced_definitions(package: dict, others: dict) -> list[str]:
    """module.name of each top-level def, class or ALL_CAPS constant of the
    package trees that no other top-level statement, of the package or of
    the other trees, references.  Both map a module name to its tree."""
    users = defaultdict(set)  # name: {(module, statement index)}
    for module, tree in {**package, **others}.items():
        for i, stmt in enumerate(tree.body):
            for name in _references(stmt):
                users[name].add((module, i))
    return [f"{module}.{name}"
            for module, tree in package.items()
            for i, stmt in enumerate(tree.body)
            for name in _definitions(stmt)
            if not users[name] - {(module, i)}]


def node_parameters(tree) -> list[str]:
    """Qualified names of the functions with a parameter named node."""
    return [name for name, fn in _functions(tree)
            if any(a.arg == "node"
                   for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs)]


MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_source_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert catch_all_handlers(tree) == []
    assert [p for p in tolerance_parameters(tree) if p not in ALLOWED_TOLERANCES] == []


def test_public_definitions_have_uses():
    assert SCRIPTS
    package = {path.stem: _parse(path) for path in MODULES}
    scripts = {f"scripts/{path.stem}": _parse(path) for path in SCRIPTS}
    assert unreferenced_definitions(package, scripts) == []


@pytest.mark.parametrize("module", NODE_SET_MODULES)
def test_no_single_node_queries(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert node_parameters(tree) == []


def test_rules_see_violations():
    tree = ast.parse(
        "def f(x, tol=1e-8, scale=2.0, *, turn_eps=None, rtol=-1, atol=TOL):\n"
        "    try:\n        pass\n"
        "    except Exception:\n        pass\n"
        "    except (ValueError, BaseException):\n        pass\n"
        "    except:\n        pass\n"
        "    except ValueError:\n        pass\n")
    assert tolerance_parameters(tree) == [("f", "tol"), ("f", "turn_eps"), ("f", "rtol")]
    assert catch_all_handlers(tree) == [4, 6, 8]
    tree = ast.parse(
        "def jet(imm, node):\n    def inner(*, node=None):\n        pass\n"
        "class A:\n    def coords(self, node):\n        pass\n"
        "def grid(imm, nodes=None):\n    pass\n")
    assert node_parameters(tree) == ["jet", "jet.inner", "A.coords"]
    package = {
        "m": ast.parse("def used():\n    pass\n"
                       "def recursive(k):\n    return recursive(k - 1)\n"
                       "class Unused:\n    pass\n"
                       "def _private():\n    pass\n"
                       "def _helper():\n    return _SCALE * TOL\n"
                       "def by_attribute():\n    pass\n"
                       "def by_import():\n    pass\n"
                       "TOL = 1e-8\n_SCALE: float = 2.0\n_SPARE, lower = 1, 2\n"
                       "UNUSED_TOL = 1e-10\n"
                       "x = used() + _helper()\n"),
        "n": ast.parse("import m\nfrom m import by_import\nm.by_attribute\n"),
    }
    assert unreferenced_definitions(package, {}) == [
        "m.recursive", "m.Unused", "m._private", "m._SPARE", "m.UNUSED_TOL"]
    assert unreferenced_definitions(package, {"s": ast.parse("m.Unused(m.UNUSED_TOL)")}) == [
        "m.recursive", "m._private", "m._SPARE"]
