"""catalog's in-house spec validator against jsonschema as the reference.

Both must accept and reject the same documents and give the same joined
message (jsonschema's Draft202012Validator, errors sorted by JSON path).
The corpus is every spec literal in the tests, one-fault mutations of each
schema node, documents with several faults at once, and a hypothesis set
shaped by the schemas.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from parakahler import catalog
from parakahler.cli import main
from parakahler.errors import SpecValidationError

TESTS = Path(__file__).resolve().parent
SCHEMAS = {"spec": catalog._SPEC_SCHEMA,
           **{f"params:{kind}": s for kind, s in catalog._PARAMS_SCHEMAS.items()}}


def reference_message(instance, schema) -> str:
    errors = sorted(Draft202012Validator(schema).iter_errors(instance),
                    key=lambda e: e.json_path)
    return "; ".join(e.message for e in errors)


def inhouse_message(instance, schema) -> str:
    try:
        catalog._validated(instance, schema)
    except SpecValidationError as exc:
        return str(exc)
    return ""


def mismatches(instance) -> list[str]:
    """The schemas on which the in-house verdict or message differs from
    jsonschema's: the spec schema, and every params schema applied to the
    document's params (or to the document)."""
    params = instance.get("params", instance) if isinstance(instance, dict) else instance
    targets = {name: instance if name == "spec" else params for name in SCHEMAS}
    return [name for name, schema in SCHEMAS.items()
            if inhouse_message(targets[name], schema)
            != reference_message(targets[name], schema)]


def spec_literals():
    """Every dict literal with a "kind" key in the test modules, evaluated in
    its module's namespace (test_catalog builds grids with its axes helper)."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        namespace = None
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "kind" for k in node.keys):
                if namespace is None:
                    namespace = vars(importlib.import_module(path.stem))
                found.append(eval(compile(ast.Expression(node), str(path), "eval"),
                                  dict(namespace)))
    return found


SPECS = spec_literals()


def valid_docs():
    """One valid document per kind, with every optional key present."""
    def grid(k):
        return {"axes": [{"min": -0.5, "max": 0.5, "count": 9, "periodic": False}
                         for _ in range(k)]}
    params = {
        "flat": {"n": 2},
        "gradient_graph": {"u": "x1^2", "grad": ["x1", "x2"]},
        "paracomplex_graph": {"fx": "x", "fy": "y"},
        "null_product": {"f1": "s", "g1": "s", "f2": "s", "g2": "s"},
        "equivariant_level": {"n": 2, "C": 1.0, "family": "re"},
        "equivariant_explicit": {"n": 2, "curve": "circle", "C": 1.0,
                                 "gx": "s", "gy": "s"},
        "soliton_lift": {"n": 2, "lambda_prime": 1.0, "case": "definite", "r0": 1.0,
                         "alpha0": 0.1, "phi0": 0.0, "q": 1},
    }
    return [{"kind": kind, "params": p, "grid": grid(2)} for kind, p in params.items()]


WRONG_TYPE = {"object": [], "array": {}, "string": 1, "boolean": "yes",
              "number": "1.0", "integer": 2.5}


def mutations(instance, schema):
    """(label, document) for one fault at each node of instance that schema
    describes: each required key dropped, an unknown key on every object, a
    wrong type or an enum miss per property, an array below its minItems."""
    out = []
    if isinstance(instance, dict) and "properties" in schema:
        for key in schema.get("required", ()):
            out.append((f"drop {key}", {k: v for k, v in instance.items() if k != key}))
        out.append(("unknown key", {**instance, "zzz": 1}))
        for key, sub in schema["properties"].items():
            if key not in instance:
                continue
            faults = [None] + ([] if sub.get("type") == "boolean" else [False])
            if "type" in sub:
                faults.append(WRONG_TYPE[sub["type"]])
            if "enum" in sub:
                faults += ["nope", True]
            for fault in faults:
                out.append((f"{key}={fault!r}", {**instance, key: fault}))
            out += [(f"{key}: {label}", {**instance, key: inner})
                    for label, inner in mutations(instance[key], sub)]
    elif isinstance(instance, list) and "items" in schema:
        if schema.get("minItems"):
            out.append(("empty", []))
        for label, inner in mutations(instance[0], schema["items"]):
            out.append((f"[0] {label}", [inner] + instance[1:]))
            out.append((f"[1] {label}", instance[:1] + [inner] + instance[2:]))
    return out


def mutated_corpus():
    corpus = []
    for doc in valid_docs():
        corpus += [(f"{doc['kind']}: {label}", d)
                   for label, d in mutations(doc, catalog._SPEC_SCHEMA)]
        params_schema = catalog._PARAMS_SCHEMAS[doc["kind"]]
        corpus += [(f"{doc['kind']} params: {label}", {**doc, "params": p})
                   for label, p in mutations(doc["params"], params_schema)]
    axis = {"min": -1.0, "max": 1.0, "count": 9}
    for count in (4, 5, 4.0, 4.5, 9.0, -0.5, True, float("nan"), float("-inf")):
        corpus.append((f"count {count!r}",
                       {"kind": "flat", "params": {"n": 2},
                        "grid": {"axes": [axis, {**axis, "count": count}]}}))
    for r0 in (0, 0.0, -1, 1e-300, True):
        corpus.append((f"r0 {r0!r}", {**valid_docs()[-1], "params": {
            **valid_docs()[-1]["params"], "r0": r0}}))
    for q in (1.0, 2, False, "1"):
        corpus.append((f"q {q!r}", {**valid_docs()[-1], "params": {
            **valid_docs()[-1]["params"], "q": q}}))
    # Several faults at once: the order is by JSON path, so axes[10] sorts
    # before axes[2], and one path keeps the schema's keyword order.
    axes = [dict(axis) for _ in range(12)]
    axes[2] = {"max": "1", "count": 4.5, "zzz": None}
    axes[10] = {"min": True, "max": 1, "count": 3, "b": 1, "a": 2}
    corpus.append(("many faults", {"kind": "flat", "params": {"n": 1.5, "m": 0},
                                   "grid": {"axes": axes, "extra": []}, "zz": 1, "aa": 2}))
    corpus.append(("many params faults", {"kind": "soliton_lift", "grid": {"axes": [axis]},
                                          "params": {"n": 1.0, "case": "both", "r0": 0,
                                                     "q": 0.5, "phi0": None, "x": 1}}))
    corpus += [("not an object", []), ("kind miss", {"kind": "cone", "params": {},
                                                     "grid": {"axes": [axis]}})]
    return corpus


def test_corpus_covers_the_test_specs():
    assert len(SPECS) >= 15
    kinds = {spec["kind"] for spec in SPECS}
    assert kinds == set(catalog.KINDS)


def test_test_specs_match_jsonschema():
    assert [(spec, names) for spec in SPECS if (names := mismatches(spec))] == []


def test_mutations_match_jsonschema():
    assert [(label, names) for label, doc in mutated_corpus()
            if (names := mismatches(doc))] == []


def own_message(doc) -> str:
    """jsonschema's message for doc in validate_spec's order: the spec
    schema, then (if that passes) the params schema of its kind."""
    return (reference_message(doc, catalog._SPEC_SCHEMA)
            or reference_message(doc["params"], catalog._PARAMS_SCHEMAS[doc["kind"]]))


def test_mutations_are_faults():
    """Every mutation but the ones that spell a valid value is rejected, so
    the parity above compares messages, not only verdicts."""
    accepted = {label for label, doc in mutated_corpus() if not own_message(doc)}
    assert accepted == {"count 5", "count 9.0", "r0 1e-300", "q 1.0"}


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 4.0, 4.5, 5.0, 9.0]), st.floats(),
    st.text(max_size=3), st.sampled_from(["re", "im", "cubic", "flat", "lorentzian"]))


def shaped(schema):
    """JSON values close to schema: objects with its keys (some missing, an
    unknown one), arrays of items, enum members, or any scalar."""
    if "properties" in schema:
        keys = {**{k: shaped(v) for k, v in schema["properties"].items()},
                "zzz": JSON_SCALARS}
        obj = st.fixed_dictionaries({}, optional=keys)
        return st.one_of(obj, obj, obj, JSON_SCALARS)
    if "items" in schema:
        return st.one_of(st.lists(shaped(schema["items"]), max_size=3), JSON_SCALARS)
    if "enum" in schema:
        return st.one_of(st.sampled_from(schema["enum"]), JSON_SCALARS)
    return st.one_of(JSON_SCALARS, st.just([]), st.just({}))


@given(st.sampled_from(sorted(SCHEMAS)).flatmap(
    lambda name: st.tuples(st.just(name), shaped(SCHEMAS[name]))))
def test_generated_documents_match_jsonschema(case):
    name, instance = case
    schema = SCHEMAS[name]
    assert inhouse_message(instance, schema) == reference_message(instance, schema)


def _schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


def test_every_schema_keyword_is_implemented():
    """Each keyword of both schema dicts runs in the validator (one outside
    its set raises ValueError), and property names are plain identifiers, so
    their JSON paths are written '.name'."""
    nodes = [node for schema in SCHEMAS.values() for node in _schema_nodes(schema)]
    assert len(nodes) > 40
    for node in nodes:
        for key, value in node.items():
            for probe in (None, 1, "s", [], {}):
                catalog._check(probe, {key: value}, "$", [])
        assert all(name.isidentifier() and name.isascii() and not name.startswith("_")
                   for name in node.get("properties", {}))
    for unknown in ({"maximum": 3}, {"additionalProperties": True},
                    {"type": "null"}, {"pattern": "^x"}):
        with pytest.raises(ValueError, match="not implemented"):
            catalog._check(1, unknown, "$", [])


def test_integer_fields_are_made_int():
    doc = {"kind": "equivariant_explicit",
           "params": {"n": 2.0, "curve": "circle", "C": 1.0},
           "grid": {"axes": [{"min": 0.0, "max": 1.0, "count": 9.0},
                             {"min": 0.0, "max": 1.0, "count": 16}]}}
    out = catalog.validate_spec(doc)
    assert type(out["params"]["n"]) is int and out["params"]["n"] == 2
    assert [type(a["count"]) for a in out["grid"]["axes"]] == [int, int]
    assert out["params"]["C"] == 1.0 and type(out["params"]["C"]) is float
    assert doc["params"]["n"] == 2.0 and type(doc["params"]["n"]) is float  # not mutated


@pytest.mark.parametrize("doc", [
    {"kind": "gradient_graph", "params": {"u": "x1^3 - x1*x2^2/2"},
     "grid": {"axes": [{"min": -0.5, "max": 0.5, "count": 9},
                       {"min": -0.5, "max": 0.5, "count": 11}]}},
    {"kind": "equivariant_explicit", "params": {"n": 2, "curve": "circle", "C": 1.3},
     "grid": {"axes": [{"min": 0.0, "max": 6.283185307179586, "count": 16,
                        "periodic": True},
                       {"min": 0.0, "max": 6.283185307179586, "count": 8,
                        "periodic": True}]}},
], ids=["gradient_graph", "equivariant_explicit"])
def test_integral_floats_build_what_ints_build(doc, tmp_path):
    as_floats = json.loads(json.dumps(doc))
    if "n" in as_floats["params"]:
        as_floats["params"]["n"] = 2.0
    for axis in as_floats["grid"]["axes"]:
        axis["count"] = float(axis["count"])
    outputs = []
    for name, spec in (("int", doc), ("float", as_floats)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert main(["angle", "--spec", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
