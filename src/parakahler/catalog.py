"""Immersion catalog: JSON spec documents -> sampled immersions.

A spec document has the shape

    {"kind": "...", "params": {...}, "grid": {"axes": [{"min": ..., "max": ...,
     "count": ..., "periodic": false}, ...]}}

and is schema-validated (unknown keys rejected) before any numerics run, by
an in-house validator for the JSON Schema keywords the schemas below use.
For the equivariant kinds the first grid axis parametrizes the profile curve
and the remaining axes contribute their counts to the sphere chart, whose
ranges are fixed.  Potentials and curve components are expression strings in
x1..xn / s.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import lagrangian
from .dcore import d_array
from .errors import SpecValidationError
from .expressions import evaluate, parse_expression
from .geometry import GridAxis, SampledImmersion, immersion_from_function

KINDS = (
    "flat",
    "gradient_graph",
    "paracomplex_graph",
    "null_product",
    "equivariant_level",
    "equivariant_explicit",
    "soliton_lift",
)

_AXIS_SCHEMA = {
    "type": "object",
    "required": ["min", "max", "count"],
    "additionalProperties": False,
    "properties": {
        "min": {"type": "number"},
        "max": {"type": "number"},
        "count": {"type": "integer", "minimum": 5},
        "periodic": {"type": "boolean"},
    },
}

_PARAMS_SCHEMAS = {
    "flat": {
        "type": "object",
        "required": ["n"],
        "additionalProperties": False,
        "properties": {"n": {"type": "integer", "minimum": 1}},
    },
    "gradient_graph": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "u": {"type": "string"},
            "grad": {"type": "array", "items": {"type": "string"}},
        },
    },
    "paracomplex_graph": {
        "type": "object",
        "required": ["fx", "fy"],
        "additionalProperties": False,
        "properties": {"fx": {"type": "string"}, "fy": {"type": "string"}},
    },
    "null_product": {
        "type": "object",
        "required": ["f1", "g1", "f2", "g2"],
        "additionalProperties": False,
        "properties": {k: {"type": "string"} for k in ("f1", "g1", "f2", "g2")},
    },
    "equivariant_level": {
        "type": "object",
        "required": ["n", "C", "family"],
        "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 2},
            "C": {"type": "number"},
            "family": {"enum": ["re", "im"]},
        },
    },
    "equivariant_explicit": {
        "type": "object",
        "required": ["n"],
        "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 2},
            "curve": {"enum": ["circle", "hyperbola", "cubic"]},
            "C": {"type": "number"},
            "gx": {"type": "string"},
            "gy": {"type": "string"},
        },
    },
    "soliton_lift": {
        "type": "object",
        "required": ["n", "lambda_prime", "case", "r0", "alpha0"],
        "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 2},
            "lambda_prime": {"type": "number"},
            "case": {"enum": ["definite", "lorentzian"]},
            "r0": {"type": "number", "exclusiveMinimum": 0},
            "alpha0": {"type": "number"},
            "phi0": {"type": "number"},
            "q": {"enum": [0, 1]},
        },
    },
}

_SPEC_SCHEMA = {
    "type": "object",
    "required": ["kind", "params", "grid"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(KINDS)},
        "params": {"type": "object"},
        "grid": {
            "type": "object",
            "required": ["axes"],
            "additionalProperties": False,
            "properties": {
                "axes": {"type": "array", "minItems": 1, "items": _AXIS_SCHEMA},
            },
        },
    },
}


# Draft 2020-12 type checks: bool is not a number, and 9.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _enum_equal(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):  # True is not 1
        return a is b
    return a == b


def _check(instance, schema: dict, path: str, errors: list):
    """Append (JSON path, message) to errors for every keyword of schema that
    instance fails, as jsonschema's Draft202012Validator words them.  Each
    keyword applies on its own and only to instances of its type.  Returns
    instance with every integral float in an integer field made an int (a
    copy where one changed)."""
    out = instance
    for key, value in schema.items():
        if key == "type" and value in _TYPES:
            if not _TYPES[value](instance):
                errors.append((path, f"{instance!r} is not of type {value!r}"))
            elif value == "integer" and isinstance(instance, float):
                out = int(instance)
        elif key == "required":
            if isinstance(instance, dict):
                errors.extend((path, f"{name!r} is a required property")
                              for name in value if name not in instance)
        elif key == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                allowed = schema.get("properties", {})
                extras = sorted((k for k in instance if k not in allowed), key=str)
                if extras:
                    errors.append((path, "Additional properties are not allowed "
                                   f"({', '.join(map(repr, extras))} "
                                   f"{'was' if len(extras) == 1 else 'were'} unexpected)"))
        elif key == "properties":
            if isinstance(instance, dict):
                checked = {name: _check(instance[name], sub, f"{path}.{name}", errors)
                           for name, sub in value.items() if name in instance}
                if any(checked[name] is not instance[name] for name in checked):
                    out = {**instance, **checked}
        elif key == "items":
            if isinstance(instance, list):
                checked = [_check(item, value, f"{path}[{i}]", errors)
                           for i, item in enumerate(instance)]
                if any(new is not old for new, old in zip(checked, instance)):
                    out = checked
        elif key == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                errors.append((path, f"{instance!r} "
                               + ("should be non-empty" if value == 1 else "is too short")))
        elif key == "enum":
            if not any(_enum_equal(option, instance) for option in value):
                errors.append((path, f"{instance!r} is not one of {value!r}"))
        elif key == "minimum":
            if _TYPES["number"](instance) and instance < value:
                errors.append((path, f"{instance!r} is less than the minimum of {value!r}"))
        elif key == "exclusiveMinimum":
            if _TYPES["number"](instance) and instance <= value:
                errors.append((path, f"{instance!r} is less than or equal to "
                               f"the minimum of {value!r}"))
        else:
            raise ValueError(f"schema keyword {key!r}: {value!r} is not implemented")
    return out


def _validated(instance, schema: dict, prefix: str = ""):
    """instance with integer fields made int; raises SpecValidationError with
    every error message, sorted by JSON path."""
    errors: list = []
    instance = _check(instance, schema, "$", errors)
    if errors:
        errors.sort(key=lambda e: e[0])  # stable: one path keeps schema order
        raise SpecValidationError(prefix + "; ".join(message for _, message in errors))
    return instance


def validate_spec(doc: dict) -> dict:
    """Schema-validate an immersion spec; raises SpecValidationError.

    Returns the document with every integer field an int, so "count": 9.0
    builds what "count": 9 builds.
    """
    doc = _validated(doc, _SPEC_SCHEMA)
    kind = doc["kind"]
    doc = {**doc, "params": _validated(doc["params"], _PARAMS_SCHEMAS[kind],
                                       f"params for kind {kind!r}: ")}
    if kind == "gradient_graph" and not ("u" in doc["params"] or "grad" in doc["params"]):
        raise SpecValidationError("gradient_graph needs a potential u or a grad list")
    if kind == "equivariant_explicit":
        p = doc["params"]
        if "curve" in p:
            if "C" not in p:
                raise SpecValidationError("named curves need the level constant C")
        elif not ("gx" in p and "gy" in p):
            raise SpecValidationError("equivariant_explicit needs curve+C or gx+gy")
    n_axes = len(doc["grid"]["axes"])
    expected = None
    if kind == "flat":
        expected = doc["params"]["n"]
    elif kind in ("paracomplex_graph", "null_product"):
        expected = 2
    elif kind in ("equivariant_level", "equivariant_explicit", "soliton_lift"):
        expected = doc["params"]["n"]  # profile axis + (n - 1) sphere axes
    if expected is not None and n_axes != expected:
        raise SpecValidationError(
            f"kind {kind!r} needs {expected} grid axes, got {n_axes}")
    for i, axis in enumerate(doc["grid"]["axes"]):
        try:
            lo, hi = float(axis["min"]), float(axis["max"])
        except OverflowError:  # a JSON integer beyond double range
            raise SpecValidationError(
                f"grid axis {i} needs min and max within double range") from None
        got = f"got min {axis['min']!r} and max {axis['max']!r}"
        if not hi > lo:  # nan fails too
            raise SpecValidationError(f"grid axis {i} needs max > min, {got}")
        if not np.isfinite(hi - lo):  # inf bounds, overflowing spans
            raise SpecValidationError(f"grid axis {i} needs a finite max - min, {got}")
        # the jet stencils divide by h^2 and 4 h h' (geometry._second_differences)
        h = GridAxis(lo, hi, axis["count"], axis.get("periodic", False)).spacing
        if not np.isfinite(4.0 * h * h):
            raise SpecValidationError(
                f"grid axis {i} needs a spacing whose square is finite, got spacing "
                f"{h!r} from min {axis['min']!r} and max {axis['max']!r}")
    grad = doc["params"].get("grad")
    if grad is not None and len(grad) != n_axes:  # one partial derivative per axis
        raise SpecValidationError(
            f"gradient_graph needs one grad entry per grid axis: {n_axes} axes, "
            f"got {len(grad)} entries")
    return doc


def _axes(doc) -> tuple[GridAxis, ...]:
    return tuple(
        GridAxis(a["min"], a["max"], a["count"], a.get("periodic", False))
        for a in doc["grid"]["axes"]
    )


def _expr_fn(text: str, varnames):
    expr = parse_expression(text, varnames)

    def fn(*arrays):
        env = dict(zip(varnames, arrays))
        out = evaluate(expr, env)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(*[np.shape(a) for a in arrays]))

    return fn


def flat_immersion(n: int, axes) -> SampledImmersion:
    def fn(*mesh):
        values = np.zeros(mesh[0].shape + (n, 2))
        for j in range(min(n, len(mesh))):
            values[..., j, 0] = mesh[j]
        return values

    return immersion_from_function(axes, fn)


def build(doc: dict):
    """Build the immersion described by a validated spec document.

    Returns (immersion, meta) where meta carries kind-specific extras (the
    trajectory of a soliton lift, the profile curve of equivariant kinds).
    """
    doc = validate_spec(doc)
    kind = doc["kind"]
    axes = _axes(doc)
    params = doc["params"]
    meta: dict = {"kind": kind}

    if kind == "flat":
        return flat_immersion(params["n"], axes), meta

    if kind == "gradient_graph":
        names = [f"x{j + 1}" for j in range(len(axes))]
        if "grad" in params:
            grad = [_expr_fn(t, names) for t in params["grad"]]
            return lagrangian.build_gradient_graph(axes, grad=grad), meta
        u = _expr_fn(params["u"], names)
        return lagrangian.build_gradient_graph(axes, u=u), meta

    if kind == "paracomplex_graph":
        from . import constructions  # imported here: only these two kinds need it

        fx = _expr_fn(params["fx"], ["x", "y"])
        fy = _expr_fn(params["fy"], ["x", "y"])

        def f(z):
            z = d_array(z)
            return np.stack([fx(z[..., 0], z[..., 1]),
                             fy(z[..., 0], z[..., 1])], axis=-1)

        return constructions.build_paracomplex_graph(f, axes), meta

    if kind == "null_product":
        from . import constructions

        f1 = _expr_fn(params["f1"], ["s"])
        g1 = _expr_fn(params["g1"], ["s"])
        f2 = _expr_fn(params["f2"], ["s"])
        g2 = _expr_fn(params["g2"], ["s"])
        c1 = constructions.plane_curve(f1, g1)
        c2 = constructions.j_curve(constructions.plane_curve(f2, g2))
        return constructions.build_null_product(c1, c2, axes[0], axes[1]), meta

    from . import equivariant  # imported here: only the equivariant kinds need it

    if kind in ("equivariant_level", "equivariant_explicit"):
        n = params["n"]
        prof_axis = axes[0]
        name = params.get("family") or params.get("curve")  # level or explicit kind
        if name:
            curve = equivariant.named_curve(name, n, params["C"], prof_axis.lo,
                                            prof_axis.hi, prof_axis.count)
        else:
            gx = _expr_fn(params["gx"], ["s"])
            gy = _expr_fn(params["gy"], ["s"])
            curve = equivariant.profile_from_function(
                lambda s: np.stack([gx(s), gy(s)], axis=-1),
                prof_axis.lo, prof_axis.hi, prof_axis.count,
                periodic=prof_axis.periodic)
        meta["curve"] = curve
        counts = tuple(a.count for a in axes[1:]) or None
        return equivariant.lift(curve, n, counts), meta

    from . import solitons  # imported here: only soliton lifts need it

    p = solitons.SolitonParams(params["n"], params["lambda_prime"], params["case"])
    start = [(params["r0"], params.get("alpha0", 0.0), params.get("phi0", 0.0))]
    prof_axis = axes[0]
    span = max(abs(prof_axis.lo), abs(prof_axis.hi))
    traj, = solitons.integrate_bidirectional_many(p, start, span, rtol=1e-12)
    # an s_max stop lands up to a few 1e-13 short of s_max: a spec end that
    # Trajectory.sample reaches (within 1e-12 relative of the trajectory's
    # end) stays bit for bit, and one beyond is clipped to that end
    s_lo, s_hi = float(traj.s[0]), float(traj.s[-1])
    s_lo = prof_axis.lo if prof_axis.lo >= s_lo * (1 + 1e-12) else s_lo
    s_hi = prof_axis.hi if prof_axis.hi <= s_hi * (1 + 1e-12) else s_hi
    curve = solitons.reconstruct_profile(traj, count=prof_axis.count,
                                         q=params.get("q", 0),
                                         s_lo=s_lo, s_hi=s_hi)
    meta["trajectory"] = traj
    meta["curve"] = curve
    counts = tuple(a.count for a in axes[1:]) or None
    return equivariant.lift(curve, p.n, counts), meta
