"""Immersion catalog: JSON spec documents -> sampled immersions.

A spec document has the shape

    {"kind": "...", "params": {...}, "grid": {"axes": [{"min": ..., "max": ...,
     "count": ..., "periodic": false}, ...]}}

and is schema-validated (unknown keys rejected) before any numerics run.
For the equivariant kinds the first grid axis parametrizes the profile curve
and the remaining axes contribute their counts to the sphere chart, whose
ranges are fixed.  Potentials and curve components are expression strings in
x1..xn / s.
"""

from __future__ import annotations

import numpy as np

from . import equivariant, lagrangian, solitons
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


def validate_spec(doc: dict) -> dict:
    """Schema-validate an immersion spec; raises SpecValidationError."""
    from jsonschema import Draft202012Validator  # imported here: only specs need it

    errors = sorted(Draft202012Validator(_SPEC_SCHEMA).iter_errors(doc),
                    key=lambda e: e.json_path)
    if errors:
        raise SpecValidationError("; ".join(e.message for e in errors))
    kind = doc["kind"]
    perrors = sorted(
        Draft202012Validator(_PARAMS_SCHEMAS[kind]).iter_errors(doc["params"]),
        key=lambda e: e.json_path)
    if perrors:
        raise SpecValidationError(
            f"params for kind {kind!r}: " + "; ".join(e.message for e in perrors))
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
    return doc


def _axes(doc) -> tuple[GridAxis, ...]:
    return tuple(
        GridAxis(a["min"], a["max"], a["count"], a.get("periodic", False))
        for a in doc["grid"]["axes"]
    )


def _expr_fn(text: str, varnames):
    expr = parse_expression(text)

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
        fx = _expr_fn(params["fx"], ["x", "y"])
        fy = _expr_fn(params["fy"], ["x", "y"])

        def f(z):
            z = d_array(z)
            return np.stack([fx(z[..., 0], z[..., 1]),
                             fy(z[..., 0], z[..., 1])], axis=-1)

        return lagrangian.build_paracomplex_graph(f, axes), meta

    if kind == "null_product":
        f1 = _expr_fn(params["f1"], ["s"])
        g1 = _expr_fn(params["g1"], ["s"])
        f2 = _expr_fn(params["f2"], ["s"])
        g2 = _expr_fn(params["g2"], ["s"])
        c1 = lagrangian.plane_curve(f1, g1)
        c2 = lagrangian.j_curve(lagrangian.plane_curve(f2, g2))
        return lagrangian.build_null_product(c1, c2, axes[0], axes[1]), meta

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

    # soliton_lift
    p = solitons.SolitonParams(params["n"], params["lambda_prime"], params["case"])
    state = solitons.SolitonState(params["r0"], params.get("alpha0", 0.0),
                                  params.get("phi0", 0.0))
    prof_axis = axes[0]
    span = max(abs(prof_axis.lo), abs(prof_axis.hi))
    traj = solitons.integrate_bidirectional(state, p, span, rtol=1e-12)
    s_lo = max(prof_axis.lo, float(traj.s[0]))
    s_hi = min(prof_axis.hi, float(traj.s[-1]))
    curve = solitons.reconstruct_profile(traj, count=prof_axis.count,
                                         q=params.get("q", 0),
                                         s_lo=s_lo, s_hi=s_hi)
    meta["trajectory"] = traj
    meta["curve"] = curve
    counts = tuple(a.count for a in axes[1:]) or None
    return equivariant.lift(curve, p.n, counts), meta
