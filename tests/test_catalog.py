import numpy as np
import pytest

from parakahler import catalog
from parakahler.dlinalg import require_lagrangian
from parakahler.errors import LagrangianViolation, SpecValidationError
from parakahler.geometry import coordinate_tangents


def is_lagrangian(imm, node) -> bool:
    """The node's coordinate tangent frame passes require_lagrangian."""
    tangents, valid = coordinate_tangents(imm, [node])
    assert valid.all()
    try:
        require_lagrangian(tangents)
    except LagrangianViolation:
        return False
    return True


def axes(*counts, lo=-0.5, hi=0.5, periodic=False):
    return {"axes": [{"min": lo, "max": hi, "count": c, "periodic": periodic}
                     for c in counts]}


def test_flat_kind():
    imm, meta = catalog.build({"kind": "flat", "params": {"n": 3},
                               "grid": axes(7, 7, 7)})
    assert imm.n == 3 and imm.m == 3
    assert np.allclose(imm.values[..., 1], 0.0)


def test_gradient_graph_kind():
    imm, _ = catalog.build({
        "kind": "gradient_graph",
        "params": {"u": "0.25*(x1^2 - x2^2)"},
        "grid": axes(17, 17),
    })
    assert is_lagrangian(imm, (8, 8))


def test_gradient_graph_closed_form_grad():
    imm, _ = catalog.build({
        "kind": "gradient_graph",
        "params": {"grad": ["0.5*x1", "-0.5*x2"]},
        "grid": axes(17, 17),
    })
    assert is_lagrangian(imm, (8, 8))


def test_paracomplex_graph_kind():
    imm, _ = catalog.build({
        "kind": "paracomplex_graph",
        "params": {"fx": "x^2 + y^2", "fy": "2*x*y"},
        "grid": axes(9, 9, lo=0.1, hi=0.5),
    })
    assert imm.n == 2
    assert not is_lagrangian(imm, (4, 4))


def test_null_product_kind():
    imm, _ = catalog.build({
        "kind": "null_product",
        "params": {"f1": "0.3*s^2", "g1": "s", "f2": "s", "g2": "0.2*s^3"},
        "grid": axes(9, 9, lo=-1.0, hi=1.0),
    })
    assert is_lagrangian(imm, (4, 4))


def test_equivariant_level_kind():
    imm, meta = catalog.build({
        "kind": "equivariant_level",
        "params": {"n": 2, "C": 1.0, "family": "re"},
        "grid": {"axes": [{"min": -1.0, "max": 1.0, "count": 41},
                          {"min": 0.0, "max": 6.283185307179586, "count": 16,
                           "periodic": True}]},
    })
    assert "curve" in meta
    assert imm.m == 2 and imm.n == 2


def test_equivariant_expression_curve():
    imm, _ = catalog.build({
        "kind": "equivariant_explicit",
        "params": {"n": 2, "gx": "cosh(s)", "gy": "sinh(s)"},
        "grid": {"axes": [{"min": -1.0, "max": 1.0, "count": 21},
                          {"min": 0.0, "max": 6.283185307179586, "count": 16,
                           "periodic": True}]},
    })
    assert is_lagrangian(imm, (10, 3))


def test_soliton_lift_kind():
    imm, meta = catalog.build({
        "kind": "soliton_lift",
        "params": {"n": 2, "lambda_prime": 1.0, "case": "lorentzian",
                   "r0": 1.2, "alpha0": 0.3},
        "grid": {"axes": [{"min": -0.5, "max": 0.5, "count": 41},
                          {"min": 0.0, "max": 6.283185307179586, "count": 16,
                           "periodic": True}]},
    })
    assert meta["trajectory"].max_E_drift < 1e-8
    assert is_lagrangian(imm, (20, 3))


def test_schema_rejects_bad_family():
    with pytest.raises(SpecValidationError):
        catalog.validate_spec({
            "kind": "equivariant_level",
            "params": {"n": 2, "C": 1.0, "family": "both"},
            "grid": axes(9, 9),
        })


def test_schema_rejects_wrong_axis_count():
    with pytest.raises(SpecValidationError):
        catalog.validate_spec({"kind": "flat", "params": {"n": 3},
                               "grid": axes(9, 9)})
    with pytest.raises(SpecValidationError):
        catalog.validate_spec({
            "kind": "equivariant_level",
            "params": {"n": 3, "C": 1.0, "family": "re"},
            "grid": axes(9, 9),
        })


@pytest.mark.parametrize("doc", [
    {"kind": "gradient_graph", "params": {"grad": ["x1", "x3"]}, "grid": axes(9, 9)},
    {"kind": "gradient_graph", "params": {"u": "x1 + x2 + x3"}, "grid": axes(9, 9)},
    {"kind": "gradient_graph", "params": {"u": "x1 +"}, "grid": axes(9, 9)},
])
def test_expression_errors_are_spec_errors(doc):
    with pytest.raises(SpecValidationError):
        catalog.build(doc)


def test_schema_rejects_tiny_grid():
    with pytest.raises(SpecValidationError):
        catalog.validate_spec({"kind": "flat", "params": {"n": 2},
                               "grid": axes(3, 9)})
