"""Almost para-complex structures on a coordinate box and their Nijenhuis
tensor.

A J-field is sampled on a grid like an immersion (geometry.SampledGrid),
its samples (..., d, d) matrices.  Vector fields are sampled the same way,
(*counts, d), from a function (vector_field_from_function), or one vector
(d,) broadcast to every node; brackets come from the central first
differences of the one star stencil, at every node or at a node set.

    lie_bracket         [A, B] of sampled vector fields
    nijenhuis           integrability obstruction of a sampled J-field
    jfield_from_function, vector_field_from_function  fields sampled on demand
    standard_structure, pullback_structure, curved_chart, twist_structure
                        J-fields to sample with jfield_from_function
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NotParaComplexStructure
from .geometry import GridAxis, SampledGrid, coordinates, margin_mask, neighbourhood, node_set

STRUCTURE_TOL = 1e-8    # a J-field is para-complex when max |J^2 - Id| and max |tr J| <= tol


class JField(SampledGrid):
    """A J-field sampled on a grid; its samples are (..., d, d) matrices."""
    dtype = float

    @property
    def mats(self) -> np.ndarray:
        """(*counts, d, d), materialized on first use."""
        return self.whole()

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]


def _check_structure(J: np.ndarray):
    """NotParaComplexStructure unless every matrix of the stack J (..., d, d)
    has J^2 = Id and tr J = 0, to STRUCTURE_TOL."""
    err = float(np.max(np.abs(J @ J - np.eye(J.shape[-1]))))
    if err > STRUCTURE_TOL:
        raise NotParaComplexStructure(f"max |J^2 - Id| = {err:.3e}")
    tr = float(np.max(np.abs(np.trace(J, axis1=-2, axis2=-1))))
    if tr > STRUCTURE_TOL:
        raise NotParaComplexStructure(
            f"eigendistributions have unequal rank (max |tr J| = {tr:.3e})"
        )


def jfield_from_function(axes: Sequence[GridAxis], fn: Callable) -> JField:
    """The J-field fn samples: fn takes coordinate arrays, as in
    immersion_from_function, and returns the (..., d, d) matrices there or
    one (d, d) matrix, broadcast read-only to every sampled node."""
    axes = tuple(axes)

    def sample(idx):
        mats = np.asarray(fn(*coordinates(axes, idx)), dtype=float)
        return np.broadcast_to(mats, np.shape(idx[0]) + mats.shape[-2:])

    return JField(axes, sampler=sample)


# J-field callables for jfield_from_function: the structures the nijenhuis
# suite and command sample.

def _mat2(a, b, c, d):
    """[[a, b], [c, d]] at every node, scalars broadcast against the rest."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def standard_structure(x, y):
    """The standard para-complex structure of D, constant."""
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def pullback_structure(dpsi):
    """The pullback dpsi^-1 J_std dpsi of the standard structure by a chart
    with differential dpsi(x, y), by one batched solve over the grid."""
    def fn(x, y):
        M = dpsi(x, y)
        return np.linalg.solve(M, standard_structure(x, y) @ M)

    return fn


def curved_chart(x, y):
    """Differential of a chart that is not para-holomorphic."""
    return _mat2(1.0, 0.2 * y, 0.2 * x, 1.0)


def twist_structure(u1, u2, v1, v2):
    """J = +1 on span{du1, du2}, -1 on span{dv1, dv2 + v1 du1}."""
    J = np.broadcast_to(np.diag([1.0, 1.0, -1.0, -1.0]), np.shape(v1) + (4, 4)).copy()
    J[..., 0, 3] = -2.0 * v1
    return J


def vector_field_from_function(axes: Sequence[GridAxis], fn: Callable) -> SampledGrid:
    """The vector field fn samples: fn takes coordinate arrays, as in
    immersion_from_function, and returns the (..., d) vectors there."""
    axes = tuple(axes)
    return SampledGrid(axes, sampler=lambda idx: np.asarray(fn(*coordinates(axes, idx)),
                                                            dtype=float))


def _field(jf: JField, F) -> SampledGrid:
    """The vector field F: a SampledGrid on jf's axes, (*counts, d) or one
    vector (d,) for every node."""
    if isinstance(F, SampledGrid):
        if F.axes != jf.axes:
            raise ValueError("a sampled vector field must be on the J-field's axes")
        return F
    F = np.asarray(F, dtype=float)
    return SampledGrid(jf.axes, np.broadcast_to(F, jf.shape + F.shape[-1:]))


def _apply(J, v) -> np.ndarray:
    """J v, batched over the leading axes."""
    return (J @ v[..., None])[..., 0]


def _bracket(A, B, spacings) -> np.ndarray:
    """[A, B] = D_A B - D_B A from the neighbourhoods A, B of two fields, with
    D_A B = sum_l A^l (B(+e_l) - B(-e_l)) / (2 h_l) summed in axis order."""
    def derivative(F, G):
        return sum(F[0, ..., l, None] * (G[2 * l + 1] - G[2 * l + 2]) / (2 * h)
                   for l, h in enumerate(spacings))
    return derivative(A, B) - derivative(B, A)


def lie_bracket(jf: JField, A, B, nodes=None):
    """([A, B], valid) at every node (leading grid axes) or at the node set
    nodes (leading axis k), via central differences on the star stencil;
    valid marks the nodes with a 1-cell margin from every non-periodic
    boundary (wrapped values elsewhere are garbage)."""
    nodes = node_set(jf, nodes)
    A, B = (neighbourhood(_field(jf, F), nodes) for F in (A, B))
    value = _bracket(A, B, [a.spacing for a in jf.axes])
    return value, margin_mask(jf.axes, 1, nodes)


def nijenhuis(jf: JField, X, Y, nodes=None):
    """(N^J(X, Y), valid) with N^J(X, Y) = [X, Y] + [JX, JY] - J [JX, Y]
    - J [X, JY], at every node or at the node set nodes as in lie_bracket.
    J X is taken on the gathered samples, so each neighbour sees its own J.
    NotParaComplexStructure unless J is a para-complex structure on every
    matrix read: the nodes and their star neighbours, or the whole grid."""
    nodes = node_set(jf, nodes)
    J, X, Y = (neighbourhood(grid, nodes) for grid in (jf, _field(jf, X), _field(jf, Y)))
    _check_structure(jf.mats if nodes is None else J)
    JX, JY = _apply(J, X), _apply(J, Y)
    h = [a.spacing for a in jf.axes]
    value = (_bracket(X, Y, h) + _bracket(JX, JY, h)
             - _apply(J[0], _bracket(JX, Y, h)) - _apply(J[0], _bracket(X, JY, h)))
    return value, margin_mask(jf.axes, 1, nodes)
