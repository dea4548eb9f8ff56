"""Finite-difference extrinsic geometry of sampled immersions into D^n.

An immersion (or a J-field, see structures) is sampled on a rectangular
parameter grid (per-axis uniform spacing, optionally periodic) by a sampler,
from an array or on demand from a function (SampledGrid).  All derivatives
are order-2 central differences, at every node or at a node set (an int
array (k, m) of node indices); a node set samples at most k 3^m points, the
stencils it reads.  The stencil wraps every axis, and a mask marks the nodes
with the margin the stencil needs from every non-periodic boundary (2 cells
for the jet, 1 for a bracket).  Quantities:

    grid_jet            values, first and second derivatives
    coordinate_tangents first derivatives only
    induced_gram        g_ij = <d_iF, d_jF> and its degeneracy, batched
    trace_mean_curvature  m H = (g^ab d_a d_b F)^perp, batched over nodes
    grid_mean_curvature   the trace of the jet, with a mask of defined nodes

A node-set query runs in nodesets as a stack of one; a stack takes the node
sets of several immersions through the kernels in one pass.

The trace needs no orthonormal frame; Gram-Schmidt (frames) stays where a
frame is the output.  Normal projection multiplies by the inverse of the
(indefinite but invertible) tangent Gram matrix instead of orthonormalizing
the normal bundle, which avoids signature bookkeeping in codimension.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dcore import d_array, d_grading2
from .dlinalg import det_real, gram, inv_real, metric_rows
from .errors import NonFiniteValues

JET_MARGIN = 2          # cells kept clear of non-periodic boundaries
MIN_AXIS_COUNT = 2 * JET_MARGIN + 1  # nodes per grid axis: one node clear of both margins
DEGENERACY_TOL = 1e-8   # relative tolerance |det g| < tol * scale^m


class GridAxis:
    """count evenly spaced nodes from lo to hi; a periodic axis leaves out
    hi, the image of lo.  An immutable value: equal axes compare and hash
    equal.  A plain class, neither a dataclass (defining one costs ~1 ms of
    every CLI start without a bytecode cache) nor a tuple (an axis must not
    iterate as its fields)."""
    __slots__ = ("lo", "hi", "count", "periodic")

    def __init__(self, lo: float, hi: float, count: int, periodic: bool = False):
        if count < MIN_AXIS_COUNT:
            raise ValueError(f"grid axes need at least {MIN_AXIS_COUNT} nodes")
        if not hi > lo:
            raise ValueError("axis needs hi > lo")
        for name, value in zip(self.__slots__, (lo, hi, count, periodic)):
            object.__setattr__(self, name, value)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}: GridAxis is immutable")

    __setattr__ = __delattr__ = _frozen

    def _fields(self) -> tuple:
        return self.lo, self.hi, self.count, self.periodic

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is GridAxis else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "GridAxis(lo={!r}, hi={!r}, count={!r}, periodic={!r})".format(*self._fields())

    def __reduce__(self):
        return GridAxis, self._fields()

    @property
    def spacing(self) -> float:
        span = self.hi - self.lo
        return span / self.count if self.periodic else span / (self.count - 1)

    def nodes(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.count)


class SampledGrid:
    """Samples on a grid: its axes and one sampler, which returns the samples
    at a tuple of index arrays (one per axis, of one shape).  An array-backed
    grid, SampledGrid(axes, array), is the sampler array[idx]; a
    function-backed one evaluates its function at the coordinates of idx.
    whole() materializes every node once, through the same sampler, or
    through outer() where the grid has one: a function returning every
    node's samples, for a grid whose sampler would recompute what the
    whole grid shares (its values then equal the sampler's bit for bit)."""
    dtype = None  # of the samples; None keeps the sampler's

    def __init__(self, axes, array=None, sampler=None, outer=None):
        self.axes = tuple(axes)
        self._whole = None if array is None else self._checked(array, self.shape)
        self.sampler = sampler if array is None else self._whole.__getitem__
        self.outer = outer

    def _checked(self, samples, lead):
        """The samples as an array; lead is the shape of the index arrays."""
        return np.asarray(samples, dtype=self.dtype)

    @property
    def m(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    def sample(self, idx) -> np.ndarray:
        """The samples at the index arrays idx, leading axes idx[0].shape."""
        return self._checked(self.sampler(idx), np.shape(idx[0]))

    def whole(self) -> np.ndarray:
        """The samples at every node, leading axes the grid's."""
        if self._whole is None:
            self._whole = (self.sample(tuple(np.indices(self.shape))) if self.outer is None
                           else self._checked(self.outer(), self.shape))
        return self._whole


def coordinates(axes: Sequence[GridAxis], idx) -> list[np.ndarray]:
    """The coordinates lo + spacing * i of the index arrays idx, one array
    per axis: bit for bit the values GridAxis.nodes gives."""
    return [a.lo + a.spacing * i for a, i in zip(axes, idx)]


class SampledImmersion(SampledGrid):
    """An immersion sampled on a grid; its samples are (..., n, 2) arrays of
    finite values."""

    def _checked(self, samples, lead):
        v = d_array(samples)
        if v.shape[:len(lead)] != lead or v.ndim != len(lead) + 2:
            raise ValueError(f"values shape {v.shape} does not match {lead} + (n, 2)")
        if not np.all(np.isfinite(v)):
            bad = ~np.isfinite(v).all(axis=(-2, -1))
            raise NonFiniteValues(f"immersion values must be finite, got {bad.sum()} "
                                  f"of {bad.size} samples with a nan or inf")
        return v

    @property
    def values(self) -> np.ndarray:
        """(*counts, n, 2), materialized on first use."""
        return self.whole()

    @property
    def n(self) -> int:
        return self.values.shape[-2]

    def margin_mask(self, margin: int = JET_MARGIN) -> np.ndarray:
        return margin_mask(self.axes, margin)


def margin_mask(axes: Sequence[GridAxis], margin: int, nodes=None) -> np.ndarray:
    """Boolean grid of the nodes at least margin cells from every
    non-periodic boundary, or the same test at the node set nodes (k, m)."""
    shape = tuple(a.count for a in axes) if nodes is None else nodes.shape[:1]
    index = np.indices(shape, sparse=True) if nodes is None else nodes.T
    mask = np.ones(shape, dtype=bool)
    for i, axis in zip(index, axes):
        if not axis.periodic:
            mask &= (i >= margin) & (i < axis.count - margin)
    return mask


def immersion_from_function(axes: Sequence[GridAxis], fn: Callable) -> SampledImmersion:
    """The immersion fn samples: fn takes coordinate arrays, one per axis,
    and returns the (..., n, 2) values there."""
    axes = tuple(axes)
    return SampledImmersion(axes, sampler=lambda idx: fn(*coordinates(axes, idx)))


class Jet(NamedTuple):
    first: np.ndarray   # (..., m, n, 2), leading axes index grid nodes
    second: np.ndarray  # (..., m, m, n, 2)
    value: np.ndarray | None = None  # (..., n, 2), the samples at the nodes


def node_set(sampled, nodes):
    """nodes as an int array (k, m) of node indices inside the grid of
    sampled.axes (an immersion or a J-field); None (every node) passes
    through."""
    if nodes is None:
        return None
    nodes, shape = np.asarray(nodes), tuple(a.count for a in sampled.axes)
    if (nodes.ndim != 2 or nodes.shape[1] != len(shape)
            or not np.issubdtype(nodes.dtype, np.integer)):
        raise ValueError(f"nodes must be an int array (k, {len(shape)}), got shape {nodes.shape}")
    if np.any((nodes < 0) | (nodes >= np.array(shape))):
        raise ValueError(f"nodes outside the grid {shape}")
    return nodes.astype(np.intp, copy=False)


@functools.cache
def _offsets(m: int, kind: str):
    """(offsets (m, p), the column of each offset tuple) of a stencil kind:
    "star", the node and its 2m neighbours; "box", the 3^m box; "wide",
    the box and the stars of the 2m neighbours."""
    offsets = np.indices((5,) * m).reshape(m, -1) - 2
    size, reach = np.abs(offsets).max(axis=0), np.abs(offsets).sum(axis=0)
    offsets = offsets[:, {"star": reach <= 1, "box": size <= 1,
                          "wide": (size <= 1) | (reach <= 2)}[kind]]
    return offsets, {offset: j for j, offset in enumerate(zip(*offsets.tolist()))}


def _sample_around(grid: SampledGrid, nodes, kind: str):
    """(samples (k, p, ...), column): grid sampled once on the stencil of
    kind around each node of the node set nodes, every axis wrapped."""
    offsets, column = _offsets(grid.m, kind)
    idx = (nodes.T[:, :, None] + offsets[:, None, :]) % np.array(grid.shape)[:, None, None]
    return grid.sample(tuple(idx)), column


def stencil(grid: SampledGrid, nodes=None, kind: str = "box"):
    """shifted(deltas): the samples of grid offset by {axis: delta} cells
    with every axis wrapped, at every node (nodes None, leading grid axes)
    or at the node set nodes (k, m), leading axis k.  A node set is sampled
    once, on the stencil of kind around each node (_offsets), and shifted
    gathers from those samples.  Both give each node the same values, so
    the arithmetic on them agrees bit for bit; shifted({}) is grid at the
    nodes."""
    if nodes is None:
        whole = grid.whole()

        def shifted(deltas):  # np.roll's values, gathered by take (a fifth of its cost)
            out = whole
            for a, d in deltas.items():
                out = out.take((np.arange(grid.shape[a]) + d) % grid.shape[a], axis=a)
            return out

        return shifted
    samples, column = _sample_around(grid, nodes, kind)
    return lambda deltas: samples[:, column[tuple(deltas.get(a, 0) for a in range(grid.m))]]


def neighbourhood(grid: SampledGrid, nodes) -> np.ndarray:
    """grid at each node and at its neighbours +e_0, -e_0, +e_1, ... on the
    star stencil, stacked on a new leading axis of length 1 + 2m."""
    shifted = stencil(grid, nodes, "star")
    return np.stack([shifted({})] + [shifted({l: s}) for l in range(grid.m) for s in (+1, -1)])


def _divisors(spacings):
    """(two_h, d2): 2 h_a per axis, and h_a^2 on the diagonal and 4 h_a h_b
    above it (d2 (m, m), unused below): the divisors of the order-2
    central differences on a grid of spacings h, as Python floats."""
    return ([2.0 * h for h in spacings],
            [[ha ** 2 if a == b else 4.0 * ha * hb for b, hb in enumerate(spacings)]
             for a, ha in enumerate(spacings)])


def _first_differences(shifted, two_h) -> np.ndarray:
    """Order-2 central first derivatives (..., m, n, 2) from shifted(deltas)."""
    return np.stack([(shifted({a: +1}) - shifted({a: -1})) / d for a, d in enumerate(two_h)],
                    axis=-3)


def _second_differences(shifted, d2) -> np.ndarray:
    """Order-2 central second derivatives (..., m, m, n, 2), as above."""
    m = len(d2)
    second = [[None] * m for _ in range(m)]
    for a in range(m):
        second[a][a] = (shifted({a: +1}) - 2.0 * shifted({}) + shifted({a: -1})) / d2[a][a]
        for b in range(a + 1, m):
            mixed = (shifted({a: +1, b: +1}) - shifted({a: +1, b: -1})
                     - shifted({a: -1, b: +1}) + shifted({a: -1, b: -1}))
            second[a][b] = second[b][a] = mixed / d2[a][b]
    return np.stack([np.stack(row, axis=-3) for row in second], axis=-4)


def _differencing(imm: SampledImmersion, nodes, kind: str):
    """(shifted, two_h, d2, valid) at every node (nodes None) or at the node
    set nodes, a nodesets.NodeStack; valid marks the nodes with the full jet
    margin (wrapped values elsewhere are garbage)."""
    if nodes is None:
        return (stencil(imm), *_divisors([a.spacing for a in imm.axes]),
                margin_mask(imm.axes, JET_MARGIN))
    from .nodesets import NodeStack  # imported here: the angle commands query whole grids

    st = NodeStack([(imm, nodes)], kind)
    return st.shifted, st.two_h, st.d2, st.margin(JET_MARGIN)


def coordinate_tangents(imm: SampledImmersion, nodes=None):
    """(tangents (..., m, n, 2), valid) at every node (leading grid axes) or
    at the node set nodes (leading axis k), from the star stencil; valid as
    _differencing gives it."""
    shifted, two_h, _, valid = _differencing(imm, nodes, "star")
    return _first_differences(shifted, two_h), valid


def _jet(shifted, two_h, d2) -> Jet:
    """The jet of the samples shifted gathers, divided by _divisors'."""
    return Jet(_first_differences(shifted, two_h), _second_differences(shifted, d2), shifted({}))


def grid_jet(imm: SampledImmersion, nodes=None) -> tuple[Jet, np.ndarray]:
    """Values, first and second derivatives at every node or at the node
    set nodes, from one box stencil: (Jet, valid) with leading axes and
    valid as in coordinate_tangents."""
    shifted, two_h, d2, valid = _differencing(imm, nodes, "box")
    return _jet(shifted, two_h, d2), valid


def tangent_scale(tangents: np.ndarray) -> np.ndarray:
    """The Euclidean tangent scale sum_a |d_aF|^2 of frames (..., m, n, 2):
    x^2 + y^2 of each entry added left to right onto 0, one node-length
    vector at a time (np.sum's order below 8 entries)."""
    g2 = d_grading2(tangents)
    return sum(g2[..., a, k] for a, k in np.ndindex(g2.shape[-2:]))


def induced_gram(tangents: np.ndarray):
    """(g, det g, degenerate) for tangent frames (..., m, n, 2), batched over
    the leading axes; degenerate unless |det g| >= DEGENERACY_TOL * scale^m
    > 0, so a nan (an overflowed frame) is degenerate too.  det g is
    det_real's.

    scale = sum_a |d_aF|^2 is the Euclidean tangent scale, which dominates
    every |g_ij|.  The pointwise metric scale max|g_ij| would collapse with g
    where the immersion meets the light cone (e.g. the null lines of
    equivariant tori), leaving the relative test vacuous exactly there.
    """
    g = gram(tangents)
    scale = tangent_scale(tangents)
    det = det_real(g)
    degenerate = (scale == 0.0) | ~(np.abs(det) >= DEGENERACY_TOL * scale ** g.shape[-1])
    return g, det, degenerate


def normal_project(W, tangents, g_inv) -> np.ndarray:
    """Metric-normal part of W: subtract lambda^a d_aF, lambda = g^-1 <W, d_bF>
    with g_inv the inverse Gram matrix.  Batched over leading axes."""
    lam = np.einsum("...ab,...b->...a", g_inv, metric_rows(W[..., None, :, :], tangents))
    return W - np.einsum("...a,...anc->...nc", lam, tangents)


def trace_mean_curvature(first: np.ndarray, second: np.ndarray):
    """m H = (g^ab d_a d_b F)^perp for jets (..., m, n, 2), (..., m, m, n, 2)
    batched over leading axes.

    Returns (mH, g_inv, degenerate); mH and g_inv are nan where induced_gram
    finds the metric degenerate.  g is inverted once per node, by inv_real
    (the adjugate over det g for m <= 2, LU beyond), and that inverse serves
    both the trace and the normal projection.
    """
    g, det, degenerate = induced_gram(first)
    g_inv = inv_real(g, det, degenerate)
    mH = normal_project(np.einsum("...ab,...abnc->...nc", g_inv, second), first, g_inv)
    return mH, g_inv, degenerate


def _with_mean_curvature(jt: Jet, valid):
    """grid_mean_curvature's (jt, mH, g_inv, has_H) of a jet and its valid mask."""
    mH, g_inv, degenerate = trace_mean_curvature(jt.first, jt.second)
    return jt, mH, g_inv, valid & ~degenerate


def grid_mean_curvature(imm: SampledImmersion, nodes=None):
    """trace_mean_curvature at every node or at the node set nodes: (jet,
    mH, g_inv, has_H) with the jet of grid_jet; has_H marks the nodes with
    the full jet margin and a non-degenerate metric, where the mean
    curvature H = (1/m) sum_i eps_i h(e_i, e_i) is mH / m.  A node set is
    nodesets.mean_curvature_at's batch of one."""
    if nodes is not None:
        from .nodesets import mean_curvature_at  # imported here, as NodeStack is

        return mean_curvature_at([(imm, nodes)])[0]
    return _with_mean_curvature(*grid_jet(imm))
