"""Finite-difference extrinsic geometry of sampled immersions into D^n.

An immersion or a J-field is sampled on a rectangular parameter grid
(per-axis uniform spacing, optionally periodic) by a sampler, from an array
or on demand from a function (SampledGrid).  All derivatives are order-2
central differences, at every node or at a node set (an int array (k, m) of
node indices); a node set samples at most k 3^m points, the stencils it
reads.  The stencil wraps every axis, and a mask marks the nodes with the
margin the stencil needs from every non-periodic boundary (2 cells for the
jet, 1 for a bracket).  Quantities:

    grid_jet            values, first and second derivatives
    coordinate_tangents first derivatives only
    induced_gram        g_ij = <d_iF, d_jF> and its degeneracy, batched
    metric_signatures   the signatures of a stack of tangent frames at once
    trace_mean_curvature  m H = (g^ab d_a d_b F)^perp, batched over nodes
    grid_mean_curvature   the trace of the jet, with a mask of defined nodes
    signed_gram_schmidt pivoted orthonormalization for indefinite metrics,
                        of one frame or a stack of frames
    para_adapted_frame  orthonormal frame with e_{2i} = J e_{2i-1}
    lie_bracket         [A, B] of sampled vector fields
    nijenhuis           integrability obstruction of a sampled J-field
    vector_field_from_function  vector fields for both, sampled on demand
    standard_structure, pullback_structure, curved_chart, twist_structure
                        J-fields to sample with jfield_from_function

The trace needs no orthonormal frame; Gram-Schmidt stays where a frame is
the output.  Normal projection multiplies by the inverse of the (indefinite
but invertible) tangent Gram matrix instead of orthonormalizing the normal
bundle, which avoids signature bookkeeping in codimension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dcore import d_array, d_grading2
from .dlinalg import apply_J, det_real, gram, inv_real, metric_rows
from .errors import (
    DegenerateMetric,
    NotJInvariant,
    NotParaComplexStructure,
    OddDimension,
)

JET_MARGIN = 2          # cells kept clear of non-periodic boundaries
MIN_AXIS_COUNT = 2 * JET_MARGIN + 1  # nodes per grid axis: one node clear of both margins
DEGENERACY_TOL = 1e-8   # relative tolerance |det g| < tol * scale^m
PIVOT_TOL = 1e-10       # a Gram-Schmidt pivot is null when |<v, v>| <= tol * |v|^2
J_INVARIANCE_TOL = 1e-8  # least-squares residual of J v_i off the span, relative to |J v_i|
STRUCTURE_TOL = 1e-8    # a J-field is para-complex when max |J^2 - Id| and max |tr J| <= tol


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    count: int
    periodic: bool = False

    def __post_init__(self):
        if self.count < MIN_AXIS_COUNT:
            raise ValueError(f"grid axes need at least {MIN_AXIS_COUNT} nodes")
        if not self.hi > self.lo:
            raise ValueError("axis needs hi > lo")

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
    whole() materializes every node once, through the same sampler."""
    dtype = None  # of the samples; None keeps the sampler's

    def __init__(self, axes, array=None, sampler=None):
        self.axes = tuple(axes)
        self._whole = None if array is None else self._checked(array, self.shape)
        self.sampler = sampler if array is None else self._whole.__getitem__

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
            self._whole = self.sample(tuple(np.indices(self.shape)))
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
            raise ValueError("immersion values must be finite")
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


@dataclass(frozen=True)
class Jet:
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
def _offsets(m: int, box: bool):
    """(offsets (m, p), the column of each offset tuple): the 3^m box, or
    its star, the node and its 2m neighbours."""
    offsets = np.indices((3,) * m).reshape(m, -1) - 1
    if not box:
        offsets = offsets[:, np.abs(offsets).sum(axis=0) <= 1]
    return offsets, {offset: j for j, offset in enumerate(zip(*offsets.tolist()))}


def stencil(grid: SampledGrid, nodes=None, box: bool = True):
    """shifted(deltas): the samples of grid offset by {axis: delta} cells
    with every axis wrapped, at every node (nodes None, leading grid axes)
    or at the node set nodes (k, m), leading axis k.  A node set is sampled
    once, on the 3^m box around each node (box) or on its star (the node and
    its 2m neighbours), and shifted gathers from those samples.  Both give
    each node the same values, so the arithmetic on them agrees bit for bit;
    shifted({}) is grid at the nodes."""
    if nodes is None:
        whole = grid.whole()
        return lambda deltas: (np.roll(whole, [-d for d in deltas.values()], axis=list(deltas))
                               if deltas else whole)
    offsets, column = _offsets(grid.m, box)
    idx = (nodes.T[:, :, None] + offsets[:, None, :]) % np.array(grid.shape)[:, None, None]
    samples = grid.sample(tuple(idx))  # (k, p, ...)
    return lambda deltas: samples[:, column[tuple(deltas.get(a, 0) for a in range(grid.m))]]


def neighbourhood(grid: SampledGrid, nodes) -> np.ndarray:
    """grid at each node and at its neighbours +e_0, -e_0, +e_1, ... on the
    star stencil, stacked on a new leading axis of length 1 + 2m."""
    shifted = stencil(grid, nodes, box=False)
    return np.stack([shifted({})] + [shifted({l: s}) for l in range(grid.m) for s in (+1, -1)])


def _first_differences(shifted, spacings) -> np.ndarray:
    """Order-2 central first derivatives (..., m, n, 2) from shifted(deltas)."""
    return np.stack([(shifted({a: +1}) - shifted({a: -1})) / (2.0 * h)
                     for a, h in enumerate(spacings)], axis=-3)


def _second_differences(shifted, spacings) -> np.ndarray:
    """Order-2 central second derivatives (..., m, m, n, 2), as above."""
    m = len(spacings)
    second = [[None] * m for _ in range(m)]
    for a, ha in enumerate(spacings):
        second[a][a] = (shifted({a: +1}) - 2.0 * shifted({}) + shifted({a: -1})) / ha ** 2
        for b in range(a + 1, m):
            mixed = (shifted({a: +1, b: +1}) - shifted({a: +1, b: -1})
                     - shifted({a: -1, b: +1}) + shifted({a: -1, b: -1}))
            second[a][b] = second[b][a] = mixed / (4.0 * ha * spacings[b])
    return np.stack([np.stack(row, axis=-3) for row in second], axis=-4)


def coordinate_tangents(imm: SampledImmersion, nodes=None):
    """(tangents (..., m, n, 2), valid) at every node (leading grid axes) or
    at the node set nodes (leading axis k), from the star stencil; valid
    marks the nodes with the full jet margin (wrapped values elsewhere are
    garbage)."""
    nodes = node_set(imm, nodes)
    tangents = _first_differences(stencil(imm, nodes, box=False),
                                  [a.spacing for a in imm.axes])
    return tangents, margin_mask(imm.axes, JET_MARGIN, nodes)


def grid_jet(imm: SampledImmersion, nodes=None) -> tuple[Jet, np.ndarray]:
    """Values, first and second derivatives at every node or at the node
    set nodes, from one box stencil: (Jet, valid) with leading axes and
    valid as in coordinate_tangents."""
    nodes = node_set(imm, nodes)
    shifted, h = stencil(imm, nodes), [a.spacing for a in imm.axes]
    jt = Jet(_first_differences(shifted, h), _second_differences(shifted, h), shifted({}))
    return jt, margin_mask(imm.axes, JET_MARGIN, nodes)


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


def metric_signatures(tangents: np.ndarray) -> list[tuple[int, ...]]:
    """The signature of each frame of a stack (N, m, n, 2), the signs of its
    Gram matrix's eigenvalues positive first, () where induced_gram finds it
    degenerate; one batched eigvalsh and one sort."""
    g, _, degenerate = induced_gram(tangents)
    signs = np.sort(np.where(np.linalg.eigvalsh(g) > 0, 1, -1), axis=-1)[..., ::-1]
    return [() if d else tuple(s) for s, d in zip(signs.tolist(), degenerate.tolist())]


@dataclass(frozen=True)
class GramSchmidtFrame:
    frame: np.ndarray       # (..., m, n, 2), metric(e_i, e_j) = eps_i delta_ij
    signature: tuple[int, ...]  # eps; an int array (..., m) for a stack
    coeffs: np.ndarray      # frame = coeffs @ input vectors


def _gram_schmidt_stack(vectors: np.ndarray, lead: tuple[int, ...] = ()):
    """signed_gram_schmidt of each frame of (N, m, n, 2), with the one-frame
    arithmetic: (frame, eps, coeffs, pivots), pivots[:, t] the input vector
    step t chose.  lead, the caller's stack shape, names a failed frame."""
    N, m = vectors.shape[:2]
    every = np.arange(N)
    work, coeff = vectors.copy(), np.tile(np.eye(m), (N, 1, 1))
    frame, rows = np.empty_like(work), np.empty_like(coeff)
    eps, pivots = np.empty((N, m), dtype=int), np.empty((N, m), dtype=np.intp)
    remaining = np.ones((N, m), dtype=bool)
    # Null-pair candidates in scan order: pairs a < b, sign +1 then -1.
    pa, pb = (np.repeat(i, 2) for i in np.triu_indices(m, k=1))
    ps = np.tile([1.0, -1.0], len(pa) // 2)
    for t in range(m):
        for j in range(t):
            proj = eps[:, j, None] * metric_rows(work, frame[:, j, None])
            work = work - proj[..., None, None] * frame[:, j, None]
            coeff = coeff - proj[..., None] * rows[:, j, None]
        norms = metric_rows(work, work)
        pivot = np.argmax(np.where(remaining, np.abs(norms), -np.inf), axis=1)
        norm = norms[every, pivot]
        g2 = np.sum(d_grading2(work[every, pivot]), axis=-1)
        null = np.flatnonzero(np.abs(norm) <= PIVOT_TOL * np.maximum(g2, 1e-300))
        if len(null):
            # Every remaining vector is null: the first pair sum or difference
            # of largest non-null norm becomes the pivot.
            cand = work[null][:, pa] + ps[:, None, None] * work[null][:, pb]
            nn = metric_rows(cand, cand)
            cg2 = np.sum(d_grading2(cand), axis=-1)
            ok = (remaining[null][:, pa] & remaining[null][:, pb]
                  & (np.abs(nn) > PIVOT_TOL * np.maximum(cg2, 1e-300)))
            if not ok.any(axis=1).all():
                i = null[np.argmin(ok.any(axis=1))]
                where = f"frame {tuple(map(int, np.unravel_index(i, lead)))}: " if lead else ""
                raise DegenerateMetric(
                    f"{where}no non-null pivot among remaining vectors or their "
                    f"pairs (best diagonal {norm[i]:.3e})")
            best = np.argmax(np.where(ok, np.abs(nn), -1.0), axis=1)
            a, k = pa[best], np.arange(len(null))
            work[null, a] = cand[k, best]
            coeff[null, a] = coeff[null, a] + ps[best, None] * coeff[null, pb[best]]
            norm[null], pivot[null] = nn[k, best], a
        eps[:, t] = np.where(norm > 0, 1, -1)
        scale = 1.0 / np.sqrt(np.abs(norm))
        frame[:, t] = work[every, pivot] * scale[:, None, None]
        rows[:, t] = coeff[every, pivot] * scale[:, None]
        pivots[:, t] = pivot
        remaining[every, pivot] = False
    return frame, eps, rows, pivots


def signed_gram_schmidt(vectors) -> GramSchmidtFrame:
    """Pivoted Gram-Schmidt for an indefinite metric, of one frame (m, n, 2)
    or of each frame of a stack (..., m, n, 2).

    At each step every remaining vector is orthogonalized against the chosen
    frame and the one with largest |<v, v>| becomes the next pivot, which
    avoids normalizing a null vector.  When every remaining vector is null
    but the span is not degenerate (a hyperbolic pair of null directions,
    e.g. the tangents of a null-curve product), a pairwise sum or difference
    is substituted as the pivot.  DegenerateMetric is raised when no pivot
    with a non-null norm exists (for a stack: naming the frame).  One frame
    gives its signature as a tuple, a stack as an int array (..., m).
    """
    vectors = d_array(vectors)
    lead, (m, n) = vectors.shape[:-3], vectors.shape[-3:-1]
    frame, eps, coeffs, _ = _gram_schmidt_stack(vectors.reshape(-1, m, n, 2), lead)
    if not lead:
        return GramSchmidtFrame(frame[0], tuple(int(s) for s in eps[0]), coeffs[0])
    return GramSchmidtFrame(frame.reshape(vectors.shape), eps.reshape(lead + (m,)),
                            coeffs.reshape(lead + (m, m)))


def para_adapted_frame(vectors) -> GramSchmidtFrame:
    """Orthonormal frame of a J-invariant span with e_{2i} = J e_{2i-1}.

    The span must be J-invariant (checked by least squares) and of even
    dimension.  Each round picks the best non-null pivot e, appends (e, Je)
    and projects the rest out of that hyperbolic pair; the metric-orthogonal
    complement of a J-invariant pair is again J-invariant.
    """
    vectors = d_array(vectors)
    m = vectors.shape[0]
    if m % 2 != 0:
        raise OddDimension(f"span dimension {m} is odd")
    flat = vectors.reshape(m, -1).T  # (2n, m) real matrix of the span
    jv = apply_J(vectors).reshape(m, -1).T
    sol, *_ = np.linalg.lstsq(flat, jv, rcond=None)
    resid = np.linalg.norm(flat @ sol - jv, axis=0)
    leaves = resid > J_INVARIANCE_TOL * np.maximum(np.linalg.norm(jv, axis=0), 1e-300)
    if leaves.any():
        i = int(np.argmax(leaves))
        raise NotJInvariant(f"J(v_{i}) leaves the span (residual {resid[i]:.3e})")
    work = vectors.copy()
    frame, eps = [], []
    for _ in range(m // 2):
        for e, s in zip(frame, eps):
            work = work - (s * metric_rows(work, e))[:, None, None] * e
        norms = metric_rows(work, work)
        pivot = int(np.argmax(np.abs(norms)))
        g2 = float(np.sum(d_grading2(work[pivot])))
        if abs(norms[pivot]) <= PIVOT_TOL * max(g2, 1e-300):
            raise DegenerateMetric("no non-null pivot left in the J-invariant span")
        s = 1 if norms[pivot] > 0 else -1
        e1 = work[pivot] / np.sqrt(abs(norms[pivot]))
        frame.extend([e1, apply_J(e1)])
        eps.extend([s, -s])
        work = np.delete(work, pivot, axis=0)
    return GramSchmidtFrame(np.array(frame), tuple(eps), np.empty((0, 0)))


def normal_project(W, tangents, g_inv) -> np.ndarray:
    """Metric-normal part of W: subtract lambda^a d_aF, lambda = g^-1 <W, d_bF>
    with g_inv the inverse Gram matrix.  Batched over leading axes."""
    lam = np.einsum("...ab,...b->...a", g_inv, metric_rows(W[..., None, :, :], tangents))
    return W - np.einsum("...a,...anc->...nc", lam, tangents)


def second_fundamental_form(first: np.ndarray, second: np.ndarray):
    """(h, frame) of one node's jet (m, n, 2), (m, m, n, 2): h[i, j] is the
    normal part of the second derivative along the orthonormalized frame
    directions.  DegenerateMetric where induced_gram finds g degenerate."""
    g, det, degenerate = induced_gram(first)
    if degenerate:
        raise DegenerateMetric("induced metric degenerate")
    g_inv = inv_real(g, det, degenerate)
    gs = signed_gram_schmidt(first)
    m = first.shape[0]
    h = np.empty((m, m) + first.shape[1:])
    for i in range(m):
        for j in range(i, m):
            W = np.einsum("a,b,abnc->nc", gs.coeffs[i], gs.coeffs[j], second)
            h[i, j] = h[j, i] = normal_project(W, first, g_inv)
    return h, gs


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


def grid_mean_curvature(imm: SampledImmersion, nodes=None):
    """trace_mean_curvature at every node or at the node set nodes: (jet,
    mH, g_inv, has_H) with the jet of grid_jet; has_H marks the nodes with
    the full jet margin and a non-degenerate metric, where the mean
    curvature H = (1/m) sum_i eps_i h(e_i, e_i) is mH / m."""
    jt, valid = grid_jet(imm, nodes)
    mH, g_inv, degenerate = trace_mean_curvature(jt.first, jt.second)
    return jt, mH, g_inv, valid & ~degenerate


# ---------------------------------------------------------------------------
# Almost para-complex structures on a coordinate box and their Nijenhuis
# tensor.  Vector fields are sampled like J-fields, (*counts, d), from a
# function (vector_field_from_function), or one vector (d,) broadcast to
# every node; brackets come from the central first differences of the one
# stencil.
# ---------------------------------------------------------------------------

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
