"""Node-set queries of one or several immersions in one pass of the kernels.

A NodeStack holds the node sets of immersions of one m and n, each sampled
on the stencils it reads and stacked along the rows; each row divides by
its own grid's divisors, so a query's values in any stack are those of its
batch of one bit for bit.  geometry's and lagrangian's node-set queries are
batches of one; the angle commands query whole grids and never import this
module.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import (
    JET_MARGIN,
    Jet,
    _divisors,
    _jet,
    _offsets,
    _sample_around,
    _second_differences,
    _with_mean_curvature,
    margin_mask,
    node_set,
)
from .lagrangian import RESIDUAL_MARGIN, _frame_angles, _identity


class NodeStack:
    """Node-set queries [(imm, nodes), ...] on immersions of one m and n,
    each sampled once on the stencil of kind around its nodes and stacked
    along the rows in query order.  shifted gathers from the stacked
    samples as geometry.stencil's does; two_h (m, K, 1, 1) and d2
    (m, m, K, 1, 1) hold each row's divisors, _divisors of its own grid's
    spacings, so every row divides as its query alone would."""

    def __init__(self, queries, kind: str):
        self.queries = [(imm, node_set(imm, nodes)) for imm, nodes in queries]
        sampled = [_sample_around(imm, nodes, kind) for imm, nodes in self.queries]
        if len({(imm.m, s.shape[2:]) for (imm, _), (s, _) in zip(self.queries, sampled)}) != 1:
            raise ValueError("a node stack needs one or more queries on immersions of one m and n")
        m = self.m = self.queries[0][0].m
        self.column = sampled[0][1]
        self.samples = np.concatenate([s for s, _ in sampled])
        self.counts = [len(nodes) for _, nodes in self.queries]
        divisors = [_divisors([a.spacing for a in imm.axes]) for imm, _ in self.queries]
        rows = np.repeat([two_h + sum(d2, []) for two_h, d2 in divisors], self.counts, axis=0)
        rows = rows.T[..., None, None]  # (m + m^2, K, 1, 1)
        self.two_h, self.d2 = rows[:m], rows[m:].reshape((m, m) + rows.shape[1:])

    def shifted(self, deltas):
        return self.samples[:, self.column[tuple(deltas.get(a, 0) for a in range(self.m))]]

    def margin(self, margin: int) -> np.ndarray:
        """margin_mask at every row's node."""
        return np.concatenate([margin_mask(imm.axes, margin, nodes)
                               for imm, nodes in self.queries])

    def split(self, *stacked):
        """Each query's rows of the arrays stacked, leading axis the rows:
        one tuple per query."""
        ends = np.cumsum(self.counts).tolist()
        return [tuple(a[end - k:end] for a in stacked) for k, end in zip(self.counts, ends)]


@functools.cache
def _neighbour_columns(m: int):
    """(near (1 + 2m, m), plus, minus (1 + 2m, m)): the node's offset and its
    neighbours' +e_0, -e_0, +e_1, ..., and the columns of the wide stencil
    at near + e_a and near - e_a."""
    column, e = _offsets(m, "wide")[1], np.eye(m, dtype=int)
    near = np.concatenate([np.zeros((1, m), dtype=int)] + [[s * e[a]] for a in range(m)
                                                           for s in (1, -1)])
    plus, minus = (np.array([[column[tuple(o + s * e[a])] for a in range(m)] for o in near])
                   for s in (1, -1))
    return near, plus, minus


def jet_and_neighbour_tangents(st: NodeStack):
    """grid_jet at the rows of st, a NodeStack on the wide stencil, and
    coordinate_tangents at each row's node and at its neighbours +e_0, -e_0,
    +e_1, ... (neighbourhood's layout, leading axis 1 + 2m), from the one
    sampling of what both read: the box and the neighbours' stars.  (jet,
    tangents, valid), valid as coordinate_tangents gives it at the 1 + 2m
    nodes; every value equals the separate calls' bit for bit."""
    m = st.m
    near, plus, minus = _neighbour_columns(m)
    # contiguous per neighbour, as coordinate_tangents lays them out: the
    # einsums downstream sum in an order that follows the layout
    tangents = np.ascontiguousarray(((st.samples[:, plus] - st.samples[:, minus])
                                     / np.moveaxis(st.two_h, 0, 1)[:, None]).swapaxes(0, 1))
    valid = np.concatenate([
        margin_mask(imm.axes, JET_MARGIN, ((nodes[:, None] + near) % imm.shape).reshape(-1, m))
        .reshape(-1, len(near)).T for imm, nodes in st.queries], axis=1)
    jet = Jet(tangents[0], _second_differences(st.shifted, st.d2), st.shifted({}))
    return jet, tangents, valid


def mean_curvature_at(queries):
    """grid_mean_curvature at each node-set query (imm, nodes) of one (m, n)
    group, in one pass over their stacked box stencils: one (jet, mH,
    g_inv, has_H) per query, bit for bit its batch of one."""
    st = NodeStack(queries, "box")
    jt, mH, g_inv, has_H = _with_mean_curvature(_jet(st.shifted, st.two_h, st.d2),
                                                st.margin(JET_MARGIN))
    return [(Jet(*rows[:3]), *rows[3:]) for rows in st.split(*jt, mH, g_inv, has_H)]


def identity_at(queries):
    """identity_grid with no angle field at each node-set query (imm, nodes)
    of one (m, n) group, in one pass over their stacked stencils: one
    (H, residual, reasons) per query, bit for bit its batch of one.

    Each query is sampled once, on the nodes the differences read: each
    node and its 2m neighbours, whose tangents come from the jet's sampling
    (jet_and_neighbour_tangents).  require_lagrangian checks the whole
    stack, so one non-Lagrangian member raises for all."""
    st = NodeStack(queries, "wide")
    jt, tangents, near_valid = jet_and_neighbour_tangents(st)
    theta, _, degenerate, _ = _frame_angles(tangents, near_valid)
    H, residual, reasons = _identity(jt, near_valid[0], theta, near_valid & ~degenerate,
                                     st.two_h[..., 0, 0], st.margin(RESIDUAL_MARGIN))
    return [(h, res, dict(zip(reasons, masks)))
            for h, res, *masks in st.split(H, residual, *reasons.values())]
