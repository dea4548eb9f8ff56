"""Lagrangian-specific structure on sampled submanifolds of D^n.

The para-holomorphic volume of a Lagrangian tangent frame is its determinant
over D; its polar data (q, theta) is the Lagrangian angle, frame-independent
up to the dropped overall sign.  The angle field drives the curvature
identity

    m H = J grad(beta)

(grad taken in the induced metric).  With this library's conventions,
omega(X, Y) = <X, J Y> and theta from the polar form, the identity holds
with the sign as written; texts using the opposite symplectic sign print it
as m H = -J grad(beta).  The residual below measures the vanishing
combination.

The one constructor here is the gradient graph, which the angle commands
build; products of null curves, para-complex graphs and point maps are in
constructions, normal bundles of real submanifolds in normalbundle.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dcore import d_grading2, d_norm2, d_polar
from .dlinalg import apply_J, det_D, require_lagrangian
from .geometry import (
    DEGENERACY_TOL,
    JET_MARGIN,
    GridAxis,
    SampledGrid,
    SampledImmersion,
    coordinates,
    coordinate_tangents,
    grid_jet,
    margin_mask,
    neighbourhood,
    node_set,
    tangent_scale,
    trace_mean_curvature,
)


RESIDUAL_MARGIN = JET_MARGIN + 1  # theta is differentiated once more


class AngleField(NamedTuple):
    """Per-node Lagrangian angle data over an immersion grid.

    theta/q are valid where computed & ~degenerate; region labels connected
    non-degenerate patches (-1 elsewhere).  q is constant and theta is
    continuous on each region; max_jump records the worst theta step between
    usable neighbours (all of them lie inside a region) as a sanity bound.
    """
    imm: SampledImmersion
    theta: np.ndarray
    q: np.ndarray
    degenerate: np.ndarray
    computed: np.ndarray
    region: np.ndarray
    n_regions: int
    max_jump: float

    @property
    def usable(self) -> np.ndarray:
        """Nodes with a defined angle: interior and non-degenerate."""
        return self.computed & ~self.degenerate

    def region_summary(self):
        out = []
        for rid in range(self.n_regions):
            mask = self.region == rid
            thetas = self.theta[mask]
            qs = self.q[mask]
            out.append({
                "region": rid,
                "nodes": int(mask.sum()),
                "q": int(qs[0]) if qs.size else -1,
                "q_constant": bool(np.all(qs == qs[0])) if qs.size else True,
                "theta_min": float(thetas.min()) if thetas.size else math.nan,
                "theta_max": float(thetas.max()) if thetas.size else math.nan,
            })
        return out


def nodal_angles(imm: SampledImmersion, nodes=None):
    """Lagrangian angle of the coordinate tangent frame at every node
    (leading grid axes) or at the node set nodes (leading axis k):
    (theta, q, degenerate, valid).

    Frame independence of (q, theta) means no orthonormalization is needed.
    valid marks the nodes with the full jet margin; every valid frame must
    pass require_lagrangian.  degenerate marks the nodes where det_D is
    numerically null; theta is nan and q is -1 unless valid & ~degenerate.
    """
    return _frame_angles(*coordinate_tangents(imm, nodes))


def _frame_angles(tangents, valid):
    """nodal_angles of the coordinate frames tangents (..., m, n, 2), valid
    marking those with the full jet margin."""
    require_lagrangian(tangents[valid])
    lead, m = tangents.shape[:-3], tangents.shape[-3]
    dets = det_D(tangents) if m > 1 else tangents[..., 0, :, :].reshape(lead + (2,))
    # Degeneracy gauge: squared_norm(det_D) equals det_R of the induced
    # metric, so compare it against the Euclidean tangent scale (which
    # dominates every |g_ij|) rather than the determinant's own magnitude;
    # a tiny but directionally clean det still means a degenerate frame.
    # A nan (an overflowed det_D or scale) is small.
    g_scale = np.maximum(tangent_scale(tangents), 1e-300)
    small = ~(np.abs(d_norm2(dets)) >= DEGENERACY_TOL * g_scale ** m)
    _, q, _, theta, null = d_polar(dets, tol=DEGENERACY_TOL)
    usable = valid & ~null & ~small
    return np.where(usable, theta, np.nan), np.where(usable, q, -1), null | small, valid


def angle_field(imm: SampledImmersion, jet=None) -> AngleField:
    """nodal_angles at every node, with the usable nodes labelled by the
    connected components they form with their usable grid neighbours.
    max_jump records the largest theta step between usable neighbours; it
    is reported, not checked against any bound.  jet is grid_jet(imm) where
    the caller has it: its first derivatives are the coordinate tangents
    bit for bit, so the angles are read from them.
    """
    theta, q, degenerate, valid = (nodal_angles(imm) if jet is None
                                   else _frame_angles(jet[0].first, jet[1]))
    usable = valid & ~degenerate
    region, n_regions = _regions(imm.axes, usable)
    return AngleField(imm, theta, q, degenerate, valid, region, n_regions,
                      _max_jump(imm.axes, theta, usable))


def _neighbour_pairs(axes, usable):
    """(a, pair) per axis: pair marks the usable nodes whose next node along
    axis a (wrapping on a periodic axis) is usable too."""
    for a, axis in enumerate(axes):
        pair = usable & np.roll(usable, -1, axis=a)
        if not axis.periodic:
            pair[(slice(None),) * a + (-1,)] = False
        yield a, pair


def _regions(axes, usable):
    """(labels, count): the connected components of the usable nodes under
    the neighbour pairs, numbered by each component's first node in C order;
    -1 on unusable nodes.

    Root hooking with pointer jumping (Shiloach & Vishkin 1982): each round
    hooks the larger root of every edge onto the smallest root it meets,
    jumps every node to its root, and keeps the edges whose ends still have
    different roots.  Each round hooks the largest root of every component
    that is not yet merged, so the loop ends with one root per component."""
    index = np.arange(usable.size).reshape(usable.shape)
    ends = [(index[pair], np.roll(index, -1, axis=a)[pair])
            for a, pair in _neighbour_pairs(axes, usable)]
    lo, hi = (np.concatenate(side) for side in zip(*ends))
    root = np.arange(usable.size)
    while lo.size:
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        np.minimum.at(root, hi, lo)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        lo, hi = root[lo], root[hi]
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
    labels = root[usable.ravel()]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    region = np.full(usable.shape, -1, dtype=int)
    region[usable] = np.argsort(np.argsort(first))[inverse]
    return region, first.size


def _max_jump(axes, theta, usable) -> float:
    """Largest |theta step| over every pair of usable neighbours, each axis
    with its periodic wrap."""
    worst = 0.0
    for a, pair in _neighbour_pairs(axes, usable):
        if pair.any():
            step = np.abs(np.roll(theta, -1, axis=a) - theta)
            worst = max(worst, float(step[pair].max()))
    return worst


def _residual_norm(mH, g_inv, first, dtheta):
    """Batched grading norm of m*H - J grad(beta), grad(beta) = g^ab (d_b theta) d_aF."""
    lam = np.einsum("...ab,...b->...a", g_inv, dtheta)
    grad_beta = np.einsum("...a,...anc->...nc", lam, first)
    return np.sqrt(np.sum(d_grading2(mH - apply_J(grad_beta)), axis=-1))


def identity_grid(imm: SampledImmersion, field: AngleField | None, nodes=None, jet=None):
    """Mean curvature H and the grading norm of m*H - J grad(beta) (zero to
    O(h^2)) at every node, or at the node set nodes (k, m), in one batched
    pass: the jet and its trace_mean_curvature, then central differences
    of theta.
    grad(beta) = sum_ij g^ij (d_i theta) d_jF.

    theta comes from field, or with field None from nodal_angles of the
    jet's tangents, which then checks every frame the result depends on for
    Lagrangian; the two agree bit for bit.  With field None a node set is
    nodesets.identity_at's batch of one.  jet is grid_jet(imm, nodes) where the
    caller has it (field or every node).

    Returns (H, residual, reasons): H (..., n, 2) and residual (...) are nan
    where undefined; reasons maps each cause of a nan on a usable node to
    its mask, each node under the first that applies:
    h_nan_degenerate_metric (H and residual), residual_nan_margin (within 3
    cells of a non-periodic edge), residual_nan_stencil (an unusable theta
    neighbour).
    """
    nodes = node_set(imm, nodes)
    if field is None and nodes is not None:
        from .nodesets import identity_at  # imported here: the angle commands query whole grids

        return identity_at([(imm, nodes)])[0]
    jt, valid = grid_jet(imm, nodes) if jet is None else jet
    if field is None:  # every node
        theta, _, degenerate, _ = _frame_angles(jt.first, valid)
        usable = valid & ~degenerate
    else:
        theta, usable = field.theta, field.usable
    # each node and its neighbours +e_0, -e_0, +e_1, ... (leading axis 1 + 2m)
    theta, usable = (neighbourhood(SampledGrid(imm.axes, a), nodes) for a in (theta, usable))
    return _identity(jt, valid, theta, usable, [2.0 * a.spacing for a in imm.axes],
                     margin_mask(imm.axes, RESIDUAL_MARGIN, nodes))


def _identity(jt, valid, theta, usable, two_h, residual_margin):
    """identity_grid from the jet and its valid mask, theta and usable at
    each node and its neighbours (leading axis 1 + 2m), the divisors 2 h_a
    of the axes and the mask of nodes RESIDUAL_MARGIN clear of the edges."""
    mH, g_inv, degenerate = trace_mean_curvature(jt.first, jt.second)
    has_H = valid & ~degenerate & usable[0]
    dtheta = np.stack([(theta[2 * a + 1] - theta[2 * a + 2]) / d for a, d in enumerate(two_h)],
                      axis=-1)
    full_stencil = usable.all(axis=0)
    in_margin = has_H & ~residual_margin
    has_residual = has_H & ~in_margin & full_stencil
    H = np.where(has_H[..., None, None], mH / len(two_h), np.nan)
    residual = np.where(has_residual, _residual_norm(mH, g_inv, jt.first, dtheta), np.nan)
    reasons = {"h_nan_degenerate_metric": usable[0] & ~has_H,
               "residual_nan_margin": in_margin,
               "residual_nan_stencil": has_H & ~in_margin & ~full_stencil}
    return H, residual, reasons


# ---------------------------------------------------------------------------
# Gradient graphs
# ---------------------------------------------------------------------------

def _graph_values(x, du) -> np.ndarray:
    """The values (..., n, 2) of x_j + tau du_j."""
    return np.stack([np.stack(np.broadcast_arrays(xj, dj), -1) for xj, dj in zip(x, du)], -2)


def build_gradient_graph(axes: Sequence[GridAxis], u: Callable | None = None,
                         grad: Sequence[Callable] | None = None) -> SampledImmersion:
    """Graph of grad(u): x -> (x_1 + tau du/dx_1, ..., x_n + tau du/dx_n).

    grad may be given in closed form (list of vectorized callables), sampled
    where the immersion is read; otherwise u is sampled on the whole grid
    with one extra margin cell and differentiated centrally.
    """
    axes = tuple(axes)
    if grad is not None:
        def sample(idx):
            x = coordinates(axes, idx)
            return _graph_values(x, [g(*x) for g in grad])

        return SampledImmersion(axes, sampler=sample)
    if u is None:
        raise ValueError("need u or grad")
    ext_nodes = [
        np.concatenate(([a.lo - a.spacing], a.nodes(), [a.hi + a.spacing]))
        for a in axes
    ]
    U = np.asarray(u(*np.meshgrid(*ext_nodes, indexing="ij")), dtype=float)
    du = []
    for j, axis in enumerate(axes):
        up, dn = [slice(1, -1)] * len(axes), [slice(1, -1)] * len(axes)
        up[j], dn[j] = slice(2, None), slice(0, -2)
        with np.errstate(all="ignore"):  # inf - inf: the immersion's check reports the nan
            du.append((U[tuple(up)] - U[tuple(dn)]) / (2.0 * axis.spacing))
    mesh = np.meshgrid(*[a.nodes() for a in axes], indexing="ij")
    return SampledImmersion(axes, _graph_values(mesh, du))
