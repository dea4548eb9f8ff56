import itertools
import math
from collections import deque

import numpy as np
import pytest
from conftest import probe_nodes, same_bits

from parakahler import equivariant
from parakahler.dcore import d_exp_tau, d_mul, d_polar
from parakahler.constructions import (
    apply_J_immersion,
    build_null_product,
    build_paracomplex_graph,
    j_curve,
    plane_curve,
    rotate,
)
from parakahler.dlinalg import apply_J, require_lagrangian
from parakahler.errors import (
    DegenerateMetric,
    DegeneratePairing,
    LagrangianViolation,
    NotNullCurve,
    NotParaHolomorphic,
)
from parakahler.frames import lagrangian_angle_of_frame, metric, metric_signatures
from parakahler.geometry import (
    GridAxis,
    SampledImmersion,
    coordinate_tangents,
    grid_jet,
    grid_mean_curvature,
    induced_gram,
)
from parakahler.lagrangian import (
    AngleField,
    _regions,
    angle_field,
    build_gradient_graph,
    identity_grid,
)
from parakahler.nodesets import identity_at, mean_curvature_at
from parakahler.normalbundle import (
    NormalBundleSpec,
    catenoid_normal_bundle,
    circle_normal_bundle,
    flat_normal_bundle,
    is_austere,
    normal_bundle_angle,
    normal_bundle_volume,
)


def square_axes(count=33, lo=-0.5, hi=0.5):
    return (GridAxis(lo, hi, count), GridAxis(lo, hi, count))


def node_tangents(imm, nodes):
    """Coordinate tangent frames at a node set whose nodes all have the full
    jet margin."""
    tangents, valid = coordinate_tangents(imm, nodes)
    assert valid.all()
    return tangents


def node_mean_curvature(imm, node):
    """H = mH / m at one node, nan where grid_mean_curvature leaves it
    undefined."""
    _, mH, _, has_H = grid_mean_curvature(imm, [node])
    return np.where(has_H[0], mH[0] / imm.m, np.nan)


def center_residual(imm, node):
    """The curvature-identity residual at one node, from identity_grid."""
    _, residual, _ = identity_grid(imm, angle_field(imm), [node])
    return float(residual[0])


def test_gradient_graph_is_lagrangian(rng):
    imm = build_gradient_graph(
        square_axes(17),
        u=lambda x1, x2: 0.2 * x1 ** 3 + 0.1 * x1 * x2 + 0.3 * x2 ** 2)
    require_lagrangian(node_tangents(imm, [(8, 8), (5, 10), (10, 4)]))


def test_paracomplex_graph_not_lagrangian():
    imm = build_paracomplex_graph(
        lambda z: d_mul(z, z), (GridAxis(0.1, 0.6, 17), GridAxis(0.0, 0.4, 17)))
    with pytest.raises(LagrangianViolation):
        require_lagrangian(node_tangents(imm, [(8, 8)]))


def test_node_set_identity_checks_every_frame_it_reads():
    # A bump in F at c + 2 e_0 leaves the centre's jet Lagrangian but breaks
    # omega on the frame at c + e_0, whose theta the centre residual reads:
    # the node-set path raises as angle_field does.  A node set whose
    # stencil misses the bump reads no broken frame.
    imm = build_gradient_graph(
        square_axes(17),
        u=lambda x1, x2: 0.2 * x1 ** 3 + 0.1 * x1 * x2 + 0.3 * x2 ** 2)
    values = imm.values.copy()
    values[10, 8, 1, 1] += 0.05
    bumped = SampledImmersion(imm.axes, values)
    require_lagrangian(node_tangents(bumped, [(8, 8)]))
    with pytest.raises(LagrangianViolation):
        require_lagrangian(node_tangents(bumped, [(9, 8)]))
    with pytest.raises(LagrangianViolation):
        angle_field(bumped)
    with pytest.raises(LagrangianViolation):
        identity_grid(bumped, None, [(8, 8)])
    _, residual, _ = identity_grid(bumped, None, [(4, 4)])
    assert residual[0] == identity_grid(imm, None, [(4, 4)])[1][0]


def _stack_groups():
    """Immersions of one (m, n) group per m: gradient graphs on grids of
    several spacings and spans, and for m = 2, 3 periodic lifts of circles
    whose metric is degenerate on whole lines of nodes."""
    def u(*x):
        return sum(0.3 * xi ** 3 - 0.1 * xi ** 2 for xi in x) + 0.2 * x[0] * x[-1] ** 2

    def graph(m, count, lo=-0.5, hi=0.5):
        return build_gradient_graph((GridAxis(lo, hi, count),) * m, u=u)

    def lift(radius, count, n, sphere=None):
        return equivariant.lift(equivariant.explicit_circle(radius, count), n, sphere)

    return {1: [graph(1, 21), graph(1, 41, -0.3, 0.7), graph(1, 9)],
            2: [graph(2, 9), graph(2, 17, -0.4, 0.6), lift(1.3, 32, 2), lift(1.0, 64, 2, (16,))],
            3: [graph(3, 7), graph(3, 9, -0.6, 0.4), lift(0.8, 24, 3, (9, 8))]}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_queries_equal_one_query_each(m):
    # Random mixes of node-set queries on immersions of one (m, n) group,
    # some immersions queried twice: each query's H, residual and reasons
    # (identity_at) and jet, mH, g_inv and has_H (mean_curvature_at) equal
    # its batch of one and the whole grid at its nodes bit for bit.  The
    # node sets hold margin, degenerate and stencil-nan nodes.
    imms, rng = _stack_groups()[m], np.random.default_rng(m)
    wholes = [(identity_grid(imm, angle_field(imm)), grid_mean_curvature(imm)) for imm in imms]
    seen = dict.fromkeys(["residual_nan_margin", "residual_nan_stencil", "no_H"], False)
    for _ in range(6):
        picks = rng.integers(0, len(imms), size=rng.integers(1, 7)).tolist()
        queries = []
        for i in picks:
            nodes = np.argwhere(np.ones(imms[i].shape, bool))
            nodes = np.concatenate([probe_nodes(imms[i].shape, seed=len(queries)),
                                    rng.permutation(nodes)[:rng.integers(1, 40)]])
            queries.append((imms[i], nodes))
        for i, (imm, nodes), got, got_H in zip(picks, queries, identity_at(queries),
                                               mean_curvature_at(queries), strict=True):
            at, (whole, (jt, *whole_H)) = tuple(nodes.T), wholes[i]
            one, one_H = identity_at([(imm, nodes)])[0], mean_curvature_at([(imm, nodes)])[0]
            assert got[2].keys() == one[2].keys() == whole[2].keys()
            for part, one_part, whole_part in zip(
                    (*got[:2], *got[2].values(), *got_H[0], *got_H[1:]),
                    (*one[:2], *one[2].values(), *one_H[0], *one_H[1:]),
                    (*whole[:2], *whole[2].values(), jt.first, jt.second, imm.values,
                     *whole_H), strict=True):
                assert same_bits(part, one_part) and same_bits(part, whole_part[at])
            for reason in ("residual_nan_margin", "residual_nan_stencil"):
                seen[reason] |= bool(got[2][reason].any())
            seen["no_H"] |= bool((imm.margin_mask()[at] & ~got_H[3]).any())
    assert all(seen.values()), seen


def test_stacked_identity_raises_for_one_non_lagrangian_member():
    # the bump of test_node_set_identity_checks_every_frame_it_reads: a
    # stack that reads a broken frame raises for every query in it
    imm = build_gradient_graph(
        square_axes(17),
        u=lambda x1, x2: 0.2 * x1 ** 3 + 0.1 * x1 * x2 + 0.3 * x2 ** 2)
    values = imm.values.copy()
    values[10, 8, 1, 1] += 0.05
    bumped = SampledImmersion(imm.axes, values)
    with pytest.raises(LagrangianViolation):
        identity_at([(imm, [(8, 8)]), (bumped, [(8, 8)])])
    (_, residual, _), (_, bumped_residual, _) = identity_at([(imm, [(4, 4)]),
                                                            (bumped, [(4, 4)])])
    assert same_bits(residual, bumped_residual)


def test_a_stack_needs_one_m_and_n():
    square, flat3 = square_axes(9), np.zeros((9, 9, 3, 2))
    graph = build_gradient_graph(square, u=lambda x1, x2: 0.1 * x1 ** 3)
    curve = build_gradient_graph(square[:1], u=lambda x1: 0.1 * x1 ** 3)
    for queries in ([(graph, [(4, 4)]), (curve, [(4,)])],
                    [(graph, [(4, 4)]), (SampledImmersion(square, flat3), [(4, 4)])], []):
        with pytest.raises(ValueError, match="one m and n"):
            mean_curvature_at(queries)


def test_angle_field_record_keeps_usable_and_region_summary():
    imm = build_gradient_graph(square_axes(5), u=lambda x1, x2: 0.0 * x1)
    computed = np.zeros((5, 5), dtype=bool)
    computed[:, :3] = True
    degenerate = np.zeros((5, 5), dtype=bool)
    degenerate[1] = True
    region = np.full((5, 5), -1)
    region[0, :3], region[2:, :3] = 0, 1
    theta = np.where(region >= 0, np.arange(25.0).reshape(5, 5) / 10, np.nan)
    q = np.where(region >= 0, region, -1)
    q[4, 2] = 3
    # three regions, the last one without nodes
    field = AngleField(imm, theta, q, degenerate, computed, region, 3, 0.25)
    assert np.array_equal(field.usable, computed & ~degenerate)
    *summaries, empty = field.region_summary()
    assert summaries == [
        {"region": 0, "nodes": 3, "q": 0, "q_constant": True,
         "theta_min": 0.0, "theta_max": 0.2},
        {"region": 1, "nodes": 9, "q": 1, "q_constant": False,
         "theta_min": 1.0, "theta_max": 2.2},
    ]
    assert {k: empty[k] for k in ("region", "nodes", "q", "q_constant")} == {
        "region": 2, "nodes": 0, "q": -1, "q_constant": True}
    assert math.isnan(empty["theta_min"]) and math.isnan(empty["theta_max"])
    for name in ("theta", "usable", "n_regions"):
        with pytest.raises(AttributeError):
            setattr(field, name, None)


def test_flat_immersion_angle_field():
    imm = build_gradient_graph(square_axes(17), u=lambda x1, x2: 0.0 * x1)
    f = angle_field(imm)
    assert f.n_regions == 1
    assert np.all(f.q[f.usable] == 0)
    assert np.nanmax(np.abs(f.theta)) < 1e-14


def test_exp_tau_curve_angle_field():
    axis = GridAxis(-1.0, 1.0, 81)
    from parakahler.geometry import immersion_from_function

    imm = immersion_from_function((axis,), lambda s: d_exp_tau(s)[..., None, :])
    f = angle_field(imm)
    nodes = axis.nodes()
    usable = f.usable
    assert np.all(f.q[usable] == 1)
    assert np.allclose(f.theta[usable], nodes[usable], atol=1e-10)


def test_monge_ampere_graph_angle_field():
    imm = build_gradient_graph(square_axes(17),
                               grad=[lambda x1, x2: 2.0 * x1,
                                     lambda x1, x2: -0.5 * x2])
    f = angle_field(imm)
    assert np.all(f.q[f.usable] == 1)
    assert np.nanmax(np.abs(f.theta)) < 1e-12


def flood_fill_regions(axes, usable):
    """Reference labelling: breadth-first flood fill from each unlabelled
    usable node in C order, stepping to the usable grid neighbours (wrapping
    on periodic axes)."""
    region = np.full(usable.shape, -1, dtype=int)
    rid = 0
    for start in itertools.product(*[range(c) for c in usable.shape]):
        if not usable[start] or region[start] >= 0:
            continue
        queue = deque([start])
        region[start] = rid
        while queue:
            node = queue.popleft()
            for a, axis in enumerate(axes):
                for delta in (-1, 1):
                    j = node[a] + delta
                    if axis.periodic:
                        j %= axis.count
                    elif j < 0 or j >= axis.count:
                        continue
                    nbr = node[:a] + (j,) + node[a + 1:]
                    if usable[nbr] and region[nbr] < 0:
                        region[nbr] = rid
                        queue.append(nbr)
        rid += 1
    return region, rid


def csgraph_regions(axes, usable):
    """Reference labelling: scipy's connected components over the same
    neighbour edges, renumbered by each component's first node in C order."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    index = np.arange(usable.size).reshape(usable.shape)
    rows, cols = [], []
    for a, axis in enumerate(axes):
        nxt = np.roll(index, -1, axis=a)
        pair = usable & np.roll(usable, -1, axis=a)
        if not axis.periodic:
            pair[(slice(None),) * a + (-1,)] = False
        rows.append(index[pair])
        cols.append(nxt[pair])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(usable.size,) * 2)
    labels = connected_components(graph, directed=False)[1][usable.ravel()]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    region = np.full(usable.shape, -1, dtype=int)
    region[usable] = np.argsort(np.argsort(first))[inverse]
    return region, first.size


@pytest.mark.parametrize("density", [0.55, 0.9, 1.0])
@pytest.mark.parametrize("counts, periodic", [((257, 257), (False, False)),
                                              ((33, 33, 33), (True, False, True))],
                         ids=["257^2", "33^3-periodic"])
def test_regions_match_csgraph_on_large_masks(counts, periodic, density):
    axes = tuple(GridAxis(0.0, 1.0, c, periodic=p) for c, p in zip(counts, periodic))
    rng = np.random.default_rng(len(counts) * 100 + int(density * 100))
    usable = rng.random(counts) < density
    region, count = _regions(axes, usable)
    expected, expected_count = csgraph_regions(axes, usable)
    assert count == expected_count
    assert np.array_equal(region, expected)


def test_angle_field_regions_match_flood_fill_on_torus():
    curve = equivariant.explicit_circle(1.3, 64)
    imm = equivariant.lift(curve, 2, (32,))
    field = angle_field(imm)
    region, count = flood_fill_regions(imm.axes, field.usable)
    assert field.n_regions == count == 4
    assert np.array_equal(field.region, region)


@pytest.mark.parametrize("which", ["graph", "torus"])
def test_angles_and_identity_from_one_jet_keep_every_bit(which):
    # the angle commands pass one grid_jet to both calls
    if which == "graph":
        axes = [GridAxis(-0.5, 0.5, 17)] * 2
        imm = build_gradient_graph(axes, u=lambda x, y: 0.4 * x ** 3 - 0.3 * x * y ** 2 + y ** 2)
    else:
        imm = equivariant.lift(equivariant.explicit_circle(1.3, 64), 2, (32,))
    jet = grid_jet(imm)
    alone, shared = angle_field(imm), angle_field(imm, jet)
    assert all(same_bits(a, b) for a, b in zip(alone[1:], shared[1:]))
    want = identity_grid(imm, alone)
    for got in (identity_grid(imm, shared, jet=jet), identity_grid(imm, None, jet=jet)):
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert got[2].keys() == want[2].keys()
        assert all(same_bits(got[2][k], want[2][k]) for k in want[2])


def test_regions_match_flood_fill_on_random_masks():
    rng = np.random.default_rng(7)
    total = 0
    for trial in range(300):
        m = 1 + trial % 3
        counts = rng.integers(5, (40, 12, 7)[m - 1], size=m, endpoint=True)
        axes = tuple(GridAxis(0.0, 1.0, int(c), periodic=bool(rng.integers(2)))
                     for c in counts)
        usable = rng.random(tuple(int(c) for c in counts)) < rng.uniform(0.3, 0.8)
        region, count = _regions(axes, usable)
        expected, expected_count = flood_fill_regions(axes, usable)
        assert count == expected_count
        assert np.array_equal(region, expected)
        total += count
    assert total > 1000


def test_identity_residual_refines():
    res = []
    for count in (41, 81):
        imm = build_gradient_graph((GridAxis(-0.5, 0.5, count),),
                                   grad=[lambda x: 0.3 * x ** 2])
        res.append(center_residual(imm, (count // 2,)))
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.5)


def test_identity_residual_equivariant_hyperbola():
    from parakahler import equivariant

    res = []
    for scount, tcount in ((41, 16), (81, 32)):
        curve = equivariant.profile_from_function(
            lambda s: np.stack([np.cosh(s), np.sinh(s)], -1), -1.0, 1.0, scount)
        imm = equivariant.lift(curve, 2, (tcount,))
        res.append(center_residual(imm, (scount // 2, tcount // 4)))
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.5)


def _triple_tensor(jt, i, j, k):
    """T(i, j, k) = <d_i d_j F, J d_k F> at the jet's first node;
    tri-symmetric on Lagrangian nodes."""
    return metric(jt.second[0, i, j], apply_J(jt.first[0, k]))


def test_triple_tensor_flat_zero():
    imm = build_gradient_graph(square_axes(17), u=lambda x1, x2: 0.0 * x1)
    jt, _ = grid_jet(imm, [(8, 8)])
    assert _triple_tensor(jt, 0, 1, 0) == pytest.approx(0.0, abs=1e-14)


def test_triple_tensor_symmetries():
    imm = build_gradient_graph(square_axes(33),
                               u=lambda x1, x2: x1 ** 2 * x2)
    jt, _ = grid_jet(imm, [(16, 16)])
    h2 = imm.axes[0].spacing ** 2
    t112 = _triple_tensor(jt, 0, 0, 1)
    t121 = _triple_tensor(jt, 0, 1, 0)
    t211 = _triple_tensor(jt, 1, 0, 0)
    assert t121 == pytest.approx(t211, abs=1e-14)   # FD mixed partials symmetric
    assert t112 == pytest.approx(t121, abs=20 * h2)  # tri-symmetry to O(h^2)
    assert abs(t112) > 0.1  # nontrivial entry: d1 d1 (grad u) ~ (2x2, 2x1)


def _graph_angle(hess):
    """Angle of a gradient graph from its Hessian: the angle of its tangent
    frame Id + tau Hess (rows)."""
    return lagrangian_angle_of_frame(np.stack([np.eye(len(hess)), hess], axis=-1))


def test_graph_angle_values():
    ang = _graph_angle(np.zeros((2, 2)))
    assert (ang.q, ang.theta) == (0, 0.0)
    ang = _graph_angle(np.diag([2.0, -0.5]))
    assert ang.q == 1
    assert ang.theta == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DegenerateMetric):
        _graph_angle(np.diag([1.0, -1.0]))


def test_null_product_flat_plane():
    c1 = plane_curve(lambda s: 0.0 * s, lambda s: s)
    c2 = j_curve(plane_curve(lambda s: s, lambda s: 0.0 * s))
    imm = build_null_product(c1, c2, GridAxis(-1, 1, 9), GridAxis(-1, 1, 9))
    H = node_mean_curvature(imm, (4, 4))
    assert np.max(np.abs(H)) < 1e-13


def test_null_product_curved():
    c1 = plane_curve(lambda s: 0.3 * s ** 2, lambda s: s)
    c2 = j_curve(plane_curve(lambda s: s, lambda s: 0.2 * s ** 3))
    imm = build_null_product(c1, c2, GridAxis(-1, 1, 17), GridAxis(-1, 1, 17))
    node = (8, 8)
    tangents = node_tangents(imm, [node])
    require_lagrangian(tangents)
    assert metric_signatures(tangents) == [(1, -1)]
    assert np.max(np.abs(node_mean_curvature(imm, node))) < 1e-12


def test_null_product_rejects_non_null_curve():
    def bad(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (2, 2))
        out[..., 0, 0] = s  # real line: tangent has positive norm
        return out

    c2 = j_curve(plane_curve(lambda s: s, lambda s: 0.0 * s))
    with pytest.raises(NotNullCurve):
        build_null_product(bad, c2, GridAxis(-1, 1, 9), GridAxis(-1, 1, 9))


def test_null_product_rejects_degenerate_pairing():
    # cross pairing (s_u s_v - 1) omega(a, b) vanishes at the (1, 1) corner
    c1 = plane_curve(lambda s: 0.5 * s ** 2, lambda s: s)
    c2 = j_curve(plane_curve(lambda s: s, lambda s: 0.5 * s ** 2))
    with pytest.raises(DegeneratePairing):
        build_null_product(c1, c2, GridAxis(-1, 1, 9), GridAxis(-1, 1, 9))


def test_null_product_rejects_lagrangian_violation():
    c1 = plane_curve(lambda s: 0.3 * s ** 2, lambda s: s)
    c2_in_P = plane_curve(lambda s: s, lambda s: 0.1 * s ** 2)  # not J-rotated
    with pytest.raises((LagrangianViolation, DegeneratePairing)):
        build_null_product(c1, c2_in_P, GridAxis(-1, 1, 9), GridAxis(-1, 1, 9))


def test_paracomplex_graph_constant_is_flat():
    imm = build_paracomplex_graph(
        lambda z: np.broadcast_to(np.array([0.3, 0.1]), z.shape).copy(),
        square_axes(9))
    assert np.max(np.abs(node_mean_curvature(imm, (4, 4)))) < 1e-13


def test_paracomplex_graph_square_minimal():
    imm = build_paracomplex_graph(
        lambda z: d_mul(z, z), (GridAxis(0.1, 0.6, 17), GridAxis(0.0, 0.4, 17)))
    node = (8, 8)
    _, _, degenerate = induced_gram(node_tangents(imm, [node]))
    if not degenerate[0]:
        assert np.max(np.abs(node_mean_curvature(imm, node))) < 1e-10


def test_paracomplex_graph_rejects_non_holomorphic():
    with pytest.raises(NotParaHolomorphic):
        build_paracomplex_graph(
            lambda z: np.stack([z[..., 0], 0 * z[..., 1]], -1),
            square_axes(9))


def test_rotate_shifts_angle():
    imm = build_gradient_graph(square_axes(17), u=lambda x1, x2: 0.0 * x1)
    f0 = angle_field(imm)
    rotated = rotate(imm, 0.3)
    f1 = angle_field(rotated)
    node = (8, 8)
    assert f1.theta[node] - f0.theta[node] == pytest.approx(0.6, abs=1e-12)
    assert f1.q[node] == f0.q[node]
    assert np.allclose(rotate(imm, 0.0).values, imm.values)


def test_rotate_catalog_uniform_shift():
    imm = build_gradient_graph(square_axes(17),
                               grad=[lambda x1, x2: 2.0 * x1,
                                     lambda x1, x2: -0.5 * x2])
    f0 = angle_field(imm)
    f1 = angle_field(rotate(imm, 0.1))
    d = (f1.theta - f0.theta)[f0.usable & f1.usable]
    assert np.max(np.abs(d - 0.2)) < 1e-10


def test_J_immersion_negates_H():
    imm = build_gradient_graph(square_axes(17), u=lambda x1, x2: x1 ** 3)
    ji = apply_J_immersion(imm)
    node = (8, 8)
    H1, H2 = node_mean_curvature(imm, node), node_mean_curvature(ji, node)
    assert np.allclose(H2, -apply_J(H1), atol=1e-12)


# -- normal bundles ----------------------------------------------------------

def _pair_mul(a, b):
    """(x, y) (x', y') = (x x' + y y', x y' + y x') on Python floats."""
    return (a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _reference_volume(spec, node, t):
    """The normal-bundle volume tau^{n-p} prod_i(1 - tau t k_i) at one node and
    one t, multiplied one float pair at a time: k_i ascending, then tau per
    codimension."""
    kappas = np.linalg.eigvalsh(spec.shape_ops[node][0])
    value = (1.0, 0.0)
    for k in kappas:
        value = _pair_mul(value, (1.0, -t * float(k)))
    for _ in range(spec.ambient_dim - spec.submanifold_dim):
        value = _pair_mul(value, (0.0, 1.0))
    return value


def test_flat_normal_bundle_angles():
    spec = flat_normal_bundle(2, 4)
    ang = normal_bundle_angle(spec, [0.7])
    assert (ang.q[2, 2, 0], ang.theta[2, 2, 0]) == (0, 0.0)
    spec = flat_normal_bundle(1, 2)
    ang = normal_bundle_angle(spec, [0.7])
    assert (ang.q[2, 0], ang.theta[2, 0]) == (1, 0.0)
    assert is_austere(spec)[2]


def test_circle_normal_bundle_angle():
    R = 2.0
    spec = circle_normal_bundle(R, 16)
    ts = (0.1, 0.5, 0.9)
    ang = normal_bundle_angle(spec, ts)
    for j, t in enumerate(ts):
        assert ang.q[3, j] == 1
        assert ang.theta[3, j] == pytest.approx(math.atanh(-t / R), abs=1e-13)
    assert not is_austere(spec)[3]


def test_catenoid_austere_constant_angle():
    spec = catenoid_normal_bundle(1.0, 9)
    node = (2, 6)
    assert is_austere(spec)[node]
    thetas = normal_bundle_angle(spec, np.linspace(0, 0.4, 9)).theta[node]
    assert max(abs(t) for t in thetas) < 1e-12


@pytest.mark.parametrize("spec", [catenoid_normal_bundle(1.0, 9),
                                  circle_normal_bundle(2.0, 32),
                                  flat_normal_bundle(2, 4)],
                         ids=["catenoid", "circle", "flat24"])
def test_normal_bundle_volume_matches_reference(spec):
    ts = np.linspace(-2.0, 2.0, 31)  # the circle's volume is null at t = +-2
    volume = normal_bundle_volume(spec, ts)
    ang = normal_bundle_angle(spec, ts)
    for node in itertools.product(*[range(c) for c in volume.shape[:-2]]):
        ref = np.array([_reference_volume(spec, node, float(t)) for t in ts])
        # bit for bit, signed zeros included
        assert volume[node].tobytes() == ref.tobytes()
        _, q, _, theta, null = d_polar(ref)
        assert np.array_equal(ang.q[node], np.where(null, -1, q))
        assert np.array_equal(ang.theta[node], np.where(null, np.nan, theta),
                              equal_nan=True)


def test_normal_bundle_null_volume():
    # the circle of radius 2 has kappa = 1/2: 1 - tau t/2 is null at t = +-2
    spec = circle_normal_bundle(2.0, 8)
    ang = normal_bundle_angle(spec, [-2.0, 0.0, 2.0])
    assert np.all(ang.q[:, [0, 2]] == -1) and np.all(np.isnan(ang.theta[:, [0, 2]]))
    assert np.all(ang.q[:, 1] == 1) and np.all(ang.theta[:, 1] == 0.0)


def test_is_austere_per_node():
    spec = catenoid_normal_bundle(1.0, 5)
    ops = spec.shape_ops.copy()
    ops[1, 2, 0, 1, 1] *= 0.5  # break the +-kappa symmetry at one node
    bent = NormalBundleSpec(spec.points, spec.normals, ops)
    expected = np.ones((5, 5), dtype=bool)
    expected[1, 2] = False
    assert np.array_equal(is_austere(bent), expected)


def test_normal_bundle_spec_rejects_non_finite():
    # NaN slips through every `max |...| > tol` test, so it is rejected first
    spec = circle_normal_bundle(2.0, 4)
    ops = spec.shape_ops.copy()
    ops[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        NormalBundleSpec(spec.points, spec.normals, ops)
    normals = spec.normals.copy()
    normals[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        NormalBundleSpec(spec.points, normals, spec.shape_ops)
    points = spec.points.copy()
    points[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        NormalBundleSpec(points, spec.normals, spec.shape_ops)
