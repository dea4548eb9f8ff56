import copy
import itertools
import math
import pickle

import numpy as np
import pytest

from conftest import count_points, probe_nodes, random_frame_stacks, same_bits
from parakahler import dlinalg
from parakahler.dcore import d_exp_tau, d_grading2, d_mul
from parakahler.dlinalg import apply_J, inv_real, metric_rows
from parakahler.errors import (
    DegenerateMetric,
    NotJInvariant,
    NotParaComplexStructure,
    OddDimension,
)
from parakahler.frames import (
    PIVOT_TOL,
    basis_vector,
    metric,
    metric_signatures,
    para_adapted_frame,
    random_lagrangian_frames,
    second_fundamental_form,
    signed_gram_schmidt,
)
from parakahler.geometry import (
    DEGENERACY_TOL,
    JET_MARGIN,
    MIN_AXIS_COUNT,
    GridAxis,
    Jet,
    SampledImmersion,
    coordinate_tangents,
    grid_jet,
    grid_mean_curvature,
    immersion_from_function,
    induced_gram,
    normal_project,
    tangent_scale,
    trace_mean_curvature,
)
from parakahler.structures import (
    JField,
    jfield_from_function,
    lie_bracket,
    nijenhuis,
    standard_structure,
    vector_field_from_function,
)


def curve_immersion(fn, lo=-1.0, hi=1.0, count=41):
    return immersion_from_function(
        (GridAxis(lo, hi, count),), lambda s: fn(s))


class OffStencil(Exception):
    """A reference stencil would leave the grid."""


def shifted_node(axes, node, axis, delta) -> tuple:
    """node moved delta cells along axis, wrapped; callers first check that
    a non-periodic axis is not left."""
    return node[:axis] + ((node[axis] + delta) % axes[axis].count,) + node[axis + 1:]


def reference_jet(imm, node) -> Jet:
    """Reference: the per-node stencil, order-2 central differences at one
    node with each neighbour looked up by index; OffStencil within
    JET_MARGIN cells of a non-periodic boundary."""
    node = tuple(node)
    for a, i in zip(imm.axes, node):
        if not a.periodic and min(i, a.count - 1 - i) < JET_MARGIN:
            raise OffStencil(f"node {node} is within {JET_MARGIN} cells of a boundary")

    def shifted(deltas):
        idx = node
        for axis, delta in deltas.items():
            idx = shifted_node(imm.axes, idx, axis, delta)
        return imm.values[idx]

    h = [a.spacing for a in imm.axes]
    m = imm.m
    first = np.stack([(shifted({a: +1}) - shifted({a: -1})) / (2.0 * h[a]) for a in range(m)])
    second = np.empty((m,) + first.shape)
    for a in range(m):
        second[a, a] = (shifted({a: +1}) - 2.0 * shifted({}) + shifted({a: -1})) / h[a] ** 2
        for b in range(a + 1, m):
            mixed = (shifted({a: +1, b: +1}) - shifted({a: +1, b: -1})
                     - shifted({a: -1, b: +1}) + shifted({a: -1, b: -1}))
            second[a, b] = second[b, a] = mixed / (4.0 * h[a] * h[b])
    return Jet(first, second)


def node_jet(imm, node) -> Jet:
    """The node-set jet of one node, which must have the full margin."""
    jt, valid = grid_jet(imm, [node])
    assert valid.tolist() == [True]
    return Jet(jt.first[0], jt.second[0])


def node_mean_curvature(imm, node):
    """H = mH / m at one node from grid_mean_curvature; the node must have H."""
    _, mH, _, has_H = grid_mean_curvature(imm, [node])
    assert has_H.tolist() == [True]
    return mH[0] / imm.m


def node_metric(imm, node):
    """(g, signature, degenerate) of the induced metric at one node."""
    tangents, _ = coordinate_tangents(imm, [node])
    g, _, degenerate = induced_gram(tangents)
    return g[0], metric_signatures(tangents)[0], bool(degenerate[0])


@pytest.mark.parametrize("lo, hi, count", [
    (0.0, 1.0, MIN_AXIS_COUNT - 1), (0.0, 1.0, 0), (1.0, 0.0, 9), (0.0, 0.0, 9),
    (math.nan, 1.0, 9), (0.0, math.nan, 9)])
def test_grid_axis_rejects_short_and_empty_axes(lo, hi, count):
    with pytest.raises(ValueError):
        GridAxis(lo, hi, count)


def test_grid_axis_is_an_immutable_value():
    axis = GridAxis(-0.5, 0.5, 9)
    assert (axis.lo, axis.hi, axis.count, axis.periodic) == (-0.5, 0.5, 9, False)
    assert axis == GridAxis(-0.5, 0.5, 9, periodic=False)
    assert hash(axis) == hash(GridAxis(-0.5, 0.5, 9))
    for other in (GridAxis(-0.5, 0.5, 11), GridAxis(-0.5, 0.6, 9), GridAxis(-0.4, 0.5, 9),
                  GridAxis(-0.5, 0.5, 9, periodic=True), (-0.5, 0.5, 9, False)):
        assert axis != other
    assert len({axis, GridAxis(-0.5, 0.5, 9), GridAxis(-0.5, 0.5, 11)}) == 2
    assert repr(axis) == "GridAxis(lo=-0.5, hi=0.5, count=9, periodic=False)"
    assert copy.copy(axis) == axis and pickle.loads(pickle.dumps(axis)) == axis
    for name in ("lo", "hi", "count", "periodic", "spacing", "other"):
        with pytest.raises(AttributeError):
            setattr(axis, name, 1)
    with pytest.raises(AttributeError):
        del axis.lo
    assert (axis.lo, axis.spacing) == (-0.5, 0.125)
    # an axis is not a sequence: code taking Sequence[GridAxis] cannot
    # silently read one axis as its fields
    with pytest.raises(TypeError):
        iter(axis)


def test_jet_is_an_immutable_record():
    first, second = np.zeros((2, 3, 2)), np.zeros((2, 2, 3, 2))
    jt = Jet(first, second)
    assert jt.first is first and jt.second is second and jt.value is None
    for name in ("first", "second", "value"):
        with pytest.raises(AttributeError):
            setattr(jt, name, first)


def test_affine_jet_exact():
    a = np.array([[0.2, -0.1], [0.3, 0.5]])
    b = np.array([[1.0, 0.4], [-0.2, 0.7]])
    imm = curve_immersion(lambda s: a + s[..., None, None] * b)
    jt = node_jet(imm, (20,))
    assert np.allclose(jt.first[0], b, atol=1e-13)
    assert np.allclose(jt.second, 0.0, atol=1e-12)


def test_exp_tau_curve_second_derivative():
    imm = curve_immersion(lambda s: d_exp_tau(s)[..., None, :])
    jt = node_jet(imm, (20,))
    F = imm.values[(20,)]
    h = imm.axes[0].spacing
    assert np.max(np.abs(jt.second[0, 0] - F)) < h ** 2


def test_jet_refinement_order():
    def fn(s):
        return np.stack([np.stack([s ** 2, s ** 3], -1)], -2)

    errs = []
    for count in (41, 81):
        imm = curve_immersion(fn, count=count)
        jt = node_jet(imm, (count // 2,))
        s0 = imm.axes[0].nodes()[count // 2]
        exact = np.array([[2 * s0, 3 * s0 ** 2]])
        errs.append(np.max(np.abs(jt.first[0] - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)


def test_jet_boundary_margin():
    imm = curve_immersion(lambda s: d_exp_tau(s)[..., None, :])
    with pytest.raises(OffStencil):
        reference_jet(imm, (1,))
    _, valid = grid_jet(imm, [(1,), (2,), (38,), (39,), (0,), (40,)])
    assert valid.tolist() == [False, True, True, False, False, False]
    with pytest.raises(ValueError):
        grid_jet(imm, [(41,)])
    with pytest.raises(ValueError):
        grid_jet(imm, [(20, 0)])


def test_flat_graph_metric_identity():
    axes = (GridAxis(-1, 1, 9), GridAxis(-1, 1, 9))

    def fn(x1, x2):
        v = np.zeros(x1.shape + (2, 2))
        v[..., 0, 0] = x1
        v[..., 1, 0] = x2
        return v

    imm = immersion_from_function(axes, fn)
    g, signature, degenerate = node_metric(imm, (4, 4))
    assert np.allclose(g, np.eye(2), atol=1e-13)
    assert signature == (1, 1)
    assert not degenerate


def test_timelike_curve_metric():
    imm = curve_immersion(lambda s: d_exp_tau(s)[..., None, :])
    g, signature, _ = node_metric(imm, (20,))
    # FD tangent carries the sinh(h)/h factor, an O(h^2) perturbation
    assert g[0, 0] == pytest.approx(-1.0, abs=3 * imm.axes[0].spacing ** 2)
    assert signature == (-1,)


def test_circle_lift_degenerate_node():
    from parakahler import equivariant

    circ = equivariant.explicit_circle(1.0, 64)
    imm = equivariant.lift(circ, 2, (16,))
    _, _, degenerate = induced_gram(coordinate_tangents(imm, [(8, 3), (4, 3)])[0])
    assert degenerate.tolist() == [True, False]       # (8, 3) on the cos(2t) = 0 line


# induced_gram and normal_project as they were before the metric kernel and
# the Leibniz determinant, kept as references.

def _induced_gram_reference(tangents):
    g = dlinalg.gram(tangents)
    scale = np.sum(d_grading2(tangents), axis=(-2, -1))
    degenerate = (scale == 0.0) | (np.abs(np.linalg.det(g))
                                   < DEGENERACY_TOL * scale ** g.shape[-1])
    return g, degenerate, scale


def _normal_project_reference(W, tangents, g):
    x, y = tangents[..., 0], tangents[..., 1]
    rhs = np.sum(W[..., None, :, 0] * x - W[..., None, :, 1] * y, axis=-1)
    lam = np.linalg.solve(g, rhs[..., None])[..., 0]
    return W - np.einsum("...a,...anc->...nc", lam, tangents)


def test_small_axis_kernels_match_the_code_they_replaced(rng):
    # np.sum added the tangent scale pairwise from 8 entries on (m = n = 3
    # or 4); the kernel adds left to right, so only its bits below 8
    # entries are pinned.  Above, each order of up to 16 nonnegative terms
    # is within 15 units of roundoff of the exact sum.
    for frames in itertools.chain.from_iterable(random_frame_stacks(rng)):
        lead, (m, n) = frames.shape[:-3], frames.shape[-3:-1]
        stack = frames.copy()
        if lead and lead[0] > 3:
            stack[2] = 0.0                    # no scale
            stack[3, -1] = stack[3, 0]        # a repeated tangent
        g, det, degenerate = induced_gram(stack)
        ref_g, ref_degenerate, ref_scale = _induced_gram_reference(stack)
        assert same_bits(g, ref_g) and same_bits(degenerate, ref_degenerate)
        if m * n < 8:
            assert same_bits(tangent_scale(stack), ref_scale)
        assert np.allclose(tangent_scale(stack), ref_scale, rtol=16 * np.finfo(float).eps, atol=0)
        # normal_project multiplies by g^-1 where the reference solves g.  The
        # two lambdas differ by at most ~cond(g) eps |lambda|, so the
        # projections differ by eps (|W| + cond(g) |lambda| sum_a |d_aF|)
        # up to a small factor (measured: at most 1.91 over 1,000 seeds).
        W = rng.normal(size=lead + (n, 2))
        got = normal_project(W, stack, inv_real(g, det, degenerate))
        g = np.where(degenerate[..., None, None], np.eye(m), g)
        want = _normal_project_reference(W, stack, g)
        assert np.isnan(got[degenerate]).all() and not np.isnan(got[~degenerate]).any()
        lam = np.linalg.solve(g, metric_rows(W[..., None, :, :], stack)[..., None])[..., 0]
        terms = np.abs(W).max(axis=(-2, -1)) + np.linalg.cond(g) * np.abs(lam).max(
            axis=-1) * np.abs(stack).max(axis=(-2, -1)).sum(axis=-1)
        move = np.abs(got - want).max(axis=(-2, -1))
        assert np.all(move[~degenerate] <= 4 * np.finfo(float).eps * terms[~degenerate])


def _trace_mean_curvature_reference(first, second):
    """trace_mean_curvature as it was before inv_real: the identity stands in
    for a degenerate g, np.linalg.inv, then np.linalg.solve of g again in
    the normal projection."""
    g, _, degenerate = induced_gram(first)
    g = np.where(degenerate[..., None, None], np.eye(g.shape[-1]), g)
    g_inv = np.linalg.inv(g)
    g_inv[degenerate] = np.nan
    mH = _normal_project_reference(np.einsum("...ab,...abnc->...nc", g_inv, second), first, g)
    return mH, g_inv, degenerate


def _mean_curvature_test_immersions():
    """A 2-d gradient graph, a periodic lift of a circle with degenerate
    nodes and a 3-d gradient graph."""
    from parakahler import equivariant
    from parakahler.lagrangian import build_gradient_graph

    def u(*x):
        return (0.4 * x[0] ** 3 - 0.3 * x[0] ** 2 * x[1] + 0.2 * x[0] * x[1] ** 2
                - 0.5 * x[1] ** 3 + 0.3 * x[0] ** 2 - 0.2 * x[0] * x[1] + 0.25 * x[1] ** 2
                + sum(0.1 * xi ** 3 for xi in x[2:]))

    return [build_gradient_graph((GridAxis(-0.5, 0.5, 33),) * 2, u=u),
            equivariant.lift(equivariant.explicit_circle(1.0, 64), 2, (16,)),
            build_gradient_graph((GridAxis(-0.5, 0.5, 9),) * 3, u=u)]


def test_trace_mean_curvature_moves_the_lapack_path_by_roundoff():
    # One inverse by inv_real replaces the stand-in, np.linalg.inv and the
    # solve of the normal projection: the decisions keep their bits, mH
    # moves node by node by at most 1e-12 relative.
    for imm in _mean_curvature_test_immersions():
        jt, _ = grid_jet(imm)
        mH, g_inv, degenerate = trace_mean_curvature(jt.first, jt.second)
        ref_mH, ref_g_inv, ref_degenerate = _trace_mean_curvature_reference(jt.first, jt.second)
        assert same_bits(degenerate, ref_degenerate)
        assert np.array_equal(np.isnan(mH), np.isnan(ref_mH))
        assert np.array_equal(np.isnan(g_inv), np.isnan(ref_g_inv))
        size = np.abs(ref_mH).max(axis=(-2, -1))
        move = np.abs(mH - ref_mH).max(axis=(-2, -1))
        assert np.all(move[~degenerate] <= 1e-12 * size[~degenerate])


def test_mean_curvature_calls_no_lapack_inverse_or_solve(monkeypatch):
    from parakahler.lagrangian import angle_field, identity_grid

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK inverse or solve on the mean-curvature path")

    imm = _mean_curvature_test_immersions()[0]
    nodes = probe_nodes(imm.shape)
    field = angle_field(imm)

    def results():
        return [*grid_mean_curvature(imm)[1:], *grid_mean_curvature(imm, nodes)[1:],
                *identity_grid(imm, field)[:2], *identity_grid(imm, None, nodes)[:2]]

    before = results()
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert all(same_bits(got, want) for got, want in zip(results(), before))


def test_induced_gram_decides_an_overflowed_frame_degenerate():
    frames = np.zeros((3, 2, 2, 2))
    frames[..., 0] = np.eye(2)
    frames[1, :, :, 1] = 1e160                # every g_ij is -inf, det g nan
    frames[2, :, :, 1] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, degenerate = induced_gram(frames)
    assert degenerate.tolist() == [False, True, True]


def test_gram_schmidt_orthonormal_input():
    vecs = np.stack([basis_vector(2, 0), basis_vector(2, 1, tau=True)])
    gs = signed_gram_schmidt(vecs)
    assert sorted(gs.signature) == [-1, 1]
    for i in range(2):
        for j in range(2):
            expect = gs.signature[i] if i == j else 0.0
            assert metric(gs.frame[i], gs.frame[j]) == pytest.approx(expect, abs=1e-12)


def test_gram_schmidt_mixed_frame():
    e1 = basis_vector(2, 0)
    v2 = basis_vector(2, 0) + 0.5 * basis_vector(2, 0, tau=True) + basis_vector(2, 1)
    gs = signed_gram_schmidt(np.stack([e1, v2]))
    assert gs.signature == (1, 1)
    assert np.allclose(gs.coeffs @ np.stack([e1, v2]).reshape(2, -1),
                       gs.frame.reshape(2, -1))


def test_gram_schmidt_degenerate():
    v1 = basis_vector(2, 0) + basis_vector(2, 1, tau=True)
    v2 = basis_vector(2, 1) + basis_vector(2, 0, tau=True)
    with pytest.raises(DegenerateMetric):
        signed_gram_schmidt(np.stack([v1, v2]))


def test_gram_schmidt_null_pair_pivot():
    # hyperbolic pair of null vectors: combinations are needed as pivots
    v1 = basis_vector(2, 0) + basis_vector(2, 0, tau=True)
    v2 = basis_vector(2, 0) - basis_vector(2, 0, tau=True)
    gs = signed_gram_schmidt(np.stack([v1, v2]))
    assert sorted(gs.signature) == [-1, 1]


def _signed_gram_schmidt_per_frame(vectors):
    """Reference: the one-frame pivoted Gram-Schmidt with null-pair
    substitution, one vector and one metric call at a time.  Returns
    (frame, eps)."""
    m = vectors.shape[0]
    work = [vectors[i].copy() for i in range(m)]
    frame, eps = [], []
    remaining = list(range(m))
    for _ in range(m):
        for k in remaining:
            for e, s in zip(frame, eps):
                work[k] = work[k] - s * metric(work[k], e) * e
        norms = {k: metric(work[k], work[k]) for k in remaining}
        pivot = max(remaining, key=lambda k: abs(norms[k]))
        g2 = float(np.sum(d_grading2(work[pivot])))
        if abs(norms[pivot]) <= PIVOT_TOL * max(g2, 1e-300):
            best, best_norm = None, 0.0
            for ii in range(len(remaining)):
                for jj in range(ii + 1, len(remaining)):
                    a, b = remaining[ii], remaining[jj]
                    for sign in (1.0, -1.0):
                        cand = work[a] + sign * work[b]
                        nn = metric(cand, cand)
                        cg2 = float(np.sum(d_grading2(cand)))
                        if abs(nn) > max(abs(best_norm), PIVOT_TOL * max(cg2, 1e-300)):
                            best, best_norm = (a, b, sign), nn
            if best is None:
                raise DegenerateMetric("no non-null pivot")
            a, b, sign = best
            work[a] = work[a] + sign * work[b]
            norms[a] = best_norm
            pivot = a
        frame.append(work[pivot] / np.sqrt(abs(norms[pivot])))
        eps.append(1 if norms[pivot] > 0 else -1)
        remaining.remove(pivot)
    return np.array(frame), tuple(eps)


def _null_product_tangents():
    from parakahler.constructions import build_null_product
    from parakahler.verify import _curved_null_pair

    imm = build_null_product(*_curved_null_pair(),
                             GridAxis(-0.5, 0.5, 9), GridAxis(-0.5, 0.5, 9))
    tangents, valid = coordinate_tangents(imm)
    return tangents[valid]


def _assert_matches_per_frame(stack, scale_by_cond=False):
    """signed_gram_schmidt against the pivoted reference, frame by frame:
    DegenerateMetric exactly where the reference raises; elsewhere the same
    signature multiset, gram(frame) = diag(eps) to 1e-12, frame = coeffs @
    vectors and every reference vector in the new span to 1e-12 relative
    (times cond(vectors) with scale_by_cond)."""
    kept = []
    for i, vectors in enumerate(stack):
        try:
            ref_frame, ref_eps = _signed_gram_schmidt_per_frame(vectors)
        except DegenerateMetric:
            with pytest.raises(DegenerateMetric):
                signed_gram_schmidt(vectors)
            continue
        kept.append((i, ref_frame, ref_eps))
    gs = signed_gram_schmidt(stack[[i for i, _, _ in kept]])
    for (i, ref_frame, ref_eps), frame, eps, coeffs in zip(
            kept, gs.frame, gs.signature, gs.coeffs):
        m = len(eps)
        flat, got = stack[i].reshape(m, -1), frame.reshape(m, -1)
        tol = 1e-12 * (np.linalg.cond(flat) if scale_by_cond else 1.0)
        assert sorted(eps.tolist()) == sorted(ref_eps)
        assert np.max(np.abs(dlinalg.gram(frame) - np.diag(eps))) <= 1e-12
        assert np.max(np.abs(coeffs @ flat - got)) <= tol * np.max(np.abs(got))
        ref = ref_frame.reshape(m, -1).T
        c, *_ = np.linalg.lstsq(got.T, ref, rcond=None)
        assert np.max(np.abs(got.T @ c - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_schmidt_stack_matches_per_frame_lagrangian(n):
    rng = np.random.default_rng(20 + n)
    _assert_matches_per_frame(random_lagrangian_frames(n, 60, rng))


def test_gram_schmidt_stack_null_pair_branch_is_masked():
    # Every coordinate tangent of a null product is null (the reference
    # substitutes a null pair at its first step); interleaved with random
    # frames, each frame keeps its own signature and span.
    null = _null_product_tangents()
    first = np.abs(np.einsum("kinc,kinc,c->ki", null, null, [1.0, -1.0]))
    assert np.all(first <= PIVOT_TOL * np.sum(d_grading2(null), axis=-1))
    rng = np.random.default_rng(5)
    mixed = np.empty((2 * len(null),) + null.shape[1:])
    mixed[0::2] = null
    mixed[1::2] = random_lagrangian_frames(2, len(null), rng)
    _assert_matches_per_frame(mixed)


def _hard_stacks():
    """Three null vectors in D^3 (y = Q x, Q orthogonal), and nearly
    dependent vectors (v_3 = v_1 + 1e-7 w), 40 frames each."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(40, 3, 3))
    q, _ = np.linalg.qr(rng.normal(size=(40, 3, 3, 3)))
    near = rng.normal(size=(40, 3, 3, 2))
    near[:, 2] = near[:, 0] + 1e-7 * near[:, 2]
    return np.stack([x, np.einsum("kmij,kmj->kmi", q, x)], axis=-1), near


def test_gram_schmidt_stack_matches_per_frame_hard_cases():
    null, near = _hard_stacks()
    _assert_matches_per_frame(null)
    # The frames of nearly dependent vectors are as accurate as
    # cond(vectors) allows.
    _assert_matches_per_frame(near, scale_by_cond=True)
    # Ties in |<v, v>|, a null pair beside a non-null vector, and a totally
    # null pair, which is degenerate.
    e = [basis_vector(3, j) for j in range(3)]
    te = [basis_vector(3, j, tau=True) for j in range(3)]
    _assert_matches_per_frame(np.stack([
        [e[0], e[1], te[2]], [te[2], e[1], e[0]],
        [e[0], e[1] + te[1], e[1] - te[1]], [e[1] + te[1], e[2], e[1] - te[1]],
        [e[0] + te[1], e[1] + te[0], e[2]]]))


def test_signed_gram_schmidt_nearly_dependent_stack_is_orthonormal():
    # Two eigen passes: the second undoes the first's cond(g) = cond^2 loss.
    gs = signed_gram_schmidt(_hard_stacks()[1])
    eps = gs.signature[..., None] * np.eye(3)
    assert np.max(np.abs(dlinalg.gram(gs.frame) - eps)) <= 1e-12


def test_signed_gram_schmidt_rejects_exactly_dependent_vectors():
    # e_0, e_1, e_0 + e_1: the Gram eigenvalue of the dependency is rounding
    # (~1e-16) and its direction has rounding length, so the scale-free null
    # test alone passed it as a frame with coefficients ~1e23
    e = [basis_vector(3, j) for j in range(3)]
    with pytest.raises(DegenerateMetric, match="dependent"):
        signed_gram_schmidt(np.stack([e[0], e[1], e[0] + e[1]]))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 6)])
def test_signed_gram_schmidt_rejects_a_last_vector_combining_the_others(m, n):
    rng = np.random.default_rng(m * 10 + n)
    stack = rng.normal(size=(50, m, n, 2)) * np.exp(rng.uniform(-5, 5, (50, 1, 1, 1)))
    stack[:, -1] = np.einsum("fk,fknc->fnc", rng.normal(size=(50, m - 1)), stack[:, :-1])
    for frame in stack[:10]:
        with pytest.raises(DegenerateMetric):
            signed_gram_schmidt(frame)
    with pytest.raises(DegenerateMetric, match="frame \\(0,\\)"):
        signed_gram_schmidt(stack)


def test_gram_schmidt_stack_shapes_and_single_frame():
    rng = np.random.default_rng(9)
    stack = random_lagrangian_frames(3, 6, rng)
    gs = signed_gram_schmidt(stack.reshape(2, 3, 3, 3, 2))
    assert gs.frame.shape == (2, 3, 3, 3, 2)
    assert gs.signature.shape == (2, 3, 3) and gs.coeffs.shape == (2, 3, 3, 3)
    one = signed_gram_schmidt(stack[4])
    assert isinstance(one.signature, tuple) and all(type(s) is int for s in one.signature)
    assert one.signature == tuple(gs.signature[1, 1])
    assert np.array_equal(one.frame, gs.frame[1, 1])
    assert np.array_equal(one.coeffs, gs.coeffs[1, 1])


def test_gram_schmidt_stack_names_the_degenerate_frame():
    rng = np.random.default_rng(4)
    stack = random_lagrangian_frames(2, 6, rng)
    v1 = basis_vector(2, 0) + basis_vector(2, 1, tau=True)
    v2 = basis_vector(2, 1) + basis_vector(2, 0, tau=True)
    stack[4] = np.stack([v1, v2])
    with pytest.raises(DegenerateMetric):
        _signed_gram_schmidt_per_frame(stack[4])
    with pytest.raises(DegenerateMetric, match=r"frame \(1, 1\)"):
        signed_gram_schmidt(stack.reshape(2, 3, 2, 2, 2))
    for i in (0, 1, 2, 3, 5):
        signed_gram_schmidt(stack[i])
    with pytest.raises(DegenerateMetric):  # one null vector has no pair
        signed_gram_schmidt(v1[None])


def test_para_adapted_frame_basic():
    vecs = np.stack([basis_vector(1, 0), basis_vector(1, 0, tau=True)])
    gs = para_adapted_frame(vecs)
    assert np.allclose(gs.frame[1], apply_J(gs.frame[0]))
    assert gs.signature in ((1, -1), (-1, 1))


def test_para_adapted_frame_rejects_non_invariant():
    vecs = np.stack([basis_vector(2, 0), basis_vector(2, 1)])
    with pytest.raises(NotJInvariant):
        para_adapted_frame(vecs)


def test_para_adapted_frame_rejects_odd():
    with pytest.raises(OddDimension):
        para_adapted_frame(basis_vector(2, 0)[None])


def test_para_adapted_frame_on_graph_tangent():
    from parakahler.dcore import d_mul
    from parakahler.constructions import build_paracomplex_graph

    imm = build_paracomplex_graph(
        lambda z: d_mul(z, z), (GridAxis(0.1, 0.5, 9), GridAxis(0.0, 0.2, 9)))
    gs = para_adapted_frame(node_jet(imm, (4, 4)).first)
    assert np.allclose(gs.frame[1], apply_J(gs.frame[0]), atol=1e-12)


def test_affine_plane_minimal():
    axes = (GridAxis(-1, 1, 9), GridAxis(-1, 1, 9))

    def fn(x1, x2):
        v = np.zeros(x1.shape + (2, 2))
        v[..., 0, 0] = x1 + 0.3 * x2
        v[..., 0, 1] = 0.2 * x1
        v[..., 1, 0] = x2
        v[..., 1, 1] = 0.1 * x1 - 0.4 * x2
        return v

    imm = immersion_from_function(axes, fn)
    H = node_mean_curvature(imm, (4, 4))
    assert np.max(np.abs(H)) < 1e-12


def test_mean_curvature_matches_trace_formula(rng):
    from parakahler.lagrangian import build_gradient_graph

    imm = build_gradient_graph(
        (GridAxis(-0.5, 0.5, 17), GridAxis(-0.5, 0.5, 17)),
        grad=[lambda x1, x2: 0.3 * x1 ** 2 + 0.1 * x2,
              lambda x1, x2: 0.1 * x1 + 0.2 * x2 ** 2])
    node = (8, 8)
    H = node_mean_curvature(imm, node)
    jt = node_jet(imm, node)
    g, _, _ = node_metric(imm, node)
    ginv = np.linalg.inv(g)
    trace = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            trace += ginv[a, b] * normal_project(jt.second[a, b], jt.first, ginv)
    assert np.allclose(H, trace / 2, atol=1e-12)


def test_second_fundamental_form_normality():
    from parakahler.lagrangian import build_gradient_graph

    errs = []
    for count in (17, 33):
        imm = build_gradient_graph(
            (GridAxis(-0.5, 0.5, count), GridAxis(-0.5, 0.5, count)),
            grad=[lambda x1, x2: 0.3 * x1 ** 2, lambda x1, x2: 0.2 * x2 ** 2])
        node = (count // 2, count // 2)
        jt = node_jet(imm, node)
        h, gs = second_fundamental_form(jt.first, jt.second)
        worst = max(abs(metric(h[i, j], gs.frame[k]))
                    for i in range(2) for j in range(2) for k in range(2))
        errs.append(worst)
    assert errs[0] < 1e-10  # exact here: the integrand is polynomial


def test_richardson_ratio_of_mean_curvature():
    k = 2.0

    def fn(s):
        return np.stack([np.stack([np.cos(k * s), 0 * s], -1),
                         np.stack([np.sin(k * s), 0 * s], -1)], -2)

    hs = []
    for count in (41, 81):
        imm = curve_immersion(fn, count=count)
        node = (count // 2,)
        H = node_mean_curvature(imm, node)
        # planar circle of radius 1 traversed at speed k: |H| = 1
        hs.append(abs(math.sqrt(float(np.sum(d_grading2(H)))) - 1.0))
    assert hs[0] / hs[1] == pytest.approx(4.0, abs=0.5)


def _gram_schmidt_reference(imm, field):
    """Per-node H through an orthonormal frame, H = (1/m) sum_i eps_i
    h(e_i, e_i) with the normal part taken against the frame, and the
    residual m H - J grad(beta) with grad(beta) from a Gram solve: the
    frame-based route, sharing no projection or inverse with the grid
    engine."""
    H = np.full(imm.shape + (imm.n, 2), np.nan)
    resid = np.full(imm.shape, np.nan)
    margin3 = imm.margin_mask(3)
    for node in itertools.product(*[range(c) for c in imm.shape]):
        if not field.usable[node]:
            continue
        jt = reference_jet(imm, node)
        g, _, degenerate = induced_gram(jt.first)
        if degenerate:
            continue
        gs = signed_gram_schmidt(jt.first)
        tangent_frame = list(zip(gs.signature, gs.frame))
        trace = np.zeros((imm.n, 2))
        for eps, c in zip(gs.signature, gs.coeffs):
            W = np.einsum("a,b,abnc->nc", c, c, jt.second)
            trace += eps * (W - sum(s * metric(W, e) * e for s, e in tangent_frame))
        H[node] = trace / imm.m
        if not margin3[node]:
            continue
        dtheta = np.empty(imm.m)
        for a, axis in enumerate(imm.axes):
            up, dn = (shifted_node(imm.axes, node, a, delta) for delta in (+1, -1))
            dtheta[a] = (field.theta[up] - field.theta[dn]) / (2.0 * axis.spacing)
        if not np.all(np.isfinite(dtheta)):
            continue
        grad = np.tensordot(np.linalg.solve(g, dtheta), jt.first, axes=1)
        resid[node] = math.sqrt(float(np.sum(d_grading2(trace - apply_J(grad)))))
    return H, resid


def _grading_norm(v):
    """Per-node grading norm of (..., n, 2) D-vectors."""
    return np.sqrt(np.sum(d_grading2(v), axis=-1))


def _identity_case(case):
    """The immersions the curvature-identity engine is tested on: a cubic
    gradient graph (33^2), the circle torus (periodic, with degenerate null
    lines), an n = 3 lift and an n = 1 gradient-graph curve."""
    from parakahler import equivariant
    from parakahler.lagrangian import build_gradient_graph

    if case == "graph33":
        axes = (GridAxis(-0.5, 0.5, 33), GridAxis(-0.5, 0.5, 33))
        return build_gradient_graph(axes, u=lambda x1, x2: (
            0.31 * x1 ** 3 - 0.22 * x1 ** 2 * x2 + 0.17 * x1 * x2 ** 2
            - 0.4 * x2 ** 3 + 0.12 * x1 ** 2 - 0.3 * x1 * x2 + 0.25 * x2 ** 2))
    if case == "torus":
        return equivariant.lift(equivariant.explicit_circle(1.3, 64), 2)
    if case == "lift3":
        return equivariant.lift(equivariant.explicit_circle(0.8, 24), 3, (9, 8))
    return build_gradient_graph((GridAxis(-0.5, 0.5, 41),),
                                grad=[lambda x1: 0.3 * x1 ** 2 - 0.2 * x1 ** 3])


@pytest.mark.parametrize("case", ["graph33", "torus", "lift3"])
def test_grid_engine_matches_gram_schmidt_reference(case):
    from parakahler.lagrangian import angle_field, identity_grid

    imm = _identity_case(case)
    field = angle_field(imm)
    H_grid, resid_grid, reasons = identity_grid(imm, field)
    H_ref, resid_ref = _gram_schmidt_reference(imm, field)

    has_H = ~np.isnan(H_ref[..., 0, 0])
    assert np.array_equal(np.isnan(H_grid), np.isnan(H_ref))
    assert np.array_equal(np.isnan(resid_grid), np.isnan(resid_ref))
    assert has_H.any() and not np.isnan(resid_ref).all()
    # every usable node with a nan residual has exactly one reason
    counts = np.sum([mask.astype(int) for mask in reasons.values()], axis=0)
    assert np.array_equal(counts, (field.usable & np.isnan(resid_grid)).astype(int))
    # the trace and the frame route round differently; the worst per-node
    # relative gaps measured here are 2.1e-13 / 2.6e-11 (H / residual, graph),
    # 2.7e-13 / 1.3e-13 (torus) and 1.1e-15 / 9.9e-15 (n = 3 lift)
    H_err = _grading_norm(H_grid - H_ref)[has_H] / _grading_norm(H_ref)[has_H]
    assert np.max(H_err) < 1e-10
    has_r = ~np.isnan(resid_ref)
    r_err = np.abs(resid_grid - resid_ref)[has_r] / resid_ref[has_r]
    assert np.max(r_err) < 1e-9

    # the node-set path gathers the same stencil into the same kernel: every
    # node, listed in shuffled order, gets its grid cell's H, residual and
    # reasons bit for bit (nan where the grid holds nan)
    nodes = np.random.default_rng(3).permutation(np.argwhere(np.ones(imm.shape, bool)))
    H_set, resid_set, reasons_set = identity_grid(imm, field, nodes)
    at = tuple(nodes.T)
    assert H_set.shape == (len(nodes), imm.n, 2) and resid_set.shape == (len(nodes),)
    assert np.array_equal(H_set, H_grid[at], equal_nan=True)
    assert np.array_equal(resid_set, resid_grid[at], equal_nan=True)
    for reason, mask in reasons.items():
        assert np.array_equal(reasons_set[reason], mask[at])


@pytest.mark.parametrize("case", ["graph33", "torus", "lift3", "curve"])
def test_node_set_angles_equal_the_angle_field(case):
    # With no angle field, identity_grid computes theta on just the nodes
    # its differences read; every node, listed in shuffled order, gets the
    # whole-grid H, residual and reasons bit for bit, and the angle kernel at
    # a node set equals angle_field's theta, q and degenerate there.
    from parakahler.lagrangian import angle_field, identity_grid, nodal_angles

    imm = _identity_case(case)
    field = angle_field(imm)
    H_grid, resid_grid, reasons = identity_grid(imm, field)
    assert not np.isnan(resid_grid).all()
    if case == "torus":
        assert field.degenerate.sum() == 128 and imm.margin_mask().all()
    nodes = np.random.default_rng(5).permutation(np.argwhere(np.ones(imm.shape, bool)))
    at = tuple(nodes.T)
    H_set, resid_set, reasons_set = identity_grid(imm, None, nodes)
    assert np.array_equal(H_set, H_grid[at], equal_nan=True)
    assert np.array_equal(resid_set, resid_grid[at], equal_nan=True)
    assert reasons_set.keys() == reasons.keys()
    for reason, mask in reasons.items():
        assert np.array_equal(reasons_set[reason], mask[at])
    theta, q, degenerate, valid = nodal_angles(imm, nodes)
    assert np.array_equal(theta, field.theta[at], equal_nan=True)
    assert np.array_equal(q, field.q[at])
    assert np.array_equal(degenerate, field.degenerate[at])
    assert np.array_equal(valid, field.computed[at])
    # no field and no node set: the kernel on every node's neighbourhood
    for got, want in zip(identity_grid(imm, None), (H_grid, resid_grid)):
        assert np.array_equal(got, want, equal_nan=True)


def test_trace_kernel_masks_degenerate_frames(rng):
    first = np.zeros((3, 2, 2, 2))
    first[0] = [basis_vector(2, 0), basis_vector(2, 1)]
    # null, mutually orthogonal tangents: g vanishes exactly
    first[1] = [basis_vector(2, 0) + basis_vector(2, 0, tau=True),
                basis_vector(2, 1) + basis_vector(2, 1, tau=True)]
    second = rng.normal(size=(3, 2, 2, 2, 2))
    second = second + np.swapaxes(second, 1, 2)
    mH, g_inv, degenerate = trace_mean_curvature(first, second)
    assert degenerate.tolist() == [False, True, True]
    assert np.all(np.isnan(mH[1:])) and np.all(np.isnan(g_inv[1:]))
    # flat tangent plane span{e1, e2}: the normal part is the tau components
    expect = np.zeros((2, 2))
    expect[:, 1] = second[0, 0, 0, :, 1] + second[0, 1, 1, :, 1]
    assert np.allclose(mH[0], expect, atol=1e-14)
    one, _, deg = trace_mean_curvature(first[0], second[0])
    assert not deg and np.allclose(one, mH[0], rtol=1e-13, atol=0)


def test_grid_jet_is_the_per_node_jet():
    # the whole-grid jet and the node-set jet equal the per-node stencil bit
    # for bit; margin nodes are valid == False, where the stencil raises
    from parakahler import equivariant

    lift3 = equivariant.lift(equivariant.explicit_circle(0.8, 12), 3, (7, 6))
    torus = equivariant.lift(equivariant.explicit_circle(1.3, 64), 2)
    for imm in (lift3, torus):
        jt, valid = grid_jet(imm)
        assert np.array_equal(valid, imm.margin_mask())
        nodes = np.argwhere(np.ones(imm.shape, bool))
        set_jt, set_valid = grid_jet(imm, nodes)
        tangents, tangents_valid = coordinate_tangents(imm, nodes)
        assert np.array_equal(set_valid, valid.ravel())
        assert np.array_equal(tangents_valid, set_valid)
        assert np.array_equal(tangents, set_jt.first)
        for k, node in enumerate(map(tuple, nodes)):
            if not valid[node]:
                with pytest.raises(OffStencil):
                    reference_jet(imm, node)
                continue
            ref = reference_jet(imm, node)
            for got in (jt.first[node], set_jt.first[k]):
                assert np.array_equal(got, ref.first)
            for got in (jt.second[node], set_jt.second[k]):
                assert np.array_equal(got, ref.second)
    assert not lift3.margin_mask().all() and torus.margin_mask().all()


@pytest.mark.parametrize("case", ["graph33", "torus"])
def test_induced_metric_is_the_jet_route(case):
    from parakahler import equivariant
    from parakahler.lagrangian import build_gradient_graph

    if case == "graph33":
        axes = (GridAxis(-0.5, 0.5, 33), GridAxis(-0.5, 0.5, 33))
        imm = build_gradient_graph(axes, u=lambda x1, x2: (
            0.31 * x1 ** 3 - 0.22 * x1 ** 2 * x2 + 0.25 * x2 ** 2))
    else:
        imm = equivariant.lift(equivariant.explicit_circle(1.3, 64), 2)
    tangents, valid = coordinate_tangents(imm)
    signatures = metric_signatures(tangents[valid])
    g, _, degenerate = induced_gram(tangents[valid])
    nodes = [tuple(nd) for nd in np.argwhere(valid)]
    assert len(signatures) == len(nodes)
    for k, (node, signature) in enumerate(zip(nodes, signatures)):
        ref_g, _, ref_degenerate = induced_gram(reference_jet(imm, node).first)
        ref_signature = () if ref_degenerate else tuple(
            sorted((1 if e > 0 else -1 for e in np.linalg.eigvalsh(ref_g)), reverse=True))
        assert np.array_equal(g[k], ref_g)
        assert degenerate[k] == ref_degenerate
        assert signature == ref_signature
    assert any(s == () for s in signatures) == (case == "torus")


# -- Nijenhuis ---------------------------------------------------------------

def _directional_per_node(jf, F, node, direction):
    """Directional derivative sum_k dir_k d_k F at a node by central
    differences, F a callable of the node."""
    out = np.zeros(jf.dim)
    for a, axis in enumerate(jf.axes):
        if direction[a] == 0.0:
            continue
        up, dn = (shifted_node(jf.axes, node, a, delta) for delta in (+1, -1))
        out += direction[a] * (F(up) - F(dn)) / (2 * axis.spacing)
    return out


def _bracket_per_node(jf, A, B, node):
    """Reference [A, B] at a node for fields given as callables of the node;
    OffStencil without a 1-cell stencil."""
    for a, axis in enumerate(jf.axes):
        if not axis.periodic and not (1 <= node[a] <= axis.count - 2):
            raise OffStencil(f"node {node} lacks a 1-cell stencil on axis {a}")
    return _directional_per_node(jf, B, node, A(node)) - _directional_per_node(jf, A, node, B(node))


def _nijenhuis_per_node(jf, X, Y, node):
    """Reference N^J(X, Y) at a node, one node at a time: the fields are
    callables of the node and J X looks J up at the node it is evaluated at."""
    JX, JY = ((lambda nd, F=F: jf.mats[nd] @ F(nd)) for F in (X, Y))
    J = jf.mats[node]
    return (_bracket_per_node(jf, X, Y, node) + _bracket_per_node(jf, JX, JY, node)
            - J @ _bracket_per_node(jf, JX, Y, node) - J @ _bracket_per_node(jf, X, JY, node))


def _mesh(axes):
    return np.meshgrid(*[a.nodes() for a in axes], indexing="ij")


def _plane_fields(axes):
    """Constant coordinate fields and a pair of non-constant ones."""
    x, y = _mesh(axes)
    return [([1.0, 0.0], [0.0, 1.0]),
            (np.stack([np.sin(x + 2 * y), x * y + 0.3], -1),
             np.stack([np.cos(x) * y, y ** 2 - x], -1))]


def _twist_fields(axes):
    """The decomposition check's fields: X1 = U1 + V1, X2 = U2 + V2 with U in
    span{du1, du2} and V in span{dv1, dv2 + v1 du1}; [(X1, X2), (U1, U2),
    (V1, V2)]."""
    p = [c[..., None] for c in _mesh(axes)]
    up, vm0 = np.eye(4)[:2], np.eye(4)[2]
    vm1 = p[2] * up[0] + np.eye(4)[3]
    U1 = np.sin(p[0] + 0.3 * p[3]) * up[0] + p[1] ** 2 * up[1]
    V1 = np.cos(p[2]) * vm0 + 0.4 * p[0] * p[3] * vm1
    U2 = (p[0] * p[2] + 0.1) * up[0] + np.sin(p[3]) * up[1]
    V2 = 0.7 * p[1] * vm0 + np.cos(p[0] + p[1]) * vm1
    return [(U1 + V1, U2 + V2), (U1, U2), (V1, V2)]


def _bracket_case(case):
    """(J-field, pairs of vector fields) of one structure."""
    from parakahler import verify

    plane = (GridAxis(-0.4, 0.4, 17), GridAxis(-0.4, 0.4, 17))
    if case == "constant":  # one periodic axis, so the stencil wraps
        axes = (GridAxis(0.0, 2 * math.pi, 12, periodic=True), GridAxis(-0.4, 0.4, 9))
        return jfield_from_function(axes, verify.standard_structure), _plane_fields(axes)
    if case == "paraholomorphic":
        fn = verify.pullback_structure(lambda x, y: verify._mat2(
            1.0 + 0.2 * x, 0.2 * y, 0.2 * y, 1.0 + 0.2 * x))
        return jfield_from_function(plane, fn), _plane_fields(plane)
    if case == "curved":
        fn = verify.pullback_structure(verify.curved_chart)
        return jfield_from_function(plane, fn), _plane_fields(plane)
    axes = tuple(GridAxis(-0.3, 0.3, 9) for _ in range(4))
    return jfield_from_function(axes, verify.twist_structure), _twist_fields(axes)


@pytest.mark.parametrize("case", ["constant", "paraholomorphic", "curved", "twist"])
def test_brackets_equal_the_per_node_reference(case):
    # N^J and [X, Y] of the whole grid and of a node set equal the per-node
    # reference bit for bit on every node with a 1-cell stencil; valid is
    # False exactly where the reference raises
    jf, pairs = _bracket_case(case)
    shape = jf.mats.shape[:-2]
    every = np.random.default_rng(5).permutation(np.argwhere(np.ones(shape, bool)))
    at = tuple(every.T)
    for X, Y in pairs:
        N, valid = nijenhuis(jf, X, Y)
        br, br_valid = lie_bracket(jf, X, Y)
        N_set, set_valid = nijenhuis(jf, X, Y, every)
        br_set, br_set_valid = lie_bracket(jf, X, Y, every)
        assert N.shape == br.shape == shape + (jf.dim,)
        assert N_set.shape == br_set.shape == (len(every), jf.dim)
        assert np.array_equal(N_set, N[at]) and np.array_equal(br_set, br[at])
        assert np.array_equal(br_valid, valid)
        assert np.array_equal(set_valid, valid[at]) and np.array_equal(br_set_valid, valid[at])
        sampled = [np.broadcast_to(np.asarray(F, dtype=float), shape + (jf.dim,))
                   for F in (X, Y)]
        Xn, Yn = ((lambda node, F=F: F[node]) for F in sampled)
        for node in map(tuple, np.argwhere(valid)):
            assert np.array_equal(N[node], _nijenhuis_per_node(jf, Xn, Yn, node))
            assert np.array_equal(br[node], _bracket_per_node(jf, Xn, Yn, node))
    for node in map(tuple, np.argwhere(~valid)):
        with pytest.raises(OffStencil):
            _bracket_per_node(jf, Xn, Yn, node)
    assert not valid.all() and valid.any()


def _sampled_fields(case, axes):
    """The function-backed twins of _bracket_case's non-constant pairs."""
    from parakahler import verify

    if case == "twist":
        u1, v1, u2, v2 = verify._twist_split_fields()
        pairs = [(lambda *x: u1(*x) + v1(*x), lambda *x: u2(*x) + v2(*x)), (u1, u2), (v1, v2)]
    else:
        pairs = [(lambda x, y: np.stack([np.sin(x + 2 * y), x * y + 0.3], -1),
                  lambda x, y: np.stack([np.cos(x) * y, y ** 2 - x], -1))]
    return [tuple(vector_field_from_function(axes, f) for f in pair) for pair in pairs]


@pytest.mark.parametrize("case", ["constant", "curved", "twist"])
def test_function_backed_vector_fields_equal_the_arrays(case):
    # lie_bracket and nijenhuis give the same bits on vector fields sampled
    # from their functions as on the arrays of their values (alone or mixed
    # with an array), at every node and at node sets; a node set samples a
    # field on the stars of its nodes only
    jf, pairs = _bracket_case(case)
    arrays = pairs if case == "twist" else pairs[1:]
    nodes = probe_nodes(jf.shape)
    for query in (lie_bracket, nijenhuis):
        for at in (None, nodes):
            sampled = _sampled_fields(case, jf.axes)
            for (X, Y), (Xf, Yf) in zip(arrays, sampled, strict=True):
                ref = query(jf, X, Y, at)
                for field in (Xf, Yf):
                    count_points(field)
                got = query(jf, Xf, Yf, at)
                if at is not None:
                    assert Xf.points == Yf.points == len(nodes) * (1 + 2 * jf.m)
                for result in (got, query(jf, Xf, Y, at)):
                    assert all(same_bits(r, g) for r, g in zip(ref, result, strict=True))


def test_vector_fields_on_other_axes_raise():
    jf, _ = _bracket_case("curved")
    axes = (GridAxis(-0.4, 0.4, 17), GridAxis(-0.4, 0.5, 17))
    other = vector_field_from_function(axes, lambda x, y: np.stack([x, y], -1))
    for query in (lie_bracket, nijenhuis):
        for nodes in (None, [(8, 8)]):
            with pytest.raises(ValueError, match="J-field's axes"):
                query(jf, other, [1.0, 0.0], nodes)
            with pytest.raises(ValueError, match="J-field's axes"):
                query(jf, [1.0, 0.0], other, nodes)


def test_nijenhuis_constant_structure():
    axes = (GridAxis(-0.4, 0.4, 9), GridAxis(-0.4, 0.4, 9))
    jf = jfield_from_function(axes, lambda x, y: np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert jf.mats.shape == (9, 9, 2, 2)
    N, valid = nijenhuis(jf, [1.0, 0.0], [0.0, 1.0])
    assert N.shape == (9, 9, 2)
    assert valid.sum() == 7 * 7 and not valid[0].any() and valid[1:-1, 1:-1].all()
    assert np.max(np.abs(N[valid])) < 1e-12


def test_nijenhuis_rejects_non_structure():
    axes = (GridAxis(-0.4, 0.4, 9), GridAxis(-0.4, 0.4, 9))
    jf = jfield_from_function(axes, lambda x, y: np.array([[1.0, 1.0], [0.0, 1.0]]))
    for nodes in (None, [(4, 4)]):
        with pytest.raises(NotParaComplexStructure):
            nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], nodes)
    with pytest.raises(ValueError):  # the node set is checked first
        nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], [(9, 4)])


def test_nijenhuis_checks_the_structure_where_it_reads_it():
    # J broken at one node: the whole grid and the node sets whose stencil
    # reaches that node raise, a node set away from it does not
    axes = (GridAxis(-0.4, 0.4, 9), GridAxis(-0.4, 0.4, 9))
    mats = np.broadcast_to(standard_structure(0.0, 0.0), (9, 9, 2, 2)).copy()
    mats[2, 2] = [[1.0, 1.0], [0.0, 1.0]]
    jf = JField(axes, mats)
    for nodes in (None, [(2, 2)], [(6, 6), (3, 2)], [(2, 1)]):
        with pytest.raises(NotParaComplexStructure):
            nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], nodes)
    N, valid = nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], [(6, 6), (3, 3)])
    assert valid.all() and np.max(np.abs(N)) < 1e-12


def test_bracket_node_sets_outside_the_grid_raise():
    jf, _ = _bracket_case("curved")
    for bad in ([(17, 4)], [(-1, 4)], [(4, 4, 4)], [(4.0, 4.0)]):
        with pytest.raises(ValueError):
            nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], bad)
        with pytest.raises(ValueError):
            lie_bracket(jf, [1.0, 0.0], [0.0, 1.0], bad)


def test_nijenhuis_twist_oracle():
    # J = +1 on span{du1, du2}, -1 on span{dv1, dv2 + v1 du1}; a hand
    # computation gives N(dv1, dv2) = 4 du1.
    def jfun(u1, u2, v1, v2):
        J = np.zeros(v1.shape + (4, 4))
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 2, 2] = J[..., 3, 3] = -1.0
        J[..., 0, 3] = -2.0 * v1
        return J

    axes = tuple(GridAxis(-0.3, 0.3, 5) for _ in range(4))
    jf = jfield_from_function(axes, jfun)
    N, valid = nijenhuis(jf, [0, 0, 1.0, 0], [0, 0, 0, 1.0], [(2, 2, 2, 2)])
    assert valid.tolist() == [True]
    assert np.allclose(N[0], [4.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_lie_bracket_coordinate_fields():
    axes = (GridAxis(-0.4, 0.4, 9), GridAxis(-0.4, 0.4, 9))
    jf = jfield_from_function(axes, lambda x, y: np.array([[0.0, 1.0], [1.0, 0.0]]))
    x, y = _mesh(axes)
    # [y dx, x dy] = y dy - x dx
    br, valid = lie_bracket(jf, np.stack([y, 0 * y], -1), np.stack([0 * x, x], -1))
    assert valid.sum() == 7 * 7
    assert np.allclose(br[valid], np.stack([-x, y], -1)[valid], atol=1e-12)


# -- Sampled grids -------------------------------------------------------------

def _torus_fn(t, p):
    """The circle torus gamma(t) (cos p, sin p) with gamma = (cos t, sin t),
    periodic in both coordinates."""
    gamma = np.stack([np.cos(t), np.sin(t)], -1)
    return np.stack([gamma * np.cos(p)[..., None], gamma * np.sin(p)[..., None]], -2)


def _sampled_immersion(case):
    """The function-backed immersion of one builder or composition."""
    from parakahler import catalog
    from parakahler.constructions import apply_J_immersion, rotate
    from parakahler.lagrangian import build_gradient_graph

    plane = (GridAxis(-0.5, 0.5, 11), GridAxis(-0.4, 0.6, 12))
    cube = (GridAxis(-0.5, 0.5, 7), GridAxis(-0.4, 0.6, 8), GridAxis(-0.3, 0.3, 7))
    grad2 = [lambda x1, x2: 0.3 * x1 ** 2 + 0.1 * x1 * x2, lambda x1, x2: 0.05 * x1 ** 2 - 0.2 * x2 ** 3]
    grad3 = [lambda x1, x2, x3: 0.3 * x1 ** 2 + 0.05 * x2 * x3,
             lambda x1, x2, x3: np.sin(x2) + 0.05 * x1 * x3,
             lambda x1, x2, x3: 0.1 * np.exp(x3) + 0.05 * x1 * x2]
    if case == "curve":
        return immersion_from_function((GridAxis(-1.0, 1.0, 15),), lambda s: d_exp_tau(s)[..., None, :])
    if case == "torus":
        return immersion_from_function((GridAxis(0.0, 2 * math.pi, 12, periodic=True),
                                        GridAxis(0.0, 2 * math.pi, 10, periodic=True)), _torus_fn)
    if case == "flat":
        return catalog.flat_immersion(3, cube)
    if case == "graph2":
        return build_gradient_graph(plane, grad=grad2)
    if case == "graph3":
        return build_gradient_graph(cube, grad=grad3)
    if case == "rotate":
        return rotate(build_gradient_graph(plane, grad=grad2), 0.3)
    if case == "J":
        return apply_J_immersion(build_gradient_graph(cube, grad=grad3))
    if case == "rotate-J":
        return rotate(apply_J_immersion(build_gradient_graph(plane, grad=grad2)), -0.2)
    # a composition over an array-backed base
    return rotate(build_gradient_graph(plane, u=lambda x1, x2: x1 ** 3 - x1 * x2 ** 2), 0.1)


@pytest.mark.parametrize("case", ["curve", "torus", "flat", "graph2", "graph3", "rotate",
                                  "J", "rotate-J", "rotate-array"])
def test_node_sets_of_sampled_immersions_equal_the_materialized_grid(case, node_sets_match_whole_grid):
    node_sets_match_whole_grid(lambda: _sampled_immersion(case))


def test_materialized_values_equal_the_eager_builders():
    # .values samples every node through the sampler; the eager builders
    # evaluated their functions on meshgrid coordinate arrays
    from parakahler import catalog
    from parakahler.constructions import apply_J_immersion, rotate
    from parakahler.lagrangian import build_gradient_graph

    axes = (GridAxis(-0.5, 0.5, 11), GridAxis(-0.4, 0.6, 12))
    x1, x2 = _mesh(axes)
    grad = [lambda x1, x2: np.sin(x1 + 0.3 * x2), lambda x1, x2: np.cosh(x2) * x1]
    graph = np.stack([np.stack([x1, grad[0](x1, x2)], -1), np.stack([x2, grad[1](x1, x2)], -1)], -2)
    rot = np.array([math.cosh(0.3), math.sinh(0.3)])
    flat = np.zeros(x1.shape + (3, 2))
    flat[..., 0, 0], flat[..., 1, 0] = x1, x2
    torus_axes = (GridAxis(0.0, 2 * math.pi, 12, periodic=True),) * 2
    for imm, ref in (
            (build_gradient_graph(axes, grad=grad), graph),
            (rotate(build_gradient_graph(axes, grad=grad), 0.3), d_mul(graph, rot)),
            (apply_J_immersion(build_gradient_graph(axes, grad=grad)), apply_J(graph)),
            (catalog.flat_immersion(3, axes), flat),
            (immersion_from_function(torus_axes, _torus_fn), _torus_fn(*_mesh(torus_axes)))):
        assert imm.values.tobytes() == ref.tobytes() and imm.values.shape == ref.shape


@pytest.mark.parametrize("case", ["constant", "paraholomorphic", "curved", "twist"])
def test_node_sets_of_sampled_jfields_equal_the_materialized_grid(
        case, jfield_node_sets_match_whole_grid):
    jf, pairs = _bracket_case(case)
    jfield_node_sets_match_whole_grid(jf, pairs)


def test_non_finite_samples_raise_where_they_are_read():
    from parakahler.lagrangian import build_gradient_graph

    axes = (GridAxis(-1.0, 1.0, 9), GridAxis(-1.0, 1.0, 9))  # node 4 is 0.0

    def fn(x1, x2):
        v = np.zeros(x1.shape + (2, 2))
        v[..., 0, 0], v[..., 1, 0] = x1, x2
        v[..., 1, 1] = np.where((x1 == 0.0) & (x2 == 0.0), np.nan, 0.0)
        return v

    pole = [lambda x1, x2: x1, lambda x1, x2: np.where(x1 == 0.0, np.inf, x2)]
    for imm in (immersion_from_function(axes, fn), build_gradient_graph(axes, grad=pole)):
        for query in (grid_jet, coordinate_tangents):
            with pytest.raises(ValueError, match="immersion values must be finite"):
                query(imm, [(2, 2), (5, 4)])
            query(imm, [(2, 2), (6, 6)])  # stencils clear of the non-finite node
        with pytest.raises(ValueError, match="immersion values must be finite"):
            imm.values
    with pytest.raises(ValueError, match="immersion values must be finite"):
        SampledImmersion(axes, fn(*_mesh(axes)))
