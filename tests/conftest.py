import itertools

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "ci", max_examples=200, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def probe_nodes(shape, seed=0) -> np.ndarray:
    """Boundary, margin, periodic-wrap and interior nodes of a grid: its
    corners, the first and last four cells of each axis through the centre,
    the centre and eight random nodes."""
    centre = [c // 2 for c in shape]
    nodes = [list(c) for c in itertools.product(*[(0, c - 1) for c in shape])]
    for a, c in enumerate(shape):
        nodes += [centre[:a] + [i] + centre[a + 1:] for i in (0, 1, 2, 3, c - 4, c - 3, c - 2, c - 1)]
    nodes += np.random.default_rng(seed).integers(0, shape, size=(8, len(shape))).tolist()
    return np.array(nodes + [centre])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_frame_stacks(rng, count=40):
    """(one frame, a stack of count frames, the empty stack) for m, n in
    1..4: normal entries, each row scaled by e^u, u uniform in [-20, 20];
    the stack's first frame has signed zeros that make some terms -0.0."""
    for m, n in itertools.product(range(1, 5), repeat=2):
        stack = rng.normal(size=(count, m, n, 2)) * np.exp(rng.uniform(-20, 20, (count, m, 1, 1)))
        stack[0, ::2, :, 0], stack[0, :, :, 1] = -0.0, 0.0
        yield stack[1], stack, stack[:0]


def count_points(sampled):
    """Count the points sampled's sampler is asked for, in sampled.points."""
    sampler, sampled.points = sampled.sampler, 0

    def counted(idx):
        sampled.points += np.size(idx[0])
        return sampler(idx)

    sampled.sampler = counted


@pytest.fixture
def node_sets_match_whole_grid(monkeypatch):
    """check(build): on the function-backed immersion build() returns, the
    node-set grid_jet, grid_mean_curvature, nodal_angles and identity_grid
    at probe_nodes sample at most 3^m points per node they query and never
    materialize the grid; each equals, bit for bit, the whole-grid result on
    the array-backed immersion of the materialized values."""
    from parakahler import geometry
    from parakahler.lagrangian import angle_field, identity_grid, nodal_angles

    def check(build):
        imm = build()
        nodes = probe_nodes(imm.shape)
        k, at = len(nodes), tuple(nodes.T)
        count_points(imm)
        got = {}
        with monkeypatch.context() as patch:
            patch.setattr(geometry.SampledGrid, "whole", lambda self: pytest.fail("materialized"))
            for name, query, queried in (
                    ("jet", geometry.grid_jet, k),
                    ("mean_curvature", geometry.grid_mean_curvature, k),
                    ("angles", nodal_angles, k),
                    ("identity", lambda imm, nodes: identity_grid(imm, None, nodes),
                     k * (2 + 2 * imm.m))):  # its nodes and their 2m theta neighbours
                imm.points = 0
                got[name] = query(imm, nodes)
                assert 0 < imm.points <= queried * 3 ** imm.m, name
        ref = geometry.SampledImmersion(imm.axes, build().values)
        jt, valid = geometry.grid_jet(ref)
        set_jt, set_valid = got["jet"]
        wholes = ((jt.first, jt.second, ref.values, valid)
                  + geometry.grid_mean_curvature(ref)[1:] + nodal_angles(ref))
        parts = ((set_jt.first, set_jt.second, set_jt.value, set_valid)
                 + got["mean_curvature"][1:] + got["angles"])
        for whole, part in zip(wholes, parts, strict=True):
            assert same_bits(whole[at], part)
        H, residual, reasons = identity_grid(ref, angle_field(ref))
        set_H, set_residual, set_reasons = got["identity"]
        assert same_bits(H[at], set_H) and same_bits(residual[at], set_residual)
        assert all(same_bits(reasons[r][at], set_reasons[r]) for r in reasons)
        assert valid[at].any() and not np.isnan(set_residual).all()

    return check


@pytest.fixture
def jfield_node_sets_match_whole_grid(monkeypatch):
    """check(jf, pairs): on the function-backed J-field jf, lie_bracket and
    nijenhuis of each pair of vector fields at probe_nodes sample at most
    3^m matrices per node and never materialize the grid; each equals, bit
    for bit, the whole-grid result on the array-backed J-field of jf.mats."""
    from parakahler import structures

    def check(jf, pairs):
        nodes = probe_nodes(jf.shape)
        at = tuple(nodes.T)
        count_points(jf)
        got = []
        with monkeypatch.context() as patch:
            patch.setattr(structures.JField, "whole", lambda self: pytest.fail("materialized"))
            for X, Y in pairs:
                jf.points = 0
                got.append((structures.lie_bracket(jf, X, Y, nodes),
                            structures.nijenhuis(jf, X, Y, nodes)))
                assert 0 < jf.points <= len(nodes) * 3 ** jf.m
        ref = structures.JField(jf.axes, jf.mats)
        for (X, Y), sets in zip(pairs, got):
            for whole, part in zip((structures.lie_bracket(ref, X, Y),
                                    structures.nijenhuis(ref, X, Y)), sets):
                assert same_bits(whole[0][at], part[0]) and same_bits(whole[1][at], part[1])
                assert part[1].any() and not part[1].all()

    return check
