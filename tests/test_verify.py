import itertools
import sys

import numpy as np
import pytest

from parakahler import dlinalg, frames, geometry, nodesets, structures, verify
from parakahler.cli import main

POINT_QUERY_SUITES = ("gram-lemma", "null-product", "constant-angle-graphs")


def _spy(monkeypatch, fn, calls):
    """Wrap every binding of fn in the toolkit's modules; each call appends
    its positional arguments to calls."""
    def spied(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "parakahler":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spied)


def test_point_query_suites_check_stacks(monkeypatch):
    # Before these suites checked frame and node stacks in one call each,
    # the same wrappers counted det_D 5526 (gram-lemma 5100,
    # constant-angle-graphs 426), jet 1915 (null-product 845,
    # constant-angle-graphs 1070) and signed_gram_schmidt 811 (gram-lemma
    # 600, constant-angle-graphs 211).  Now: det_D 21, grid_jet 8 and
    # signed_gram_schmidt 4 (one stack per n, one stack of nodes).  The
    # per-node jet is gone: every jet, of the whole grid or of a node set,
    # is one grid_jet call.  A fifth of the old det_D and jet counts leaves
    # room for a few more single queries, not for a per-item loop.
    calls = {"det_D": [], "grid_jet": [], "signed_gram_schmidt": []}
    _spy(monkeypatch, dlinalg.det_D, calls["det_D"])
    _spy(monkeypatch, geometry.grid_jet, calls["grid_jet"])
    _spy(monkeypatch, frames.signed_gram_schmidt, calls["signed_gram_schmidt"])
    for suite in POINT_QUERY_SUITES:
        assert all(check.passed for check in verify.run_suite(suite)), suite
    assert 0 < len(calls["det_D"]) <= 5526 // 5
    assert 0 < len(calls["grid_jet"]) <= 1915 // 5
    assert 0 < len(calls["signed_gram_schmidt"]) <= 6


def test_point_query_suites_take_no_whole_grid_tangents(monkeypatch):
    # Each residual of main-theorem and the lift check of equivariant-level
    # once built a whole-grid angle field to read a few nodes: 11 and 1
    # whole-grid coordinate_tangents calls.  Now every tangent comes from a
    # node set, and each suite samples its node sets in few stacks:
    # main-theorem 4 (its 11 residuals in one stack per m, and one jet),
    # equivariant-level 3 (one stencil of angles, and its 6 jets in one
    # stack per m).
    calls = {suite: [] for suite in ("main-theorem", "equivariant-level")}
    stacks = {suite: [] for suite in calls}
    for suite, suite_calls in calls.items():
        with monkeypatch.context() as patch:
            for fn in (geometry.coordinate_tangents, geometry.grid_jet):
                _spy(patch, fn, suite_calls)
            _spy(patch, nodesets.NodeStack, stacks[suite])
            assert all(check.passed for check in verify.run_suite(suite)), suite
    assert [len(c) for c in calls.values()] == [1, 1]
    assert all(len(args) == 2 and args[1] is not None for c in calls.values() for args in c)
    assert [len(c) for c in stacks.values()] == [4, 3]


@pytest.mark.parametrize("suite, groups", [
    ("main-theorem", 3), ("equivariant-level", 2), ("null-product", 1)])
def test_node_set_suites_run_one_kernel_pass_per_group(suite, groups, monkeypatch):
    # main-theorem's 11 residuals once took 11 passes of the kernels,
    # equivariant-level's 6 mean curvatures 6 and null-product's 3 three.
    # Now each (m, n) group of a suite's immersions is one stack: one
    # trace_mean_curvature pass, which every identity and curvature pass runs.
    passes = []
    _spy(monkeypatch, geometry.trace_mean_curvature, passes)
    assert all(check.passed for check in verify.run_suite(suite))
    assert len(passes) == groups


def test_gram_lemma_draws_stacked_frames_in_nine_calls(monkeypatch):
    # The 3 x 1000 identity frames and the 3 x 200 Gram-Schmidt frames come
    # from one draw per stack, and the frames of the 300 frame changes from
    # one draw per n, after the one integer draw of every change's n.
    calls, assembled = [], []
    _spy(monkeypatch, frames.random_lagrangian_frames, calls)
    _spy(monkeypatch, frames.lagrangian_frames, assembled)
    assert all(check.passed for check in verify.suite_gram_lemma())
    counts = [count for _, count, _ in calls]
    assert counts[:6] == [verify.GRAM_FRAMES] * 3 + [200] * 3
    assert [n for n, _, _ in calls[6:]] == [2, 3, 4] and sum(counts[6:]) == 300
    assert len(assembled) == 6 + 3
    assert sum(len(A) for A, _ in assembled) == 3 * verify.GRAM_FRAMES + 3 * 200 + 300


def _frame_changes_one_by_one(rng, count):
    """Reference: the frame changes in their stream layout, drawn one at a
    time: the integer draw of every n, then per n = 2, 3, 4 one-frame
    random_lagrangian_frames draws and then each change's candidates until
    |det A| >= 0.2 by LU, stacked per n."""
    ns = rng.integers(2, 5, size=count)
    changes = {}
    for n in (2, 3, 4):
        fr = [frames.random_lagrangian_frames(n, 1, rng)[0] for _ in range(np.sum(ns == n))]
        moved = []
        for f in fr:
            A = rng.normal(size=(n, n))
            while abs(np.linalg.det(A)) < 0.2:
                A = rng.normal(size=(n, n))
            moved.append(np.einsum("ij,jkc->ikc", A, f))
        changes[n] = tuple(np.array(s).reshape(len(s), n, n, 2) for s in (fr, moved))
    return changes


def _rejections(seed, count):
    """(frame candidates rejected at |det| < 0.1, change candidates rejected
    at |det| < 0.2) of count changes drawn from seed, replaying the stream
    one matrix at a time."""
    rng, rejected = np.random.default_rng(seed), [0, 0]
    ns = rng.integers(2, 5, size=count)
    for n in (2, 3, 4):
        for _ in range(np.sum(ns == n)):
            rng.normal(size=(n, n))  # S
            while abs(np.linalg.det(rng.normal(size=(n, n)))) < 0.1:
                rejected[0] += 1
        for _ in range(np.sum(ns == n)):
            while abs(np.linalg.det(rng.normal(size=(n, n)))) < 0.2:
                rejected[1] += 1
    return rejected


@pytest.mark.parametrize("seed, count, rejected", [
    (verify.GRAM_SEED, 300, [23, 51]),
    (8, 6, [1, 0]),
    (90, 6, [3, 0]),
    (7, 6, [0, 1]),
    (0, 6, [0, 3]),
    (3, 6, [0, 0]),
    (11, 6, [1, 1]),
], ids=["gram-seed", "reject-frame", "reject-frame-thrice", "reject-change",
        "reject-change-thrice", "no-rejection", "reject-both"])
def test_frame_changes_equal_the_one_by_one_draws(seed, count, rejected):
    # the frames and changes, and the generator state after them, are those
    # of the one-by-one loop bit for bit, with and without rejected candidates
    assert _rejections(seed, count) == rejected
    batched, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify._frame_changes(batched, count)
    ref = _frame_changes_one_by_one(one_by_one, count)
    assert got.keys() == ref.keys()
    for n in ref:
        for part, ref_part in zip(got[n], ref[n], strict=True):
            assert part.shape == ref_part.shape and part.tobytes() == ref_part.tobytes()
    assert batched.bit_generator.state == one_by_one.bit_generator.state
    assert batched.integers(2, 5) == one_by_one.integers(2, 5)
    assert batched.normal() == one_by_one.normal()


def test_det_pairs_in_one_draw_equal_pairs_drawn_one_by_one():
    one, per_pair = np.random.default_rng(11), np.random.default_rng(11)
    pairs = one.normal(size=(300, 2, 3, 3, 2))
    ref = np.array([(per_pair.normal(size=(3, 3, 2)), per_pair.normal(size=(3, 3, 2)))
                    for _ in range(300)])
    assert np.array_equal(pairs.view(np.uint64), ref.view(np.uint64))
    assert one.normal() == per_pair.normal()


def _jfield_per_point(axes, fn):
    """Reference: the J-field built one fn call per node, at the node's
    coordinates lo + spacing * i."""
    mats = np.empty(tuple(a.count for a in axes) + (len(axes),) * 2)
    for node in itertools.product(*[range(a.count) for a in axes]):
        mats[node] = fn(*[a.lo + a.spacing * i for a, i in zip(axes, node)])
    return mats


def test_jfields_match_the_per_node_reference(monkeypatch, tmp_path):
    # Every J-field the nijenhuis suite and command build, sampled on
    # coordinate arrays, equals the field built one node at a time.
    calls = []
    _spy(monkeypatch, structures.jfield_from_function, calls)
    assert all(check.passed for check in verify.suite_nijenhuis())
    for structure in ("standard", "pullback", "twist"):
        assert main(["nijenhuis", "--structure", structure, "--count", "5",
                     "--refine", "2", "--out", str(tmp_path / f"{structure}.csv")]) == 0
    monkeypatch.undo()
    assert len(calls) == 7 + 2 * 3
    for axes, fn in calls:
        built = structures.jfield_from_function(axes, fn).mats
        assert np.array_equal(built, _jfield_per_point(axes, fn))


def test_nijenhuis_decomposition_check_is_not_vacuous(monkeypatch):
    # the eigendistribution decomposition compares two sides of an identity
    # for N; on a structure where N = 0 both sides vanish exactly and a wrong
    # bracket would pass, so it runs where |N| > 1 (the twisted structure)
    found = []
    nijenhuis = structures.nijenhuis

    def recorded(jf, X, Y, nodes=None):
        N, valid = nijenhuis(jf, X, Y, nodes)
        if isinstance(X, geometry.SampledGrid):  # the function-backed fields
            found.append((N, valid, X, Y))
        return N, valid

    monkeypatch.setattr(verify, "nijenhuis", recorded)
    calls = []
    _spy(monkeypatch, structures.vector_field_from_function, calls)
    # the fields are sampled on the stencils read, the whole grid never
    monkeypatch.setattr(geometry.SampledGrid, "whole", lambda self: pytest.fail("materialized"))
    checks = {check.name: check for check in verify.suite_nijenhuis()}
    assert checks["eigendistribution decomposition of N"].passed
    [(N, valid, X, Y)] = found
    assert N.shape == (3, 4) and valid.all()
    assert np.all(np.max(np.abs(N), axis=1) > 1.0)
    assert len(calls) == 6 and X.axes == Y.axes == calls[0][0]
