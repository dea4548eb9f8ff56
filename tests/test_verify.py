import itertools
import sys

import numpy as np

from parakahler import dlinalg, geometry, verify
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
    _spy(monkeypatch, geometry.signed_gram_schmidt, calls["signed_gram_schmidt"])
    for suite in POINT_QUERY_SUITES:
        assert all(check.passed for check in verify.run_suite(suite)), suite
    assert 0 < len(calls["det_D"]) <= 5526 // 5
    assert 0 < len(calls["grid_jet"]) <= 1915 // 5
    assert 0 < len(calls["signed_gram_schmidt"]) <= 6


def test_point_query_suites_take_no_whole_grid_tangents(monkeypatch):
    # Each residual of main-theorem and the lift check of equivariant-level
    # once built a whole-grid angle field to read a few nodes: 11 and 1
    # whole-grid coordinate_tangents calls.  Now every call takes a node set:
    # main-theorem 23 (11 stencils of angles, 12 jets), equivariant-level 7.
    calls = []
    _spy(monkeypatch, geometry.coordinate_tangents, calls)
    for suite in ("main-theorem", "equivariant-level"):
        assert all(check.passed for check in verify.run_suite(suite)), suite
    assert calls and all(len(args) == 2 and args[1] is not None for args in calls)


def test_gram_lemma_draws_stacked_frames_in_six_calls(monkeypatch):
    # The 3 x 1000 identity frames and the 3 x 200 Gram-Schmidt frames come
    # from one draw per stack; only the 300-change loop, whose integer draws
    # sit between its normals, draws one frame per call.
    calls = []
    _spy(monkeypatch, dlinalg.random_lagrangian_frames, calls)
    assert all(check.passed for check in verify.suite_gram_lemma())
    stacked = [count for _, count, _ in calls if count > 1]
    assert len(stacked) <= 6
    assert sum(stacked) == 3 * verify.GRAM_FRAMES + 3 * 200
    assert sum(count == 1 for _, count, _ in calls) == 300


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
    _spy(monkeypatch, geometry.jfield_from_function, calls)
    assert all(check.passed for check in verify.suite_nijenhuis())
    for structure in ("standard", "pullback", "twist"):
        assert main(["nijenhuis", "--structure", structure, "--count", "5",
                     "--refine", "2", "--out", str(tmp_path / f"{structure}.csv")]) == 0
    monkeypatch.undo()
    assert len(calls) == 7 + 2 * 3
    for axes, fn in calls:
        built = geometry.jfield_from_function(axes, fn).mats
        assert np.array_equal(built, _jfield_per_point(axes, fn))


def test_nijenhuis_decomposition_check_is_not_vacuous(monkeypatch):
    # the eigendistribution decomposition compares two sides of an identity
    # for N; on a structure where N = 0 both sides vanish exactly and a wrong
    # bracket would pass, so it runs where |N| > 1 (the twisted structure)
    found = []
    nijenhuis = geometry.nijenhuis

    def recorded(jf, X, Y, nodes=None):
        N, valid = nijenhuis(jf, X, Y, nodes)
        if np.ndim(X) > 1:
            found.append((N, valid))
        return N, valid

    monkeypatch.setattr(verify, "nijenhuis", recorded)
    checks = {check.name: check for check in verify.suite_nijenhuis()}
    assert checks["eigendistribution decomposition of N"].passed
    [(N, valid)] = found
    assert N.shape == (3, 4) and valid.all()
    assert np.all(np.max(np.abs(N), axis=1) > 1.0)
