"""Named verification suites.

Each suite re-derives its expected values from an independent route (closed
forms, brute-force second routes, refinement ratios) and checks the library
against them at fixed tolerances.  The CLI exposes them as
``verify --suite <name>``; the acceptance tests run the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dcore, equivariant, solitons
from .dcore import d_exp_tau, d_grading2, d_mul, d_norm2, d_polar
from .constructions import (
    apply_J_immersion,
    build_null_product,
    build_paracomplex_graph,
    j_curve,
    plane_curve,
    rotate,
)
from .dlinalg import apply_J, det_D, require_lagrangian
from .errors import LagrangianViolation
from .frames import (
    basis_vector,
    d_matmul,
    det_at_least,
    gram_identity_check,
    lagrangian_angle_of_frame,
    metric,
    metric_signatures,
    omega,
    para_adapted_frame,
    random_lagrangian_frames,
    second_fundamental_form,
    signed_gram_schmidt,
)
from .geometry import (
    GridAxis,
    SampledImmersion,
    _with_mean_curvature,
    coordinate_tangents,
    grid_jet,
    grid_mean_curvature,
)
from .lagrangian import angle_field, build_gradient_graph, nodal_angles
from .nodesets import identity_at, mean_curvature_at
from .normalbundle import (
    catenoid_normal_bundle,
    circle_normal_bundle,
    flat_normal_bundle,
    is_austere,
    normal_bundle_angle,
)
from .solitons import SolitonParams
from .structures import (
    _mat2,
    curved_chart,
    jfield_from_function,
    lie_bracket,
    nijenhuis,
    pullback_structure,
    standard_structure,
    twist_structure,
    vector_field_from_function,
)

RICHARDSON_BAND = (3.5, 4.5)
ALGEBRA_TRIALS, ALGEBRA_SEED = 10_000, 7  # random values per algebra check
GRAM_FRAMES, GRAM_SEED = 1000, 11         # random frames per n, Gram identity
SOLITON_GRID = 10                         # r0 and alpha0 values, n = 2 drift grid


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _check(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _grading_norm(v) -> float:
    return float(np.sqrt(np.sum(d_grading2(v))))


def _lagrangian(tangents) -> bool:
    """The frames pass require_lagrangian."""
    try:
        require_lagrangian(tangents)
    except LagrangianViolation:
        return False
    return True


def _grouped(query, queries):
    """query (identity_at or mean_curvature_at) of the node-set queries
    [(imm, nodes), ...], one pass per grid dimension m (the suites'
    immersions of one m share n): the results in the order of queries."""
    groups = {}
    for i, (imm, _) in enumerate(queries):
        groups.setdefault(imm.m, []).append(i)
    out = [None] * len(queries)
    for rows in groups.values():
        for i, result in zip(rows, query([queries[i] for i in rows]), strict=True):
            out[i] = result
    return out


def _mean_curvatures(queries) -> list:
    """H = mH / m (k, n, 2) at each node-set query (imm, nodes), nan where
    has_H is False."""
    return [np.where(has_H[:, None, None], mH / imm.m, np.nan)
            for (imm, _), (_, mH, _, has_H) in zip(queries, _grouped(mean_curvature_at, queries))]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def suite_algebra():
    rng = np.random.default_rng(ALGEBRA_SEED)
    out = []

    # Parameter round-trip.  Doubles encode (x, y) = r(cosh, sinh) with a
    # relative resolution ~ e^{2 theta} eps on r, so theta is kept within
    # [-6, 6] for the 1e-10 claim; larger theta is covered by the value
    # round-trip below.
    p = rng.choice([-1, 1], ALGEBRA_TRIALS)
    q = rng.choice([0, 1], ALGEBRA_TRIALS)
    r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), ALGEBRA_TRIALS))
    theta = rng.uniform(-6.0, 6.0, ALGEBRA_TRIALS)
    vals = r[:, None] * d_exp_tau(theta)
    vals = np.where(q[:, None] == 1, vals[:, ::-1], vals)
    vals = p[:, None] * vals
    p2, q2, r2, t2, null = d_polar(vals)
    ok = (not null.any() and np.array_equal(p2, p) and np.array_equal(q2, q))
    err = max(float(np.max(np.abs(r2 - r) / r)), float(np.max(np.abs(t2 - theta))))
    out.append(_check("polar parameter round-trip",
                      ok and err < 1e-10, f"{ALGEBRA_TRIALS} cases, max err {err:.2e}"))

    # Over |theta| <= 20 the pair (x, y) = r(cosh, sinh) carries the causal
    # information only up to the conditioning eps*cosh(2 theta) of x^2 - y^2
    # (beyond |theta| ~ 18, x - y rounds to zero and the value IS a light
    # cone point in doubles).  The round-trip is exact up to the square of
    # that conditioning; values whose norm collapsed entirely are the ones
    # polar legitimately refuses.
    theta_big = rng.uniform(-20.0, 20.0, ALGEBRA_TRIALS)
    vals = r[:, None] * d_exp_tau(theta_big)
    p3, q3, r3, t3, null = d_polar(vals, tol=0.0)
    back = r3[:, None] * d_exp_tau(t3)
    back = np.where(q3[:, None] == 1, back[:, ::-1], back)
    back = p3[:, None] * back
    scale = np.sqrt(d_grading2(vals))
    errs = np.abs(back - vals) / scale[:, None]
    errs = np.maximum(errs[:, 0], errs[:, 1])  # an axis-1 max of two is a slow reduce
    cond = 2.3e-16 * np.cosh(2.0 * theta_big)
    bounded = np.all(errs[~null] <= 10.0 * cond[~null] ** 2 + 1e-12)
    null_ok = np.all(cond[null] > 0.4)
    out.append(_check("polar value round-trip (|theta| <= 20)",
                      bounded and null_ok,
                      f"{int(null.sum())} cone-collapsed values; errors within "
                      f"the cosh(2 theta) conditioning bound: {bounded}"))

    def rand_vals(k):
        pp = rng.choice([-1, 1], k)
        qq = rng.choice([0, 1], k)
        rr = np.exp(rng.uniform(np.log(0.1), np.log(10.0), k))
        tt = rng.uniform(-3.0, 3.0, k)
        v = rr[:, None] * d_exp_tau(tt)
        v = np.where(qq[:, None] == 1, v[:, ::-1], v)
        return pp[:, None] * v, pp, qq, rr, tt

    a, pa, qa, ra, ta = rand_vals(ALGEBRA_TRIALS)
    b, pb, qb, rb, tb = rand_vals(ALGEBRA_TRIALS)
    ab = d_mul(a, b)
    _, qab, rab, tab, null = d_polar(ab)
    add_err = float(np.max(np.abs(tab - (ta + tb))))
    q_ok = np.array_equal(qab, qa ^ qb)
    out.append(_check("argument additivity",
                      not null.any() and q_ok and add_err < 1e-10,
                      f"max theta err {add_err:.2e}, q = qa xor qb: {q_ok}"))

    lhs = d_norm2(ab)
    rhs = d_norm2(a) * d_norm2(b)
    mul_err = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))
    out.append(_check("norm multiplicativity", mul_err < 1e-10,
                      f"max relative err {mul_err:.2e}"))

    conj_err = float(np.max(np.abs(
        dcore.d_conj(ab) - d_mul(dcore.d_conj(a), dcore.d_conj(b)))))
    out.append(_check("conjugation is a ring involution", conj_err < 1e-12,
                      f"max err {conj_err:.2e}"))
    return out


# ---------------------------------------------------------------------------
# gram-lemma
# ---------------------------------------------------------------------------

def _frame_changes(rng, count):
    """count frame changes, each an n in {2, 3, 4}, a random Lagrangian frame
    of D^n and a real change A with |det A| >= 0.2: {n: (frames, A frames)},
    stacked per n.

    The stream holds one integer draw of the count n's, then for n = 2, 3, 4
    in turn the frames of that n (random_lagrangian_frames) and their
    changes, drawn in chunks of as many n x n matrices as changes are still
    missing until every change has passed.  A chunk never holds more passing
    matrices than are missing, so nothing is drawn past the last change:
    the stream and the generator state are those of one-by-one draws."""
    ns = rng.integers(2, 5, size=count)
    changes = {}
    for n in (2, 3, 4):
        frames = random_lagrangian_frames(n, int(np.count_nonzero(ns == n)), rng)
        picked = [np.empty((0, n, n))]
        while missing := len(frames) - sum(map(len, picked)):
            chunk = rng.normal(size=(missing, n, n))
            picked.append(chunk[det_at_least(chunk, 0.2)])
        changes[n] = frames, np.einsum("fij,fjkc->fikc", np.concatenate(picked), frames)
    return changes


def suite_gram_lemma():
    rng = np.random.default_rng(GRAM_SEED)
    out = []
    for n in (2, 3, 4):
        stack = random_lagrangian_frames(n, GRAM_FRAMES, rng)
        dg, sq = gram_identity_check(stack)
        worst = float(np.max(np.abs(dg - sq)
                             / np.maximum(np.maximum(np.abs(dg), np.abs(sq)), 1e-30)))
        out.append(_check(f"gram determinant identity n={n}", worst < 1e-10,
                          f"{GRAM_FRAMES} frames, worst rel err {worst:.2e}"))

    worst = 0.0
    for n in (2, 3, 4):
        stack = random_lagrangian_frames(n, 200, rng)
        sq = d_norm2(det_D(signed_gram_schmidt(stack).frame))
        worst = max(worst, float(np.max(np.abs(np.abs(sq) - 1.0))))
    out.append(_check("unit determinant of orthonormal Lagrangian frames",
                      worst < 1e-10, f"worst | |<det,det>| - 1 | = {worst:.2e}"))

    pairs = rng.normal(size=(300, 2, 3, 3, 2))  # A_0, B_0, A_1, ... as drawn one by one
    A, B = pairs[:, 0], pairs[:, 1]
    dAdB = d_mul(det_D(A), det_D(B))
    gap = det_D(d_matmul(A, B)) - dAdB
    worst = float(np.max(np.hypot(gap[..., 0], gap[..., 1])
                         / np.maximum(np.hypot(dAdB[..., 0], dAdB[..., 1]), 1e-30)))
    out.append(_check("det multiplicativity (3x3)", worst < 1e-10,
                      f"300 pairs, worst rel err {worst:.2e}"))

    # The changes read the stream as one-by-one draws would: the integer
    # draws for n, then per n the frames and their changes (_frame_changes).
    worst_q, worst_t = 0, 0.0
    for before, after in _frame_changes(rng, 300).values():
        if len(before):
            ang = lagrangian_angle_of_frame(before)
            ang2 = lagrangian_angle_of_frame(after)
            worst_q = max(worst_q, int(np.max(np.abs(ang.q - ang2.q))))
            worst_t = max(worst_t, float(np.max(np.abs(ang.theta - ang2.theta))))
    out.append(_check("frame-change invariance of (q, theta)",
                      worst_q == 0 and worst_t < 1e-8,
                      f"300 changes, worst dtheta {worst_t:.2e}"))

    n = 3
    errs = []
    for i in range(n):
        for j in range(n):
            errs.append(abs(omega(basis_vector(n, i), basis_vector(n, j, tau=True))
                            - (1.0 if i == j else 0.0)))
    out.append(_check("omega is the standard symplectic form", max(errs) < 1e-14,
                      f"max |omega(e_i, tau e_j) - delta_ij| = {max(errs):.2e}"))
    return out


# ---------------------------------------------------------------------------
# main-theorem
# ---------------------------------------------------------------------------

def _center(imm: SampledImmersion):
    return tuple((a.count // 2) if not a.periodic else (a.count // 4)
                 for a in imm.axes)


def _center_residuals(imms) -> list:
    """The identity residual at each immersion's center."""
    return [float(residual[0]) for _, residual, _ in
            _grouped(identity_at, [(imm, [_center(imm)]) for imm in imms])]


def _graph_pair(grad, n, count):
    axes = tuple(GridAxis(-0.5, 0.5, count) for _ in range(n))
    fine = tuple(GridAxis(-0.5, 0.5, 2 * count - 1) for _ in range(n))
    return (build_gradient_graph(axes, grad=grad),
            build_gradient_graph(fine, grad=grad))


def _lift_pair(curve_factory, n, s_count, t_counts):
    c1 = curve_factory(s_count)
    c2 = curve_factory(2 * s_count if c1.periodic else 2 * s_count - 1)
    fine_t = tuple(2 * t for t in t_counts)
    return (equivariant.lift(c1, n, t_counts),
            equivariant.lift(c2, n, fine_t))


def suite_main_theorem():
    out = []

    axes = tuple(GridAxis(-0.5, 0.5, 33) for _ in range(2))
    flat = build_gradient_graph(axes, grad=[lambda x1, x2: 0.0 * x1,
                                            lambda x1, x2: 0.0 * x1])
    cases = [
        ("gradient graph u = 0.1 x1^3 (curve)",
         _graph_pair([lambda x1: 0.3 * x1 ** 2], 1, 41)),
        ("gradient graph n=2, cubic potential",
         _graph_pair([lambda x1, x2: 0.3 * x1 ** 2 + 0.05 * x2 ** 2,
                      lambda x1, x2: 0.18 * x2 ** 2 + 0.1 * x1 * x2], 2, 33)),
        ("equivariant circle lift",
         _lift_pair(lambda c: equivariant.explicit_circle(1.0, c), 2, 64, (16,))),
        ("equivariant hyperbola lift",
         _lift_pair(lambda c: equivariant.profile_from_function(
             lambda s: d_exp_tau(s), -1.0, 1.0, c), 2, 41, (16,))),
    ]
    grad3 = [lambda x1, x2, x3: 0.3 * x1 ** 2 + 0.05 * x2 * x3,
             lambda x1, x2, x3: 0.18 * x2 ** 2 + 0.05 * x1 * x3,
             lambda x1, x2, x3: 0.1 * x3 ** 2 + 0.05 * x1 * x2]
    graphs3 = [build_gradient_graph(tuple(GridAxis(-0.5, 0.5, count) for _ in range(3)),
                                    grad=grad3) for count in (17, 33)]
    # every residual in one pass per (m, n) group, coarse and fine in turn
    res, *pairs = _center_residuals([flat, *(imm for _, pair in cases for imm in pair),
                                     *graphs3])
    out.append(_check("flat plane: residual at machine zero", res < 1e-12,
                      f"|mH - J grad beta| = {res:.2e}"))
    for (name, _), r1, r2 in zip(cases, pairs[0::2], pairs[1::2]):
        ratio = r1 / r2 if r2 > 0 else math.inf
        ok = RICHARDSON_BAND[0] <= ratio <= RICHARDSON_BAND[1]
        out.append(_check(f"{name}: Richardson ratio", ok,
                          f"res {r1:.2e} -> {r2:.2e}, ratio {ratio:.2f}"))

    imm, _ = _graph_pair([lambda x1, x2: 0.3 * x1 ** 2 + 0.05 * x2 ** 2,
                          lambda x1, x2: 0.18 * x2 ** 2 + 0.1 * x1 * x2], 2, 33)
    jt, _ = grid_jet(imm, [_center(imm)])
    h, gs = second_fundamental_form(jt.first[0], jt.second[0])
    worst = max(abs(metric(h[i, j], gs.frame[k]))
                for i in range(2) for j in range(2) for k in range(2))
    out.append(_check("second fundamental form is normal-valued",
                      worst < 1e-3, f"max <h(e_i,e_j), e_k> = {worst:.2e}"))

    res3 = pairs[-2:]
    ratio = res3[0] / res3[1]
    out.append(_check("gradient graph n=3: Richardson ratio",
                      RICHARDSON_BAND[0] <= ratio <= RICHARDSON_BAND[1],
                      f"res {res3[0]:.2e} -> {res3[1]:.2e}, ratio {ratio:.2f}"))
    return out


# ---------------------------------------------------------------------------
# constant-angle graphs
# ---------------------------------------------------------------------------

def suite_constant_angle_graphs():
    out = []
    count = 33
    axes = tuple(GridAxis(-0.5, 0.5, count) for _ in range(2))

    laplace = build_gradient_graph(axes, grad=[lambda x1, x2: 0.5 * x1,
                                               lambda x1, x2: -0.5 * x2])
    monge = build_gradient_graph(axes, grad=[lambda x1, x2: 2.0 * x1,
                                             lambda x1, x2: -0.5 * x2])
    control = build_gradient_graph(axes, grad=[lambda x1, x2: 3.0 * x1 ** 2,
                                               lambda x1, x2: 0.0 * x2])

    # each graph's one whole-grid jet gives its angle field and H, and the
    # tangents and H that the checks below read at single nodes
    stats, jets = {}, {}
    for name, imm in (("laplace", laplace), ("monge", monge), ("control", control)):
        jet = grid_jet(imm)
        f = angle_field(imm, jet)
        spread = float(np.nanmax(f.theta) - np.nanmin(f.theta))
        jt, mH, _, has_H = _with_mean_curvature(*jet)
        jets[name] = jt.first, np.where(has_H[..., None, None], mH / imm.m, np.nan)
        H = mH[has_H] / imm.m
        stats[name] = (spread, float(np.max(np.sqrt(np.sum(d_grading2(H), axis=-1)))), f)

    def signature(name, node):
        return metric_signatures(jets[name][0][node][None])[0]

    out.append(_check("harmonic branch: constant angle, definite metric",
                      stats["laplace"][0] < 1e-6
                      and signature("laplace", _center(laplace)) == (1, 1),
                      f"theta spread {stats['laplace'][0]:.2e}"))
    out.append(_check("harmonic branch: minimal", stats["laplace"][1] < 1e-10,
                      f"max |H| = {stats['laplace'][1]:.2e}"))
    out.append(_check("unit-det Hessian branch: constant angle, indefinite metric",
                      stats["monge"][0] < 1e-6
                      and signature("monge", _center(monge)) == (1, -1),
                      f"theta spread {stats['monge'][0]:.2e}"))
    out.append(_check("unit-det Hessian branch: minimal", stats["monge"][1] < 1e-10,
                      f"max |H| = {stats['monge'][1]:.2e}"))
    floor = 10.0 * max(stats["laplace"][1], stats["monge"][1])
    out.append(_check("cubic control is non-minimal",
                      stats["control"][1] > max(floor * 10, 1e-3),
                      f"max |H| = {stats['control'][1]:.2e} vs floor {floor:.2e}"))

    tangents, valid = jets["monge"][0], monge.margin_mask()
    sig_nodes = metric_signatures(tangents[valid])
    out.append(_check("signature stability across nodes",
                      all(s == sig_nodes[0] for s in sig_nodes),
                      f"{len(sig_nodes)} nodes, signature {sig_nodes[0]}"))

    node = _center(monge)
    f = stats["monge"][2]
    sampled = valid & (np.indices(monge.shape).sum(axis=0) % 4 == 0)
    first = tangents[sampled]
    ang_coord = lagrangian_angle_of_frame(first)
    ang_on = lagrangian_angle_of_frame(signed_gram_schmidt(first).frame)
    worst_q = int(np.max(np.abs(ang_coord.q - ang_on.q)))
    worst_t = float(np.max(np.abs(ang_coord.theta - ang_on.theta)))
    out.append(_check("frame independence of the angle",
                      worst_q == 0 and worst_t < 1e-8,
                      f"{len(first)} nodes, worst dtheta = {worst_t:.2e}"))

    ji = apply_J_immersion(control)
    nodes = [(4, 4), (8, 8), (12, 20), (20, 12)]
    at = tuple(np.transpose(nodes))
    (jt, mH, _, has_H), = mean_curvature_at([(ji, nodes)])
    s1, s2 = metric_signatures(jets["control"][0][at]), metric_signatures(jt.first)
    sig_ok = all(b == tuple(sorted((-x for x in a), reverse=True)) for a, b in zip(s1, s2))
    H1 = jets["control"][1][at]
    H2 = np.where(has_H[:, None, None], mH / ji.m, np.nan)
    flip_err = float(np.max(np.abs(H2 + apply_J(H1))))
    out.append(_check("J point map negates signature and curvature",
                      sig_ok and flip_err < 1e-10,
                      f"4 nodes, |H' + JH| = {flip_err:.2e}"))

    rot = rotate(monge, 0.1)
    theta_rot, q_rot, _, _ = nodal_angles(rot, [node])
    shift = theta_rot[0] - f.theta[node]
    out.append(_check("rotation shifts the angle by n phi0",
                      abs(shift - 2 * 0.1) < 1e-10 and q_rot[0] == f.q[node],
                      f"shift = {shift:.12f}"))
    return out


# ---------------------------------------------------------------------------
# para-complex graphs
# ---------------------------------------------------------------------------

def suite_paracomplex_minimal():
    out = []
    axes = (GridAxis(0.1, 0.7, 33), GridAxis(0.0, 0.45, 33))
    imm = build_paracomplex_graph(lambda z: d_mul(z, z), axes)
    jt, mH, _, has_H = grid_mean_curvature(imm)
    skipped = int(np.sum(imm.margin_mask() & ~has_H))
    worst = float(np.max(np.sqrt(np.sum(d_grading2(mH[has_H] / imm.m), axis=-1))))
    out.append(_check("square graph is minimal at non-degenerate nodes",
                      worst < 1e-10,
                      f"max |H| = {worst:.2e} ({skipped} degenerate nodes skipped)"))
    tangents = jt.first[_center(imm)][None]
    out.append(_check("square graph is not Lagrangian",
                      not _lagrangian(tangents),
                      "omega does not vanish on the tangent planes"))

    gs = para_adapted_frame(tangents[0])
    pair_err = float(np.max(np.abs(gs.frame[1] - apply_J(gs.frame[0]))))
    out.append(_check("tangent planes admit a para-adapted frame",
                      pair_err < 1e-12 and gs.signature[1] == -gs.signature[0],
                      f"|e2 - J e1| = {pair_err:.2e}"))
    return out


# ---------------------------------------------------------------------------
# null products
# ---------------------------------------------------------------------------

def _curved_null_pair():
    c1 = plane_curve(lambda s: 0.3 * s ** 2, lambda s: s)
    c2 = j_curve(plane_curve(lambda s: s, lambda s: 0.2 * s ** 3))
    return c1, c2


def suite_null_product():
    out = []
    c1, c2 = _curved_null_pair()

    def build(count):
        return build_null_product(c1, c2, GridAxis(-1.0, 1.0, count),
                                  GridAxis(-1.0, 1.0, count))

    imm, fine = build(33), build(65)
    tangents, valid = coordinate_tangents(imm)
    lag_ok = _lagrangian(tangents[valid])
    sig = metric_signatures(tangents[_center(imm)][None])[0]
    out.append(_check("curved null product is Lagrangian", lag_ok, "all interior nodes"))
    out.append(_check("curved null product metric is indefinite", sig == (1, -1),
                      f"signature {sig}"))
    # The discretization preserves the structure exactly: finite-difference
    # errors of the factor curves stay inside the totally null planes, and
    # the mixed derivative of a separated map vanishes identically, so H is
    # zero to rounding rather than merely O(h^2).
    flat = build_null_product(
        plane_curve(lambda s: 0.0 * s, lambda s: s),
        j_curve(plane_curve(lambda s: s, lambda s: 0.0 * s)),
        GridAxis(-1.0, 1.0, 17), GridAxis(-1.0, 1.0, 17))
    h1, h2, hflat = map(_grading_norm, _mean_curvatures(
        [(p, [_center(p)]) for p in (imm, fine, flat)]))
    ratio = h1 / h2 if h2 > 0 else math.inf
    ok = (h1 < 1e-12 and h2 < 1e-12) or (RICHARDSON_BAND[0] <= ratio <= RICHARDSON_BAND[1])
    out.append(_check("curved null product is minimal to O(h^2)", ok,
                      f"|H| {h1:.2e} -> {h2:.2e}"))
    out.append(_check("planar null product is exactly flat", hflat < 1e-12,
                      f"|H| = {hflat:.2e}"))
    return out


# ---------------------------------------------------------------------------
# equivariant level families
# ---------------------------------------------------------------------------

def suite_equivariant_level():
    out = []

    members = [
        (2, "re", equivariant.level_curve(2, 1.3, "re", -2.0, 2.0, 401)),
        (2, "im", equivariant.level_curve(2, 0.8, "im", 0.2, 2.2, 401)),
        (3, "re", equivariant.level_curve(3, 1.0, "re", -1.5, 1.5, 401)),
        (3, "im", equivariant.level_curve(3, 1.0, "im", 0.15, 1.5, 401)),
    ]
    worst = max(equivariant.level_residual(c, n, w, {"re": 1.3, "im": 0.8}[w]
                                           if n == 2 else 1.0)
                for n, w, c in members)
    out.append(_check("level membership of polar closed forms", worst < 1e-10,
                      f"worst |Re/Im gamma^n - C| = {worst:.2e}"))

    crossings = [
        ("circle", equivariant.explicit_circle(1.0, 64), 4),
        ("hyperbola branch", equivariant.explicit_hyperbola(1.0, 0.2, 3.0, 301), 1),
        ("cubic level", equivariant.explicit_cubic_level(1.0, -2.5, 2.5, 401), 2),
    ]
    for name, curve, expect in crossings:
        got = equivariant.lightcone_crossings(curve).count
        out.append(_check(f"light-cone crossings of the {name}", got == expect,
                          f"{got} (expected {expect})"))

    worst = 0.0
    for n, w, c in members:
        dense = equivariant.profile_from_function(c.fn, float(c.s[0]),
                                                  float(c.s[-1]), 20001)
        vol = equivariant.equivariant_volume(dense, n)
        _, _, _, theta, null = d_polar(vol)
        worst = max(worst, float(np.max(np.abs(theta[~null]))))
    out.append(_check("constant angle of level families", worst < 1e-6,
                      f"max |theta| over four members = {worst:.2e}"))

    lifted = equivariant.lift(members[0][2], 2, (16,))
    fvol = equivariant.equivariant_volume(members[0][2], 2)
    _, qv, _, tv, _ = d_polar(fvol)
    i = 200
    (theta,), (q,), _, _ = nodal_angles(lifted, [(i, 4)])
    agree = (q == qv[i]) and abs(theta - tv[i]) < 5e-4
    out.append(_check("lift angle field agrees with the profile volume", agree,
                      f"dtheta = {abs(theta - tv[i]):.2e}"))

    queries = []
    for _, _, c in members[:2]:
        fine_curve = equivariant.profile_from_function(
            c.fn, float(c.s[0]), float(c.s[-1]), 2 * c.s.size - 1)
        queries += [(equivariant.lift(c, 2, (16,)), [(100, 4)]),
                    (equivariant.lift(fine_curve, 2, (32,)), [(200, 8)])]
    for scount, ac, bc in ((101, 9, 16), (201, 18, 32)):
        c3 = equivariant.level_curve(3, 1.0, "re", -1.0, 1.0, scount)
        queries.append((equivariant.lift(c3, 3, (ac, bc)), [(scount // 2, ac // 2, bc // 4)]))
    h = [_grading_norm(H) for H in _mean_curvatures(queries)]
    for (_, w, _), h1, h2 in zip(members[:2], h[0:4:2], h[1:4:2]):
        ratio = h1 / h2 if h2 > 0 else math.inf
        out.append(_check(f"{w}-level lift is minimal to O(h^2)",
                          RICHARDSON_BAND[0] <= ratio <= RICHARDSON_BAND[1],
                          f"|H| {h1:.2e} -> {h2:.2e}, ratio {ratio:.2f}"))

    h3 = h[4:]
    ratio = h3[0] / h3[1]
    out.append(_check("n=3 level lift is minimal to O(h^2)",
                      3.0 <= ratio <= 5.0,
                      f"|H| {h3[0]:.2e} -> {h3[1]:.2e}, ratio {ratio:.2f}"))

    c2, c3 = members[0][2], members[2][2]
    t2 = equivariant.tau_multiply(c2)
    t3 = equivariant.tau_multiply(c3)
    even_kept = equivariant.level_residual(t2, 2, "re", 1.3) < 1e-10
    odd_swapped = equivariant.level_residual(t3, 3, "im", 1.0) < 1e-10
    odd_not_kept = equivariant.level_residual(t3, 3, "re", 1.0) > 1e-3
    out.append(_check("tau symmetry: even n preserves, odd n exchanges families",
                      even_kept and odd_swapped and odd_not_kept,
                      "checked n = 2 (re kept) and n = 3 (re -> im)"))

    for n in (2, 3):
        C = 1.0
        c = equivariant.level_curve(n, C, "re", -12.0, 12.0, 2001)
        lim = (2 * C) ** (1.0 / n) / 2.0
        err = max(_grading_norm(c.gamma[-1] - np.array([lim, lim])),
                  _grading_norm(c.gamma[0] - np.array([lim, -lim])))
        out.append(_check(f"cosh-branch endpoints reach the light cone (n={n})",
                          err < 1e-4, f"distance at phi = +-12: {err:.2e}"))
    return out


# ---------------------------------------------------------------------------
# normal bundles
# ---------------------------------------------------------------------------

def suite_normal_bundle():
    out = []
    cat = catenoid_normal_bundle(1.0, 9)
    node = (4, 4)
    austere = bool(is_austere(cat)[node])
    thetas = normal_bundle_angle(cat, np.linspace(0.0, 0.4, 21)).theta[node]
    var = float(thetas.max() - thetas.min())
    out.append(_check("catenoid is austere with t-independent angle",
                      austere and var < 1e-8,
                      f"austere={austere}, theta variation {var:.2e}"))

    circ = circle_normal_bundle(2.0, 32)
    node = (5,)
    austere = bool(is_austere(circ)[node])
    R = 2.0
    ts = np.linspace(0.0, R / 2.0, 21)
    thetas = normal_bundle_angle(circ, ts).theta[node]
    exact = np.arctanh(-ts / R)
    err = float(np.max(np.abs(thetas - exact)))
    var = float(thetas.max() - thetas.min())
    out.append(_check("circle is not austere; angle varies like artanh(-t/R)",
                      (not austere) and var > 1e-3 and err < 1e-12,
                      f"variation {var:.2e}, closed-form err {err:.2e}"))

    for p, n in ((1, 2), (2, 3), (2, 4)):
        spec = flat_normal_bundle(p, n)
        node = (2,) * p
        ang = normal_bundle_angle(spec, [0.0, 0.3, 0.9])
        ok = bool(np.all(ang.q[node] == (n - p) % 2) and np.all(ang.theta[node] == 0.0))
        out.append(_check(f"flat R^{p} in R^{n}: q = (n-p) mod 2, theta = 0",
                          ok and is_austere(spec)[node], "all t"))
    return out


# ---------------------------------------------------------------------------
# soliton ODE
# ---------------------------------------------------------------------------

def suite_soliton_ode():
    out = []

    graph_rs = np.linspace(0.5, 2.3, SOLITON_GRID)
    graph_as = np.linspace(-0.8, 0.8, SOLITON_GRID)
    worst = 0.0
    count = 0
    for case in ("definite", "lorentzian"):
        for lp in (-1.0, 0.0, 1.0):
            starts = [(r0, a0, 0.0) for r0 in graph_rs for a0 in graph_as]
            for tr in solitons.integrate_many(SolitonParams(2, lp, case), starts, 1,
                                              10.0, rtol=1e-12):
                worst = max(worst, tr.max_E_drift)
                count += 1
    out.append(_check("energy conservation on the trajectory grid (n=2)",
                      worst < 1e-8, f"{count} runs, max relative drift {worst:.2e}"))

    worst3 = 0.0
    for case in ("definite", "lorentzian"):
        for lp in (-1.0, 0.0, 1.0):
            starts = [(r0, a0, 0.0) for r0 in np.linspace(0.6, 2.0, 3)
                      for a0 in np.linspace(-0.7, 0.7, 3)]
            for tr in solitons.integrate_many(SolitonParams(3, lp, case), starts, 1,
                                              10.0, rtol=1e-12):
                worst3 = max(worst3, tr.max_E_drift)
    out.append(_check("energy conservation, n = 3 sample grid", worst3 < 1e-8,
                      f"max relative drift {worst3:.2e}"))

    params = SolitonParams(2, 2.0, "lorentzian")
    cp = solitons.critical_point(params)
    tr_cp, = solitons.integrate_many(params, [cp.as_array()], 1, 10.0)
    drift = max(float(np.max(np.abs(tr_cp.r - cp.r))), float(np.max(np.abs(tr_cp.alpha))))
    out.append(_check("critical point is stationary", drift < 1e-12,
                      f"max |(r, alpha) - (r0, 0)| = {drift:.2e}"))

    p0 = SolitonParams(2, 0.0, "lorentzian")
    a0 = 0.4
    tr0, = solitons.integrate_bidirectional_many(p0, [(1.0, a0, -a0 / 2)], 5.0,
                                                 rtol=1e-12)
    pr0 = solitons.reconstruct_profile(tr0, 301, s_lo=float(tr0.s[0]) + 1e-3,
                                       s_hi=float(tr0.s[-1]) - 1e-3)
    err_re = equivariant.level_residual(pr0, 2, "re", tr0.E0)
    pd0 = SolitonParams(2, 0.0, "definite")
    trd, = solitons.integrate_many(pd0, [(1.0, a0, -a0 / 2)], 1, 3.0, rtol=1e-12)
    prd = solitons.reconstruct_profile(trd, 301, s_lo=0.01, s_hi=2.9)
    err_im = equivariant.level_residual(prd, 2, "im", -trd.E0)
    out.append(_check("minimal (l'=0) trajectories trace the level families",
                      max(err_re, err_im) < 1e-6,
                      f"|Re g^2 - E| = {err_re:.2e}, |Im g^2 + E| = {err_im:.2e}"))

    pl = SolitonParams(2, 1.0, "lorentzian")
    h1 = solitons.hyperbola_solution(pl, "spacelike", -0.8, 0.8, 161)
    h2 = solitons.hyperbola_solution(pl, "spacelike", -0.8, 0.8, 321)
    _, r1 = solitons.ambient_residual(h1, 2, +1.0, (16,))
    _, r2 = solitons.ambient_residual(h2, 2, +1.0, (32,))
    ratio = r1.max() / r2.max()
    _, r_wrong = solitons.ambient_residual(h1, 2, -1.0, (16,))
    out.append(_check("spacelike hyperbola solves the shrinker equation to O(h^2)",
                      RICHARDSON_BAND[0] <= ratio <= RICHARDSON_BAND[1]
                      and r_wrong.max() > 1.0,
                      f"residual ratio {ratio:.2f}; wrong sign residual {r_wrong.max():.2f}"))
    ht = solitons.hyperbola_solution(pl, "timelike", -0.8, 0.8, 161)
    _, rt = solitons.ambient_residual(ht, 2, -1.0, (16,))
    out.append(_check("timelike hyperbola solves the expander equation",
                      rt.max() < 0.05, f"max residual {rt.max():.2e}"))

    circ = equivariant.explicit_circle(1.0, 128)
    _, rz = solitons.ambient_residual(circ, 2, 0.0)
    _, rnz = solitons.ambient_residual(circ, 2, 1.0)
    out.append(_check("minimal torus profile solves lambda = 0 only",
                      rz.max() < 0.05 and rnz.max() > 0.5,
                      f"lambda=0: {rz.max():.2e}, lambda=1: {rnz.max():.2f}"))

    imm = equivariant.lift(h1, 2, (16,))
    comps = solitons.normal_component_residuals(imm, [(80, 4)], 1.0)[0]
    circ_lift = equivariant.lift(equivariant.explicit_circle(1.0, 128), 2, (16,))
    comps_bad = solitons.normal_component_residuals(circ_lift, [(3, 4)], 1.0)[0]
    out.append(_check("reduction to a scalar equation",
                      abs(comps[1]) < 1e-3 and abs(comps_bad[1]) < 1e-3
                      and abs(comps_bad[0]) > 0.1,
                      f"sphere components {comps[1]:.2e}, {comps_bad[1]:.2e}; "
                      f"profile component of the wrong equation {comps_bad[0]:.2f}"))

    pd = SolitonParams(2, 0.0, "definite")
    trq, = solitons.integrate_many(pd, [(1.0, 0.8813735870195429, 0.0)], 1, 4.0,
                                   rtol=1e-12)
    i = len(trq.s) // 2
    dq = solitons.phi_quadrature(trq.r[3], trq.r[i], trq.E0, pd)
    err_def = abs(dq - (trq.phi[i] - trq.phi[3]))
    trl, = solitons.integrate_bidirectional_many(pl, [(0.5, 0.0, 0.0)], 10.0,
                                                 rtol=1e-12)
    rt_turn = solitons.turning_radius(trl.E0, pl, "below")
    sA, sB = 0.6 * float(trl.s[0]), 0.6 * float(trl.s[-1])
    stA, stB = trl.sample(sA)[0], trl.sample(sB)[0]
    dq2 = (solitons.phi_quadrature(stA[0], rt_turn, trl.E0, pl)
           + solitons.phi_quadrature(rt_turn, stB[0], trl.E0, pl))
    err_lor = abs(dq2 - (stB[2] - stA[2]))
    out.append(_check("phi quadrature matches trajectories",
                      max(err_def, err_lor) < 1e-6,
                      f"definite err {err_def:.2e}, lorentzian (turning) err {err_lor:.2e}"))

    q_small = solitons.phi_quadrature(1e-4, 1e-3, 1.0, pd)
    out.append(_check("phi ~ log r near the origin",
                      abs(q_small - math.log(10.0)) < 1e-6,
                      f"phi(1e-3) - phi(1e-4) = {q_small:.9f}"))

    pd_pos = SolitonParams(2, 1.0, "definite")
    per_decade = solitons.phi_quadrature(1e3, 2e3, 1.0, pd_pos) / math.log(2.0)
    pd_neg = SolitonParams(2, -1.0, "definite")
    conv = solitons.phi_quadrature(1e3, 2e3, 1.0, pd_neg)
    conv0 = solitons.phi_quadrature(1e3, 2e3, 1.0, pd)
    out.append(_check("large-r asymptotics of phi",
                      abs(per_decade - 1.0) < 1e-3 and conv < 1e-3 and conv0 < 1e-3,
                      f"l'>0 slope {per_decade:.6f}; l'<=0 increments {conv:.1e}, {conv0:.1e}"))

    tr, = solitons.integrate_many(pl, [(1.2, 0.3, 0.1)], 1, 1.5, rtol=1e-12)
    prof = solitons.reconstruct_profile(tr, 1001, q=0, s_lo=0.05, s_hi=1.4)
    dg = prof.derivative_samples()
    st = tr.sample(prof.s)
    theta = st[:, 1] + st[:, 2]
    expected = np.stack([np.sinh(theta), np.cosh(theta)], -1)
    rec_err = float(np.max(np.abs(dg - expected)))
    unit_err = float(np.max(np.abs(d_norm2(dg) + 1.0)))
    out.append(_check("reconstruction: gammadot = tau e^(tau theta), unit speed",
                      rec_err < 1e-6 and unit_err < 1e-6,
                      f"direction err {rec_err:.2e}, speed err {unit_err:.2e}"))

    e_sub = solitons.energy_threshold(SolitonParams(3, 1.5, "lorentzian"))
    expected_sub = (3 / 1.5) ** 1.5 * math.exp(-1.5)
    printed_variant = (3 / 1.5) ** 1.5 * math.exp(-4.5)
    out.append(_check("threshold energy is the critical first-integral value",
                      abs(e_sub - expected_sub) < 1e-14 * expected_sub
                      and abs(e_sub - printed_variant) > 0.5 * e_sub,
                      f"(n/l')^(n/2) e^(-n/2) = {expected_sub:.6f}; "
                      f"the e^(-n^2/2) variant ({printed_variant:.6f}) is not the "
                      f"conserved value"))

    # the critical point and the subcritical inner orbit are integrated above
    trajs = [tr_cp, trl]
    trajs += solitons.integrate_bidirectional_many(pl, [(2.5, 0.0, 0.0), (2.0, 1.2, 0.0)],
                                                   8.0, rtol=1e-12)
    trajs += solitons.integrate_bidirectional_many(p0, [(1.0, 0.4, 0.0)], 8.0, rtol=1e-12)
    trajs += solitons.integrate_many(SolitonParams(2, 1.0, "definite"), [(1.0, 0.2, 0.0)],
                                     1, 5.0)
    tags = {solitons.classify(tr) for tr in trajs}
    sym_err = abs(trl.sample(0.3)[0, 1] + trl.sample(-0.3)[0, 1])
    expected_tags = {"critical_point", "subcritical_inner", "subcritical_outer",
                     "supercritical", "nonpositive_lambda", "definite_expanding"}
    out.append(_check("phase-portrait classification covers all six classes",
                      tags == expected_tags and sym_err < 1e-9,
                      f"tags {sorted(tags)}; alpha symmetry err {sym_err:.1e}"))
    return out


# ---------------------------------------------------------------------------
# Nijenhuis / integrability
# ---------------------------------------------------------------------------

def _twist_split_fields():
    """The decomposition check's vector fields on the twisted structure, as
    functions of the coordinates (u1, u2, v1, v2): U1, V1, U2, V2 with U in
    span{du1, du2} and V in span{dv1, dv2 + v1 du1}."""
    e = np.eye(4)

    def field(f):
        return lambda *x: f([c[..., None] for c in x])

    def vm1(p):
        return p[2] * e[0] + e[3]

    return (field(lambda p: np.sin(p[0] + 0.3 * p[3]) * e[0] + p[1] ** 2 * e[1]),
            field(lambda p: np.cos(p[2]) * e[2] + 0.4 * p[0] * p[3] * vm1(p)),
            field(lambda p: (p[0] * p[2] + 0.1) * e[0] + np.sin(p[3]) * e[1]),
            field(lambda p: 0.7 * p[1] * e[2] + np.cos(p[0] + p[1]) * vm1(p)))


def suite_nijenhuis():
    out = []

    axes2 = (GridAxis(-0.4, 0.4, 17), GridAxis(-0.4, 0.4, 17))

    const = jfield_from_function(axes2, standard_structure)
    N, _ = nijenhuis(const, [1.0, 0.0], [0.0, 1.0], [(8, 8)])
    out.append(_check("constant standard structure is integrable",
                      float(np.max(np.abs(N))) < 1e-12,
                      f"|N| = {float(np.max(np.abs(N))):.2e}"))

    # Pullback by a para-holomorphic map: the differential is D-linear and
    # commutes with J, so the pulled-back structure is the constant one.
    def dphi(x, y):
        return _mat2(1.0 + 0.2 * x, 0.2 * y, 0.2 * y, 1.0 + 0.2 * x)

    jf = jfield_from_function(axes2, pullback_structure(dphi))
    N, _ = nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], [(8, 8)])
    out.append(_check("pullback by a para-holomorphic chart is integrable",
                      float(np.max(np.abs(N))) < 1e-10,
                      f"|N| = {float(np.max(np.abs(N))):.2e}"))

    # A single non-para-holomorphic chart still defines an integrable
    # structure (one chart, no transition conditions); N vanishes at O(h^2).
    def n_norm(count, node):
        axes = (GridAxis(-0.4, 0.4, count), GridAxis(-0.4, 0.4, count))
        jf = jfield_from_function(axes, pullback_structure(curved_chart))
        return float(np.max(np.abs(nijenhuis(jf, [1.0, 0.0], [0.0, 1.0], [node])[0])))

    n1, n2 = n_norm(17, (9, 9)), n_norm(33, (18, 18))
    ratio = n1 / n2 if n2 > 0 else math.inf
    out.append(_check("curved integrable pullback: N -> 0 at O(h^2)",
                      3.0 <= ratio <= 5.0,
                      f"|N| {n1:.2e} -> {n2:.2e}, ratio {ratio:.2f}"))

    def twist_norm(count):
        axes4 = tuple(GridAxis(-0.3, 0.3, count) for _ in range(4))
        jf4 = jfield_from_function(axes4, twist_structure)
        N, _ = nijenhuis(jf4, [0, 0, 1.0, 0], [0, 0, 0, 1.0], [(count // 2,) * 4])
        return N[0]

    N1, N2 = twist_norm(5), twist_norm(9)
    oracle = np.array([4.0, 0.0, 0.0, 0.0])
    err = float(np.max(np.abs(N1 - oracle)))
    bounded = min(float(np.max(np.abs(N1))), float(np.max(np.abs(N2)))) > 1.0
    out.append(_check("twisted eigendistribution is obstructed (N = 4 du1)",
                      err < 1e-9 and bounded,
                      f"N = {N1.round(12).tolist()}, bounded below under refinement"))

    # Decomposition identity on the twisted structure, where N does not
    # vanish: split the fields along the eigendistributions, U in
    # span{du1, du2} (+1) and V in span{dv1, dv2 + v1 du1} (-1), and compare
    # the definition with 2([U1,U2] - J[U1,U2] + [V1,V2] + J[V1,V2]) at
    # three nodes.  The fields are sampled on the stencils read, 27 points.
    axes4 = tuple(GridAxis(-0.3, 0.3, 9) for _ in range(4))
    jf4 = jfield_from_function(axes4, twist_structure)
    u1, v1, u2, v2 = _twist_split_fields()
    U1, V1, U2, V2 = (vector_field_from_function(axes4, f) for f in (u1, v1, u2, v2))
    X1, X2 = (vector_field_from_function(axes4, lambda *x, u=u, v=v: u(*x) + v(*x))
              for u, v in ((u1, v1), (u2, v2)))

    nodes = [(4, 4, 4, 4), (3, 5, 2, 6), (6, 2, 5, 3)]
    lhs, _ = nijenhuis(jf4, X1, X2, nodes)
    J = jf4.sample(tuple(np.transpose(nodes)))
    bUU, bVV = (lie_bracket(jf4, A, B, nodes)[0][..., None] for A, B in ((U1, U2), (V1, V2)))
    rhs = 2.0 * (bUU - J @ bUU + bVV + J @ bVV)[..., 0]
    diff = float(np.max(np.abs(lhs - rhs)))
    n_min = float(np.min(np.max(np.abs(lhs), axis=-1)))
    h = axes4[0].spacing
    out.append(_check("eigendistribution decomposition of N",
                      diff < 50.0 * h * h,
                      f"|definition - decomposition| = {diff:.2e} where |N| >= {n_min:.2f} "
                      f"(h^2 = {h*h:.1e})"))
    return out


SUITES = {
    "algebra": ("polar decomposition, argument additivity, norm multiplicativity",
                suite_algebra),
    "gram-lemma": ("determinant-vs-Gram identity and angle frame invariance",
                   suite_gram_lemma),
    "main-theorem": ("curvature-angle identity residual at discretization order",
                     suite_main_theorem),
    "constant-angle-graphs": ("minimal gradient graphs and angle transformations",
                              suite_constant_angle_graphs),
    "paracomplex-minimal": ("para-complex graphs are minimal",
                            suite_paracomplex_minimal),
    "null-product": ("null-curve products: Lagrangian, indefinite, minimal",
                     suite_null_product),
    "equivariant-level": ("equivariant level families, crossings, asymptotics",
                          suite_equivariant_level),
    "normal-bundle": ("austere criterion for normal-bundle angles",
                      suite_normal_bundle),
    "soliton-ode": ("reduced soliton systems: conservation, classes, quadrature",
                    suite_soliton_ode),
    "nijenhuis": ("integrability obstruction of sampled structures",
                  suite_nijenhuis),
}


def run_suite(name: str):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name][1]()
