import numpy as np
import pytest

from conftest import probe_nodes
from parakahler import equivariant
from parakahler.dcore import d_exp_tau, d_norm2, d_polar
from parakahler.equivariant import (
    ProfileCurve,
    equivariant_volume,
    explicit_circle,
    explicit_cubic_level,
    explicit_hyperbola,
    level_curve,
    level_residual,
    lift,
    lightcone_crossings,
    named_curve,
    profile_from_function,
    tau_multiply,
)
from parakahler.errors import InvalidRange
from parakahler.dlinalg import require_lagrangian
from parakahler.geometry import coordinate_tangents
from parakahler.lagrangian import angle_field


def test_profile_rejects_origin():
    s = np.linspace(-1, 1, 11)
    g = np.stack([s, np.zeros_like(s)], -1)
    with pytest.raises(ValueError):
        ProfileCurve(s, g)


def test_lift_constant_profile_is_circle():
    curve = profile_from_function(
        lambda s: np.broadcast_to([1.0, 0.0], np.shape(s) + (2,)).copy(),
        0.0, 1.0, 9)
    imm = lift(curve, 2, (16,))
    # image lies in the real plane R^2 with |x| = 1
    norms = np.sum(imm.values[..., 0] ** 2, axis=-1)
    assert np.allclose(norms, 1.0)
    assert np.allclose(imm.values[..., 1], 0.0)


def test_lift_is_lagrangian():
    curve = explicit_circle(1.0, 32)
    imm = lift(curve, 2, (16,))
    tangents, valid = coordinate_tangents(imm, [(3, 5)])
    assert valid.all()
    require_lagrangian(tangents)
    curve3 = level_curve(3, 1.0, "re", -1.0, 1.0, 33)
    imm3 = lift(curve3, 3, (9, 12))
    tangents, valid = coordinate_tangents(imm3, [(16, 4, 6)])
    assert valid.all()
    require_lagrangian(tangents)


@pytest.mark.parametrize("curve, n, counts", [
    (explicit_circle(1.3, 64), 2, (32,)),
    (explicit_hyperbola(1.0, 0.3, 2.0, 40), 2, (24,)),
    (level_curve(3, 1.0, "re", -1.5, 1.5, 201), 3, (18, 32)),
], ids=["periodic-circle", "open-hyperbola", "n3-level"])
def test_lift_values_are_the_broadcast_product_bit_for_bit(curve, n, counts):
    # values[i, ..., j, c] = gamma[i, c] sigma[..., j]: the lift's two flat
    # products against the broadcast product over the sphere's nodes
    imm = lift(curve, n, counts)
    sigma = equivariant._sphere_chart(n, counts)[1](
        *np.meshgrid(*[a.nodes() for a in imm.axes[1:]], indexing="ij"))
    ref = curve.gamma[(slice(None),) + (None,) * len(counts) + (None, slice(None))] \
        * sigma[None, ..., :, None]
    assert imm.values.shape == ref.shape == (curve.s.size, *counts, n, 2)
    assert imm.values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("curve, n, counts", [
    (explicit_circle(1.3, 64), 2, (32,)),
    (explicit_hyperbola(1.0, 0.3, 2.0, 40), 2, (24,)),
    (level_curve(3, 1.0, "re", -1.5, 1.5, 201), 3, (18, 32)),
], ids=["periodic-circle", "open-hyperbola", "n3-level"])
def test_whole_lift_is_one_outer_product_equal_to_its_node_queries(curve, n, counts):
    # whole() reads each gamma sample and sphere row once instead of
    # gathering both at every node; node-set queries still gather
    imm = lift(curve, n, counts)
    sampler, imm.sampler = imm.sampler, lambda idx: pytest.fail("whole() used the sampler")
    values = imm.whole()
    imm.sampler = sampler
    assert values.tobytes() == imm.sample(tuple(np.indices(imm.shape))).tobytes()
    nodes = probe_nodes(imm.shape)
    assert imm.sample(tuple(nodes.T)).tobytes() == values[tuple(nodes.T)].tobytes()


def _level_samples_before(n, C, which, phi):
    """level_curve's samples before they were scaled in place."""
    phi = np.asarray(phi, dtype=float)
    denom = np.cosh(n * phi) if which == "re" else np.sinh(n * phi)
    r = (C / denom) ** (1.0 / n)
    return r[..., None] * np.stack([np.cosh(phi), np.sinh(phi)], axis=-1)


@pytest.mark.parametrize("n, which, C, lo, hi", [
    (2, "re", 1.3, -2.0, 2.0), (2, "im", 0.8, 0.2, 2.2),
    (3, "re", 1.0, -1.5, 1.5), (3, "im", 1.0, 0.15, 1.5)])
def test_level_samples_and_derivatives_keep_every_bit(n, which, C, lo, hi):
    # the equivariant-level suite's 20001-sample profiles, and one sample alone
    curve = level_curve(n, C, which, lo, hi, 401)
    dense = profile_from_function(curve.fn, lo, hi, 20001)
    h = dense.spacing
    assert dense.gamma.tobytes() == _level_samples_before(n, C, which, dense.s).tobytes()
    # central differences of the samples, with fn's value one spacing
    # beyond each end as the end samples' outer neighbours
    s = np.concatenate([[dense.s[0] - h], dense.s, [dense.s[-1] + h]])
    g = _level_samples_before(n, C, which, s)
    ref = (g[2:] - g[:-2]) / (2 * h)
    assert dense.derivative_samples().tobytes() == ref.tobytes()
    assert curve.fn(lo).tobytes() == _level_samples_before(n, C, which, lo).tobytes()


@pytest.mark.parametrize("curve", [
    profile_from_function(level_curve(2, 1.3, "re", -2.0, 2.0, 3).fn, -2.0, 2.0, 20001),
    profile_from_function(level_curve(2, 0.8, "im", 0.2, 2.2, 3).fn, 0.2, 2.2, 20001),
    profile_from_function(level_curve(3, 1.0, "re", -1.5, 1.5, 3).fn, -1.5, 1.5, 20001),
    profile_from_function(level_curve(3, 1.0, "im", 0.15, 1.5, 3).fn, 0.15, 1.5, 20001),
    explicit_circle(1.3, 20000),
], ids=["re2", "im2", "re3", "im3", "periodic-circle"])
def test_sample_differences_stay_within_rounding_of_fn_differences(curve):
    # The samples' central difference (g[i+1] - g[i-1]) / 2h against
    # (fn(s + h) - fn(s - h)) / 2h.  They differ in two ways:
    # - the arguments: s[i] + h is not s[i+1] in doubles.  linspace's
    #   s[i] = lo + i * step rounds twice (1/2 ulp of i * step <= 2S, 1/2
    #   ulp of S, S = max |s|), h = s[1] - s[0] is within 1/2 ulp(S) of
    #   step, and s + h rounds once more: |s[i] + h - s[i+1]| <= 4 ulp(S)
    #   + 1/2 ulp(h) <= 5 ulp(S), which moves a difference quotient by up to
    #   max|gammadot| * 2 * 5 ulp(S) / 2h;
    # - the rounding of fn: four evaluations at different points, each
    #   within 16 ulp of max|gamma| of the curve (a few correctly rounded
    #   operations and libm calls whose errors the closed forms amplify by
    #   at most |n phi| <= 4.5), so 4 * 16 ulp(max|gamma|) / 2h more;
    # plus the rounding of either quotient itself, 1 ulp(max|gammadot|) each.
    h = curve.spacing
    old = (curve.fn(curve.s + h) - curve.fn(curve.s - h)) / (2 * h)
    new = curve.derivative_samples()
    S, G, G1 = (float(np.max(np.abs(v))) for v in (curve.s, curve.gamma, old))
    bound = (G1 * 2 * 5 * np.spacing(S) + 4 * 16 * np.spacing(G)) / (2 * h) \
        + 2 * np.spacing(G1)
    assert np.max(np.abs(new - old)) <= bound


def test_torus_angle_field_structure():
    imm = lift(explicit_circle(1.0, 64), 2, (32,))
    f = angle_field(imm)
    assert f.n_regions == 4
    summaries = f.region_summary()
    assert all(s["q"] == 1 for s in summaries)
    assert all(s["theta_max"] - s["theta_min"] < 1e-12 for s in summaries)
    assert int(f.degenerate.sum()) == 4 * 32


def test_hyperbola_profile_lift_angle():
    # theta = 0 analytically; the FD tangent leaves an O(h^2) tau component
    maxima = []
    for count in (64, 128):
        curve = explicit_hyperbola(1.0, 0.9, 2.4, count)  # off the null circle
        imm = lift(curve, 2, (16,))
        f = angle_field(imm)
        assert np.all(f.q[f.usable] == 0)
        maxima.append(float(np.nanmax(np.abs(f.theta))))
    assert maxima[0] < 1e-3
    assert maxima[0] / maxima[1] == pytest.approx(4.0, abs=0.8)


def test_equivariant_volume_exp_curve():
    curve = profile_from_function(lambda s: d_exp_tau(s), -1.0, 1.0, 201)
    vol = equivariant_volume(curve, 2)
    _, q, _, theta, null = d_polar(vol)
    s = curve.s
    assert not null.any()
    assert np.all(q == 1)
    assert np.allclose(theta, 2 * s, atol=1e-9)


def test_equivariant_volume_circle():
    curve = explicit_circle(1.0, 64)
    vol = equivariant_volume(curve, 2)
    # gammadot gamma = tau cos(2t) up to a positive factor
    expected = np.cos(2 * curve.s)
    assert np.allclose(vol[:, 0], 0.0, atol=1e-12)
    assert np.allclose(vol[:, 1] / np.max(np.abs(vol[:, 1])), expected, atol=1e-12)


def test_equivariant_volume_real_segment():
    curve = profile_from_function(
        lambda s: np.stack([1.0 + 0.3 * np.asarray(s), np.zeros_like(s)], -1),
        0.0, 1.0, 33)
    vol = equivariant_volume(curve, 3)
    assert np.allclose(vol[:, 1], 0.0, atol=1e-12)


@pytest.mark.parametrize("n,which,C", [(2, "re", 1.0), (2, "im", 1.0),
                                       (3, "re", 1.0), (3, "im", 0.7)])
def test_level_curve_membership(n, which, C):
    lo, hi = (-1.5, 1.5) if which == "re" else (0.2, 1.5)
    curve = level_curve(n, C, which, lo, hi, 101)
    assert level_residual(curve, n, which, C) < 1e-10


def test_level_curve_equations_n2():
    re = level_curve(2, 1.0, "re", -1.0, 1.0, 51)
    assert np.allclose(np.sum(re.gamma ** 2, -1), 1.0, atol=1e-12)  # x^2+y^2
    im = level_curve(2, 1.0, "im", 0.2, 1.5, 51)
    assert np.allclose(2 * im.gamma[:, 0] * im.gamma[:, 1], 1.0, atol=1e-12)


def test_level_curve_equation_n3():
    c = level_curve(3, 1.0, "re", -1.0, 1.0, 51)
    x, y = c.gamma[:, 0], c.gamma[:, 1]
    assert np.allclose(x ** 3 + 3 * x * y ** 2, 1.0, atol=1e-12)


def test_level_curve_invalid_ranges():
    with pytest.raises(InvalidRange):
        level_curve(2, 0.0, "re", -1, 1, 11)
    with pytest.raises(InvalidRange):
        level_curve(2, 1.0, "im", -1.0, 1.0, 11)
    with pytest.raises(InvalidRange):
        level_curve(2, 1.0, "either", -1, 1, 11)


def test_crossing_counts():
    assert lightcone_crossings(explicit_circle(1.0, 64)).count == 4
    assert lightcone_crossings(explicit_hyperbola(1.0, 0.2, 3.0, 301)).count == 1
    assert lightcone_crossings(explicit_cubic_level(1.0, -2.5, 2.5, 401)).count == 2


def test_named_curve_dispatch():
    cases = {"re": level_curve(3, 1.5, "re", -1.0, 1.0, 21),
             "im": level_curve(3, 1.5, "im", 0.2, 1.0, 21),
             "circle": explicit_circle(1.5, 21),
             "hyperbola": explicit_hyperbola(1.5, 0.2, 1.0, 21),
             "cubic": explicit_cubic_level(1.5, 0.2, 1.0, 21)}
    for name, curve in cases.items():
        lo = -1.0 if name == "re" else 0.2
        got = named_curve(name, 3, 1.5, lo, 1.0, 21)
        assert got.family == curve.family and got.periodic == curve.periodic
        assert np.array_equal(got.s, curve.s) and np.array_equal(got.gamma, curve.gamma)
    with pytest.raises(InvalidRange):
        named_curve("ellipse", 2, 1.0, 0.0, 1.0, 21)


@pytest.mark.parametrize("shift", range(8))
def test_periodic_crossing_on_a_sample(shift):
    # <gamma, gamma> = [0, 3, 3, 3, 0, -3, -3, -3]: (1, 1) is null, (2, 1)
    # has squared norm 3 and (1, 2) has -3; a periodic curve crosses at both
    # zeros, whichever sample comes first
    g = np.array([[1, 1], [2, 1], [2, 1], [2, 1], [1, 1], [1, 2], [1, 2], [1, 2]], float)
    curve = ProfileCurve(np.arange(8.0), np.roll(g, shift, axis=0), periodic=True)
    assert np.array_equal(d_norm2(curve.gamma), np.roll([0, 3, 3, 3, 0, -3, -3, -3], shift))
    zeros = sorted([float(shift % 8), float((4 + shift) % 8)])
    rep = lightcone_crossings(curve)
    assert (rep.count, sorted(rep.locations)) == (2, zeros)
    # the same samples on an open curve: a zero at either end is no crossing
    open_rep = lightcone_crossings(ProfileCurve(np.arange(8.0), np.roll(g, shift, axis=0)))
    assert open_rep.locations == tuple(z for z in zeros if 0 < z < 7)


def test_tangential_contact_flagged():
    # squared norm t^3 + 1 - 1: sign change with vanishing slope at t = 0
    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sqrt(1.0 + t ** 3), np.ones_like(t)], -1)

    curve = profile_from_function(fn, -0.9, 0.9, 181)
    rep = lightcone_crossings(curve)
    assert rep.count == 1
    assert rep.locations[0] == pytest.approx(0.0, abs=1e-9)
    assert rep.tangential[0]


def test_crossing_location_refined():
    hyp = explicit_hyperbola(1.0, 0.2, 3.0, 301)
    rep = lightcone_crossings(hyp)
    # x = y on 2xy = 1 at x = 1/sqrt(2)
    assert rep.locations[0] == pytest.approx(2 ** -0.5, abs=1e-9)
    assert not rep.tangential[0]


def test_torus_quadric_equations():
    # the lifted circle family satisfies both quadratic forms
    # (x1 - y2)^2 + (y1 + x2)^2 = (x1 + y2)^2 + (x2 - y1)^2 = C
    C = 1.7
    imm = lift(explicit_circle(C, 32), 2, (16,))
    v = imm.values
    x1, y1 = v[..., 0, 0], v[..., 0, 1]
    x2, y2 = v[..., 1, 0], v[..., 1, 1]
    q1 = (x1 - y2) ** 2 + (y1 + x2) ** 2
    q2 = (x1 + y2) ** 2 + (x2 - y1) ** 2
    assert np.allclose(q1, C, atol=1e-12)
    assert np.allclose(q2, C, atol=1e-12)


def test_tau_symmetry_even_preserves():
    c = explicit_circle(1.3, 64)
    assert level_residual(tau_multiply(c), 2, "re", 1.3) < 1e-12


def test_tau_symmetry_odd_exchanges():
    c = level_curve(3, 1.0, "re", -1.0, 1.0, 41)
    t = tau_multiply(c)
    assert level_residual(t, 3, "im", 1.0) < 1e-10
    assert level_residual(t, 3, "re", 1.0) > 1e-2


def test_cosh_branch_endpoint_limit():
    C = 2.0
    for n in (2, 3):
        c = level_curve(n, C, "re", -12.0, 12.0, 1001)
        lim = (2 * C) ** (1.0 / n) / 2.0
        assert np.allclose(c.gamma[-1], [lim, lim], atol=1e-4)
        assert np.allclose(c.gamma[0], [lim, -lim], atol=1e-4)


def test_sinh_branch_asymptotes():
    # as phi -> 0+ the im-branch blows up along a coordinate direction
    c = level_curve(2, 1.0, "im", 1e-3, 1.0, 101)
    assert d_norm2(c.gamma[:1])[0] > 100.0


def test_minimal_lift_H_refines():
    from parakahler.geometry import grid_mean_curvature

    hs = []
    for scount, tcount in ((201, 16), (401, 32)):
        c = level_curve(2, 1.0, "re", -1.0, 1.0, scount)
        imm = lift(c, 2, (tcount,))
        _, mH, _, has_H = grid_mean_curvature(imm, [(scount // 2, tcount // 4)])
        assert has_H.all()
        H = mH[0] / imm.m
        hs.append(float(np.sqrt(np.sum(H ** 2))))
    assert hs[0] / hs[1] == pytest.approx(4.0, abs=0.5)


def _sampled_lift(case):
    from parakahler.constructions import apply_J_immersion, rotate

    if case == "circle":  # periodic profile and sphere: every axis wraps
        return lift(explicit_circle(1.3, 16), 2, (12,))
    if case == "hyperbola":
        return lift(explicit_hyperbola(1.0, 0.3, 2.0, 14), 2, (10,))
    if case == "n3":
        return lift(level_curve(3, 1.0, "re", -1.0, 1.0, 15), 3, (7, 8))
    if case == "J-n3":
        return apply_J_immersion(lift(level_curve(3, 1.0, "re", -1.0, 1.0, 15), 3, (7, 8)))
    return rotate(lift(explicit_circle(1.3, 16), 2, (12,)), 0.25)


@pytest.mark.parametrize("case", ["circle", "hyperbola", "n3", "J-n3", "rotate-circle"])
def test_node_sets_of_lifts_equal_the_materialized_grid(case, node_sets_match_whole_grid):
    # a lift samples gamma's rows and the sphere chart at the nodes a query
    # reads, bit for bit what the materialized lift holds there
    node_sets_match_whole_grid(lambda: _sampled_lift(case))
