import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from parakahler import cli, equivariant, solitons
from parakahler.dcore import bracket_roots, d_grading2, d_norm2, d_pow
from parakahler.errors import (
    IntegrandSingular,
    InvalidCase,
    InvalidRange,
    NonpositiveRadius,
    StepFailure,
)
from parakahler.dlinalg import det_real, gram, inv_real
from parakahler.geometry import grid_mean_curvature, normal_project
from parakahler.solitons import (
    SolitonParams,
    Trajectory,
    ambient_residual,
    classify,
    critical_point,
    energy,
    energy_threshold,
    hyperbola_solution,
    integrate_bidirectional_many,
    integrate_many,
    normal_component_residuals,
    phi_quadrature,
    reconstruct_profile,
    turning_radius,
)

LOR1 = SolitonParams(2, 1.0, "lorentzian")
DEF0 = SolitonParams(2, 0.0, "definite")


def _lane(start, params, s_max, *, direction=1, **kw):
    """The trajectory from start (r, alpha, phi) along direction: a batch of
    one lane."""
    return integrate_many(params, [start], direction, s_max, **kw)[0]


def _two_way(start, params, s_max, **kw):
    """The trajectory through start, integrated both ways: a batch of one."""
    return integrate_bidirectional_many(params, [start], s_max, **kw)[0]


def _vector_field(y, params):
    """(dr/ds, dalpha/ds, dphi/ds) at a state y = (r, alpha, phi): the
    engine's sigma-field divided by its ds/dsigma."""
    f = solitons._Field(params)(np.append(y, 0.0)[:, None])[:, 0]
    return f[:3] / f[3]


def test_vector_field_critical_point():
    p = SolitonParams(2, 2.0, "lorentzian")  # r0 = 1 exactly representable
    cp = critical_point(p)
    dr, da, dphi = _vector_field(cp.as_array(), p)
    assert (dr, da) == (0.0, 0.0)
    assert dphi == pytest.approx(1.0 / cp.r)


def test_vector_field_definite_values():
    p = SolitonParams(2, 0.0, "definite")
    dr, da, dphi = _vector_field([1.0, 1.0, 0.0], p)
    assert dr == pytest.approx(math.cosh(1))
    assert da == pytest.approx(-2 * math.sinh(1))
    assert dphi == pytest.approx(math.sinh(1))
    dr, da, _ = _vector_field([3.0, 0.0, 0.0], p)
    assert (dr, da) == (1.0, 0.0)


def test_integrate_rejects_nonpositive_radius():
    # the field is only evaluated along trajectories, whose starts need r > 0
    for r in (0.0, -1.0):
        with pytest.raises(InvalidRange):
            _lane((r, 0.0, 0.0), LOR1, 1.0)


def test_first_integral_zero_at_alpha_zero():
    p = SolitonParams(3, 0.7, "definite")
    for r in (0.5, 1.0, 2.0):
        assert energy(np.array([r, 0.0, 0.0]), p) == 0.0


def test_first_integral_critical_value():
    p = LOR1
    E = energy(critical_point(p).as_array(), p)
    assert E == pytest.approx((2 / 1.0) ** 1 * math.exp(-1.0))


def test_energy_threshold_values():
    assert energy_threshold(SolitonParams(2, 2.0, "lorentzian")) == pytest.approx(
        math.exp(-1.0))
    assert energy_threshold(SolitonParams(2, 1.0, "lorentzian")) == pytest.approx(
        2 * math.exp(-1.0))
    p = SolitonParams(3, 1.5, "lorentzian")
    assert energy_threshold(p) == energy(critical_point(p).as_array(), p)
    with pytest.raises(InvalidCase):
        energy_threshold(SolitonParams(2, -1.0, "lorentzian"))
    with pytest.raises(InvalidCase):
        energy_threshold(SolitonParams(2, 1.0, "definite"))


def test_energy_threshold_is_not_the_n_squared_variant():
    p = SolitonParams(3, 1.0, "lorentzian")
    e = energy_threshold(p)
    variant = 3 ** 1.5 * math.exp(-4.5)
    assert abs(e - variant) > 0.5 * e


def test_rk4_single_step_conserves_to_fifth_order():
    p = SolitonParams(2, 1.0, "definite")
    y0 = np.array([1.0, 0.5, 0.0])

    def f(y):
        return _vector_field(y, p)

    def rk4(y, h):
        k1 = f(y)
        k2 = f(y + h / 2 * k1)
        k3 = f(y + h / 2 * k2)
        k4 = f(y + h * k3)
        return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    E0 = energy(y0, p)
    errs = []
    for h in (0.1, 0.05):
        y1 = rk4(y0, h)
        errs.append(abs(energy(y1, p) - E0))
    assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.3)


def test_integrate_critical_point_constant():
    p = SolitonParams(2, 2.0, "lorentzian")  # r0 = 1 exactly representable
    tr = _lane(critical_point(p).as_array(), p, 10.0)
    assert np.max(np.abs(tr.r - 1.0)) < 1e-12
    assert np.max(np.abs(tr.alpha)) < 1e-12
    assert tr.stop_reason == "s_max"
    assert classify(tr) == "critical_point"


def test_integrate_conserves_energy():
    tr = _lane((1.0, 0.5, 0.0), SolitonParams(2, 1.0, "definite"), 5.0, rtol=1e-12)
    assert tr.accepted
    assert tr.max_E_drift < 1e-8


def test_definite_radius_strictly_increases():
    tr = _lane((1.0, 0.7, 0.0), DEF0, 5.0)
    assert np.all(np.diff(tr.r) > 0)


def test_integrate_rejects_small_initial_radius():
    with pytest.raises(InvalidRange):
        _lane((1e-9, 0.0, 0.0), LOR1, 1.0)


def _poison(monkeypatch, where):
    """Make the field's alpha' row nan at the states y (4, N) where
    where(y) holds, in _Field.bind, the one formula that the bound stages
    and _Field.__call__ both run."""
    bind = solitons._Field.bind

    def poisoned(self, y, out):
        rows = bind(self, y, out)

        def nan_rows():
            rows()
            out[1] = np.where(where(y), np.nan, out[1])
        return nan_rows

    monkeypatch.setattr(solitons._Field, "bind", poisoned)


def test_a_nan_field_raises_step_failure(monkeypatch):
    # Past s = 0.05 the alpha' row is nan, so every step's error norm is nan
    # and the step is rejected and shrunk by the minimum factor until it
    # falls below 10 ulp of sigma: the batch raises instead of looping or
    # returning nan rows.
    _poison(monkeypatch, lambda y: y[3] > 0.05)
    with pytest.raises(StepFailure, match="step size underflow at r = "):
        integrate_many(LOR1, [(1.0, 0.25, 0.0)], 1, 1.0)


def test_subcritical_inner_symmetric():
    tr = _two_way((0.5, 0.0, 0.0), LOR1, 10.0, rtol=1e-12)
    assert classify(tr) == "subcritical_inner"
    assert tr.E0 < energy_threshold(LOR1)
    assert np.all(tr.r < math.sqrt(2))
    for s in (0.1, 0.25):
        a_fwd = tr.sample(s)[0, 1]
        a_bwd = tr.sample(-s)[0, 1]
        assert a_fwd == pytest.approx(-a_bwd, abs=1e-9)
    # both ends collapse toward r = 0, each stopping on the located r_min
    assert tr.stop_reason == "r_min/r_min"
    assert tr.r[0] == pytest.approx(solitons.R_MIN) and tr.r[-1] == pytest.approx(
        solitons.R_MIN)


def test_subcritical_outer_and_supercritical():
    tr = _two_way((2.5, 0.0, 0.0), LOR1, 8.0, rtol=1e-12)
    assert classify(tr) == "subcritical_outer"
    assert np.all(tr.r > math.sqrt(2))
    tr = _two_way((2.0, 1.2, 0.0), LOR1, 8.0, rtol=1e-12)
    assert tr.E0 > energy_threshold(LOR1)
    assert classify(tr) == "supercritical"
    assert tr.r.min() < 1e-3 and tr.r.max() > 5.0


def test_lambda_zero_matches_level_sets():
    p0 = SolitonParams(2, 0.0, "lorentzian")
    a0 = 0.4
    tr = _two_way((1.0, a0, -a0 / 2), p0, 5.0, rtol=1e-12)
    assert classify(tr) == "nonpositive_lambda"
    prof = reconstruct_profile(tr, 201, s_lo=float(tr.s[0]) + 1e-3,
                               s_hi=float(tr.s[-1]) - 1e-3)
    g2 = d_pow(prof.gamma, 2)
    assert np.max(np.abs(g2[:, 0] - tr.E0)) < 1e-6


def test_reconstruction_consistency_lorentzian():
    tr = _lane((1.2, 0.3, 0.1), LOR1, 1.5, rtol=1e-12)
    prof = reconstruct_profile(tr, 1001, q=0, s_lo=0.05, s_hi=1.4)
    dg = prof.derivative_samples()
    st = tr.sample(prof.s)
    theta = st[:, 1] + st[:, 2]
    expected = np.stack([np.sinh(theta), np.cosh(theta)], -1)
    assert np.max(np.abs(dg - expected)) < 1e-6
    assert np.max(np.abs(d_norm2(dg) + 1.0)) < 1e-6


def test_reconstruction_consistency_definite():
    tr = _lane((1.0, 0.4, 0.0), DEF0, 2.0, rtol=1e-12)
    prof = reconstruct_profile(tr, 1001, q=0, s_lo=0.01, s_hi=1.9)
    dg = prof.derivative_samples()
    st = tr.sample(prof.s)
    theta = st[:, 1] + st[:, 2]
    expected = np.stack([np.cosh(theta), np.sinh(theta)], -1)
    assert np.max(np.abs(dg - expected)) < 1e-6
    assert np.max(np.abs(d_norm2(dg) - 1.0)) < 1e-6


def test_reconstruction_q1_swaps_causal_type():
    # reconstructing with q = 1 gives gammadot = tau e^{tau theta}, timelike
    tr = _lane((1.0, 0.4, 0.0), DEF0, 2.0, rtol=1e-12)
    prof = reconstruct_profile(tr, 1001, q=1, s_lo=0.01, s_hi=1.9)
    dg = prof.derivative_samples()
    st = tr.sample(prof.s)
    theta = st[:, 1] + st[:, 2]
    expected = np.stack([np.sinh(theta), np.cosh(theta)], -1)
    assert np.max(np.abs(dg - expected)) < 1e-6
    assert np.max(np.abs(d_norm2(dg) + 1.0)) < 1e-6


def test_quadrature_trivial_and_errors():
    assert phi_quadrature(1.0, 1.0, 1.0, DEF0) == 0.0
    with pytest.raises(InvalidCase):
        phi_quadrature(1.0, 2.0, 0.0, DEF0)
    with pytest.raises(NonpositiveRadius):
        phi_quadrature(-1.0, 2.0, 1.0, DEF0)


def test_quadrature_matches_definite_trajectory():
    tr = _lane((1.0, math.asinh(1.0), 0.0), DEF0, 4.0, rtol=1e-12)
    i = len(tr.s) // 2
    dphi = phi_quadrature(tr.r[3], tr.r[i], tr.E0, DEF0)
    assert dphi == pytest.approx(tr.phi[i] - tr.phi[3], abs=1e-8)


def test_quadrature_negative_energy_flips_sign():
    assert phi_quadrature(1.0, 2.0, -1.0, DEF0) == pytest.approx(
        -phi_quadrature(1.0, 2.0, 1.0, DEF0))


def test_quadrature_small_r_log_law():
    val = phi_quadrature(1e-4, 1e-3, 1.0, DEF0)
    assert val == pytest.approx(math.log(10.0), abs=1e-8)


def test_quadrature_across_turning_point():
    tr = _two_way((0.5, 0.0, 0.0), LOR1, 10.0, rtol=1e-12)
    rt = turning_radius(tr.E0, LOR1, "below")
    assert rt == pytest.approx(0.5, abs=1e-12)  # started at the turning point
    sA, sB = 0.6 * float(tr.s[0]), 0.6 * float(tr.s[-1])
    stA, stB = tr.sample(sA)[0], tr.sample(sB)[0]
    dphi = (phi_quadrature(stA[0], rt, tr.E0, LOR1)
            + phi_quadrature(rt, stB[0], tr.E0, LOR1))
    assert dphi == pytest.approx(stB[2] - stA[2], abs=1e-6)


def test_quadrature_rejects_forbidden_band():
    # range spanning the peak with E below the threshold
    with pytest.raises(IntegrandSingular):
        phi_quadrature(0.5, 3.0, 0.9 * energy_threshold(LOR1), LOR1)


def test_hyperbola_solution_samples():
    p = SolitonParams(2, 2.0, "lorentzian")  # r0 = 1
    h = hyperbola_solution(p, "spacelike", -1.0, 1.0, 101)
    assert np.allclose(h.gamma[:, 0], np.cosh(h.s), atol=1e-12)
    assert np.allclose(h.gamma[:, 1], np.sinh(h.s), atol=1e-12)
    assert np.allclose(d_norm2(h.gamma), 1.0, atol=1e-12)
    ht = hyperbola_solution(p, "timelike", -1.0, 1.0, 101)
    assert np.allclose(d_norm2(ht.gamma), -1.0, atol=1e-12)


def test_hyperbola_ambient_residual_sign():
    lam = 1.0
    h = hyperbola_solution(LOR1, "spacelike", -0.8, 0.8, 161)
    _, good = ambient_residual(h, 2, +lam, (16,))
    _, bad = ambient_residual(h, 2, -lam, (16,))
    assert good.max() < 0.05
    assert bad.max() > 1.0


def test_circle_ambient_residual():
    circ = equivariant.explicit_circle(1.0, 128)
    _, r0 = ambient_residual(circ, 2, 0.0)
    _, r1 = ambient_residual(circ, 2, 1.0)
    assert r0.max() < 0.05
    assert r1.max() > 0.5


def test_ambient_residual_matches_mean_curvature_route():
    # the node-set equation gives the figures of the whole-grid mH + lambda *
    # (normal part of F from the induced metric), exactly on n = 2 lifts;
    # nodes on the light cone of the circle torus are skipped, and their
    # components are nan
    circ = equivariant.explicit_circle(1.0, 64)
    imm = equivariant.lift(circ, 2, (16,))
    nodes = [(i, j) for i in range(0, 64, 4) for j in (0, 5)]
    tested, res = ambient_residual(circ, 2, 0.7, (16,), nodes)
    jt, mH, _, has_H = grid_mean_curvature(imm)
    expected = {}
    for node in nodes:
        if not has_H[node]:
            continue
        first = jt.first[node]
        g = gram(first)
        ref = mH[node] + 0.7 * normal_project(imm.values[node], first, inv_real(g, det_real(g), False))
        expected[node] = float(np.sqrt(np.sum(d_grading2(ref))))
    assert 0 < len(tested) < len(nodes)
    assert dict(zip(tested, res.tolist())) == expected
    skipped = next(n for n in nodes if n not in expected)
    comps = normal_component_residuals(imm, [skipped, tested[0]], 0.7)
    assert comps.shape == (2, 2)
    assert np.all(np.isnan(comps[0])) and np.all(np.isfinite(comps[1]))


def test_classification_definite():
    tr = _lane((1.0, 0.2, 0.0), SolitonParams(2, 1.0, "definite"), 5.0)
    assert classify(tr) == "definite_expanding"


def test_lorentzian_nonpositive_lambda_bounded():
    p = SolitonParams(2, 0.0, "lorentzian")
    tr = _two_way((1.0, 0.4, 0.0), p, 10.0, rtol=1e-12)
    assert classify(tr) == "nonpositive_lambda"
    assert tr.r.max() <= tr.E0 ** 0.5 + 1e-9  # E = r^2 cosh(a) >= r^2
    assert tr.r[0] < 1e-3 and tr.r[-1] < 1e-3


# ---------------------------------------------------------------------------
# The batched engine against scipy's DOP853 with terminal events, one
# solve_ivp call per lane on the same sigma-system: the independent
# reference for integrate_many.
# ---------------------------------------------------------------------------

SIGMA_SPAN = 1e3  # beyond every lane's end: each stops on an event


def _sigma_rhs(params, direction):
    """The sigma-system (r, alpha, phi, s)' with ds/dsigma = r / cosh alpha,
    written out per case, run along direction.  It rounds as the engine's
    field does (numpy's tanh and cosh, which differ from math's in about one
    argument in seven, and the same order of operations): at atol 1e-16 the
    first steps' error estimates are rounding noise, phi and s starting at
    0, so a one-ulp difference in the field sends two step sequences apart."""
    neg_n, lam = -float(params.n), float(params.lambda_prime)

    def rhs(t, y):
        r, th = y[0], np.tanh(y[1])
        rate = neg_n + lam * (r * r)
        if params.case == "definite":
            f = [r, rate * th, th]
        else:
            f = [r * th, rate, 1.0]
        return [direction * v for v in f + [r / np.cosh(y[1])]]

    return rhs


def _stop_events(params, y0, s_max, s_index):
    """Terminal events (functions, names) on states whose s, if any, is
    component s_index; the alpha_floor rate is dalpha/ds."""
    n, lam = params.n, params.lambda_prime
    definite = params.case == "definite"

    def ev_rmin(t, y):
        return y[0] - solitons.R_MIN

    def ev_rmax(t, y):
        return y[0] - solitons.R_MAX

    def ev_alpha(t, y):
        return solitons.ALPHA_MAX - abs(y[1])

    def ev_afloor(t, y):
        coeff = -n / max(y[0], 1e-300) + lam * y[0]
        return abs(y[1]) + abs(coeff * math.sinh(y[1])) - 1e-5

    def ev_smax(t, y):
        return s_max - abs(y[s_index] if s_index is not None else t)

    events = [ev_rmin, ev_rmax, ev_alpha, ev_smax]
    names = ["r_min", "r_max", "alpha_max", "s_max"]
    if definite and abs(y0[1]) > 1e-5:
        events.append(ev_afloor)
        names.append("alpha_floor")
    for ev in events:
        ev.terminal = True
    return events, names


def _reference_lane(y0, params, s_max, direction, rtol, atol=1e-16):
    """(stop reason, solve_ivp solution on the sigma-system, max relative
    energy drift).  As in the engine, the end state is not the interpolant's
    value at the event but DOP853's own step from the last knot to it."""
    y0 = np.append(y0, 0.0)
    events, names = _stop_events(params, y0, s_max, 3)
    rhs = _sigma_rhs(params, direction)
    sol = solve_ivp(rhs, (0.0, SIGMA_SPAN), y0, method="DOP853", rtol=rtol,
                    atol=atol, events=events, dense_output=True)
    assert sol.status == 1, sol.message
    stop = [name for name, te in zip(names, sol.t_events) if te.size][0]
    span = (sol.t[-2], sol.t[-1])
    sol.y[:, -1] = solve_ivp(rhs, span, sol.y[:, -2], method="DOP853", rtol=rtol,
                             atol=atol, first_step=span[1] - span[0]).y[:, -1]
    E = [energy(st[:3], params) for st in sol.y.T]
    scale = max(abs(E[0]), solitons.radial_weight(y0[0], params), 1e-300)
    return stop, sol, max(abs(e - E[0]) for e in E) / scale


def _state_at_s(sol, s):
    """The reference's (r, alpha, phi) where its monotone s(sigma) is s."""
    sigma = brentq(lambda t: sol.sol(t)[3] - s, 0.0, sol.t[-1], xtol=1e-15,
                   rtol=4 * np.finfo(float).eps)
    return sol.sol(sigma)[:3]


def _reference_class(params, y0, lanes):
    """classify on the reference's backward and forward lanes, merged."""
    (_, bwd, _), (_, fwd, _) = lanes
    states = np.concatenate([bwd.y[:, :0:-1], fwd.y], axis=1).T
    traj = Trajectory(params, states[:, 3], states[:, :3],
                      float(energy(np.array(y0), params)), 0.0, True, "")
    return classify(traj)


_R0 = math.sqrt(2.0)
_SWEEP = [(r, a, 0.0) for r in np.linspace(_R0 - 0.9, _R0 + 0.9, 5)
          for a in np.linspace(-0.8, 0.8, 5)]
_SAMPLE = [(0.7, -0.4, 0.0), (1.6, 0.4, 0.0)]


@pytest.mark.parametrize("params, starts", [
    (SolitonParams(2, 1.0, "lorentzian"), _SWEEP),
    (SolitonParams(2, -1.0, "definite"), _SWEEP),
    (SolitonParams(2, 0.0, "lorentzian"), _SAMPLE),
    (SolitonParams(2, 0.0, "definite"), _SAMPLE),
    (SolitonParams(3, 1.5, "lorentzian"), _SAMPLE),
    (SolitonParams(3, -1.0, "definite"), _SAMPLE),
], ids=["lorentzian+1", "definite-1", "lorentzian0", "definite0", "n3-lorentzian",
        "n3-definite"])
def test_engine_matches_solve_ivp_reference(params, starts):
    rtol, s_max = 1e-12, 10.0  # the phase command's tolerance and span
    signs = np.repeat([-1.0, 1.0], len(starts))
    lanes = integrate_many(params, starts + starts, signs, s_max, rtol=rtol)
    refs = [_reference_lane(np.array(y0), params, s_max, d, rtol)
            for y0, d in zip(starts + starts, signs)]
    for tr, d, (stop, sol, drift) in zip(lanes, signs, refs):
        assert tr.stop_reason == stop
        assert abs(tr.accepted_steps - (len(sol.t) - 1)) <= 2
        # drifts agree within 2x (absolute 1e-14 where both are ~0, e.g. E0 = 0)
        assert tr.max_E_drift <= 2.0 * drift + 1e-14
        assert drift <= 2.0 * tr.max_E_drift + 1e-14
        assert tr.accepted == (drift < solitons.DRIFT_TOL)
        s = np.linspace(0.02, 0.95, 40) * sol.y[3, -1]
        ref = np.array([_state_at_s(sol, v) for v in s])
        assert np.all(np.abs(tr.sample(s) - ref) <= 1e-9 * (1.0 + np.abs(ref)))
    merged = integrate_bidirectional_many(params, starts, s_max, rtol=rtol)
    half = len(starts)
    for i, (y0, tr) in enumerate(zip(starts, merged)):
        assert tr.stop_reason == f"{refs[i][0]}/{refs[half + i][0]}"
        assert classify(tr) == _reference_class(params, y0, (refs[i], refs[half + i]))


def test_tableau_is_dop853():
    # the module's Dormand-Prince 8(5,3) coefficients are scipy's DOP853
    # coefficients, bit for bit
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(solitons._A, ref.A)
    assert np.array_equal(solitons._B, ref.B)
    assert np.array_equal(solitons._ERR, np.stack([ref.E5, ref.E3]))
    assert np.array_equal(solitons._D, ref.D)
    assert all(np.array_equal(a, ref.A[s, :s])
               for s, a in enumerate(solitons._STAGES, start=1))


def test_integrate_is_one_lane_of_the_batch():
    # the same lane alone or in a batch: the same rows and samples, bit for
    # bit (see test_lanes_do_not_depend_on_their_batch)
    starts = [(0.9, 0.3, 0.0), (1.7, -0.5, 0.2)]
    batch = integrate_many(LOR1, starts, [1.0, -1.0], 6.0, rtol=1e-12)
    for y0, d, tr in zip(starts, (1, -1), batch):
        one = _lane(y0, LOR1, 6.0, rtol=1e-12, direction=d)
        assert one.stop_reason == tr.stop_reason
        assert _bits(one.s) == _bits(tr.s) and _bits(one.states) == _bits(tr.states)
        s = np.linspace(0.05, 0.9, 30) * (one.s[-1] if d > 0 else one.s[0])
        assert _bits(one.sample(s)) == _bits(tr.sample(s))


def test_lanes_do_not_depend_on_their_batch():
    # a lane's rows, drift and samples on a 17-point s-grid are the same bits
    # whether it runs alone or among 1, 3 or 10 other lanes at a random place
    # in the batch: n = 2 and 3, both cases, l' = +-1, both directions.
    # With np.dot (BLAS) for _dense's _D product in place of einsum, 24 of
    # these 48 runs move: BLAS rounds a column by its place in the product
    rng = np.random.default_rng(0)
    for params in [SolitonParams(n, lp, case) for n in (2, 3) for case in solitons.CASES
                   for lp in (1.0, -1.0)]:
        pool = np.column_stack([rng.uniform(0.5, 2.3, 40), rng.uniform(-0.8, 0.8, 40),
                                np.zeros(40)])
        pool_signs = rng.choice([-1.0, 1.0], 40)
        for y0, d in zip(pool[:2], (-1.0, 1.0)):
            alone = _lane(y0, params, 10.0, rtol=1e-12, direction=d)
            grid = np.linspace(alone.s[0], alone.s[-1], 17)
            for k in (1, 3, 10):
                others = rng.choice(np.arange(2, 40), k, replace=False)
                at = int(rng.integers(k + 1))
                tr = integrate_many(params, np.insert(pool[others], at, y0, axis=0),
                                    np.insert(pool_signs[others], at, d), 10.0,
                                    rtol=1e-12)[at]
                assert _bits(tr.s) == _bits(alone.s)
                assert _bits(tr.states) == _bits(alone.states)
                assert tr.max_E_drift.hex() == alone.max_E_drift.hex()
                assert _bits(tr.sample(grid)) == _bits(alone.sample(grid))


def test_step_counts():
    # a one-direction lane has one state per accepted step after its start,
    # less the knots dropped for not advancing s; a bidirectional trajectory
    # counts the steps of both its lanes
    starts = [(0.5, 0.0, 0.0), (2.0, 1.2, 0.0), (1.7, -0.5, 0.2)]
    lanes = integrate_many(LOR1, starts + starts, np.repeat([-1.0, 1.0], 3), 8.0,
                           rtol=1e-12)
    for tr in lanes:
        assert tr.accepted_steps == len(tr.s) - 1 + tr.dropped_knots
        assert tr.rejected_steps >= 0
    assert sum(tr.dropped_knots for tr in lanes) > 0
    merged = integrate_bidirectional_many(LOR1, starts, 8.0, rtol=1e-12)
    for bwd, fwd, tr in zip(lanes[:3], lanes[3:], merged):
        assert tr.accepted_steps == bwd.accepted_steps + fwd.accepted_steps
        assert tr.accepted_steps == len(tr.s) - 1 + tr.dropped_knots
        assert tr.rejected_steps == bwd.rejected_steps + fwd.rejected_steps
        assert tr.dropped_knots == bwd.dropped_knots + fwd.dropped_knots


def test_rejected_steps_match_dop853():
    # with dense output, solve_ivp's DOP853 spends 2 field evaluations on its
    # start, 12 on every step it tries, accepted or not, and 3 on the
    # interpolant of every accepted step
    for y0 in ((2.0, 1.2, 0.0), (1.7, -0.5, 0.2)):
        for d in (1, -1):
            tr = _lane(y0, LOR1, 10.0, rtol=1e-12, direction=d)
            stop, sol, _ = _reference_lane(np.array(y0), LOR1, 10.0, d, 1e-12)
            steps = len(sol.t) - 1
            tried, rest = divmod(sol.nfev - 2 - 3 * steps, 12)
            assert rest == 0
            assert tr.stop_reason == stop
            assert abs(tr.accepted_steps - steps) <= 2
            assert abs(tr.rejected_steps - (tried - steps)) <= 2
            assert tr.rejected_steps > 0


def _s_form_lane(y0, params, s_max, direction, rtol):
    """solve_ivp's DOP853 on the s-system itself: (stop, end s, end state);
    a step-size underflow, the s-form's only way into an r -> 0 end or an
    alpha blow-up, is the stop "underflow"."""
    n, lam = params.n, params.lambda_prime

    def rhs(t, y):
        r = max(y[0], 1e-300)
        u, v = ((math.cosh(y[1]), math.sinh(y[1])) if params.case == "definite"
                else (math.sinh(y[1]), math.cosh(y[1])))
        return [direction * u, direction * (-n / r + lam * r) * v, direction * v / r]

    events, names = _stop_events(params, y0, s_max, None)
    sol = solve_ivp(rhs, (0.0, 2 * s_max), y0, method="DOP853", rtol=rtol,
                    atol=1e-16, events=events)
    if sol.status == -1:
        return "underflow", direction * sol.t[-1], sol.y[:, -1]
    hit = [k for k, te in enumerate(sol.t_events) if te.size][0]
    return names[hit], direction * sol.t_events[hit][0], sol.y_events[hit][0]


@pytest.mark.parametrize("params", [
    SolitonParams(2, 1.0, "lorentzian"), SolitonParams(2, -1.0, "definite"),
    SolitonParams(2, 0.0, "lorentzian"), SolitonParams(2, 0.0, "definite"),
    SolitonParams(3, 1.5, "lorentzian"), SolitonParams(3, -1.0, "definite"),
], ids=["lorentzian+1", "definite-1", "lorentzian0", "definite0", "n3-lorentzian",
        "n3-definite"])
def test_sigma_form_matches_s_form(params):
    # the stop s of each lane agrees with DOP853 on the untransformed
    # system, and so does the end state of an alpha_floor, r_max or s_max
    # stop; where that one underflows into a singular end, the sigma-form
    # stops on the located r_min or alpha_max at the same s
    starts = _SAMPLE + [(2.2, 0.1, 0.0)]
    signs = np.repeat([-1.0, 1.0], len(starts))
    lanes = integrate_many(params, starts + starts, signs, 10.0, rtol=1e-12)
    for tr, y0, d in zip(lanes, starts + starts, signs):
        stop, s_end, end = _s_form_lane(np.array(y0), params, 10.0, d, 1e-12)
        ours = tr.s[-1] if d > 0 else tr.s[0]
        assert abs(ours - s_end) <= 1e-9 * (1.0 + abs(s_end))
        if stop in ("underflow", "r_min", "alpha_max"):
            # within an ulp of s of a singular end: the s-form cannot place
            # its r_min or alpha_max state (|alpha| 30.0014 on one lane)
            assert tr.stop_reason in ("r_min", "alpha_max")
        else:
            state = tr.states[-1] if d > 0 else tr.states[0]
            assert tr.stop_reason == stop
            assert np.all(np.abs(state - end) <= 1e-8 * (1.0 + np.abs(end)))


@pytest.mark.parametrize("half, a", [(0.85, 0.75), (0.85, 0.85), (0.95, 0.75),
                                     (0.95, 0.85)])
def test_benchmark_sweeps_have_strictly_increasing_s(half, a):
    # near an r -> 0 end ds/dsigma is below an ulp of s; every lane of the
    # phase command's 5 x 5 sweeps over the benchmark's ranges still has
    # strictly increasing s and passes exactly through its start at s = 0,
    # and its drift stays well below the gate, the alpha_floor ends included
    # (measured <= 5.8e-10).  Each lane's last step is redone to its event:
    # the dense output of the redone step, not of the step the event fired
    # on, gives the end rows.
    starts = [(r, al, 0.0) for r in np.linspace(_R0 - half, _R0 + half, 5)
              for al in np.linspace(-a, a, 5)]
    for params in (SolitonParams(2, 1.0, "lorentzian"), SolitonParams(2, -1.0, "definite")):
        for y0, tr in zip(starts, integrate_bidirectional_many(params, starts, 10.0,
                                                               rtol=1e-12)):
            assert np.all(np.diff(tr.s) > 0)
            origin = np.flatnonzero(tr.s == 0.0)
            assert origin.size == 1 and np.array_equal(tr.states[origin[0]], y0)
            assert tr.accepted_steps == len(tr.s) - 1 + tr.dropped_knots
            assert tr.max_E_drift < solitons.DRIFT_TOL / 5
            ends = tr.states[[0, -1]]
            assert np.all(np.abs(tr.sample(tr.s[[0, -1]]) - ends) <= 1e-12 * (1 + np.abs(ends)))


def test_event_rounding_onto_the_last_knot_adds_no_state():
    # near the alpha blow-up s advances by less than an ulp per step, and the
    # alpha_max crossing can round onto the previous knot's s; the trajectory
    # then ends on the event state instead of repeating that s
    y0 = (2.31050539784756, -0.807086589460797, 0.0)
    tr = _lane(y0, LOR1, 10.0, rtol=1e-12, direction=-1)
    stop, sol, _ = _reference_lane(np.array(y0), LOR1, 10.0, -1, 1e-12)
    assert tr.stop_reason == stop == "alpha_max"
    assert np.all(np.diff(tr.s) > 0)
    assert abs(tr.accepted_steps - (len(sol.t) - 1)) <= 2
    assert abs(tr.alpha[0]) == pytest.approx(solitons.ALPHA_MAX)


# ---------------------------------------------------------------------------
# The bracketed root finder, dcore.bracket_roots, against scipy's brentq: every
# bracket it returns is at most xtol wide (one ulp for xtol = 0), and both
# its ends lie within that width of brentq's root, to brentq's own
# tolerance RTOL |x|.  Where the computed function is exactly 0 over a
# stretch wider than xtol (an event value flat to rounding), any point of
# it is a root: there both ends must lie on the stretch with brentq's root.
# ---------------------------------------------------------------------------

RTOL = 4 * np.finfo(float).eps  # the smallest rtol brentq accepts


def _brentq_root(f, a, b):
    return brentq(f, a, b, xtol=1e-300, rtol=RTOL)


def _assert_holds(lo, hi, ref, xtol):
    width = max(xtol, np.spacing(abs(hi)))
    assert hi - lo <= width
    assert max(abs(lo - ref), abs(hi - ref)) <= width + RTOL * abs(ref)


def _scalar(g, lo, k):
    """g of bracket k alone, g taking an array of points of the brackets'
    shape; the other points are held at their lo."""
    def g_k(x):
        pts = np.array(lo, dtype=float)
        pts[k] = x
        return g(pts)[k]
    return g_k


def _brentq_per_bracket(g, lo, hi):
    """brentq's root of g in each bracket."""
    refs = np.empty(np.shape(lo))
    for k in np.ndindex(refs.shape):
        refs[k] = _brentq_root(_scalar(g, lo, k), lo[k], hi[k])
    return refs


def _counted(g):
    """g and a list whose length is the number of calls made to g."""
    calls = []

    def g_counted(x):
        calls.append(None)
        return g(x)
    return g_counted, calls


def _bisection_evaluations(f, lo, hi, xtol):
    """Reference: the evaluations of f that halving [lo, hi] takes under
    bracket_roots' contract, the two ends included."""
    s_lo, count = np.sign(f(lo)), 2
    if s_lo * np.sign(f(hi)) == 0.0:
        return count
    while True:
        mid = 0.5 * (lo + hi)
        if not (hi - lo > xtol and lo < mid < hi):
            return count
        s_mid, count = np.sign(f(mid)), count + 1
        if s_mid == 0.0:
            return count
        lo, hi = (lo, mid) if s_lo * s_mid < 0.0 else (mid, hi)


def _record_against_brentq(monkeypatch):
    """Route every bracket_roots call of solitons through a wrapper that also
    asks brentq for the root in each bracket; returns the list of (lo, hi,
    brentq roots, xtol, flat, evaluations) it fills, flat marking the
    brackets where g is 0 at nine points spanning both ends and brentq's
    root, evaluations the calls bracket_roots made to g."""
    calls = []

    def both(g, lo, hi, xtol):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), hi)
        g_counted, evaluations = _counted(g)
        out = bracket_roots(g_counted, lo, hi, xtol)
        refs = _brentq_per_bracket(g, lo, hi)
        flat = np.zeros(refs.shape, dtype=bool)
        for k in np.ndindex(refs.shape):
            ends = (out[0][k], out[1][k], refs[k])
            span = np.linspace(min(ends), max(ends), 9)
            flat[k] = all(_scalar(g, lo, k)(x) == 0.0 for x in span)
        calls.append(out + (refs, xtol, flat, len(evaluations)))
        return out

    monkeypatch.setattr(solitons, "bracket_roots", both)
    return calls


def _assert_within_tolerance(calls):
    """Every bracket against brentq; returns how many lie on a stretch of
    exact zeros wider than the tolerance."""
    assert calls
    wide = 0
    for lo, hi, refs, xtol, flat, _ in calls:
        for k in np.ndindex(refs.shape):
            if flat[k]:
                wide += abs(lo[k] - refs[k]) > xtol or abs(hi[k] - refs[k]) > xtol
            else:
                _assert_holds(lo[k], hi[k], refs[k], xtol)
    return wide


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: np.expm1(40.0 * (x - 0.3)), -1.0, 1.0),
    (lambda x: x ** 3 - 1e-9, 0.0, 1.0),
    (lambda x: np.tanh(1e4 * (x - 0.7)), 0.0, 1.0),
    (lambda x: np.copysign(1.0, x - 0.3), 0.0, 1.0),  # a jump
    (lambda x: 1e-300 * (np.cos(x) - x), 0.0, 1.0),  # subnormal values near the root
])
@pytest.mark.parametrize("xtol", [solitons.EVENT_XTOL, 1e-14, 1e-6, 0.0])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bracketed_root_matches_brentq(f, a, b, xtol):
    g, evaluations = _counted(f)
    lo, hi = bracket_roots(g, a, b, xtol)
    _assert_holds(lo, hi, _brentq_root(f, a, b), xtol)
    # never more evaluations than halving the same bracket to the same xtol
    assert len(evaluations) <= _bisection_evaluations(f, a, b, xtol)
    # one call on several brackets gives each bracket its own result, and a
    # bracket already found stays as it is
    many = bracket_roots(f, [a, lo, a], [b, hi, b], xtol)
    assert many[0].tolist() == [lo, lo, lo] and many[1].tolist() == [hi, hi, hi]


def test_bracketed_root_endpoints_and_bracket():
    # a jump is located to xtol; an endpoint where f vanishes is the root,
    # and so is a midpoint where f is exactly 0 (lo = hi there); no sign
    # change is an error
    for xtol in (solitons.EVENT_XTOL, 1e-14, 1e-6, 0.0):
        lo, hi = bracket_roots(lambda x: np.copysign(1.0, x - 0.3), 0.0, 1.0, xtol)
        assert lo <= 0.3 <= hi and hi - lo <= max(xtol, np.spacing(0.3))
    lo, hi = bracket_roots(lambda x: x - 1.0, [1.0, 0.0], [3.0, 1.0], 1e-14)
    assert lo.tolist() == hi.tolist() == [1.0, 1.0]
    lo, hi = bracket_roots(lambda x: x - 0.75, 0.5, 1.0, 0.0)  # the first midpoint
    assert lo == hi == 0.75
    with pytest.raises(ValueError):
        bracket_roots(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14)
    with pytest.raises(ValueError):
        bracket_roots(lambda x: x * x + 1.0, [0.0, -1.0], [1.0, 1.0], 1e-14)
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        bracket_roots(lambda x: np.log(x), -1.0, 2.0, 1e-14)  # nan at an end


@pytest.mark.parametrize("params", [SolitonParams(2, 1.0, "lorentzian"),
                                    SolitonParams(2, -1.0, "definite")],
                         ids=["lorentzian+1", "definite-1"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_events_match_brentq(params, monkeypatch):
    # the phase command's benchmark-sized 5 x 5 sweep, both directions:
    # every located event against brentq on the same event function, in one
    # call of at most 10 evaluations (halving to EVENT_XTOL takes 52), then
    # the whole sweep again with brentq locating the events
    calls = _record_against_brentq(monkeypatch)
    ours = integrate_bidirectional_many(params, _SWEEP, 10.0, rtol=1e-12)
    _assert_within_tolerance(calls)
    assert len(calls) == 1 and calls[0][0].size >= 2 * len(_SWEEP)
    assert calls[0][3] == solitons.EVENT_XTOL
    assert calls[0][5] <= 10

    def brentq_roots(g, lo, hi, xtol):
        refs = _brentq_per_bracket(g, lo, hi)
        return refs, refs

    monkeypatch.setattr(solitons, "bracket_roots", brentq_roots)
    ref = integrate_bidirectional_many(params, _SWEEP, 10.0, rtol=1e-12)
    assert [tr.stop_reason for tr in ours] == [tr.stop_reason for tr in ref]
    assert [classify(tr) for tr in ours] == [classify(tr) for tr in ref]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_turning_radius_matches_brentq(monkeypatch):
    calls = _record_against_brentq(monkeypatch)
    e0 = energy_threshold(LOR1)
    for E, params, side in [(0.5 * e0, LOR1, "below"), (0.5 * e0, LOR1, "above"),
                            (0.9 * e0, LOR1, "below"), (0.9 * e0, LOR1, "above"),
                            (0.3, SolitonParams(2, -1.0, "lorentzian"), "below"),
                            (2.0, SolitonParams(3, 0.0, "lorentzian"), "above")]:
        rho = turning_radius(E, params, side)
        if params.lambda_prime > 0:
            assert (rho < math.sqrt(params.n / params.lambda_prime)) == (side == "below")
        assert rho in (calls[-1][0], calls[-1][1])
    assert _assert_within_tolerance(calls) == 0
    assert len(calls) == 6
    assert all(xtol == 0.0 for *_, xtol, _, _ in calls)
    # trials keep an ulp from the ends, so a one-sided approach still
    # crosses the root: 9 to 13 evaluations here, halving takes 50 to 56
    assert all(evaluations <= 15 for *_, evaluations in calls)


# ---------------------------------------------------------------------------
# The post-loop assembly of integrate_many against the one it replaced,
# kept here as the reference: every accepted step's interpolant built
# eagerly in one _dense batch, the stops located on its columns, and each
# lane assembled on its own.  The batched assembly and the lazily built
# dense output give the same rows, counts, drifts and samples, bit for bit.
# ---------------------------------------------------------------------------

def _per_lane_trajectories(params, field, y0, directions, steps, fired, K_last, limits):
    lanes = len(y0)
    lane = np.concatenate([st[0] for st in steps])
    accepted = np.concatenate([st[1] for st in steps])
    rejected = np.bincount(lane[~accepted], minlength=lanes)
    take = np.flatnonzero(accepted)[np.argsort(lane[accepted], kind="stable")]

    def gather(k):
        return np.concatenate([st[k] for st in steps], axis=-1).take(take, axis=-1)

    h_all, y_old, y_all, K = gather(2), gather(3), gather(4), gather(5)
    F_all = solitons._dense(K, y_old, y_all, directions[lane[take]] * h_all, field)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(lane[take], minlength=lanes))])
    last = bounds[1:] - 1
    pair_lane, pair_event = np.nonzero(fired)
    p = last[pair_lane]
    F, y_from, y_to, cols = F_all[:, :, p], y_old[:, p], y_all[:, p], np.arange(p.size)

    def event(x):
        y = np.where(x == 1.0, y_to, solitons._interpolate(F, y_from, x))
        return solitons._events(y, field(y), limits)[pair_event, cols]

    roots = np.full(fired.shape, np.inf)
    roots[pair_lane, pair_event] = bracket_roots(
        event, np.zeros(p.size), np.ones(p.size), solitons.EVENT_XTOL)[1]
    stop = np.argmin(roots, axis=1)
    h_all[last] *= roots[np.arange(lanes), stop]
    hs = directions * h_all[last]
    y_all[:, last], K_end = solitons._step(y_old[:, last], K[0][:, last], hs, field)
    F_all[:, :, last] = solitons._dense(K_end, y_old[:, last], y_all[:, last], hs, field)
    dense, y_all = SimpleNamespace(F=np.swapaxes(F_all, 1, 2)), y_all.T

    out = []
    for i in range(lanes):
        seg = slice(bounds[i], bounds[i + 1])
        states = np.concatenate([y0[i:i + 1], y_all[seg]])
        branch = solitons._Branch(float(directions[i]), states, h_all[seg], dense,
                                  int(bounds[i]))
        E = solitons.energy(states, params)
        E0 = float(E[0])
        scale = max(abs(E0), float(solitons.radial_weight(y0[i, 0], params)), 1e-300)
        drift = float(np.max(np.abs(E - E0))) / scale
        ds = branch.direction * states[:, 3]
        keep = np.concatenate([[True], ds[1:] > np.maximum.accumulate(ds)[:-1]])
        keep[1:-1] &= ds[1:-1] < ds[-1]
        keep[-1] = ds[-1] > 0.0
        rows = states[keep] if branch.direction > 0 else states[keep][::-1]
        out.append(Trajectory(params, rows[:, 3], rows[:, :3], E0, drift,
                              drift < solitons.DRIFT_TOL, solitons._EVENTS[stop[i]],
                              accepted_steps=branch.h.size,
                              rejected_steps=int(rejected[i]),
                              dropped_knots=int(keep.size - keep.sum()),
                              _branches=(branch,)))
    return out


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, np.ascontiguousarray(a).tobytes()


# the definite lane of the benchmark sweeps whose alpha_floor end is the
# least accurate (seed 10, forward)
_FLOOR = (0.507, -0.793, 0.0)


@pytest.mark.parametrize("params, starts, signs, s_max", [
    (SolitonParams(2, 1.0, "lorentzian"), _SWEEP + _SWEEP, np.repeat([-1.0, 1.0], 25), 10.0),
    (SolitonParams(2, -1.0, "definite"), _SWEEP + _SWEEP, np.repeat([-1.0, 1.0], 25), 10.0),
    (SolitonParams(3, 0.0, "lorentzian"), _SAMPLE + _SAMPLE, [-1.0, -1.0, 1.0, 1.0], 10.0),
    (SolitonParams(3, -1.0, "definite"), _SAMPLE + _SAMPLE, [-1.0, -1.0, 1.0, 1.0], 10.0),
    (SolitonParams(2, -1.0, "definite"), [_FLOOR], [1.0], 10.0),
    (SolitonParams(2, -1.0, "definite"), [(0.9, 0.4, 0.0)], [1.0], 10.0),
    (SolitonParams(3, 0.0, "definite"), [(0.302, -0.16, 0.0)], [1.0], 3.0),
], ids=["lorentzian+1-sweep", "definite-1-sweep", "n3-lorentzian0", "n3-definite-1",
        "definite-alpha-floor", "one-lane", "one-lane-n3"])
def test_assembly_matches_per_lane_reference(params, starts, signs, s_max, monkeypatch):
    # lone lanes are where BLAS rounding by place shows: the last steps'
    # interpolants for event location must be their columns of the
    # all-steps batch, and the redone last steps need a batch of their own
    def run():
        return integrate_many(params, starts, signs, s_max, rtol=1e-12)

    ours = run()
    monkeypatch.setattr(solitons, "_trajectories", _per_lane_trajectories)
    ref = run()
    if starts == [_FLOOR]:
        assert ours[0].stop_reason == "alpha_floor"
    for tr, rf in zip(ours, ref):
        assert _bits(tr.s) == _bits(rf.s)
        assert _bits(tr.states) == _bits(rf.states)
        assert tr.max_E_drift.hex() == rf.max_E_drift.hex()
        assert tr.E0.hex() == rf.E0.hex()
        assert (tr.accepted, tr.stop_reason) == (rf.accepted, rf.stop_reason)
        assert (tr.accepted_steps, tr.rejected_steps, tr.dropped_knots) == \
            (rf.accepted_steps, rf.rejected_steps, rf.dropped_knots)
        s = np.linspace(tr.s[0], tr.s[-1], 41)
        assert _bits(tr.sample(s)) == _bits(rf.sample(s))


def test_dense_output_is_built_once_for_the_batch(tmp_path, monkeypatch):
    # _dense builds interpolants: integrate_many builds those of its lanes'
    # last steps only; the first sample of any trajectory of the call builds
    # every accepted step's, the redone last steps' included, in one batch,
    # and later samples reuse them
    calls = []
    dense = solitons._dense

    def spy(K, *args, **kw):
        calls.append(K.shape[-1])
        return dense(K, *args, **kw)

    monkeypatch.setattr(solitons, "_dense", spy)
    assert cli.main(["phase", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian",
                     "--out-dir", str(tmp_path)]) == 0
    assert calls == [2 * 25]
    calls.clear()
    trajs = integrate_bidirectional_many(DEF0, _SWEEP, 10.0, rtol=1e-12)
    assert calls == [2 * 25]
    steps = sum(tr.accepted_steps for tr in trajs)
    trajs[7].sample([trajs[7].s[0] / 2, trajs[7].s[-1] / 2])
    assert calls == [2 * 25, steps]
    trajs[7].sample([0.0])
    trajs[0].sample([0.0])
    assert calls == [2 * 25, steps]


# ---------------------------------------------------------------------------
# integrate_many's loop against the one it replaced, kept here as the
# reference: every stage in fresh arrays with fresh row views, and a
# finished lane compacted out of the batch.  The loop on one workspace,
# which freezes finished lanes in their columns, gives the same
# trajectories and samples, bit for bit.
# ---------------------------------------------------------------------------

def _fresh_step(y, f, hs, field):
    K = field.empty((13,) + y.shape)
    K[0] = f
    K2 = K.reshape(13, -1)
    hs_rows = np.empty(y.shape)
    hs_rows[...] = hs
    for s in range(1, 13):
        y_s = np.empty(y.shape)
        np.dot(solitons._A[s, :s], K2[:s], out=y_s.reshape(-1))
        y_s *= hs_rows
        y_s += y
        field(y_s, out=K[s])
    return y_s, K


def _compacting_integrate_many(params, initial, directions, s_max, *, rtol=1e-10):
    y0 = np.array(initial, dtype=float).reshape(-1, 3)
    lanes = len(y0)
    y0 = np.concatenate([y0, np.zeros((lanes, 1))], axis=1)
    directions = np.broadcast_to(np.asarray(directions, dtype=float), (lanes,))
    sign = directions.copy()
    limits = np.array([[solitons.R_MIN], [solitons.R_MAX], [solitons.ALPHA_MAX],
                       [solitons.ALPHA_FLOOR], [float(s_max)]])
    field = solitons._Field(params)
    rtol, atol = np.array(rtol), np.array(solitons.STEP_ATOL)
    ids = np.arange(lanes)
    y = y0.T.copy()
    dim = len(y)
    t = np.zeros(lanes)
    f = field(y)
    h_abs = solitons._initial_step(y, f, field, sign, rtol, atol)
    rejected = np.zeros(lanes, dtype=bool)
    retry = False
    armed = np.ones((5, lanes), dtype=bool)
    armed[3] = params.case == "definite"
    armed[3] &= np.abs(y[1]) > solitons.ALPHA_FLOOR
    sg = np.sign(solitons._events(y, f, limits))
    steps = []
    fired_rows = np.zeros((lanes, 5), dtype=bool)
    K_last = np.empty((13, dim, lanes))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while ids.size:
            min_step = 10.0 * np.spacing(t)
            if retry:
                h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
                under = np.flatnonzero(rejected & (h_abs < min_step))
                if under.size:
                    r, a = y[:2, under[0]]
                    raise StepFailure(f"step size underflow at r = {r:.6g}, alpha = {a:.6g}")
            else:
                h_abs = np.maximum(h_abs, min_step)
            t_new = t + h_abs
            h = t_new - t
            y_new, K = _fresh_step(y, f, sign * h, field)
            K2 = K.reshape(13, -1)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            est = np.empty((2, K2.shape[1]))
            np.dot(solitons._ERR[0], K2, out=est[0])
            np.dot(solitons._ERR[1], K2, out=est[1])
            e5, e3 = np.add.reduce(np.square(est.reshape(2, dim, -1) / scale), axis=1)
            err = h * e5 / np.sqrt(np.fmax(e5 + 0.01 * e3, 1e-300) * dim)
            accepted = err < 1.0
            factor = 0.9 * err ** -0.125
            grow = np.minimum(10.0, factor)
            if retry:
                grow = np.where(rejected, np.minimum(1.0, grow), grow)
            steps.append((ids, accepted, h, y, y_new, K))
            sg_new = np.sign(solitons._events(y_new, K[12], limits))
            fired = armed & (sg * sg_new <= 0)
            all_accepted = accepted.all()
            if all_accepted:
                h_abs = h * grow
                y, t, sg, f = y_new, t_new, sg_new, K[12]
            else:
                h_abs = h * np.where(accepted, grow, np.fmax(0.2, factor))
                fired &= accepted
                y = np.where(accepted, y_new, y)
                t = np.where(accepted, t_new, t)
                sg = np.where(accepted, sg_new, sg)
                f = np.where(accepted, K[12], f)
            finished = fired.any(axis=0)
            rejected = ~accepted
            retry = not all_accepted
            if not finished.any():
                continue
            fired_rows[ids[finished]] = fired[:, finished].T
            K_last[:, :, ids[finished]] = K[:, :, finished]
            keep = ~finished
            ids, y, t, h_abs, rejected, sign = (
                ids[keep], y[:, keep], t[keep], h_abs[keep], rejected[keep], sign[keep])
            sg, armed, f = sg[:, keep], armed[:, keep], f[:, keep]
            retry = bool(rejected.any())
    return solitons._trajectories(params, field, y0, directions, steps, fired_rows,
                                  K_last, limits)


def _assert_same_trajectories(ours, ref):
    assert len(ours) == len(ref)
    for tr, rf in zip(ours, ref):
        assert _bits(tr.s) == _bits(rf.s) and _bits(tr.states) == _bits(rf.states)
        assert (tr.E0.hex(), tr.max_E_drift.hex()) == (rf.E0.hex(), rf.max_E_drift.hex())
        assert (tr.accepted, tr.stop_reason, tr.accepted_steps, tr.rejected_steps,
                tr.dropped_knots) == (rf.accepted, rf.stop_reason, rf.accepted_steps,
                                      rf.rejected_steps, rf.dropped_knots)
        s = np.linspace(tr.s[0], tr.s[-1], 41)
        assert _bits(tr.sample(s)) == _bits(rf.sample(s))


def _sweep_starts(seed):
    """The benchmark's phase sweep starts: 5 x 5 over seed-jittered ranges."""
    rng = random.Random(seed)
    half = 0.9 + rng.uniform(-0.05, 0.05)
    a = 0.8 + rng.uniform(-0.05, 0.05)
    return [(float(r), float(al), 0.0) for r in np.linspace(_R0 - half, _R0 + half, 5)
            for al in np.linspace(-a, a, 5)]


def _records(monkeypatch):
    """The per-iteration records of every integrate_many call from now on."""
    calls = []
    assemble = solitons._trajectories

    def spy(params, field, y0, directions, steps, *rest):
        calls.append(steps)
        return assemble(params, field, y0, directions, steps, *rest)

    monkeypatch.setattr(solitons, "_trajectories", spy)
    return calls


@pytest.mark.parametrize("seed", [61, 83])
@pytest.mark.parametrize("params", [SolitonParams(2, 1.0, "lorentzian"),
                                    SolitonParams(2, -1.0, "definite")],
                         ids=["lorentzian+1", "definite-1"])
def test_benchmark_sweeps_match_the_compacting_loop(params, seed, monkeypatch):
    starts = _sweep_starts(seed)
    signs = np.repeat([-1.0, 1.0], len(starts))
    records = _records(monkeypatch)
    ours = integrate_many(params, starts + starts, signs, 10.0, rtol=1e-12)
    ref = _compacting_integrate_many(params, starts + starts, signs, 10.0, rtol=1e-12)
    _assert_same_trajectories(ours, ref)
    # lanes finish at many iterations, and are frozen, not compacted
    widths = [st[0].size for st in records[0]]
    assert len(set(widths)) > 10 and widths[0] == 50
    assert all(st[5].shape == (13, 4, st[0].size) for st in records[0])


def test_soliton_ode_calls_match_the_compacting_loop(monkeypatch):
    calls = []
    many = solitons.integrate_many

    def spy(params, initial, directions, s_max, **kw):
        calls.append((params, initial, directions, s_max, kw))
        return many(params, initial, directions, s_max, **kw)

    monkeypatch.setattr(solitons, "integrate_many", spy)
    from parakahler import verify

    assert all(c.passed for c in verify.run_suite("soliton-ode"))
    monkeypatch.undo()
    assert len(calls) == 21
    for params, initial, directions, s_max, kw in calls:
        _assert_same_trajectories(integrate_many(params, initial, directions, s_max, **kw),
                                  _compacting_integrate_many(params, initial, directions,
                                                             s_max, **kw))


def _random_batch(seed):
    """params, starts, signs, s_max and rtol of a random batch."""
    rng = np.random.default_rng(seed)
    params = SolitonParams(int(rng.integers(2, 4)), float(rng.choice([1.0, 0.0, -1.0])),
                           str(rng.choice(solitons.CASES)))
    lanes = int(rng.integers(12, 24))
    starts = np.column_stack([rng.uniform(0.1, 3.0, lanes), rng.uniform(-1.5, 1.5, lanes),
                              rng.uniform(-0.5, 0.5, lanes)])
    signs = rng.choice([-1.0, 1.0], lanes)
    return params, starts, signs, float(rng.uniform(1.0, 8.0)), \
        float(rng.choice([1e-12, 1e-9, 1e-6]))


@pytest.mark.parametrize("seed", range(9))
def test_random_batches_match_the_compacting_loop(seed, monkeypatch):
    # lanes that finish at different iterations, on every event; the
    # definite l' = 1 batch of seed 8 retries 27 rejected steps while lanes
    # are frozen
    params, starts, signs, s_max, rtol = _random_batch(seed)
    records = _records(monkeypatch)
    ours = integrate_many(params, starts, signs, s_max, rtol=rtol)
    _assert_same_trajectories(
        ours, _compacting_integrate_many(params, starts, signs, s_max, rtol=rtol))
    steps = records[0]
    assert len({st[0].size for st in steps}) > 4
    if seed == 8:
        assert sum(st[0].size < len(starts) and not st[1].all() for st in steps) == 27


def _counted_runs(monkeypatch):
    """The number of steps _Stages.run makes from now on, in a list."""
    count = [0]
    run = solitons._Stages.run

    def counted(self):
        count[0] += 1
        run(self)

    monkeypatch.setattr(solitons._Stages, "run", counted)
    return count


def test_step_failure_names_its_own_lane_among_frozen_ones(monkeypatch):
    # the forward lane's field is nan past s = 0.05, so its steps shrink to
    # the 10-ulp floor and it raises, naming its own (r, alpha) as it does
    # alone; the backward lanes stop on s_max before that and are frozen in
    # the columns on either side of it
    _poison(monkeypatch, lambda y: y[3] > 0.05)
    runs = _counted_runs(monkeypatch)
    lane, others = (1.0, 0.25, 0.0), [(0.9, 0.3, 0.0), (1.7, -0.5, 0.2)]
    with pytest.raises(StepFailure) as alone:
        integrate_many(LOR1, [lane], 1, 0.3)
    alone_runs = runs[0]
    backward = integrate_many(LOR1, others, -1, 0.3)
    assert all(tr.stop_reason == "s_max" for tr in backward)
    assert max(tr.accepted_steps + tr.rejected_steps for tr in backward) < alone_runs - 5
    runs[0] = 0
    with pytest.raises(StepFailure) as batch:
        integrate_many(LOR1, [others[0], lane, others[1]], [-1, 1, -1], 0.3)
    assert str(batch.value) == str(alone.value)
    assert runs[0] == alone_runs


def test_a_frozen_lane_never_raises_or_fires(monkeypatch):
    # lane 0 runs into the alpha blow-up in 30 iterations and lane 1 into
    # r -> 0 in 100.  The field is nan past lane 0's last accepted |alpha|
    # by 1: had lane 0 gone on integrating, its steps would have been
    # rejected to the 10-ulp floor and raised, or its events fired again.
    # Frozen, it repeats its last state: the batch raises nothing and each
    # lane equals its batch of one, bit for bit.
    starts, signs = [(2.31050539784756, -0.807086589460797, 0.0), (1.3, 0.1, 0.0)], [-1, 1]
    records = _records(monkeypatch)
    workspaces = []
    stages = solitons._Stages.__init__

    def kept_workspace(self, *args):
        stages(self, *args)
        workspaces.append(self)

    monkeypatch.setattr(solitons._Stages, "__init__", kept_workspace)
    integrate_many(LOR1, starts[:1], -1, 10.0, rtol=1e-12)
    last = records[-1][-1]
    assert last[1].all() and abs(last[4][1, 0]) > solitons.ALPHA_MAX
    _poison(monkeypatch, lambda y: np.abs(y[1]) > abs(last[4][1, 0]) + 1.0)
    workspaces.clear()
    batch = integrate_many(LOR1, starts, signs, 10.0, rtol=1e-12)
    assert [tr.stop_reason for tr in batch] == ["alpha_max", "r_min"]
    widths = [st[0].size for st in records[-1]]
    assert widths.count(1) > widths.count(2) > 20
    # the loop's workspace still holds lane 0's last accepted state and its
    # field at every stage
    work = workspaces[0]            # then those of the last steps' interpolants and redos
    assert work.K.shape == (13, 4, 2)
    kept = [st[4][:, list(st[0]).index(0)] for st in records[-1] if 0 in st[0]]
    assert _bits(work.y[:, 0]) == _bits(kept[-1])
    assert all(_bits(work.K[s, :, 0]) == _bits(work.K[0, :, 0]) for s in range(13))
    for y0, d, tr in zip(starts, signs, batch):
        _assert_same_trajectories([tr], integrate_many(LOR1, [y0], d, 10.0, rtol=1e-12))


def test_a_frozen_lane_on_a_zero_event_fires_once(monkeypatch):
    # where |s| >= s_max the s_max event is 0 here, not positive: a lane's
    # stop then leaves it on a zero of its event, which would fire again on
    # every later iteration if its events stayed armed.  Frozen, the lane
    # fires once, and each lane equals its batch of one, bit for bit.
    events = solitons._events

    def zero_past_s_max(y, f, limits):
        ev = events(y, f, limits)
        ev[4] = np.minimum(ev[4], 0.0)
        return ev

    monkeypatch.setattr(solitons, "_events", zero_past_s_max)
    records = _records(monkeypatch)
    starts, signs = [(1.2, 0.2, 0.0), (1.3, 0.1, 0.0)], [1, -1]
    batch = integrate_many(LOR1, starts, signs, 0.5, rtol=1e-12)
    assert [tr.stop_reason for tr in batch] == ["s_max", "s_max"]
    assert len({st[0].size for st in records[-1]}) == 2
    for y0, d, tr in zip(starts, signs, batch):
        _assert_same_trajectories([tr], integrate_many(LOR1, [y0], d, 0.5, rtol=1e-12))


def test_a_frozen_lane_is_accepted_whatever_its_error(monkeypatch):
    # once lane 0 has stopped, each evaluation at its last state adds a new
    # offset to alpha', so its stages differ and the error estimate of its
    # 10-ulp steps is far above 1.  Masked out of the acceptance and retry
    # decision, it neither raises nor moves lane 1 by a bit.
    starts, signs = [(2.31050539784756, -0.807086589460797, 0.0), (1.3, 0.1, 0.0)], [-1, 1]
    records = _records(monkeypatch)
    integrate_many(LOR1, starts[:1], -1, 10.0, rtol=1e-12)
    y_stop = records[-1][-1][4][:, 0]
    seen = [0]
    bind = solitons._Field.bind

    def offset_after_the_stop(self, y, out):
        rows = bind(self, y, out)

        def offset_rows():
            rows()
            at_stop = np.all(y == y_stop[:, None], axis=0)
            seen[0] += bool(at_stop.any())
            if seen[0] > 1:
                out[1] = np.where(at_stop, out[1] + 1e12 * seen[0], out[1])
        return offset_rows

    monkeypatch.setattr(solitons._Field, "bind", offset_after_the_stop)
    ours = integrate_many(LOR1, starts, signs, 10.0, rtol=1e-12)
    assert seen[0] > 100
    monkeypatch.undo()
    _assert_same_trajectories(ours, integrate_many(LOR1, starts, signs, 10.0, rtol=1e-12))
