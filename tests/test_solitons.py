import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from parakahler import equivariant, solitons
from parakahler.dcore import bracket_roots, d_grading2, d_norm2, d_pow
from parakahler.errors import (
    IntegrandSingular,
    InvalidCase,
    InvalidRange,
    NonpositiveRadius,
)
from parakahler.dlinalg import gram
from parakahler.geometry import grid_mean_curvature, normal_project
from parakahler.solitons import (
    SolitonParams,
    SolitonState,
    Trajectory,
    ambient_residual,
    classify,
    critical_point,
    energy_threshold,
    first_integral,
    hyperbola_solution,
    integrate,
    integrate_bidirectional,
    integrate_bidirectional_many,
    integrate_many,
    normal_component_residuals,
    phi_quadrature,
    reconstruct_profile,
    turning_radius,
    vector_field,
)

LOR1 = SolitonParams(2, 1.0, "lorentzian")
DEF0 = SolitonParams(2, 0.0, "definite")


def test_vector_field_critical_point():
    p = SolitonParams(2, 2.0, "lorentzian")  # r0 = 1 exactly representable
    cp = critical_point(p)
    dr, da, dphi = vector_field(cp, p)
    assert (dr, da) == (0.0, 0.0)
    assert dphi == pytest.approx(1.0 / cp.r)


def test_vector_field_definite_values():
    p = SolitonParams(2, 0.0, "definite")
    dr, da, dphi = vector_field(SolitonState(1.0, 1.0, 0.0), p)
    assert dr == pytest.approx(math.cosh(1))
    assert da == pytest.approx(-2 * math.sinh(1))
    assert dphi == pytest.approx(math.sinh(1))
    dr, da, _ = vector_field(SolitonState(3.0, 0.0, 0.0), p)
    assert (dr, da) == (1.0, 0.0)


def test_vector_field_rejects_nonpositive_radius():
    with pytest.raises(NonpositiveRadius):
        vector_field(SolitonState(0.0, 0.0, 0.0), LOR1)


def test_first_integral_zero_at_alpha_zero():
    p = SolitonParams(3, 0.7, "definite")
    for r in (0.5, 1.0, 2.0):
        assert first_integral(SolitonState(r, 0.0, 0.0), p) == 0.0


def test_first_integral_critical_value():
    p = LOR1
    E = first_integral(critical_point(p), p)
    assert E == pytest.approx((2 / 1.0) ** 1 * math.exp(-1.0))


def test_energy_threshold_values():
    assert energy_threshold(SolitonParams(2, 2.0, "lorentzian")) == pytest.approx(
        math.exp(-1.0))
    assert energy_threshold(SolitonParams(2, 1.0, "lorentzian")) == pytest.approx(
        2 * math.exp(-1.0))
    p = SolitonParams(3, 1.5, "lorentzian")
    assert energy_threshold(p) == first_integral(critical_point(p), p)
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
        return np.array(vector_field(SolitonState(*y), p))

    def rk4(y, h):
        k1 = f(y)
        k2 = f(y + h / 2 * k1)
        k3 = f(y + h / 2 * k2)
        k4 = f(y + h * k3)
        return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    E0 = first_integral(SolitonState(*y0), p)
    errs = []
    for h in (0.1, 0.05):
        y1 = rk4(y0, h)
        errs.append(abs(first_integral(SolitonState(*y1), p) - E0))
    assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.3)


def test_integrate_critical_point_constant():
    p = SolitonParams(2, 2.0, "lorentzian")  # r0 = 1 exactly representable
    tr = integrate(critical_point(p), p, 10.0)
    assert np.max(np.abs(tr.r - 1.0)) < 1e-12
    assert np.max(np.abs(tr.alpha)) < 1e-12
    assert tr.stop_reason == "s_max"
    assert classify(tr) == "critical_point"


def test_integrate_conserves_energy():
    tr = integrate(SolitonState(1.0, 0.5, 0.0), SolitonParams(2, 1.0, "definite"),
                   5.0, rtol=1e-12)
    assert tr.accepted
    assert tr.max_E_drift < 1e-8


def test_definite_radius_strictly_increases():
    tr = integrate(SolitonState(1.0, 0.7, 0.0), DEF0, 5.0)
    assert np.all(np.diff(tr.r) > 0)


def test_integrate_rejects_small_initial_radius():
    with pytest.raises(InvalidRange):
        integrate(SolitonState(1e-9, 0.0, 0.0), LOR1, 1.0)


def test_subcritical_inner_symmetric():
    tr = integrate_bidirectional(SolitonState(0.5, 0.0, 0.0), LOR1, 10.0,
                                 rtol=1e-12)
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
    tr = integrate_bidirectional(SolitonState(2.5, 0.0, 0.0), LOR1, 8.0,
                                 rtol=1e-12)
    assert classify(tr) == "subcritical_outer"
    assert np.all(tr.r > math.sqrt(2))
    tr = integrate_bidirectional(SolitonState(2.0, 1.2, 0.0), LOR1, 8.0,
                                 rtol=1e-12)
    assert tr.E0 > energy_threshold(LOR1)
    assert classify(tr) == "supercritical"
    assert tr.r.min() < 1e-3 and tr.r.max() > 5.0


def test_lambda_zero_matches_level_sets():
    p0 = SolitonParams(2, 0.0, "lorentzian")
    a0 = 0.4
    tr = integrate_bidirectional(SolitonState(1.0, a0, -a0 / 2), p0, 5.0,
                                 rtol=1e-12)
    assert classify(tr) == "nonpositive_lambda"
    prof = reconstruct_profile(tr, 201, s_lo=float(tr.s[0]) + 1e-3,
                               s_hi=float(tr.s[-1]) - 1e-3)
    g2 = d_pow(prof.gamma, 2)
    assert np.max(np.abs(g2[:, 0] - tr.E0)) < 1e-6


def test_reconstruction_consistency_lorentzian():
    tr = integrate(SolitonState(1.2, 0.3, 0.1), LOR1, 1.5,
                   rtol=1e-12)
    prof = reconstruct_profile(tr, 1001, q=0, s_lo=0.05, s_hi=1.4)
    dg = prof.derivative_samples()
    st = tr.sample(prof.s)
    theta = st[:, 1] + st[:, 2]
    expected = np.stack([np.sinh(theta), np.cosh(theta)], -1)
    assert np.max(np.abs(dg - expected)) < 1e-6
    assert np.max(np.abs(d_norm2(dg) + 1.0)) < 1e-6


def test_reconstruction_consistency_definite():
    tr = integrate(SolitonState(1.0, 0.4, 0.0), DEF0, 2.0,
                   rtol=1e-12)
    prof = reconstruct_profile(tr, 1001, q=0, s_lo=0.01, s_hi=1.9)
    dg = prof.derivative_samples()
    st = tr.sample(prof.s)
    theta = st[:, 1] + st[:, 2]
    expected = np.stack([np.cosh(theta), np.sinh(theta)], -1)
    assert np.max(np.abs(dg - expected)) < 1e-6
    assert np.max(np.abs(d_norm2(dg) - 1.0)) < 1e-6


def test_reconstruction_q1_swaps_causal_type():
    # reconstructing with q = 1 gives gammadot = tau e^{tau theta}, timelike
    tr = integrate(SolitonState(1.0, 0.4, 0.0), DEF0, 2.0,
                   rtol=1e-12)
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
    tr = integrate(SolitonState(1.0, math.asinh(1.0), 0.0), DEF0, 4.0,
                   rtol=1e-12)
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
    tr = integrate_bidirectional(SolitonState(0.5, 0.0, 0.0), LOR1, 10.0,
                                 rtol=1e-12)
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
        ref = mH[node] + 0.7 * normal_project(imm.values[node], first, gram(first))
        expected[node] = float(np.sqrt(np.sum(d_grading2(ref))))
    assert 0 < len(tested) < len(nodes)
    assert dict(zip(tested, res.tolist())) == expected
    skipped = next(n for n in nodes if n not in expected)
    comps = normal_component_residuals(imm, [skipped, tested[0]], 0.7)
    assert comps.shape == (2, 2)
    assert np.all(np.isnan(comps[0])) and np.all(np.isfinite(comps[1]))


def test_classification_definite():
    tr = integrate(SolitonState(1.0, 0.2, 0.0), SolitonParams(2, 1.0, "definite"),
                   5.0)
    assert classify(tr) == "definite_expanding"


def test_lorentzian_nonpositive_lambda_bounded():
    p = SolitonParams(2, 0.0, "lorentzian")
    tr = integrate_bidirectional(SolitonState(1.0, 0.4, 0.0), p, 10.0,
                                 rtol=1e-12)
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
    E = [first_integral(SolitonState(*st[:3]), params) for st in sol.y.T]
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
                      first_integral(SolitonState(*y0), params), 0.0, True, "")
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
    # the same lane alone or in a batch: equal up to the rounding of the
    # batched stage sums
    starts = [(0.9, 0.3, 0.0), (1.7, -0.5, 0.2)]
    batch = integrate_many(LOR1, starts, [1.0, -1.0], 6.0, rtol=1e-12)
    for y0, d, tr in zip(starts, (1, -1), batch):
        one = integrate(SolitonState(*y0), LOR1, 6.0, rtol=1e-12, direction=d)
        assert one.stop_reason == tr.stop_reason
        assert abs(len(one.s) - len(tr.s)) <= 1
        s = np.linspace(0.05, 0.9, 30) * (one.s[-1] if d > 0 else one.s[0])
        assert np.allclose(one.sample(s), tr.sample(s), rtol=1e-9, atol=1e-12)


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
            tr = integrate(SolitonState(*y0), LOR1, 10.0, rtol=1e-12, direction=d)
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
    tr = integrate(SolitonState(*y0), LOR1, 10.0, rtol=1e-12, direction=-1)
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
