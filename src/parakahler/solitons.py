"""Equivariant self-similar solutions of mean curvature flow in D^n.

A profile curve gamma(s) = p tau^q r(s) e^{tau phi(s)} lifts to an
equivariant Lagrangian; the self-similar equation H + lambda F_perp = 0
(with H the un-normalized trace of the second fundamental form, the
convention used throughout this module) reduces to planar systems in
(r, alpha), alpha = theta - phi being the angle of gammadot relative to
gamma:

    definite   (gamma, gammadot same causal type):
        rdot = cosh(alpha),  alphadot = (-n/r + l' r) sinh(alpha),
        phidot = sinh(alpha) / r
    lorentzian (opposite causal types):
        rdot = sinh(alpha),  alphadot = (-n/r + l' r) cosh(alpha),
        phidot = cosh(alpha) / r

with l' = eps * lambda, eps the causal sign of gamma.  Each system conserves

    E(r, alpha) = r^n exp(-l' r^2 / 2) * (sinh alpha | cosh alpha).

The Lorentzian system with l' > 0 has the critical point
(r0, 0) = (sqrt(n/l'), 0); the energy there,

    E0 = (n / l')^(n/2) * exp(-n/2),

separates bounded from unbounded trajectories.  Integration uses an
embedded 4th/5th-order Runge-Kutta pair with the energy drift as an
independent acceptance gate; conservation, not the step estimator, is the
ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dcore import d_exp_tau, d_grading2
from .dlinalg import apply_J, metric
from .equivariant import ProfileCurve, lift
from .errors import (
    IntegrandSingular,
    InvalidCase,
    InvalidRange,
    NonpositiveRadius,
    StepFailure,
)
from .geometry import (
    JET_MARGIN,
    SampledImmersion,
    induced_metric,
    jet,
    mean_curvature,
    position_normal_part,
)

CASES = ("definite", "lorentzian")

R_MIN = 1e-6
R_MAX = 1e6
# Both the r -> 0 collapse and the alpha blow-up happen at finite s; past
# alpha ~ 30 the remaining s-interval shrinks under an ulp and no event can
# be localized, so the cap stops integration while s is still resolvable.
ALPHA_MAX = 30.0
# |alpha| + |dalpha/ds| below which a definite trajectory stops
# ("alpha_floor"; see integrate_many)
ALPHA_FLOOR = 1e-5
DRIFT_TOL = 1e-8
_TINY = np.array(1e-300)
_EPS = np.finfo(float).eps
# Bracketed roots (_bracketed_root) stop once the bracket is within
# xtol + rtol |x| of the root: ROOT_RTOL = 4 ulp for every root, and an
# absolute part of 4 ulp of 1 for stop events, 1e-14 for turning radii;
# ROOT_MAXITER bounds the iterations.
ROOT_RTOL = 4 * _EPS
ROOT_MAXITER = 100
EVENT_XTOL = 4 * _EPS
TURNING_XTOL = 1e-14
# epsabs = epsrel of the phi quadrature: the smooth definite integrand, and
# the Lorentzian pieces with their turning-point substitutions
QUAD_TOL_DEFINITE = 1e-12
QUAD_TOL_LORENTZIAN = 1e-11


@dataclass(frozen=True)
class SolitonParams:
    n: int
    lambda_prime: float
    case: str

    def __post_init__(self):
        if self.n < 2:
            raise InvalidRange("need n >= 2")
        if self.case not in CASES:
            raise InvalidCase(f"case must be one of {CASES}, got {self.case!r}")


@dataclass(frozen=True)
class SolitonState:
    r: float
    alpha: float
    phi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.alpha, self.phi])


class _Field:
    """(dr/ds, dalpha/ds, dphi/ds) at states y (3, ...) for one
    SolitonParams.  Constants are 0-d arrays: numpy combines those with
    small arrays faster than Python floats.

    r is floored at 1e-300 so that trial stages overshooting r = 0 stay
    finite (the step is then rejected on its error estimate).
    """

    def __init__(self, params: SolitonParams):
        self.definite = params.case == "definite"
        self.neg_n = np.array(-float(params.n))
        self.lam = np.array(float(params.lambda_prime))

    def __call__(self, y, out=None):
        if out is None:
            out = np.empty(np.shape(y))
        r = np.maximum(y[0], _TINY)
        rate, v = (np.cosh, np.sinh) if self.definite else (np.sinh, np.cosh)
        rate(y[1], out[0])
        v = v(y[1])
        np.multiply(self.neg_n / r + self.lam * r, v, out[1])
        np.divide(v, r, out[2])
        return out


def vector_field(state: SolitonState, params: SolitonParams):
    """(dr/ds, dalpha/ds, dphi/ds) at a state with r > 0."""
    if state.r <= 0.0:
        raise NonpositiveRadius(f"r = {state.r}")
    return tuple(float(v) for v in _Field(params)(state.as_array()[:, None])[:, 0])


def radial_weight(r, params: SolitonParams):
    """g(r) = r^n exp(-l' r^2 / 2), the radial factor of the first integral."""
    return r ** params.n * np.exp(-params.lambda_prime * r * r / 2.0)


def energy(states, params: SolitonParams) -> np.ndarray:
    """First integral at states (..., 3) with r > 0."""
    r, a = states[..., 0], states[..., 1]
    return radial_weight(r, params) * (np.sinh(a) if params.case == "definite"
                                       else np.cosh(a))


def first_integral(state: SolitonState, params: SolitonParams) -> float:
    """Conserved energy: g(r) sinh(alpha) (definite) or g(r) cosh(alpha)."""
    if state.r <= 0.0:
        raise NonpositiveRadius(f"r = {state.r}")
    return float(energy(state.as_array(), params))


def critical_point(params: SolitonParams) -> SolitonState:
    if params.case != "lorentzian" or params.lambda_prime <= 0.0:
        raise InvalidCase("critical point exists only for lorentzian, lambda' > 0")
    return SolitonState(math.sqrt(params.n / params.lambda_prime), 0.0, 0.0)


def energy_threshold(params: SolitonParams) -> float:
    """E0 = (n/l')^(n/2) exp(-n/2), the first integral at the critical point."""
    cp = critical_point(params)
    return first_integral(cp, params)


@dataclass(frozen=True)
class _Branch:
    """Dense output of one integration direction: knots t (k+1,) ascending
    from 0 and the states y (k+1, 3) there; per step its full length h (k,)
    and interpolant coefficients Q (k, 3, 4).  A step cut short by an event
    keeps its full h, the knot being the event."""
    direction: float
    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    Q: np.ndarray

    def __call__(self, t: np.ndarray) -> np.ndarray:
        if not self.h.size:
            return np.repeat(self.y[:1], t.size, axis=0)
        seg = np.clip(np.searchsorted(self.t, t) - 1, 0, self.h.size - 1)
        h = self.h[seg]
        x = (t - self.t[seg]) / h
        x2 = x * x
        p = np.stack([x, x2, x2 * x, x2 * x * x], axis=-1)
        return h[:, None] * np.einsum("kij,kj->ki", self.Q[seg], p) + self.y[seg]


@dataclass
class Trajectory:
    params: SolitonParams
    s: np.ndarray            # (k,), ascending
    states: np.ndarray       # (k, 3) rows (r, alpha, phi)
    E0: float
    max_E_drift: float
    accepted: bool
    stop_reason: str
    classification: str | None = None
    _branches: tuple = field(default=(), repr=False)

    @property
    def r(self):
        return self.states[:, 0]

    @property
    def alpha(self):
        return self.states[:, 1]

    @property
    def phi(self):
        return self.states[:, 2]

    def sample(self, svals) -> np.ndarray:
        """Dense-output interpolation of (r, alpha, phi) at given s values."""
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        out = np.empty((svals.size, 3))
        todo = np.ones(svals.size, dtype=bool)
        for branch in self._branches:
            t = branch.direction * svals
            t_end = branch.t[-1]
            hit = todo & (t >= -1e-12) & (t <= t_end * (1 + 1e-12))
            out[hit] = branch(np.clip(t[hit], 0.0, t_end))
            todo &= ~hit
        if todo.any():
            raise InvalidRange(f"s = {svals[todo][0]} outside the integrated span")
        return out


# Dormand-Prince 5(4) (Dormand & Prince 1980): stage rows of A, the 5th-order
# weights B, the error weights E (5th minus 4th order, FSAL stage last) and
# Shampine's 4th-order dense output P, as in Hairer-Norsett-Wanner II.5-6.
_A = (None,
      np.array([1 / 5]),
      np.array([3 / 40, 9 / 40]),
      np.array([44 / 45, -56 / 15, 32 / 9]),
      np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
      np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]))
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
               1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
# step control constants as 0-d arrays (see _Field): safety factor, error
# exponent -1/(4 + 1), step factors 1/5 to 10, and the 10-ulp step floor
_SAFETY, _EXPONENT = np.array(0.9), np.array(-0.2)
_FIFTH, _ONE, _THREE, _TEN = (np.array(v) for v in (0.2, 1.0, 3.0, 10.0))
_EVENTS = ("r_min", "r_max", "alpha_max", "alpha_floor")


def _rms(x):
    return np.sqrt(np.add.reduce(x * x) / _THREE)


def _events(y, dalpha, limits):
    """Event functions (4, ...) at states y (3, ...) with alpha-rates dalpha:
    r - r_min, r - r_max, |alpha| - alpha_max and |alpha| + |dalpha| -
    alpha_floor for limits (4, 1); a stop is a sign change of its row."""
    out = np.empty((4,) + np.shape(y[0]))
    out[:2] = y[0]
    np.abs(y[1], out=out[2])
    np.abs(dalpha, out=out[3])
    out[3] += out[2]
    out -= limits
    return out


def _initial_step(y, f, field, sign, s_max, rtol, atol):
    """Hairer-Norsett-Wanner's starting step per lane (II.4), as scipy picks
    it; the lanes run along sign * f."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), s_max)
    d2 = _rms((field(y + h0 * sign * f) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** 0.2)
    return np.minimum(np.minimum(100 * h0, h1), s_max)


def _bracketed_root(f, a: float, b: float, xtol: float) -> float:
    """A root of the scalar f in [a, b], where f(a) and f(b) differ in sign,
    by Brent's method (Brent 1973, ch. 4): inverse quadratic interpolation or
    a secant step while it shrinks the bracket fast enough, bisection
    otherwise.  The bracket [cur, blk] keeps |f(cur)| <= |f(blk)|, and cur
    is returned once f(cur) = 0 or |blk - cur| < xtol + ROOT_RTOL |cur|, with
    a step of at least half that tolerance.  An endpoint where f vanishes is
    the root.  Step for step the iteration of scipy's brentq."""
    f_pre, f_cur = f(a), f(b)
    x_pre, x_cur = a, b
    if f_pre == 0.0:
        return a
    if f_cur == 0.0:
        return b
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise ValueError(f"f({a}) and f({b}) must differ in sign")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(ROOT_MAXITER):
        if f_pre != 0.0 and f_cur != 0.0 and (
                math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur)):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + ROOT_RTOL * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = math.inf                 # bisect unless a fast step is found
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            try:
                if x_pre == x_blk:       # secant
                    s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
                else:                    # inverse quadratic interpolation
                    d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                    d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                    s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                             / (d_blk * d_pre * (f_blk - f_pre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = f(x_cur)
    raise RuntimeError(f"no root within {ROOT_MAXITER} iterations in [{a}, {b}]")


def _locate_event(hits, t_old, t_new, y_old, Q, field, limits):
    """Earliest event of one lane's step on its interpolant y_old + h Q p(x):
    (index, s, state)."""
    h = t_new - t_old

    def interp(t):
        x = (t - t_old) / h
        x2 = x * x
        return (h * (Q @ np.array([x, x2, x2 * x, x2 * x * x])) + y_old)[:, None]

    def g(t, e):
        y = interp(t)
        return float(_events(y, field(y)[1], limits)[e, 0])

    roots = [_bracketed_root(lambda t: g(t, e), float(t_old), float(t_new),
                             EVENT_XTOL) for e in hits]
    k = int(np.argmin(roots))
    return hits[k], roots[k], interp(roots[k])[:, 0]


def _underflow_stop(y, r_singular):
    if y[0] < r_singular:
        return "r_singular"
    if abs(y[1]) > 10.0:
        return "alpha_blowup"
    raise StepFailure(f"step size underflow at r = {y[0]:.6g}, alpha = {y[1]:.6g}")


def integrate_many(params: SolitonParams, initial, directions, s_max: float, *,
                   rtol: float = 1e-10, atol: float = 1e-14,
                   r_min: float = R_MIN, r_max: float = R_MAX,
                   alpha_max: float = ALPHA_MAX, drift_tol: float = DRIFT_TOL,
                   r_singular: float = 1e-3) -> list[Trajectory]:
    """Integrate the reduced system from many initial states in one batch.

    initial is (L, 3) rows (r, alpha, phi) and directions (L,) or a scalar
    +-1, the sign of s along which each lane runs.  All lanes advance
    together through one Dormand-Prince 5(4) step per iteration, each with
    its own step size: RMS error norm scaled by atol + rtol max(|y|, |y_new|),
    safety 0.9, step factors 0.2 to 10 and no growth right after a
    rejection, the starting step of Hairer-Norsett-Wanner -- step for step
    the control of scipy's RK45.  A lane stops at s_max, or at the first
    sign change of an event on its step's 4th-order interpolant (Brent's
    method to 4 ulp): r <= r_min, r >= r_max, |alpha| >= alpha_max (past
    which cosh overflows and the trajectory is in its asymptotic blow-up),
    and for definite lanes alpha_floor.  Finished lanes leave the batch.

    An r -> 0 end is reached at a finite parameter value s*; the remaining
    s-interval below r ~ 1e-4 is smaller than an ulp of s*, so the step size
    underflows (below 10 ulp of s) there before r can reach a tiny r_min.
    Underflow with r < r_singular is therefore reported as the stop
    "r_singular", with |alpha| > 10 as "alpha_blowup"; underflow anywhere
    else raises StepFailure.

    In the definite case with a decaying angle the energy g(r) sinh(alpha)
    pairs an exploding factor with a collapsing one; once |alpha| reaches
    alpha_floor ~ atol/drift_tol the product is no longer resolvable in
    doubles and integration stops with "alpha_floor" (the event also needs
    |dalpha/ds| small, so a transversal zero crossing of alpha never
    triggers it).

    The energy is evaluated at every accepted state; a trajectory is
    accepted only if its max drift relative to max(|E0|, g(r0)) is below
    drift_tol.
    """
    y0 = np.array(initial, dtype=float).reshape(-1, 3)
    lanes = len(y0)
    directions = np.broadcast_to(np.asarray(directions, dtype=float), (lanes,))
    sign = directions.copy()
    low = y0[:, 0] <= r_min
    if low.any():
        raise InvalidRange(f"initial r = {y0[low, 0][0]} must exceed r_min = {r_min}")
    if not s_max > 0.0:
        raise InvalidRange(f"s_max = {s_max} must be positive")
    limits = np.array([[r_min], [r_max], [alpha_max], [ALPHA_FLOOR]])

    field = _Field(params)
    rtol, atol, s_max = np.array(rtol), np.array(atol), np.array(float(s_max))
    ids = np.arange(lanes)
    y = y0.T.copy()
    t = np.zeros(lanes)
    # stages of the field f, unsigned: a lane runs along sign * f, so its
    # steps use hs = sign * h; K[0] holds f(y) (first same as last)
    K = np.empty((7, 3, lanes))
    K2 = K.reshape(7, -1)
    field(y, out=K[0])
    h_abs = _initial_step(y, K[0], field, sign, s_max, rtol, atol)
    rejected = np.zeros(lanes, dtype=bool)
    retry = False                        # some lane retries a rejected step
    armed = np.ones((4, lanes), dtype=bool)
    armed[3] = params.case == "definite"
    armed[3] &= np.abs(y[1]) > ALPHA_FLOOR
    sg = np.sign(_events(y, K[0, 1], limits))
    steps = []                           # per iteration: ids, accepted, t, h, y, Q
    stops, ends = {}, {}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while ids.size:
            min_step = _TEN * np.spacing(t)
            if retry:
                h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
                under = rejected & (h_abs < min_step)
            else:
                h_abs = np.maximum(h_abs, min_step)
            t_new = np.minimum(t + h_abs, s_max)
            h = t_new - t
            hs = sign * h
            for s in range(1, 6):
                field(y + hs * (_A[s] @ K2[:s]).reshape(3, -1), out=K[s])
            y_new = y + hs * (_B @ K2[:6]).reshape(3, -1)
            field(y_new, out=K[6])
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms(hs * (_E @ K2).reshape(3, -1) / scale)
            accepted = err < 1.0
            factor = _SAFETY * err ** _EXPONENT
            grow = np.minimum(_TEN, factor)
            if retry:
                accepted &= ~under
                grow = np.where(rejected, np.minimum(_ONE, grow), grow)
            Q = _P.T @ K2
            steps.append((ids, accepted, t_new, h, y_new, Q))
            sg_new = np.sign(_events(y_new, K[6, 1], limits))
            fired = armed & (sg * sg_new <= 0)
            t_old, y_old = t, y
            if accepted.all():
                h_abs = h * grow
                y, t, sg = y_new, t_new, sg_new
                K[0] = K[6]
            else:
                h_abs = h * np.where(accepted, grow, np.fmax(_FIFTH, factor))
                fired &= accepted
                y = np.where(accepted, y_new, y)
                t = np.where(accepted, t_new, t)
                sg = np.where(accepted, sg_new, sg)
                np.copyto(K[0], K[6], where=accepted)
            finished = (t >= s_max) | fired.any(axis=0)
            if retry:
                finished |= under
            rejected = ~accepted
            retry = not accepted.all()
            if not finished.any():
                continue
            for j in np.flatnonzero(finished):
                lane = int(ids[j])
                if fired[:, j].any():
                    e, root, state = _locate_event(
                        np.flatnonzero(fired[:, j]), t_old[j], t_new[j], y_old[:, j],
                        sign[j] * Q.reshape(4, 3, -1)[:, :, j].T, field, limits)
                    stops[lane], ends[lane] = _EVENTS[e], (root, state)
                elif t[j] >= s_max:
                    stops[lane] = "s_max"
                else:
                    stops[lane] = _underflow_stop(y[:, j], r_singular)
            keep = ~finished
            ids, y, t, h_abs, rejected, sign = (
                ids[keep], y[:, keep], t[keep], h_abs[keep], rejected[keep], sign[keep])
            sg, armed = sg[:, keep], armed[:, keep]
            K = np.ascontiguousarray(K[:, :, keep])
            K2 = K.reshape(7, -1)
            retry = bool(rejected.any())

    return _trajectories(params, y0, directions, steps, stops, ends, drift_tol)


def _trajectories(params, y0, directions, steps, stops, ends, drift_tol):
    """One Trajectory per lane from integrate_many's per-iteration records
    (ids, accepted, t, h, y, Q): the accepted steps of each lane in order,
    the event state in place of the full step where an event stopped it."""
    lanes = len(y0)
    if steps:
        lane = np.concatenate([st[0] for st in steps])
        accepted = np.concatenate([st[1] for st in steps])
        order = np.argsort(lane[accepted], kind="stable")

        def gather(k, shape):
            x = np.concatenate([st[k].reshape(shape + (-1,)) for st in steps], axis=-1)
            return np.moveaxis(x[..., accepted][..., order], -1, 0)

        t_all, h_all = gather(2, ()), gather(3, ())
        y_all, Q_all = gather(4, (3,)), np.swapaxes(gather(5, (4, 3)), 1, 2)
        bounds = np.concatenate([[0], np.cumsum(np.bincount(lane[accepted],
                                                            minlength=lanes))])
    else:
        t_all, h_all = np.zeros(0), np.zeros(0)
        y_all, Q_all = np.zeros((0, 3)), np.zeros((0, 3, 4))
        bounds = np.zeros(lanes + 1, dtype=int)

    out = []
    for i in range(lanes):
        seg = slice(bounds[i], bounds[i + 1])
        knots = np.concatenate([[0.0], t_all[seg]])
        states = np.concatenate([y0[i:i + 1], y_all[seg]])
        h, Q = h_all[seg], directions[i] * Q_all[seg]
        if i in ends:
            root, state = ends[i]
            if root > knots[-2]:
                knots[-1], states[-1] = root, state
            else:  # the event rounds onto the previous knot: drop the step
                knots, states, h, Q = knots[:-1], states[:-1], h[:-1], Q[:-1]
        branch = _Branch(float(directions[i]), knots, states, h, Q)
        E = energy(states, params)
        E0 = float(E[0])
        scale = max(abs(E0), float(radial_weight(y0[i, 0], params)), 1e-300)
        drift = float(np.max(np.abs(E - E0))) / scale
        s = branch.direction * knots
        if branch.direction < 0:
            s, states = s[::-1], states[::-1]
        out.append(Trajectory(params, s, states, E0, drift, drift < drift_tol,
                              stops[i], _branches=(branch,)))
    return out


def integrate(initial: SolitonState, params: SolitonParams, s_max: float, *,
              direction: int = 1, **kw) -> Trajectory:
    """One trajectory along direction (+-1): one lane of integrate_many."""
    return integrate_many(params, [initial.as_array()], direction, s_max, **kw)[0]


def integrate_bidirectional_many(params: SolitonParams, initial, s_max: float,
                                 **kw) -> list[Trajectory]:
    """Each initial state integrated forward and backward from s = 0 (all
    2L lanes in one batch), the two halves merged into one trajectory."""
    y0 = np.array(initial, dtype=float).reshape(-1, 3)
    lanes = len(y0)
    trajs = integrate_many(params, np.concatenate([y0, y0]),
                           np.repeat([-1.0, 1.0], lanes), s_max, **kw)
    out = []
    for bwd, fwd in zip(trajs[:lanes], trajs[lanes:]):
        drift = max(fwd.max_E_drift, bwd.max_E_drift)
        out.append(Trajectory(
            params, np.concatenate([bwd.s[:-1], fwd.s]),
            np.concatenate([bwd.states[:-1], fwd.states]), fwd.E0, drift,
            fwd.accepted and bwd.accepted, f"{bwd.stop_reason}/{fwd.stop_reason}",
            _branches=bwd._branches + fwd._branches))
    return out


def integrate_bidirectional(initial: SolitonState, params: SolitonParams,
                            s_max: float, **kw) -> Trajectory:
    """Integrate forward and backward from s = 0 and merge."""
    return integrate_bidirectional_many(params, [initial.as_array()], s_max, **kw)[0]


def classify(traj: Trajectory) -> str:
    """Tag a trajectory per the phase-portrait taxonomy.

    Lorentzian with l' > 0 splits on the threshold energy: below it, orbits
    stay on one side of r0 (subcritical inner/outer); at or above it they run
    from r -> 0 to r -> infinity.  Lorentzian l' <= 0 orbits have two r -> 0
    ends; all definite orbits expand (rdot = cosh >= 1).
    """
    p = traj.params
    if p.case == "definite":
        tag = "definite_expanding"
    elif p.lambda_prime <= 0.0:
        tag = "nonpositive_lambda"
    else:
        r0 = math.sqrt(p.n / p.lambda_prime)
        if (np.max(np.abs(traj.r - r0)) < 1e-6 * r0
                and np.max(np.abs(traj.alpha)) < 1e-6):
            tag = "critical_point"
        elif traj.E0 < energy_threshold(p) * (1.0 - 1e-12):
            if np.all(traj.r < r0):
                tag = "subcritical_inner"
            elif np.all(traj.r > r0):
                tag = "subcritical_outer"
            else:
                tag = "unclassified"
        else:
            tag = "supercritical"
    traj.classification = tag
    return tag


# ---------------------------------------------------------------------------
# phi quadrature
# ---------------------------------------------------------------------------

def _log_weight(rho, params):
    return params.n * np.log(rho) - params.lambda_prime * rho * rho / 2.0


def _lorentz_radicand(rho, E, params):
    t = np.exp(_log_weight(rho, params)) / abs(E)
    return (1.0 - t) * (1.0 + t)


def turning_radius(E: float, params: SolitonParams, side: str) -> float:
    """Radius where g(r) = |E| on the requested monotone branch of g.

    side = "below"/"above" refers to the peak radius sqrt(n/l') for l' > 0;
    for l' <= 0, g is increasing and the side is ignored.
    """
    target = math.log(abs(E))

    def f(rho):
        return float(_log_weight(rho, params) - target)

    if params.lambda_prime > 0.0:
        peak = math.sqrt(params.n / params.lambda_prime)
        if f(peak) < 0.0:
            raise IntegrandSingular("|E| exceeds the peak of g; no turning radius")
        if side == "below":
            lo = peak
            while f(lo) > 0.0:
                lo /= 2.0
            return _bracketed_root(f, lo, peak, TURNING_XTOL)
        hi = peak
        while f(hi) > 0.0:
            hi *= 2.0
        return _bracketed_root(f, peak, hi, TURNING_XTOL)
    lo, hi = 1e-12, 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return _bracketed_root(f, lo, hi, TURNING_XTOL)


def phi_quadrature(r_from: float, r_to: float, E: float,
                   params: SolitonParams, turn_eps: float = 1e-9) -> float:
    """phi(r_to) - phi(r_from) along a monotone-r stretch of a trajectory.

    definite:   dphi/dr = sign(E) / (rho sqrt(g^2/E^2 + 1)); smooth.
    lorentzian: dphi/dr = +-1 / (rho sqrt(1 - g^2/E^2)); phi increases along
    the trajectory regardless of the direction of r, so the result is the
    positive integral over [min r, max r].  A vanishing radicand at an
    endpoint is a turning point and is handled by substituting
    rho = rho_turn -+ u^2, which removes the 1/sqrt singularity; a radicand
    vanishing strictly inside the range raises IntegrandSingular.
    """
    if E == 0.0:
        raise InvalidCase("quadrature needs E != 0")
    if r_from == r_to:
        return 0.0
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    if lo <= 0.0:
        raise NonpositiveRadius(f"r = {lo}")
    from scipy.integrate import quad  # imported here: only verify soliton-ode needs it

    if params.case == "definite":
        lE = math.log(abs(E))

        def integ(rho):
            lt = _log_weight(rho, params) - lE
            if lt > 300.0:  # integrand ~ e^{-lt}/rho; avoid exp overflow
                return math.exp(-lt) / rho
            t = math.exp(lt)
            return 1.0 / (rho * math.sqrt(t * t + 1.0))

        val, _ = quad(integ, r_from, r_to, epsabs=QUAD_TOL_DEFINITE,
                      epsrel=QUAD_TOL_DEFINITE, limit=200)
        return math.copysign(1.0, E) * val

    if E < 0.0:
        raise InvalidCase("lorentzian energies are positive")

    def integ(rho):
        rad = _lorentz_radicand(rho, E, params)
        return 1.0 / (rho * np.sqrt(np.maximum(rad, 1e-300)))

    rad_lo = _lorentz_radicand(lo, E, params)
    rad_hi = _lorentz_radicand(hi, E, params)
    if params.lambda_prime > 0.0:
        peak = math.sqrt(params.n / params.lambda_prime)
        if lo < peak < hi and _lorentz_radicand(peak, E, params) < -turn_eps:
            raise IntegrandSingular("range spans the forbidden band around the peak")
    interior_bad = min(rad_lo, rad_hi) < -1e-6
    pieces = []
    a, b = lo, hi
    if rad_hi <= turn_eps:
        side = "below" if (params.lambda_prime <= 0.0
                           or hi <= math.sqrt(params.n / params.lambda_prime) * (1 + 1e-9)) else "above"
        rho_t = turning_radius(E, params, side)
        if abs(rho_t - hi) > 1e-6 * max(hi, 1.0) and rad_hi < -turn_eps:
            raise IntegrandSingular(
                f"radicand negative at r = {hi}, turning point at {rho_t}")
        w = min(0.3 * (hi - lo), 0.5 * rho_t)
        pieces.append(_sub_integral(rho_t, w, E, params, upper=True))
        b = rho_t - w
    if rad_lo <= turn_eps:
        side = "above" if (params.lambda_prime > 0.0
                           and lo >= math.sqrt(params.n / params.lambda_prime) * (1 - 1e-9)) else "below"
        rho_t = turning_radius(E, params, side)
        if abs(rho_t - lo) > 1e-6 * max(lo, 1.0) and rad_lo < -turn_eps:
            raise IntegrandSingular(
                f"radicand negative at r = {lo}, turning point at {rho_t}")
        w = min(0.3 * (hi - lo), 0.5 * rho_t)
        pieces.append(_sub_integral(rho_t, w, E, params, upper=False))
        a = rho_t + w
    if interior_bad and not pieces:
        raise IntegrandSingular("radicand negative inside the quadrature range")
    if b > a:
        val, _ = quad(integ, a, b, epsabs=QUAD_TOL_LORENTZIAN,
                      epsrel=QUAD_TOL_LORENTZIAN, limit=200)
        pieces.append(val)
    return float(sum(pieces))


def _sub_integral(rho_t, w, E, params, upper: bool):
    """Integral of the Lorentzian integrand over the w-slice ending at the
    turning radius, via rho = rho_t -+ u^2."""
    from scipy.integrate import quad

    def integ(u):
        rho = rho_t - u * u if upper else rho_t + u * u
        rad = _lorentz_radicand(rho, E, params)
        return 2.0 * u / (rho * np.sqrt(np.maximum(rad, 1e-300)))

    val, _ = quad(integ, 0.0, math.sqrt(w), epsabs=QUAD_TOL_LORENTZIAN,
                  epsrel=QUAD_TOL_LORENTZIAN, limit=200)
    return val


# ---------------------------------------------------------------------------
# Profile reconstruction and the ambient residual
# ---------------------------------------------------------------------------

def reconstruct_profile(traj: Trajectory, count: int = 201, q: int = 0,
                        p: int = 1, s_lo: float | None = None,
                        s_hi: float | None = None) -> ProfileCurve:
    """gamma(s) = p tau^q r(s) e^{tau phi(s)} on a uniform s-grid.

    With q = 0 the reconstructed curve is spacelike (eps = +1) and the
    trace-convention ambient equation holds with lambda = lambda'.
    """
    s_lo = float(traj.s[0]) if s_lo is None else s_lo
    s_hi = float(traj.s[-1]) if s_hi is None else s_hi

    def fn(svals):
        st = traj.sample(np.asarray(svals, dtype=float).ravel())
        g = st[:, 0, None] * d_exp_tau(st[:, 2])
        if q:
            g = g[..., ::-1]
        g = p * g
        return g.reshape(np.shape(svals) + (2,))

    s = np.linspace(s_lo, s_hi, count)
    return ProfileCurve(s, fn(s), family="soliton", fn=fn)


def hyperbola_solution(params: SolitonParams, branch: str = "spacelike",
                       s_lo: float = -1.0, s_hi: float = 1.0,
                       count: int = 201, p: int = 1) -> ProfileCurve:
    """Constant-(r, alpha) profile through the Lorentzian critical point.

    spacelike: gamma(s) = +-r0 (cosh(s/r0), sinh(s/r0)), <gamma,gamma> = r0^2;
    timelike:  gamma(s) = +-r0 (sinh(s/r0), cosh(s/r0)), <gamma,gamma> = -r0^2.
    Which of the two satisfies the shrinker (lambda > 0) versus expander
    (lambda < 0) ambient equation is decided numerically by ambient_residual.
    """
    cp = critical_point(params)
    r0 = cp.r
    if branch not in ("spacelike", "timelike"):
        raise InvalidCase(f"unknown branch {branch!r}")

    def fn(s):
        s = np.asarray(s, dtype=float)
        g = r0 * d_exp_tau(s / r0)
        if branch == "timelike":
            g = g[..., ::-1]
        return p * g

    s = np.linspace(s_lo, s_hi, count)
    return ProfileCurve(s, fn(s), family="soliton", fn=fn)


def ambient_residual(curve: ProfileCurve, n: int, lam: float,
                     sphere_counts=None, nodes: Sequence | None = None):
    """Per-node grading norm of H_trace + lambda F_perp on the lift.

    H_trace = m * (mean curvature); F_perp is the metric-normal part of the
    position vector.  When nodes is None, a sample of non-degenerate interior
    nodes is used (degenerate ones are skipped).  Returns (nodes, residuals).
    """
    imm = lift(curve, n, sphere_counts)
    if nodes is None:
        nodes = _sample_nodes(imm)
    tested, residuals = [], []
    for node in nodes:
        im = induced_metric(imm, node)
        if im.degenerate:
            continue
        H_tr = imm.m * mean_curvature(imm, node)
        Fp = position_normal_part(imm, node)
        res = H_tr + lam * Fp
        tested.append(node)
        residuals.append(float(np.sqrt(np.sum(d_grading2(res)))))
    return tested, np.array(residuals)


def normal_component_residuals(imm: SampledImmersion, node, lam: float) -> np.ndarray:
    """Components <H_trace + lambda F_perp, J d_iF> of the ambient equation.

    On equivariant lifts only the i = 0 (profile) component is nontrivial;
    the sphere components vanish to discretization order, which is the
    reduction of the ambient system to a scalar equation.
    """
    jt = jet(imm, node)
    H_tr = imm.m * mean_curvature(imm, node)
    Fp = position_normal_part(imm, node)
    res = H_tr + lam * Fp
    return np.array([metric(res, apply_J(jt.first[i])) for i in range(imm.m)])


def _sample_nodes(imm: SampledImmersion, per_axis: int = 3):
    picks = []
    for a in imm.axes:
        lo = 0 if a.periodic else JET_MARGIN
        hi = a.count - 1 if a.periodic else a.count - 1 - JET_MARGIN
        idx = np.unique(np.linspace(lo, hi, per_axis).astype(int))
        picks.append(list(idx))
    return list(itertools.product(*picks))
