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

separates bounded from unbounded trajectories.  The r -> 0 and alpha
blow-up ends lie at finite s, so integration runs in the monotone parameter
sigma, ds = (r / cosh alpha) dsigma (Sundman's time change), with s a fourth
component, and in the coordinates of the first integral: rho = log r in
both cases and, for a definite lane, psi = log|sinh alpha|, since
psi + log g(r) = log|E| is conserved (see _Field).  An r -> 0 collapse and
a decaying definite angle are then linear in sigma, and each end is a
located event at finite sigma.  Integration uses the Dormand-Prince 8(5,3)
pair with its 7th-order dense output and the energy drift, formed from
log|E|, as an independent acceptance gate; conservation, not the step
estimator, is the ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dcore import bracket_roots, d_exp_tau, d_grading2
from .dlinalg import apply_J
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
    grid_mean_curvature,
    node_set,
    normal_project,
)

CASES = ("definite", "lorentzian")

R_MIN = 1e-6
R_MAX = 1e6
# The |alpha| cap: past it cosh(alpha) nears overflow, and the remaining
# s-interval of an alpha blow-up is far below an ulp of s.
ALPHA_MAX = 30.0
# psi of a definite lane with alpha0 = 0: e^psi is 0 (the smallest
# subnormal is e^-744.4), so alpha stays 0 and phi phi0 bit for bit, and
# psi' = -n + l' r^2 is below an ulp of it for any r <= R_MAX
PSI_ZERO = -1e300
DRIFT_TOL = 1e-8
_TINY = np.array(1e-300)
# Stop events and Trajectory.sample shrink a bracket on a step fraction
# (dcore.bracket_roots, Chandrupatla's method) to 4 ulp of 1, in ~8
# evaluations of the event function per call where halving took 52;
# turning radii run until the doubles in the bracket are used up.
EVENT_XTOL = 4 * np.finfo(float).eps
# A Lorentzian radicand 1 - g^2/E^2 within TURN_EPS of 0 at an end of the
# phi quadrature's range makes it a turning point; below -TURN_EPS, forbidden.
TURN_EPS = 1e-9
# phi_quadrature's tanh-sinh rule: t in [-PHI_T_MAX, PHI_T_MAX], whose ends
# lie 1e-37 half-widths from the range's ends, the step halved from 1 at
# most PHI_LEVELS times, until two levels agree to relative PHI_RTOL
PHI_T_MAX = 4
PHI_LEVELS = 8
PHI_RTOL = 1e-13
STEP_ATOL = 1e-16  # absolute part (scipy's atol) of integrate_many's error scale


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
    """The sigma-system of one SolitonParams in the coordinates of its first
    integral, d/dsigma at states y (4, ...):

        lorentzian  (rho, alpha, phi, s)' = (tanh(alpha), -n + l' e^(2 rho), 1,
                                             e^rho / cosh(alpha))
        definite    (rho, psi, chi, s)' = (1, -n + l' e^(2 rho), w / c, e^rho / c)

    with rho = log r, and for a definite lane psi = log|sinh(alpha)|, w = e^psi,
    c = hypot(1, w) = cosh(alpha) and chi = sign * phi, sign = +-1 that of
    the lane's alpha0: the definite system is odd in (alpha, phi), so the
    field needs no per-lane parameter, and alpha = sign * asinh(w).

    Constants are 0-d arrays: numpy combines those with small arrays faster
    than Python floats.  bind(y, out) holds the formula; an out from
    empty() already holds the constant row (rho' = 1 or phi' = 1), which it
    leaves alone."""

    def __init__(self, params: SolitonParams):
        self.definite = params.case == "definite"
        self.neg_n = np.array(-float(params.n))
        self.lam = np.array(float(params.lambda_prime))

    def empty(self, shape):
        """An array (..., 4, N) for field values, its constant row set."""
        out = np.empty(shape)
        out[..., 0 if self.definite else 2, :] = 1.0
        return out

    def bind(self, y, out):
        """A function of no arguments that writes the field at the rho and
        alpha or psi rows of y (4, ...) into out (4, ...), views, ufuncs and
        scratch rows bound once; no ufunc writes over its input, which numpy
        does slower on one lane."""
        rho, a = y[0], y[1]
        dr, da, dphi, ds = out
        definite, neg_n, lam = self.definite, self.neg_n, self.lam
        exp, mul, add, div, hypot = np.exp, np.multiply, np.add, np.divide, np.hypot
        tanh, cosh = np.tanh, np.cosh
        er, t1, t2 = (np.empty_like(rho) for _ in range(3))

        def rows():
            exp(rho, er)
            mul(er, er, t1)
            mul(lam, t1, t2)
            add(neg_n, t2, da)
            if definite:
                exp(a, t1)           # w
                hypot(_ONE, t1, t2)  # c = cosh(alpha)
                div(t1, t2, dphi)
            else:
                tanh(a, dr)
                cosh(a, t2)
            div(er, t2, ds)
        return rows

    def __call__(self, y, out=None):
        out = self.empty(np.shape(y)) if out is None else out
        self.bind(y, out)()
        return out

    def start(self, y0):
        """The states (L, 4) of rows y0 (L, 4) of (r, alpha, phi, s), and
        each lane's sign of alpha0 (L,), +-1; a definite alpha0 = 0 starts
        at psi = PSI_ZERO."""
        z, a = y0.copy(), y0[:, 1]
        sign = np.copysign(1.0, a)
        z[:, 0] = np.log(y0[:, 0])
        if self.definite:
            with np.errstate(divide="ignore"):
                z[:, 1] = np.where(a == 0.0, PSI_ZERO, np.log(np.abs(np.sinh(a))))
            z[:, 2] = sign * y0[:, 2]
        return z, sign

    def natural(self, z, sign):
        """(r, alpha, phi, s) at states z (..., 4), sign (...) that of each
        state's alpha0; a definite alpha underflows to 0 where psi < -745."""
        out = z.copy()
        out[..., 0] = np.exp(z[..., 0])
        if self.definite:
            out[..., 1] = sign * np.arcsinh(np.exp(z[..., 1]))
            out[..., 2] = sign * z[..., 2]
        return out

    def log_energy(self, z):
        """log|E| at states z (..., 4): psi or log cosh(alpha), plus
        n rho - l' e^(2 rho) / 2; finite for every r <= R_MAX."""
        rho, a = z[..., 0], z[..., 1]
        h = a if self.definite else np.log(np.cosh(a))
        return h - self.neg_n * rho - self.lam * np.exp(2.0 * rho) / 2.0


def radial_weight(r, params: SolitonParams):
    """g(r) = r^n exp(-l' r^2 / 2), the radial factor of the first integral."""
    return r ** params.n * np.exp(-params.lambda_prime * r * r / 2.0)


def energy(states, params: SolitonParams) -> np.ndarray:
    """First integral at states (..., 3) with r > 0; where sinh alpha is a
    zero the result is that zero, also where g(r) overflows."""
    r, a = states[..., 0], states[..., 1]
    h = np.sinh(a) if params.case == "definite" else np.cosh(a)
    return np.where(h == 0.0, h, radial_weight(r, params) * h)


def critical_point(params: SolitonParams) -> SolitonState:
    if params.case != "lorentzian" or params.lambda_prime <= 0.0:
        raise InvalidCase("critical point exists only for lorentzian, lambda' > 0")
    return SolitonState(math.sqrt(params.n / params.lambda_prime), 0.0, 0.0)


def energy_threshold(params: SolitonParams) -> float:
    """E0 = (n/l')^(n/2) exp(-n/2), the first integral at the critical point."""
    cp = critical_point(params)
    return float(energy(cp.as_array(), params))


class _DenseOutput:
    """The coefficients F (7, T, 4) of the 7th-order interpolants of all T
    accepted steps of one integrate_many call, lane by lane, built for the
    whole batch on the first read of F: a sweep that is never sampled skips
    their three extra field evaluations per step.  Until then it keeps the
    call's per-iteration records and the stages K_end of the lanes' last
    steps, redone to their events, which replace the stages of the steps
    the events fired on."""

    def __init__(self, field, steps, take, hs, states, knots, last, K_end):
        self._parts = (field, steps, take, hs, states, knots, last, K_end)
        self._F = None

    @property
    def F(self) -> np.ndarray:
        if self._F is None:
            field, steps, take, hs, states, knots, last, K_end = self._parts
            K = np.concatenate([st[5] for st in steps], axis=-1).take(take, axis=-1)
            K[:, :, last] = K_end
            F = _dense(K, states[knots - 1].T, states[knots].T, hs, field)
            self._F, self._parts = np.swapaxes(F, 1, 2), None
        return self._F


@dataclass(frozen=True)
class _Branch:
    """Dense output of one integration direction: states y (k+1, 4) at its
    knots, per step its length h (k,) in sigma and the coefficients
    F (7, k, 4) of its 7th-order interpolant, the last step ending on the
    event: steps start to start + k of its batch's shared dense output.
    Its states are in the coordinates of coords, sign that of alpha0."""
    direction: float
    y: np.ndarray
    h: np.ndarray
    dense: _DenseOutput = field(repr=False)
    start: int
    coords: _Field = field(repr=False)
    sign: float

    @property
    def F(self) -> np.ndarray:
        return self.dense.F[:, self.start:self.start + self.h.size]

    def at(self, u: np.ndarray) -> np.ndarray:
        """States (N, 4) where direction * s = u: the step whose knots
        bracket u, then its step fraction by bracket_roots on the
        interpolated s, which rises with sigma (the knot's own s at
        fraction 1).  Near a singular end s stalls below an ulp over the
        last knots, so from the end knot's s on, u gives the end state, as
        in the trajectory rows."""
        ds = np.maximum.accumulate(self.direction * self.y[:, 3])
        u_end = self.direction * self.y[-1, 3]
        end = u >= u_end
        u = np.where(end, u_end, u)
        seg = np.where(end, self.h.size - 1,
                       np.clip(np.searchsorted(ds, u) - 1, 0, self.h.size - 1))
        F, y_old, s_new = self.F[:, seg], self.y[seg], self.y[seg + 1, 3]

        def excess(x):
            s = np.where(x == 1.0, s_new, _interpolate(F[..., 3], y_old[:, 3], x))
            return self.direction * s - u

        _, hi = bracket_roots(excess, end * 1.0, np.ones(u.size), EVENT_XTOL)
        return _interpolate(F, y_old, hi[:, None])


@dataclass
class Trajectory:
    params: SolitonParams
    s: np.ndarray            # (k,), strictly ascending
    states: np.ndarray       # (k, 3) rows (r, alpha, phi)
    E0: float
    max_E_drift: float
    accepted: bool
    stop_reason: str
    classification: str | None = None
    accepted_steps: int = 0
    rejected_steps: int = 0
    dropped_knots: int = 0
    E: np.ndarray | None = field(default=None, repr=False)  # (k,) the energy of each row
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
            u = branch.direction * svals
            u_end = float(np.max(branch.direction * branch.y[:, 3]))
            hit = todo & (u >= -1e-12) & (u <= u_end * (1 + 1e-12))
            z = branch.at(np.clip(u[hit], 0.0, u_end))
            out[hit] = branch.coords.natural(z, branch.sign)[:, :3]
            todo &= ~hit
        if todo.any():
            raise InvalidRange(f"s = {svals[todo][0]} outside the integrated span")
        return out


# Dormand-Prince 8(5,3) (Hairer-Norsett-Wanner II.5 and II.10, the DOP853
# code; the same doubles as scipy's): row s of _A combines stages 0..s-1
# (_STAGES, row s cut to its s weights); rows 1-11 are the stages, row 12
# the 8th-order weights _B and rows 13-15 the three extra stages of the
# 7th-order dense output.  _ERR holds the 5th- and 3rd-order error weights
# (the 12th stage's f(y_new) last), _D the interpolant's four highest
# coefficients (see _dense).
_A = np.zeros((16, 16))
for _s, _row in enumerate((
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987)), start=1):
    _A[_s, :_s] = _row
del _s, _row
_STAGES = tuple(_A[s, :s] for s in range(1, 16))
_B = _A[12, :12]
_ERR = np.zeros((2, 13))
_ERR[0, [0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
_ERR[1, :12] = _B
_ERR[1, [0, 8, 11]] -= (0.244094488188976377952755905512,
                        0.733846688281611857341361741547,
                        0.0220588235294117647058823529412)
_D = np.array([
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727,
     -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564)])
# step control constants as 0-d arrays (see _Field): safety factor, error
# exponent -1/(7 + 1), step factors 1/5 to 10, the weight of the 3rd-order
# estimate in the error norm, and the 10-ulp step floor
_SAFETY, _EXPONENT = np.array(0.9), np.array(-0.125)
_FIFTH, _ONE, _TEN = (np.array(v) for v in (0.2, 1.0, 10.0))
_HUNDREDTH = np.array(0.01)
_EVENTS = ("r_min", "r_max", "alpha_max", "s_max")


def _rms(x):
    return np.sqrt(np.add.reduce(x * x) / len(x))


def _events(y, limits, definite):
    """Event functions (4, ...) at states y (4, ...) of _Field: rho - log
    r_min, rho - log r_max, (psi or |alpha|) - the alpha cap and |s| - s_max
    for limits (4, 1); a stop is a sign change of its row."""
    ev = np.empty((4,) + np.shape(y)[1:])
    ev[0] = ev[1] = y[0]
    ev[2] = y[1] if definite else np.abs(y[1])
    np.abs(y[3], out=ev[3])
    ev -= limits
    return ev


def _initial_step(y, f, field, sign, rtol, atol):
    """Hairer-Norsett-Wanner's starting step per lane (II.4) at order 7, as
    scipy picks it for DOP853; the lanes run along sign * f."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    d2 = _rms((field(y + h0 * sign * f) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** 0.125)
    return np.minimum(100 * h0, h1)


class _Stages:
    """One workspace of DOP853 steps on N lanes, each view made once: W
    (k + 2, 4, N) holds the start state y, the stages K (k, 4, N) and y_new
    (stage 12's state, the 8th-order solution), hs the signed step lengths
    on every row (numpy broadcasts slower).  run() makes stage s = field(y +
    hs (_A[s, :s] . K[:s])), one matrix-vector product, for s in stages."""

    def __init__(self, field, lanes, stages):
        k = stages.stop
        self.W = field.empty((k + 2, 4, lanes))
        self.y, self.K, self.y_new = self.W[0], self.W[1:k + 1], self.W[k + 1]
        self.hs, self._sum, self._scaled, y_stage = (np.empty((4, lanes)) for _ in range(4))
        self._plan = [(_STAGES[s - 1], self.K[:s].reshape(s, -1), y_s, field.bind(y_s, self.K[s]))
                      for s in stages for y_s in [self.y_new if s == 12 else y_stage]]

    def run(self):
        y, hs, total, scaled = self.y, self.hs, self._sum, self._scaled
        flat, dot, mul, add = total.reshape(-1), np.dot, np.multiply, np.add
        for a, K2, y_s, field in self._plan:
            dot(a, K2, flat)
            mul(total, hs, scaled)
            add(scaled, y, y_s)
            field()


def _step(y, f, hs, field):
    """One Dormand-Prince 8(5,3) step of signed lengths hs (N,) from states y
    (d, N), f = field(y): (y_new, K), K (13, d, N) the stages, K[12] = f(y_new)."""
    stages = _Stages(field, y.shape[-1], range(1, 13))
    stages.y[...], stages.K[0], stages.hs[...] = y, f, hs
    stages.run()
    return stages.y_new, stages.K


def _dense(K, y_old, y_new, hs, field):
    """Coefficients F (7, d, N) of the 7th-order interpolant of N steps from
    their stages K (13, d, N), their end states (d, N) and their signed
    lengths hs (N,): the three extra stages of DOP853, then F as scipy's
    DOP853 builds it (Hairer-Norsett-Wanner's CONTD8).  A step's F is the
    same bits whatever the other steps: F's lower rows are elementwise, and
    the (4, 16) @ (16, d N) product of its top rows is einsum's, which sums
    each column's terms in one fixed order (BLAS, as np.dot calls it for a
    matrix product, rounds a column by its place in the batch).  The extra
    stages are stage sums as in _step: that their matrix-vector products
    round a column alike in any batch is measured, not built in (see
    test_lanes_do_not_depend_on_their_batch)."""
    extra = _Stages(field, K.shape[-1], range(13, 16))
    extra.y[...], extra.K[:13], extra.hs[...] = y_old, K, hs
    extra.run()
    dy = y_new - y_old
    F = np.empty((7,) + K.shape[1:])
    F[0] = dy
    F[1] = hs * K[0] - dy
    F[2] = 2.0 * dy - hs * (K[12] + K[0])
    F[3:] = hs * np.einsum("ij,jk->ik", _D, extra.K.reshape(16, -1)).reshape(F[3:].shape)
    return F


def _interpolate(F, y_old, x):
    """The dense output y_old + x (F0 + (1-x) (F1 + x (F2 + ... F6))) at step
    fractions x, for coefficients F (7, ...) from _dense."""
    y = F[6] * x
    for k in range(5, -1, -1):
        y = (y + F[k]) * (x if k % 2 == 0 else 1.0 - x)
    return y + y_old


def integrate_many(params: SolitonParams, initial, directions, s_max: float, *,
                   rtol: float = 1e-10) -> list[Trajectory]:
    """Integrate the reduced system from many initial states in one batch.

    initial is (L, 3) rows (r, alpha, phi) and directions (L,) or a scalar
    +-1, the sign of s along which each lane runs.  Each lane integrates the
    sigma-system of _Field from s = 0, in rho = log r and, for definite
    lanes, psi = log|sinh(alpha)| (_Field.start; a definite alpha0 = 0 starts
    at PSI_ZERO).  All lanes advance together through one Dormand-Prince
    8(5,3) step per iteration (12 stages, the last one's f(y_new) reused as
    the next step's first), each with its own step size and, step for step,
    the control of scipy's DOP853: its error norm over the four components
    of the state, scaled by STEP_ATOL + rtol max(|y|, |y_new|), error
    exponent -1/8, safety 0.9, step factors 0.2 to 10, no growth right after
    a rejection, Hairer-Norsett-Wanner's starting step at order 7.  A lane
    finishes after an accepted step on which an event changes sign: r <=
    R_MIN, r >= R_MAX, |alpha| >= ALPHA_MAX (on psi for definite lanes) or
    |s| >= s_max.  After the loop (see _trajectories) the earliest sign
    change on that step's 7th-order interpolant, located to EVENT_XTOL of
    the step, is the lane's stop, and the step is redone to it, its end
    state being the event's.  The interpolant costs three more field
    evaluations per step, so the loop builds none: _trajectories builds
    those of the lanes' last steps, and the trajectories share one
    _DenseOutput that builds every accepted step's on the first sample.  A
    step below 10 ulp of sigma raises StepFailure.  A lane's trajectory, its
    samples included, is the same bits alone or in any batch (see _dense):
    one trajectory is a batch of one.

    The call binds one workspace (_Stages) of L lanes.  A finished lane
    stays in its columns, frozen: sign 0 repeats its last accepted state
    (finite, as f(y_new) enters the error estimate), its events disarmed, an
    err bound of inf and a growth cap of 0 accept its 10-ulp steps.  Each
    iteration records (ids, accepted, h, y, y_new, K) over the running lanes
    ids.  That a lane's stage sums round alike in any batch is measured
    (test_lanes_do_not_depend_on_their_batch), not built in.

    Rows and samples are converted back to (r, alpha, phi) once, and each
    start row is the input's own bits.  The energy drift comes from the
    states, E - E0 = E0 expm1(log|E| - log|E0|) (_Field.log_energy), so it
    stays resolvable where alpha underflows or g(r) overflows in the rows; a
    trajectory is accepted only if its max drift relative to max(|E0|,
    g(r0)) is below DRIFT_TOL, and one with E0 = 0 has drift 0.  Each
    trajectory counts its accepted and rejected steps and the knots dropped
    from its rows (see _trajectories).
    """
    y0 = np.array(initial, dtype=float).reshape(-1, 3)
    lanes = len(y0)
    y0 = np.concatenate([y0, np.zeros((lanes, 1))], axis=1)  # s = 0
    directions = np.broadcast_to(np.asarray(directions, dtype=float), (lanes,))
    sign = directions.copy()
    low = y0[:, 0] <= R_MIN
    if low.any():
        raise InvalidRange(f"initial r = {y0[low, 0][0]} must exceed r_min = {R_MIN}")
    if not s_max > 0.0:
        raise InvalidRange(f"s_max = {s_max} must be positive")
    if not lanes:
        return []
    field = _Field(params)
    alpha_cap = math.log(math.sinh(ALPHA_MAX)) if field.definite else ALPHA_MAX
    limits = np.array([[math.log(R_MIN)], [math.log(R_MAX)], [alpha_cap], [float(s_max)]])
    z0, alpha_sign = field.start(y0)
    rtol, atol = np.array(rtol), np.array(STEP_ATOL)
    ids = np.arange(lanes)               # the lanes still running
    stages = _Stages(field, lanes, range(1, 13))
    W, y, K, y_new = stages.W, stages.y, stages.K, stages.y_new
    K0, K12, K2 = K[0], K[12], K.reshape(13, -1)
    y[...] = z0.T
    dim = len(y)
    t = np.zeros(lanes)
    # K0 holds f(y), unsigned: a lane runs along sign * f, so its steps use hs = sign * h
    h_abs = _initial_step(y, field(y, out=K0), field, sign, rtol, atol)
    rejected = np.zeros(lanes, dtype=bool)
    retry = False                        # some lane retries a rejected step
    armed = np.ones((len(_EVENTS), lanes), dtype=bool)
    sg = np.sign(_events(y, limits, field.definite))
    bound, cap = np.ones(lanes), np.full(lanes, 10.0)  # err bound, growth cap
    steps = []                 # per iteration, over ids: ids, accepted, h, y, y_new, K
    # of each lane's last step: the events fired and its stages
    fired_rows = np.zeros((lanes, len(_EVENTS)), dtype=bool)
    K_last = np.empty((13, dim, lanes))
    est = np.empty((2, dim, lanes))
    est5, est3 = est.reshape(2, -1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while ids.size:
            min_step = _TEN * np.spacing(t)
            if retry:
                h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
                under = np.flatnonzero(rejected & (h_abs < min_step))
                if under.size:
                    r, a = field.natural(y[:, under[0]], alpha_sign[under[0]])[:2]
                    raise StepFailure(f"step size underflow at r = {r:.6g}, alpha = {a:.6g}")
            else:
                h_abs = np.maximum(h_abs, min_step)
            t_new = t + h_abs
            h = t_new - t
            np.multiply(sign, h, out=stages.hs)
            stages.run()
            # squared norms of the 5th- and 3rd-order estimates, each one
            # matrix-vector product as in scipy: on a lane at rest they are
            # the rounding of these sums, and so is its step sequence
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            np.dot(_ERR[0], K2, est5)
            np.dot(_ERR[1], K2, est3)
            e5, e3 = np.add.reduce(np.square(est / scale), axis=1)
            err = h * e5 / np.sqrt(np.fmax(e5 + _HUNDREDTH * e3, _TINY) * dim)
            accepted = err < bound
            factor = _SAFETY * err ** _EXPONENT
            grow = np.minimum(cap, factor)
            if retry:
                grow = np.where(rejected, np.minimum(_ONE, grow), grow)
            kept = W.take(ids, axis=-1)
            steps.append((ids, accepted.take(ids), h.take(ids), kept[0], kept[-1], kept[1:-1]))
            sg_new = np.sign(_events(y_new, limits, field.definite))
            fired = armed & (sg * sg_new <= 0)
            all_accepted = np.count_nonzero(accepted) == lanes
            if all_accepted:
                h_abs = h * grow
                t, sg = t_new, sg_new
            else:
                h_abs = h * np.where(accepted, grow, np.fmax(_FIFTH, factor))
                fired &= accepted
                t = np.where(accepted, t_new, t)
                sg = np.where(accepted, sg_new, sg)
            if np.count_nonzero(fired):
                finished = fired.any(axis=0)
                done = np.flatnonzero(finished)
                fired_rows[done] = fired[:, done].T
                K_last[:, :, done] = K.take(done, axis=-1)
                ids = ids[~finished[ids]]
                armed[:, done] = False
                sign[done], bound[done], cap[done] = 0.0, np.inf, 0.0
            np.copyto(y, y_new, where=accepted)
            np.copyto(K0, K12, where=accepted)
            rejected = ~accepted
            retry = not all_accepted

    return _trajectories(params, field, y0, directions, steps, fired_rows, K_last,
                        limits)


def _trajectories(params, field, y0, directions, steps, fired, K_last, limits):
    """One Trajectory per lane from integrate_many's per-iteration records
    (ids, accepted, h, y, y_new, K), the events fired (L, 4) on each lane's
    last step and that step's stages K_last (13, 4, L), all lanes assembled
    together.  The interpolants of the last steps are built in one batch,
    every (lane, fired event) pair is located in one bracket_roots call on
    the step fraction of its lane's last step, and the earliest root of a
    lane is its stop; the last steps are then redone to their stops in one
    batch, since the interpolant there is several times less accurate than
    a step.  Near a singular end ds/dsigma falls below an ulp of s, so a row
    is kept only if its s passes every earlier knot, and the end state
    replaces the knots it does not pass (_kept_rows); the dense output
    (_DenseOutput, built when first sampled) and the drift keep every
    knot.  The knots are converted to rows (r, alpha, phi, s) in one call,
    the starts being y0 itself.  Only the Trajectory objects are made lane
    by lane."""
    lanes = len(y0)
    z0, alpha_sign = field.start(y0)
    lane = np.concatenate([st[0] for st in steps])
    accepted = np.concatenate([st[1] for st in steps])
    rejected = np.bincount(lane[~accepted], minlength=lanes)
    # the accepted records, lane by lane in step order
    take = np.flatnonzero(accepted)[np.argsort(lane[accepted], kind="stable")]
    counts = np.bincount(lane[take], minlength=lanes)
    h_all = np.concatenate([st[2] for st in steps]).take(take)
    last = np.cumsum(counts) - 1
    # the knots of lane i, its start and then the end of each accepted
    # step, are rows first[i]:first[i + 1] of states
    sizes = counts + 1
    first = np.concatenate([[0], np.cumsum(sizes)])
    starts, ends = first[:-1], first[1:] - 1
    states = np.empty((first[-1], 4))
    states[starts] = z0
    knots = np.delete(np.arange(first[-1]), starts)
    states[knots] = np.concatenate([st[4] for st in steps], axis=-1).take(take, axis=-1).T

    y_from, y_to = states[ends - 1].T, states[ends].T
    F_last = _dense(K_last, y_from, y_to, directions * h_all[last], field)
    pair_lane, pair_event = np.nonzero(fired)
    F, y_a, y_b = F_last[:, :, pair_lane], y_from[:, pair_lane], y_to[:, pair_lane]
    cols = np.arange(pair_lane.size)

    def event(x):
        # each pair's own row of _events; at fraction 1 the knot itself,
        # whose event signs fired the stop
        y = np.where(x == 1.0, y_b, _interpolate(F, y_a, x))
        return _events(y, limits, field.definite)[pair_event, cols]

    roots = np.full(fired.shape, np.inf)
    roots[pair_lane, pair_event] = bracket_roots(
        event, np.zeros(pair_lane.size), np.ones(pair_lane.size), EVENT_XTOL)[1]
    stop = np.argmin(roots, axis=1)
    h_all[last] *= roots[np.arange(lanes), stop]
    y_end, K_end = _step(y_from, K_last[0], directions * h_all[last], field)
    states[ends] = y_end.T
    dense = _DenseOutput(field, steps, take, np.repeat(directions, counts) * h_all,
                         states, knots, last, K_end)

    with np.errstate(over="ignore", invalid="ignore"):
        E0 = energy(y0, params)
    log_E = field.log_energy(states)
    # E - E0 = E0 expm1(log|E| - log|E0|) at every knot
    change = np.expm1(log_E - np.repeat(log_E[starts], sizes))
    drift = np.abs(E0) * np.maximum.reduceat(np.abs(change), starts)
    E0_knots = np.repeat(E0, sizes)
    table = np.column_stack([field.natural(states, np.repeat(alpha_sign, sizes)),
                             E0_knots + E0_knots * change])
    table[starts, :4] = y0
    rows, per_lane = _kept_rows(table, first, directions)
    out_first = np.concatenate([[0], np.cumsum(per_lane)])

    out = []
    step0 = last + 1 - counts
    for i, (e0, dev, r0) in enumerate(zip(E0.tolist(), drift.tolist(), y0[:, 0])):
        # g(r0) on the start alone: numpy rounds r ** n of a scalar (libm's
        # pow) and of an array differently
        scale = max(abs(e0), float(radial_weight(r0, params)), 1e-300)
        d = dev / scale
        lane_rows = rows[out_first[i]:out_first[i + 1]]
        branch = _Branch(float(directions[i]), states[starts[i]:first[i + 1]],
                         h_all[step0[i]:last[i] + 1], dense, int(step0[i]), field,
                         float(alpha_sign[i]))
        out.append(Trajectory(params, lane_rows[:, 3], lane_rows[:, :3], e0, d,
                              d < DRIFT_TOL, _EVENTS[stop[i]],
                              accepted_steps=int(counts[i]),
                              rejected_steps=int(rejected[i]),
                              dropped_knots=int(sizes[i] - per_lane[i]),
                              E=lane_rows[:, 4], _branches=(branch,)))
    return out


def _kept_rows(states, first, directions):
    """The trajectory rows of lanes whose knots are rows first[i]:first[i +
    1] of states (s in column 3), in ascending s, and each lane's row count.  A knot is kept
    if its s passes the running max of its lane's earlier knots (over a
    -inf padded lanes x knots table) and stays short of the lane's end s;
    the start is kept, and the end where it passes the start."""
    lanes, sizes = len(directions), np.diff(first)
    lane = np.repeat(np.arange(lanes), sizes)
    ds = np.repeat(directions, sizes) * states[:, 3]
    col = np.arange(ds.size) - first[lane]
    table = np.full((lanes, sizes.max()), -np.inf)
    table[lane, col] = ds
    knots, ends = np.flatnonzero(col), first[1:] - 1
    ahead = np.maximum.accumulate(table, axis=1)[lane[knots], col[knots] - 1]
    keep = np.ones(ds.size, dtype=bool)
    keep[knots] = (ds[knots] > ahead) & (ds[knots] < ds[ends][lane[knots]])
    keep[ends] = ds[ends] > 0.0
    # a backward lane's kept rows reversed
    kept = np.flatnonzero(keep)
    lane = lane[kept]
    per_lane = np.bincount(lane, minlength=lanes)
    out_first = np.cumsum(per_lane) - per_lane
    rank = np.arange(kept.size) - out_first[lane]
    rows = np.empty((kept.size, states.shape[1]))
    rows[out_first[lane] + np.where(directions[lane] > 0, rank, per_lane[lane] - 1 - rank)] = \
        states[kept]
    return rows, per_lane


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
            accepted_steps=bwd.accepted_steps + fwd.accepted_steps,
            rejected_steps=bwd.rejected_steps + fwd.rejected_steps,
            dropped_knots=bwd.dropped_knots + fwd.dropped_knots,
            E=np.concatenate([bwd.E[:-1], fwd.E]), _branches=bwd._branches + fwd._branches))
    return out


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

def turning_radius(E: float, params: SolitonParams, side: str) -> float:
    """Radius where g(r) = |E| on the requested monotone branch of g.

    side = "below"/"above" refers to the peak radius sqrt(n/l') for l' > 0;
    for l' <= 0, g is increasing and the side is ignored.  The bracket is
    shrunk by bracket_roots (xtol = 0) until no double lies strictly inside
    it, 9 to 13 evaluations on the tests' radii where halving took 50 to
    56; of its two ends, the one where log g - log |E| is smaller in
    magnitude is the radius.
    """
    target = math.log(abs(E))

    def f(rho):  # log g(rho) - log |E|
        return params.n * np.log(rho) - params.lambda_prime * rho * rho / 2.0 - target

    if params.lambda_prime > 0.0:
        peak = math.sqrt(params.n / params.lambda_prime)
        if f(peak) < 0.0:
            raise IntegrandSingular("|E| exceeds the peak of g; no turning radius")
        lo = hi = peak
        if side == "below":
            while f(lo) > 0.0:
                lo /= 2.0
        else:
            while f(hi) > 0.0:
                hi *= 2.0
    else:
        lo, hi = 1e-12, 1.0
        while f(lo) > 0.0:
            lo /= 2.0
        while f(hi) < 0.0:
            hi *= 2.0
    lo, hi = bracket_roots(f, lo, hi, 0.0)
    return float(lo if abs(f(lo)) <= abs(f(hi)) else hi)


def phi_quadrature(r_from: float, r_to: float, E: float,
                   params: SolitonParams) -> float:
    """phi(r_to) - phi(r_from) along a monotone-r stretch of a trajectory.

    With w = log(g^2 / E^2), dphi/dr is sign(E) / (rho sqrt(1 + e^w)) in the
    definite case and +-1 / (rho sqrt(-expm1(w))) in the Lorentzian one,
    where phi increases whichever way r runs: the result is the positive
    integral over [min r, max r].  One tanh-sinh rule (Takahasi and Mori
    1974) serves both, its step halved until two levels agree to relative
    PHI_RTOL.  A node's w is formed from its offset x from one anchor end a,
    as w(a) + 2 [n log1p(x/a) - l' x (a + x/2)], so nothing cancels near a:
    the Lorentzian end with the smaller radicand, a turning point with w = 0
    if that is within TURN_EPS of 0 (a monotone stretch has at most one).
    Its 1/sqrt singularity costs the rule nothing, and an end d from it is
    conditioned to about eps / (2 n d) relative.  Raises IntegrandSingular
    for a Lorentzian range across the forbidden band around the peak of g,
    with a radicand below -TURN_EPS at an end or not positive at a node, and
    where no two levels agree.
    """
    if E == 0.0:
        raise InvalidCase("quadrature needs E != 0")
    if r_from == r_to:
        return 0.0
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    if lo <= 0.0:
        raise NonpositiveRadius(f"r = {lo}")
    n, lam, lorentzian = params.n, params.lambda_prime, params.case == "lorentzian"
    if lorentzian and E < 0.0:
        raise InvalidCase("lorentzian energies are positive")
    turning0 = abs(E) ** (1.0 / n)  # the turning radius at l' = 0

    def log_ratio(rho):  # w
        return 2.0 * n * np.log(rho / turning0) - lam * rho * rho

    ends, into = np.array([[lo], [hi]]), np.array([[1.0], [-1.0]])  # into: toward the other end
    w_ends, k = log_ratio(ends), 0  # k: the anchor
    if lorentzian:
        peak = math.sqrt(n / lam) if lam > 0.0 else math.inf
        if lo < peak < hi and -math.expm1(log_ratio(peak)) < -TURN_EPS:
            raise IntegrandSingular("range spans the forbidden band around the peak")
        rad = -np.expm1(w_ends[:, 0])
        k = int(np.argmin(rad))
        if rad[k] < -TURN_EPS:
            raise IntegrandSingular(f"radicand negative at r = {ends[k, 0]}")
        if rad[k] <= TURN_EPS:
            w_ends[k] = 0.0
    a, w_a, half = ends[k], w_ends[k], (hi - lo) / 2.0

    def pair_sum(t):  # the weighted integrand over the nodes at +-t, t >= 0
        u = np.pi / 2.0 * np.sinh(t)
        d = into * (2.0 * half / (1.0 + np.exp(2.0 * u)))  # from the nearer end
        x = d + (ends - a)
        w = 2.0 * (n * np.log1p(x / a) - lam * x * (a + x / 2.0)) + w_a
        if lorentzian and w.max() >= 0.0:
            raise IntegrandSingular("radicand not positive inside the quadrature range")
        f = 1.0 / np.sqrt(-np.expm1(w)) if lorentzian else np.exp(-0.5 * np.logaddexp(0.0, w))
        weight = half * np.pi / 2.0 * np.cosh(t) / np.cosh(u) ** 2
        return float(np.sum(weight * f / (ends + d)))

    step, total = 1.0, 0.5 * pair_sum(np.zeros(1)) + pair_sum(np.arange(1.0, PHI_T_MAX + 1))
    for _ in range(PHI_LEVELS):
        step /= 2.0
        finer = total / 2.0 + step * pair_sum(np.arange(step, PHI_T_MAX, 2.0 * step))
        change, total = abs(finer - total), finer
        if change <= PHI_RTOL * total:
            return math.copysign(total, 1.0 if lorentzian else E * (r_to - r_from))
    raise IntegrandSingular(f"phi quadrature: levels still differ by {change:.2e} of {total:.6g}")


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


def _ambient_equation(imm: SampledImmersion, nodes, lam: float):
    """(H_trace + lambda F_perp, first derivatives, ok) at the node set nodes
    from one batched jet; ok marks the nodes where grid_mean_curvature
    defines H, and the equation is nan elsewhere."""
    nodes = node_set(imm, nodes)
    jt, mH, g_inv, ok = grid_mean_curvature(imm, nodes)
    Fp = normal_project(jt.value, jt.first, g_inv)
    return np.where(ok[:, None, None], mH + lam * Fp, np.nan), jt.first, ok


def ambient_residual(curve: ProfileCurve, n: int, lam: float,
                     sphere_counts=None, nodes: Sequence | None = None):
    """Per-node grading norm of H_trace + lambda F_perp on the lift.

    H_trace = m * (mean curvature); F_perp is the metric-normal part of the
    position vector.  When nodes is None, a sample of interior nodes is
    used.  Nodes without the full jet margin or with a degenerate metric are
    skipped.  Returns (tested nodes, residuals).
    """
    imm = lift(curve, n, sphere_counts)
    nodes = node_set(imm, _sample_nodes(imm) if nodes is None else nodes)
    res, _, ok = _ambient_equation(imm, nodes, lam)
    tested = [tuple(int(i) for i in node) for node in nodes[ok]]
    return tested, np.sqrt(np.sum(d_grading2(res[ok]), axis=-1))


def normal_component_residuals(imm: SampledImmersion, nodes, lam: float) -> np.ndarray:
    """Components <H_trace + lambda F_perp, J d_iF> of the ambient equation
    at the node set nodes: (k, m), nan on the nodes ambient_residual skips.

    On equivariant lifts only the i = 0 (profile) component is nontrivial;
    the sphere components vanish to discretization order, which is the
    reduction of the ambient system to a scalar equation.
    """
    res, first, _ = _ambient_equation(imm, nodes, lam)
    Jfirst = apply_J(first)
    return np.sum(res[:, None, :, 0] * Jfirst[..., 0] - res[:, None, :, 1] * Jfirst[..., 1],
                  axis=-1)


def _sample_nodes(imm: SampledImmersion, per_axis: int = 3):
    picks = []
    for a in imm.axes:
        lo = 0 if a.periodic else JET_MARGIN
        hi = a.count - 1 if a.periodic else a.count - 1 - JET_MARGIN
        idx = np.unique(np.linspace(lo, hi, per_axis).astype(int))
        picks.append(list(idx))
    return list(itertools.product(*picks))
