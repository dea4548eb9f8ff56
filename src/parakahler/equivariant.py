"""SO(n)-equivariant Lagrangian immersions F(s, sigma) = gamma(s) sigma.

A profile curve gamma in D (nonvanishing) scales the unit sphere of the real
slice R^n inside D^n.  The lift is automatically Lagrangian; its volume form
is, up to a real factor, gammadot * gamma^(n-1), so the lift is minimal
exactly when Re(gamma^n) or Im(gamma^n) is constant.  Those level families
have closed polar forms

    r = (C / cosh(n phi))^(1/n)      (Re branch)
    r = (C / sinh(n phi))^(1/n)      (Im branch, phi > 0)

sampled here exactly; explicit closed parametrizations of the n = 2 circle /
hyperbola families and the n = 3 cubic level curve allow light-cone crossing
counts over the full curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dcore import bracket_roots, d_array, d_exp_tau, d_mul, d_norm2, d_pow
from .dlinalg import apply_J
from .errors import InvalidRange
from .geometry import GridAxis, SampledImmersion

# lightcone_crossings shrinks the bracket of each crossing to this length in
# s (dcore.bracket_roots: 4-6 evaluations per call where halving took ~30) ...
CROSSING_XTOL = 1e-10
TANGENT_TOL = 1e-6     # ... and flags it tangential where |slope| <= tol * sample scale


@dataclass(frozen=True)
class ProfileCurve:
    """Uniformly sampled planar curve s -> gamma(s) in D, gamma != 0.

    fn, when present, is the exact parametrization (used by crossing
    refinement); family tags the construction.
    """
    s: np.ndarray
    gamma: np.ndarray  # (k, 2)
    family: str = "explicit"
    periodic: bool = False
    fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        g = d_array(self.gamma)
        if s.ndim != 1 or g.shape != (s.size, 2):
            raise ValueError("profile curve needs matching 1-d samples")
        if np.any(np.all(np.abs(g) < 1e-14, axis=-1)):
            raise ValueError("profile curve must avoid the origin")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "gamma", g)

    @property
    def spacing(self) -> float:
        return float(self.s[1] - self.s[0])

    def derivative_samples(self) -> np.ndarray:
        """gammadot: exact when fn is known, else central differences
        (one-sided at open ends)."""
        h = self.spacing
        if self.fn is not None:
            return d_array((self.fn(self.s + h) - self.fn(self.s - h)) / (2 * h))
        g = self.gamma
        if self.periodic:
            return (np.roll(g, -1, axis=0) - np.roll(g, 1, axis=0)) / (2 * h)
        d = np.empty_like(g)
        d[1:-1] = (g[2:] - g[:-2]) / (2 * h)
        d[0] = (g[1] - g[0]) / h
        d[-1] = (g[-1] - g[-2]) / h
        return d


def profile_from_function(fn: Callable, s_lo: float, s_hi: float, count: int,
                          periodic: bool = False, family: str = "explicit") -> ProfileCurve:
    s = (np.linspace(s_lo, s_hi, count, endpoint=False) if periodic
         else np.linspace(s_lo, s_hi, count))
    return ProfileCurve(s, d_array(fn(s)), family, periodic, fn)


def _sphere_chart(n: int, counts):
    """Sphere-factor axes and embedding for n = 2 (periodic angle) or n = 3
    (latitude-longitude, poles excluded by a half-cell offset)."""
    if n == 2:
        (ct,) = counts
        axes = (GridAxis(0.0, 2.0 * np.pi, ct, periodic=True),)

        def embed(t):
            return np.stack([np.cos(t), np.sin(t)], axis=-1)

        return axes, embed
    if n == 3:
        ca, cb = counts
        half = np.pi / (2 * ca)
        axes = (GridAxis(half, np.pi - half, ca),
                GridAxis(0.0, 2.0 * np.pi, cb, periodic=True))

        def embed(a, b):
            return np.stack([np.sin(a) * np.cos(b),
                             np.sin(a) * np.sin(b),
                             np.cos(a)], axis=-1)

        return axes, embed
    raise InvalidRange(f"sphere chart implemented for n in {{2, 3}}, got {n}")


def lift(curve: ProfileCurve, n: int, sphere_counts=None) -> SampledImmersion:
    """Equivariant immersion F(s, sigma) = gamma(s) sigma into D^n."""
    if n < 2:
        raise InvalidRange("equivariant lifts need n >= 2")
    if sphere_counts is None:
        sphere_counts = (32,) if n == 2 else (9, 16)
    axes, embed = _sphere_chart(n, sphere_counts)
    s_axis = GridAxis(float(curve.s[0]),
                      float(curve.s[-1] + (curve.spacing if curve.periodic else 0.0)),
                      curve.s.size, periodic=curve.periodic)
    mesh = np.meshgrid(*[a.nodes() for a in axes], indexing="ij")
    sigma = embed(*mesh)  # (*sphere_shape, n)
    gamma = curve.gamma  # (k, 2)
    values = gamma[(slice(None),) + (None,) * len(axes) + (None, slice(None))] \
        * sigma[None, ..., :, None]
    return SampledImmersion((s_axis,) + axes, values)


def equivariant_volume(curve: ProfileCurve, n: int) -> np.ndarray:
    """gammadot(s) gamma(s)^(n-1) per sample; its (q, theta) equals the
    lift's angle field along matching nodes up to a real factor."""
    dg = curve.derivative_samples()
    return d_mul(dg, d_pow(curve.gamma, n - 1))


def level_curve(n: int, C: float, which: str, phi_lo: float, phi_hi: float,
                count: int) -> ProfileCurve:
    """Exact polar samples of the minimal level families.

    which = "re": gamma = r e^{tau phi} with r = (C/cosh(n phi))^{1/n}, so
    Re(gamma^n) = C on all of R.  which = "im": r = (C/sinh(n phi))^{1/n};
    the branch needs phi > 0 (for C > 0).  Sampling the closed forms gives
    machine-precision membership with no root finding.
    """
    if C == 0.0:
        raise InvalidRange("level constant C must be nonzero")
    if which not in ("re", "im"):
        raise InvalidRange(f"unknown family {which!r}")
    if which == "im" and (phi_lo <= 0.0 or C < 0.0):
        raise InvalidRange("im-branch sampling needs phi > 0 and C > 0")
    if which == "re" and C < 0.0:
        raise InvalidRange("re-branch sampling needs C > 0")

    def fn(phi):
        phi = np.asarray(phi, dtype=float)
        denom = np.cosh(n * phi) if which == "re" else np.sinh(n * phi)
        r = (C / denom) ** (1.0 / n)
        return r[..., None] * d_exp_tau(phi)

    curve = profile_from_function(fn, phi_lo, phi_hi, count,
                                  family=f"{which}_level")
    return curve


def explicit_circle(C: float, count: int = 64) -> ProfileCurve:
    """Closed curve x^2 + y^2 = C (the full Re-level set for n = 2)."""
    if C <= 0.0:
        raise InvalidRange("circle needs C > 0")
    rad = np.sqrt(C)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return rad * np.stack([np.cos(t), np.sin(t)], axis=-1)

    return profile_from_function(fn, 0.0, 2.0 * np.pi, count,
                                 periodic=True, family="re_level")


def explicit_hyperbola(C: float, t_lo: float, t_hi: float, count: int = 64) -> ProfileCurve:
    """Branch x = t, y = C/(2t) of 2xy = C (Im-level set for n = 2), t > 0."""
    if C <= 0.0 or t_lo <= 0.0:
        raise InvalidRange("hyperbola branch needs C > 0 and t > 0")

    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, C / (2.0 * t)], axis=-1)

    return profile_from_function(fn, t_lo, t_hi, count, family="im_level")


def explicit_cubic_level(C: float, y_lo: float, y_hi: float, count: int = 129) -> ProfileCurve:
    """The n = 3 level curve x^3 + 3 x y^2 = C parametrized by y.

    x^3 + 3y^2 x - C = 0 is a depressed cubic with nonnegative linear
    coefficient, hence has a unique real root given by Cardano's formula.
    """
    if C == 0.0:
        raise InvalidRange("level constant C must be nonzero")

    def fn(y):
        y = np.asarray(y, dtype=float)
        s = np.sqrt(C * C / 4.0 + y ** 6)
        x = np.cbrt(C / 2.0 + s) + np.cbrt(C / 2.0 - s)
        return np.stack([x, y], axis=-1)

    return profile_from_function(fn, y_lo, y_hi, count, family="re_level")


def named_curve(name: str, n: int, C: float, lo: float, hi: float,
                count: int) -> ProfileCurve:
    """The profile curve of a named family: "re"/"im" (level_curve of
    gamma^n over phi in [lo, hi]), "circle" (lo, hi unused), "hyperbola" or
    "cubic" (parameter range [lo, hi])."""
    if name in ("re", "im"):
        return level_curve(n, C, name, lo, hi, count)
    if name == "circle":
        return explicit_circle(C, count)
    if name == "hyperbola":
        return explicit_hyperbola(C, lo, hi, count)
    if name == "cubic":
        return explicit_cubic_level(C, lo, hi, count)
    raise InvalidRange(f"unknown curve family {name!r}")


def tau_multiply(curve: ProfileCurve) -> ProfileCurve:
    """gamma -> tau gamma (swaps components); maps solutions to solutions."""
    fn = None
    if curve.fn is not None:
        base = curve.fn
        fn = lambda s: apply_J(d_array(base(s)))
    return ProfileCurve(curve.s, apply_J(curve.gamma), curve.family,
                        curve.periodic, fn)


@dataclass(frozen=True)
class CrossingReport:
    count: int
    locations: tuple[float, ...]
    tangential: tuple[bool, ...]


def lightcone_crossings(curve: ProfileCurve) -> CrossingReport:
    """Sign changes of <gamma, gamma> along the curve, located by
    bracket_roots.

    Every crossing of the curve is located in one bracket_roots call, its
    bracket between two samples shrunk to CROSSING_XTOL in s and the
    location taken at the bracket's middle, on the exact parametrization
    when available (linear interpolation of samples otherwise): 4 to 6
    evaluations on the verify suites' curves, where halving took 29 to 32.
    Crossings where d/ds <gamma, gamma> nearly vanishes are flagged
    tangential.  A periodic curve wraps: its first sample's neighbours are
    the second and the last.
    """
    norms = d_norm2(curve.gamma)
    s = curve.s
    if curve.periodic:
        norms = np.append(norms, norms[0])
        s = np.append(s, s[-1] + curve.spacing)

    def norm_at(x):
        if curve.fn is not None:
            return d_norm2(d_array(curve.fn(x)))
        return np.interp(x, s, norms)

    # zero exactly on a sample: a crossing iff the samples before and after
    # it differ in sign; a grazing touch, or the end of an open curve, does
    # not count.  The sample before then stands in for a.
    before = np.concatenate([[norms[-2] if curve.periodic else 0.0], norms[:-2]])
    on = norms[:-1] == 0.0
    a, b = np.where(on, before, norms[:-1]), norms[1:]
    found = a * b < 0.0
    across = found & ~on
    lo, hi = bracket_roots(norm_at, s[:-1][across], s[1:][across], CROSSING_XTOL)
    s_star = s[:-1].copy()
    s_star[across] = 0.5 * (lo + hi)
    s_star, a, b = s_star[found], a[found], b[found]
    h = max(curve.spacing * 1e-5, 1e-12)
    slope = (norm_at(s_star + h) - norm_at(s_star - h)) / (2 * h)
    scale = np.maximum(np.abs(a), np.abs(b)) / curve.spacing
    tangential = np.abs(slope) <= TANGENT_TOL * np.maximum(scale, 1e-300)
    return CrossingReport(int(s_star.size), tuple(s_star.tolist()),
                          tuple(tangential.tolist()))


def level_residual(curve: ProfileCurve, n: int, which: str, C: float) -> float:
    """max |Re(gamma^n) - C| (or Im) over the samples."""
    gn = d_pow(curve.gamma, n)
    comp = gn[..., 0] if which == "re" else gn[..., 1]
    return float(np.max(np.abs(comp - C)))
