"""Split-complex (para-complex) scalar arithmetic.

A para-complex number is z = x + tau*y with tau^2 = +1.  The product rule

    (x, y) (x', y') = (x x' + y y', x y' + x' y)

makes D a commutative ring with zero divisors on the light cone x = +-y.
The squared norm <z, z> = z conj(z) = x^2 - y^2 can take either sign; a
non-null value factors uniquely as

    z = p * tau^q * r * (cosh(theta) + tau sinh(theta)),

with p in {+1, -1}, q in {0, 1}, r > 0.  Values on the light cone have no
polar form and raise :class:`~parakahler.errors.NullValue`.

Scalars are the frozen :class:`ParaComplex` dataclass; grid-scale code uses
the vectorized ``d_*`` kernels, which operate on float arrays whose last
axis holds the (x, y) components.  ``bracket_roots`` is the package's one
bracketed root finder, on arrays of brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NullValue

# Relative tolerance deciding "numerically null": |x^2 - y^2| <= tol (x^2 + y^2).
# Scale-free on purpose; an absolute cutoff would misclassify large near-null
# values.
NULL_TOL = 1e-12


@dataclass(frozen=True)
class ParaComplex:
    x: float
    y: float

    def __add__(self, other):
        other = _coerce(other)
        return ParaComplex(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ParaComplex(self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return ParaComplex(
            self.x * other.x + self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ParaComplex(-self.x, -self.y)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conj(self) -> "ParaComplex":
        return ParaComplex(self.x, -self.y)

    def squared_norm(self) -> float:
        """Minkowski squared norm x^2 - y^2 (= z conj(z))."""
        return (self.x - self.y) * (self.x + self.y)

    def grading_norm(self) -> float:
        """Euclidean magnitude sqrt(x^2 + y^2); a test metric, not geometric."""
        return math.hypot(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


def _coerce(v) -> ParaComplex:
    if isinstance(v, ParaComplex):
        return v
    if isinstance(v, (int, float)):
        return ParaComplex(float(v), 0.0)
    raise TypeError(f"cannot interpret {v!r} as a para-complex number")


ZERO = ParaComplex(0.0, 0.0)
ONE = ParaComplex(1.0, 0.0)
TAU = ParaComplex(0.0, 1.0)


def exp_tau(theta: float) -> ParaComplex:
    """cosh(theta) + tau sinh(theta); unit squared norm for every theta."""
    return ParaComplex(math.cosh(theta), math.sinh(theta))


@dataclass(frozen=True)
class PolarForm:
    p: int      # overall sign, +-1
    q: int      # tau quadrant, 0 or 1
    r: float    # radius |<z,z>|^(1/2) > 0
    theta: float

    def reconstruct(self) -> ParaComplex:
        c, s = self.r * math.cosh(self.theta), self.r * math.sinh(self.theta)
        if self.q:
            c, s = s, c
        return ParaComplex(self.p * c, self.p * s)


def polar(z: ParaComplex) -> PolarForm:
    """Polar decomposition z = p tau^q r e^{tau theta}: d_polar of one value.

    Raises NullValue where d_polar flags z null (|<z,z>| <= NULL_TOL *
    (x^2 + y^2), scale-free).
    """
    z = _coerce(z)
    p, q, r, theta, null = d_polar(z)
    if null:
        raise NullValue(f"{z} is on the light cone (squared norm {z.squared_norm():.3e})")
    return PolarForm(int(p), int(q), float(r), float(theta))


# ---------------------------------------------------------------------------
# Vectorized kernels over (..., 2) float arrays.
# ---------------------------------------------------------------------------

def d_array(z) -> np.ndarray:
    """Coerce ParaComplex / pair / array-of-pairs to a float (..., 2) array."""
    if isinstance(z, ParaComplex):
        return z.as_array()
    a = np.asarray(z, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError("para-complex arrays need a trailing axis of size 2")
    return a


def d_mul(a, b) -> np.ndarray:
    a, b = d_array(a), d_array(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    out[..., 1] = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return out


def d_conj(a) -> np.ndarray:
    a = d_array(a).copy()
    a[..., 1] = -a[..., 1]
    return a


def d_norm2(a) -> np.ndarray:
    """Minkowski squared norm, computed as (x-y)(x+y) to limit cancellation."""
    a = d_array(a)
    return (a[..., 0] - a[..., 1]) * (a[..., 0] + a[..., 1])


def d_grading2(a) -> np.ndarray:
    a = d_array(a)
    return a[..., 0] ** 2 + a[..., 1] ** 2


def d_exp_tau(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cosh(theta), np.sinh(theta)], axis=-1)


def d_pow(a, k: int) -> np.ndarray:
    a = d_array(a)
    out = np.zeros_like(a)
    out[..., 0] = 1.0
    base = a
    while k:
        if k & 1:
            out = d_mul(out, base)
        k >>= 1
        if k:
            base = d_mul(base, base)
    return out


def d_polar(a, tol: float = NULL_TOL):
    """Batched polar data (p, q, r, theta, null_mask); no exception raised.

    A value is null when |x^2 - y^2| <= tol (x^2 + y^2).  theta is recovered
    through arcsinh of the subdominant component, which stays accurate for
    large |theta| (arctanh of y/x would not).  Entries flagged null carry
    p=q=0, r=theta=0 and must be ignored by the caller.
    """
    a = d_array(a)
    n2 = d_norm2(a)
    g2 = d_grading2(a)
    null = np.abs(n2) <= tol * g2
    safe_n2 = np.where(null, 1.0, n2)
    r = np.sqrt(np.abs(safe_n2))
    q = (safe_n2 < 0).astype(int)
    dominant = np.where(q == 1, a[..., 1], a[..., 0])
    sub = np.where(q == 1, a[..., 0], a[..., 1])
    p = np.where(dominant > 0, 1, -1)
    theta = np.arcsinh(p * sub / r)
    z = np.zeros_like(r)
    return (
        np.where(null, 0, p),
        np.where(null, 0, q),
        np.where(null, z, r),
        np.where(null, z, theta),
        null,
    )


def para_cauchy_riemann_residual(f, hx: float, hy: float) -> np.ndarray:
    """|df/dzbar| at the interior nodes of a D-valued (nx, ny) sample grid:
    an (nx - 2, ny - 2) array.

    df/dzbar = (d_x f - tau d_y f) / 2, central differences; the magnitude is
    the grading norm sqrt(Re^2 + Im^2).
    """
    f = d_array(f)
    if f.ndim != 3:
        raise ValueError("expected a 2-d grid of para-complex values")
    fx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2.0 * hx)
    fy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2.0 * hy)
    return np.sqrt(d_grading2(0.5 * (fx - d_mul(TAU.as_array(), fy))))


def bracket_roots(g, lo, hi, xtol):
    """Brackets [lo, hi] (arrays of one shape) shrunk onto sign changes of g,
    which maps an array of points of that shape to g at each; g(lo) and
    g(hi) must differ in sign or vanish.  Each bracket shrinks until
    hi - lo <= xtol or its midpoint equals an end (no double lies strictly
    inside, so xtol = 0 runs to adjacent doubles).  An end or a trial point
    where g is 0 is the root: lo = hi there.  Each bracket of a batch gives
    what it would give alone.  Returns (lo, hi).

    The trial points follow Chandrupatla's method (Adv. Eng. Software 28,
    1997): inverse quadratic interpolation through the two ends and the
    end last replaced, where the method's test on those three points finds
    the interpolant monotone over the bracket, and the midpoint otherwise
    (the safeguard step).  A trial keeps max(xtol / 2, 1 ulp) from both
    ends, so once the interpolation has closed in on the root from one
    side the next trial lands across it.  Smooth g takes a handful of
    evaluations; a jump takes as many as bisection."""
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    shape = lo.shape
    if not lo.size:
        return lo, hi

    def g_flat(x):
        return np.asarray(g(x.reshape(shape)), dtype=float).reshape(-1)

    # a: the newest point, b: the other end of the bracket, c: the end
    # that a or b last replaced
    a, b = lo.reshape(-1), hi.reshape(-1)
    fa, fb = g_flat(a), g_flat(b)
    if not np.all(np.sign(fa) * np.sign(fb) <= 0.0):  # a nan end fails too
        raise ValueError("g(lo) and g(hi) must differ in sign or vanish")
    b = np.where(fa == 0.0, a, b)
    a = np.where(fb == 0.0, b, a)
    t = np.full(a.shape, 0.5)
    while True:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        mid = 0.5 * (lo + hi)
        live = (hi - lo > xtol) & (lo < mid) & (mid < hi)
        if not live.any():
            return lo.reshape(shape), hi.reshape(shape)
        x = a + t * (b - a)
        x = np.where((lo < x) & (x < hi), x, mid)
        fx = g_flat(x)
        keep_b = np.sign(fx) == np.sign(fa)  # the root stays in [x, b]
        swap = live & ~keep_b
        c, fc = np.where(keep_b, a, b), np.where(keep_b, fa, fb)
        b, fb = np.where(swap, a, b), np.where(swap, fa, fb)
        a, fa = np.where(live, x, a), np.where(live, fx, fa)
        b = np.where(live & (fx == 0.0), x, b)
        # the next trial of each bracket still open, as a fraction t of the
        # way from a to b
        t = np.full(a.shape, 0.5)
        k = np.flatnonzero(live & (fx != 0.0))
        ak, bk, ck, fak, fbk, fck = (v[k] for v in (a, b, c, fa, fb, fc))
        xi, phi = (ak - bk) / (ck - bk), (fak - fbk) / (fck - fbk)
        iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        tk = np.full(k.size, 0.5)
        fa_, fb_, fc_ = fak[iqi], fbk[iqi], fck[iqi]
        tk[iqi] = (fa_ / (fb_ - fa_) * fc_ / (fb_ - fc_)
                   + (ck[iqi] - ak[iqi]) / (bk[iqi] - ak[iqi])
                   * fa_ / (fc_ - fa_) * fb_ / (fc_ - fb_))
        step = np.maximum(0.5 * xtol, np.spacing(np.maximum(np.abs(ak), np.abs(bk))))
        tl = step / np.abs(bk - ak)
        t[k] = np.where(tl < 0.5, np.clip(tk, tl, 1.0 - tl), 0.5)
