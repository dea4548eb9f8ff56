"""Split-complex (para-complex) arithmetic on float arrays.

A para-complex number is z = x + tau*y with tau^2 = +1.  The product rule

    (x, y) (x', y') = (x x' + y y', x y' + x' y)

makes D a commutative ring with zero divisors on the light cone x = +-y.
The squared norm <z, z> = z conj(z) = x^2 - y^2 can take either sign; a
non-null value factors uniquely as

    z = p * tau^q * r * (cosh(theta) + tau sinh(theta)),

with p in {+1, -1}, q in {0, 1}, r > 0.  Values on the light cone have no
polar form; ``d_polar`` flags them null.

A D-value is a float array whose last axis holds the (x, y) components, one
value being shape (2,); the ``d_*`` kernels act on any stack of them.
``bracket_roots`` is the package's one bracketed root finder, on arrays of
brackets.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance deciding "numerically null": |x^2 - y^2| <= tol (x^2 + y^2).
# Scale-free on purpose; an absolute cutoff would misclassify large near-null
# values.
NULL_TOL = 1e-12


def d_array(z) -> np.ndarray:
    """Coerce a pair or an array of pairs to a float (..., 2) array."""
    a = np.asarray(z, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError("para-complex arrays need a trailing axis of size 2")
    return a


def d_mul(a, b) -> np.ndarray:
    a, b = d_array(a), d_array(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    x, y, u, v = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    re, im = x * u, x * v
    re += y * v  # in place: one temporary less per component
    im += y * u
    out[..., 0], out[..., 1] = re, im
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
    out = np.empty(theta.shape + (2,))
    np.cosh(theta, out=out[..., 0])
    np.sinh(theta, out=out[..., 1])
    return out


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

    A value is null unless |x^2 - y^2| > tol (x^2 + y^2), so a nan (an
    overflowed value) is null too.  theta is recovered through arcsinh of
    the subdominant component, which stays accurate for large |theta|
    (arctanh of y/x would not).  Entries flagged null carry p=q=0,
    r=theta=0 and must be ignored by the caller.
    """
    a = d_array(a)
    x, y = a.reshape(-1, 2).T
    n2 = (x - y) * (x + y)
    null = ~(np.abs(n2) > tol * (x ** 2 + y ** 2))
    n2[null] = 1.0
    q = n2 < 0
    p = np.where(np.where(q, y, x) > 0, 1, -1)
    r = np.sqrt(np.abs(n2))
    theta = np.arcsinh(p * np.where(q, x, y) / r)
    p[null], r[null], theta[null] = 0, 0.0, 0.0
    shape = a.shape[:-1]
    return (p.reshape(shape), q.astype(int).reshape(shape), r.reshape(shape),
            theta.reshape(shape), null.reshape(shape))


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
