import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import same_bits
from parakahler.dcore import (
    NULL_TOL,
    d_conj,
    d_exp_tau,
    d_grading2,
    d_mul,
    d_norm2,
    d_polar,
    d_pow,
)
from parakahler.constructions import para_cauchy_riemann_residual
from parakahler.geometry import DEGENERACY_TOL

finite = st.floats(-50, 50, allow_nan=False)
ONE = np.array([1.0, 0.0])
TAU = np.array([0.0, 1.0])


def _reconstruct(p, q, r, theta):
    """p tau^q r e^{tau theta}, the value whose polar data is (p, q, r, theta)."""
    return p * d_mul(d_pow(TAU, q), r * d_exp_tau(theta))


def test_tau_squares_to_one():
    assert np.array_equal(d_mul(TAU, TAU), ONE)


def test_zero_divisors_on_light_cone():
    assert np.array_equal(d_mul([1.0, 1.0], [1.0, -1.0]), [0.0, 0.0])


def test_conjugate_product_is_squared_norm():
    z = np.array([3.0, 2.0])
    assert d_mul(z, d_conj(z))[0] == pytest.approx(5.0)
    assert d_norm2(z) == pytest.approx(5.0)


@given(finite, finite, finite, finite, finite, finite)
def test_ring_laws(a, b, c, d, e, f):
    x, y, z = np.array([a, b]), np.array([c, d]), np.array([e, f])
    assert np.array_equal(d_mul(x, y), d_mul(y, x))
    lhs = d_mul(d_mul(x, y), z)
    rhs = d_mul(x, d_mul(y, z))
    assert lhs[0] == pytest.approx(rhs[0], rel=1e-9, abs=1e-6)
    assert lhs[1] == pytest.approx(rhs[1], rel=1e-9, abs=1e-6)


def test_squared_norm_examples():
    assert d_norm2([2.0, 0.0]) == 4
    assert d_norm2([1.0, 1.0]) == 0
    assert d_norm2(d_exp_tau(1.0)) == pytest.approx(1.0, abs=1e-14)


def test_exp_tau_values():
    assert np.array_equal(d_exp_tau(0.0), ONE)
    z = d_exp_tau(1.0)
    assert z[0] == pytest.approx(1.5431, abs=5e-5)
    assert z[1] == pytest.approx(1.1752, abs=5e-5)
    for theta in (0.1, 1.0, 5.0):
        w = d_mul(d_exp_tau(theta), d_exp_tau(-theta))
        assert w[0] == pytest.approx(1.0, rel=1e-11)
        assert abs(w[1]) < 1e-11


def test_polar_positive_branch():
    p, q, r, theta, null = d_polar(5.0 * d_exp_tau(0.3))
    assert not null
    assert (p, q) == (1, 0)
    assert r == pytest.approx(5.0, rel=1e-14)
    assert theta == pytest.approx(0.3, rel=1e-13)


def test_polar_rejects_null():
    # a light-cone value has no polar form: d_polar flags it, with zero data
    assert d_polar([1.0, 1.0]) == (0, 0, 0.0, 0.0, True)


def test_polar_negative_tau_branch():
    # -2 tau e^{-tau} expands to 2 sinh(1) - 2 tau cosh(1)
    z = np.array([2 * math.sinh(1), -2 * math.cosh(1)])
    p, q, r, theta, null = d_polar(z)
    assert not null
    assert (p, q) == (-1, 1)
    assert r == pytest.approx(2.0, rel=1e-14)
    assert theta == pytest.approx(-1.0, rel=1e-13)
    back = _reconstruct(p, q, r, theta)
    assert back[0] == pytest.approx(z[0], rel=1e-12)
    assert back[1] == pytest.approx(z[1], rel=1e-12)


@given(st.integers(0, 1), st.sampled_from([-1, 1]),
       st.floats(1e-3, 1e3), st.floats(-5, 5))
def test_polar_round_trip(q, p, r, theta):
    bp, bq, br, btheta, null = d_polar(_reconstruct(p, q, r, theta))
    assert not null
    assert (bp, bq) == (p, q)
    assert br == pytest.approx(r, rel=1e-10)
    assert btheta == pytest.approx(theta, rel=1e-9, abs=1e-10)


def test_d_polar_matches_scalar(rng):
    # d_polar of each value alone gives the batch's entry, bit for bit
    # magnitudes e^-20 .. e^20, plus exactly null values
    vals = rng.normal(size=(1000, 2)) * np.exp(rng.uniform(-20, 20, size=(1000, 1)))
    vals[::100, 1] = vals[::100, 0] * rng.choice([-1.0, 1.0], size=10)
    batch = d_polar(vals)
    assert batch[4].sum() == 10
    alone = [d_polar(v) for v in vals]
    assert sum(bool(one[4]) for one in alone) == 10
    for i, one in enumerate(alone):
        assert all(v.shape == () for v in one)
        assert [v.tobytes() for v in one] == [b[i].tobytes() for b in batch]


def _d_polar_reference(a, tol=NULL_TOL):
    """The d_polar that np.where'd Python ints over strided components."""
    a = np.asarray(a, dtype=float)
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
    return (np.where(null, 0, p), np.where(null, 0, q), np.where(null, z, r),
            np.where(null, z, theta), null)


def test_d_polar_matches_the_code_it_replaced(rng):
    # random values over e^-20 .. e^20, null and near-null ones, and every
    # pair of 0.0, -0.0, +-inf, nan and two finite values; one at a time as
    # 0-d values too.  A value whose x^2 - y^2 is nan is null now: the old
    # test passed it with a nan theta.
    vals = rng.normal(size=(400, 2)) * np.exp(rng.uniform(-20, 20, size=(400, 1)))
    vals[::20, 1] = vals[::20, 0] * rng.choice([-1.0, 1.0], size=20)
    vals[1::20, 1] = vals[1::20, 0] * (1.0 + 1e-12 * rng.uniform(-2, 2, size=20))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -0.25]
    vals = np.concatenate([vals, list(itertools.product(specials, repeat=2))])
    with np.errstate(invalid="ignore"):
        ref = _d_polar_reference(vals)
        nan_rows = np.isnan(d_norm2(vals))
        got = d_polar(vals)
        alone = [d_polar(v) for v in vals]
    assert 20 < ref[4][:400].sum() < 40  # the exact nulls, and near-nulls on both sides
    assert nan_rows.sum() == 17  # a nan, or inf and -inf on both components
    for mine, theirs, null_value in zip(got, ref, (0, 0, 0.0, 0.0, True)):
        expected = np.where(nan_rows, null_value, theirs).astype(theirs.dtype)
        assert same_bits(mine, expected)
    for i, one in enumerate(alone):
        assert [v.shape for v in one] == [()] * 5
        assert all(same_bits(v, g[i]) for v, g in zip(one, got))


# The kernel bodies before they wrote into preallocated outputs (d_exp_tau,
# d_mul) and read the components through one view (d_polar): each rewrite
# keeps every operation and its order, so the results agree byte for byte.

def _d_mul_before(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    out[..., 1] = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return out


def _d_exp_tau_before(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cosh(theta), np.sinh(theta)], axis=-1)


def _d_pow_before(a, k):
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    out[..., 0] = 1.0
    base = a
    while k:
        if k & 1:
            out = _d_mul_before(out, base)
        k >>= 1
        if k:
            base = _d_mul_before(base, base)
    return out


def _d_polar_before(a, tol=NULL_TOL):
    a = np.asarray(a, dtype=float)
    x, y = (np.ascontiguousarray(a[..., c]).reshape(-1) for c in (0, 1))
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


KERNEL_SHAPES = [(), (1,), (4,), (200,), (20001,)]


def _kernel_values(rng, shape):
    """D-values of a shape over e^-30 .. e^30, with exact nulls, and nan,
    +-inf, -0.0 and 0.0 in either component of some of them."""
    vals = rng.normal(size=shape + (2,)) * np.exp(rng.uniform(-30, 30, size=shape + (1,)))
    flat = vals.reshape(-1, 2)
    flat[::7, 1] = flat[::7, 0] * rng.choice([-1.0, 1.0], size=flat[::7].shape[0])
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    for i in range(3, flat.shape[0], 11):
        flat[i, rng.integers(2)] = specials[(i // 11) % len(specials)]
    return vals


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
def test_rewritten_kernels_keep_every_bit(shape, rng):
    a, b = _kernel_values(rng, shape), _kernel_values(rng, shape)
    theta = _kernel_values(rng, shape)[..., 0] / 1e12  # cosh overflows at a few
    with np.errstate(all="ignore"):
        assert same_bits(d_mul(a, b), _d_mul_before(a, b))
        assert same_bits(d_exp_tau(theta), _d_exp_tau_before(theta))
        for k in range(6):
            assert same_bits(d_pow(a, k), _d_pow_before(a, k))
        for tol in (NULL_TOL, DEGENERACY_TOL, 0.0):
            for mine, ref in zip(d_polar(a, tol), _d_polar_before(a, tol), strict=True):
                assert same_bits(mine, ref)
        # a component view, as the algebra suite and the angle fields pass it
        for mine, ref in zip(d_polar(a[..., ::-1], DEGENERACY_TOL),
                             _d_polar_before(a[..., ::-1], DEGENERACY_TOL), strict=True):
            assert same_bits(mine, ref)


def _polar_stacks(rng):
    """D-value stacks by how many of their values are null at every tolerance
    below: none (20001 finite values off the light cone, signed zeros in
    either component of some), some (nan, +-inf, exact nulls and (0, 0)
    among finite ones) and all; an empty stack; a 0-d value of each kind."""
    finite = rng.normal(size=(20001, 2)) * np.exp(rng.uniform(-30, 30, size=(20001, 1)))
    finite[np.abs(np.abs(finite[:, 0]) - np.abs(finite[:, 1])) < 1e-3 * np.abs(finite[:, 0]),
           1] *= 2.0
    finite[3::101, 0] = -0.0
    finite[5::101, 1] = 0.0
    nulls = np.array([[np.nan, 1.0], [2.0, np.nan], [np.inf, 1.0], [-np.inf, -np.inf],
                      [3.0, -3.0], [-0.5, -0.5], [0.0, -0.0], [-0.0, 0.0]])
    some = finite[:200].copy()
    some[::25] = nulls
    return {"none": finite, "some": some, "all": nulls, "empty": np.empty((0, 2)),
            "0-d": finite[0], "0-d null": nulls[2]}


@pytest.mark.parametrize("kind", ["none", "some", "all", "empty", "0-d", "0-d null"])
def test_d_polar_keeps_every_bit_with_and_without_null_values(kind, rng):
    # d_polar keeps every bit whether none, some or all values are null
    a = _polar_stacks(rng)[kind]
    with np.errstate(all="ignore"):
        for tol in (NULL_TOL, DEGENERACY_TOL, 0.0):
            got, ref = d_polar(a, tol), _d_polar_before(a, tol)
            nulls, size = int(ref[-1].sum()), ref[-1].size
            assert (0 < nulls < size) if kind == "some" else \
                nulls == (size if kind in ("all", "0-d null") else 0)
            for mine, want in zip(got, ref, strict=True):
                assert same_bits(mine, want)


@pytest.mark.parametrize("lead_a, lead_b", [((4,), ()), ((), (200,)), ((3, 1), (1, 5)),
                                            ((20001,), (1,))], ids=str)
def test_rewritten_d_mul_keeps_every_bit_when_broadcasting(lead_a, lead_b, rng):
    a, b = _kernel_values(rng, lead_a), _kernel_values(rng, lead_b)
    with np.errstate(all="ignore"):
        assert same_bits(d_mul(a, b), _d_mul_before(a, b))
        assert same_bits(d_mul(b, a), _d_mul_before(b, a))
        assert same_bits(d_mul(a, [0.0, 1.0]), _d_mul_before(a, [0.0, 1.0]))


def _sample_grid(fn, nx=21, ny=21, lo=-0.5, hi=0.5):
    xs = np.linspace(lo, hi, nx)
    ys = np.linspace(lo, hi, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return fn(X, Y), xs[1] - xs[0], ys[1] - ys[0]


def test_cauchy_riemann_identity_map():
    f, hx, hy = _sample_grid(lambda x, y: np.stack([x, y], axis=-1))
    assert para_cauchy_riemann_residual(f, hx, hy)[9, 9] < 1e-12


def test_cauchy_riemann_conjugate_residual_one():
    f, hx, hy = _sample_grid(lambda x, y: np.stack([x, -y], axis=-1))
    assert para_cauchy_riemann_residual(f, hx, hy)[9, 9] == pytest.approx(1.0)


def test_cauchy_riemann_square_is_exact():
    # central differences are exact on quadratics, so z^2 has zero residual
    def square(x, y):
        return np.stack([x * x + y * y, 2 * x * y], -1)

    f, hx, hy = _sample_grid(square)
    assert para_cauchy_riemann_residual(f, hx, hy)[9, 9] < 1e-13


def test_cauchy_riemann_cubic_converges():
    # z^3: with hx = hy the truncation errors of a para-holomorphic map
    # cancel each other, so unequal spacings are needed to see the O(h^2)
    # decay of the residual.
    def cube(x, y):
        return np.stack([x ** 3 + 3 * x * y ** 2, 3 * x ** 2 * y + y ** 3], -1)

    res = []
    for nx, ny in ((21, 31), (41, 61)):
        f, hx, hy = _sample_grid(cube, nx, ny)
        res.append(para_cauchy_riemann_residual(f, hx, hy)[nx // 2 - 1, ny // 2 - 1])
    assert res[0] > 1e-6  # genuinely nonzero at finite h
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.5)


def test_cauchy_riemann_boundary():
    # only interior nodes have a stencil: row i of the result is node i + 1
    f, hx, hy = _sample_grid(lambda x, y: np.stack([x, y], axis=-1), 21, 13)
    assert para_cauchy_riemann_residual(f, hx, hy).shape == (19, 11)
