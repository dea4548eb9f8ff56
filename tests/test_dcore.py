import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parakahler import dcore
from parakahler.dcore import (
    ONE,
    TAU,
    ParaComplex,
    d_polar,
    exp_tau,
    para_cauchy_riemann_residual,
    polar,
)
from parakahler.errors import NullValue

finite = st.floats(-50, 50, allow_nan=False)


def test_tau_squares_to_one():
    assert TAU * TAU == ONE


def test_zero_divisors_on_light_cone():
    z = ParaComplex(1, 1) * ParaComplex(1, -1)
    assert z == ParaComplex(0, 0)


def test_conjugate_product_is_squared_norm():
    z = ParaComplex(3, 2)
    assert (z * z.conj()).x == pytest.approx(5.0)
    assert z.squared_norm() == pytest.approx(5.0)


@given(finite, finite, finite, finite, finite, finite)
def test_ring_laws(a, b, c, d, e, f):
    x, y, z = ParaComplex(a, b), ParaComplex(c, d), ParaComplex(e, f)
    assert x * y == y * x
    lhs = (x * y) * z
    rhs = x * (y * z)
    assert lhs.x == pytest.approx(rhs.x, rel=1e-9, abs=1e-6)
    assert lhs.y == pytest.approx(rhs.y, rel=1e-9, abs=1e-6)


def test_squared_norm_examples():
    assert ParaComplex(2, 0).squared_norm() == 4
    assert ParaComplex(1, 1).squared_norm() == 0
    assert exp_tau(1.0).squared_norm() == pytest.approx(1.0, abs=1e-14)


def test_exp_tau_values():
    assert exp_tau(0.0) == ONE
    z = exp_tau(1.0)
    assert z.x == pytest.approx(1.5431, abs=5e-5)
    assert z.y == pytest.approx(1.1752, abs=5e-5)
    for theta in (0.1, 1.0, 5.0):
        w = exp_tau(theta) * exp_tau(-theta)
        assert w.x == pytest.approx(1.0, rel=1e-11)
        assert abs(w.y) < 1e-11


def test_polar_positive_branch():
    z = 5.0 * exp_tau(0.3)
    pf = polar(z)
    assert (pf.p, pf.q) == (1, 0)
    assert pf.r == pytest.approx(5.0, rel=1e-14)
    assert pf.theta == pytest.approx(0.3, rel=1e-13)


def test_polar_rejects_null():
    with pytest.raises(NullValue):
        polar(ParaComplex(1, 1))


def test_polar_negative_tau_branch():
    # -2 tau e^{-tau} expands to 2 sinh(1) - 2 tau cosh(1)
    z = ParaComplex(2 * math.sinh(1), -2 * math.cosh(1))
    pf = polar(z)
    assert (pf.p, pf.q) == (-1, 1)
    assert pf.r == pytest.approx(2.0, rel=1e-14)
    assert pf.theta == pytest.approx(-1.0, rel=1e-13)
    back = pf.reconstruct()
    assert back.x == pytest.approx(z.x, rel=1e-12)
    assert back.y == pytest.approx(z.y, rel=1e-12)


@given(st.integers(0, 1), st.sampled_from([-1, 1]),
       st.floats(1e-3, 1e3), st.floats(-5, 5))
def test_polar_round_trip(q, p, r, theta):
    pf = dcore.PolarForm(p, q, r, theta)
    back = polar(pf.reconstruct())
    assert (back.p, back.q) == (p, q)
    assert back.r == pytest.approx(r, rel=1e-10)
    assert back.theta == pytest.approx(theta, rel=1e-9, abs=1e-10)


def test_d_polar_matches_scalar(rng):
    # magnitudes e^-20 .. e^20, plus exactly null values
    vals = rng.normal(size=(1000, 2)) * np.exp(rng.uniform(-20, 20, size=(1000, 1)))
    vals[::100, 1] = vals[::100, 0] * rng.choice([-1.0, 1.0], size=10)
    p, q, r, theta, null = d_polar(vals)
    assert null.sum() == 10
    for i in range(len(vals)):
        z = ParaComplex(*vals[i])
        if null[i]:
            with pytest.raises(NullValue):
                polar(z)
            continue
        pf = polar(z)
        assert (pf.p, pf.q, pf.r, pf.theta) == (p[i], q[i], r[i], theta[i])


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
