"""Lagrangian and para-complex surfaces built from closed-form data.

Products of null curves in D^2, graphs of para-holomorphic maps, and the
point maps z -> e^{tau phi0} z and z -> Jz applied to an immersion.  Only
verify and catalog's null_product and paracomplex_graph branches import
this module, so a gradient graph's start does not compile it; gradient
graphs are in lagrangian.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dcore import d_array, d_grading2, d_mul, d_norm2
from .dlinalg import apply_J
from .errors import DegeneratePairing, LagrangianViolation, NotNullCurve, NotParaHolomorphic
from .geometry import GridAxis, SampledImmersion

NULL_PRODUCT_TOL = 1e-8    # null tangents and vanishing pairings, relative to their scale
CAUCHY_RIEMANN_TOL = 1e-6  # para-Cauchy-Riemann residual, relative to max(|f_x|, 1)


def standard_null_plane():
    """A totally null plane P = span{a, b} of D^2 with omega(a, b) != 0 and
    P + JP = D^2: a = e1 + tau e2, b = e2 - tau e1."""
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, -1.0], [1.0, 0.0]])
    return a, b


def plane_curve(f: Callable, g: Callable):
    """Curve s -> f(s) a + g(s) b inside the standard null plane."""
    a, b = standard_null_plane()

    def curve(s):
        s = np.asarray(s, dtype=float)
        return (np.asarray(f(s))[..., None, None] * a
                + np.asarray(g(s))[..., None, None] * b)

    return curve


def j_curve(curve: Callable):
    """Pointwise J of a curve (maps a P-curve into JP)."""
    return lambda s: apply_J(curve(s))


def build_null_product(curve1: Callable, curve2: Callable,
                       axis_u: GridAxis, axis_v: GridAxis) -> SampledImmersion:
    """Surface f(u, v) = gamma_1(u) + gamma_2(v) from two null curves in D^2.

    Preconditions (checked numerically on the sample grids): both curves
    null, the metric cross pairing <gamma_1', gamma_2'> nonvanishing on the
    grid product, and the symplectic pairing omega(gamma_1', gamma_2')
    vanishing (else the surface is not Lagrangian).
    """
    su = axis_u.nodes()
    sv = axis_v.nodes()
    hu, hv = axis_u.spacing, axis_v.spacing
    d1 = d_array((curve1(su + hu) - curve1(su - hu)) / (2 * hu))  # (ku, 2, 2)
    d2 = d_array((curve2(sv + hv) - curve2(sv - hv)) / (2 * hv))
    for name, d in (("curve1", d1), ("curve2", d2)):
        n2 = np.abs(np.sum(d_norm2(d), axis=-1))
        g2 = np.sum(d_grading2(d), axis=-1)
        if np.any(n2 > NULL_PRODUCT_TOL * np.maximum(g2, 1e-300)):
            raise NotNullCurve(f"{name} tangent is not null (max {n2.max():.3e})")
    pair = np.einsum("ukc,vkc,c->uv", d1, d2, np.array([1.0, -1.0]))
    scale = max(float(np.max(np.sqrt(np.sum(d_grading2(d1), -1))))
                * float(np.max(np.sqrt(np.sum(d_grading2(d2), -1)))), 1e-300)
    if np.min(np.abs(pair)) <= NULL_PRODUCT_TOL * scale:
        raise DegeneratePairing("metric pairing of the two tangents vanishes on the grid")
    sympl = np.einsum("uk,vk->uv", d1[..., 0], d2[..., 1]) - np.einsum(
        "uk,vk->uv", d1[..., 1], d2[..., 0])
    if np.max(np.abs(sympl)) > NULL_PRODUCT_TOL * scale:
        raise LagrangianViolation(
            f"omega pairing of tangents reaches {np.max(np.abs(sympl)):.3e}"
        )
    g1 = d_array(curve1(su))
    g2v = d_array(curve2(sv))
    values = g1[:, None, :, :] + g2v[None, :, :, :]
    return SampledImmersion((axis_u, axis_v), values)


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
    return np.sqrt(d_grading2(0.5 * (fx - d_mul(np.array([0.0, 1.0]), fy))))


def build_paracomplex_graph(f: Callable, axes: Sequence[GridAxis]) -> SampledImmersion:
    """Graph z -> (z, f(z)) of a para-holomorphic map f: D -> D.

    f takes and returns (..., 2) arrays.  The para-Cauchy-Riemann residual
    of the sampled f is checked at interior nodes; violations raise
    NotParaHolomorphic.  The tangent spaces are then J-invariant and the
    surface is minimal away from degenerate nodes.
    """
    ax, ay = axes
    mesh = np.meshgrid(ax.nodes(), ay.nodes(), indexing="ij")
    z = np.stack(mesh, axis=-1)
    fz = d_array(f(z))
    resid = float(np.max(para_cauchy_riemann_residual(fz, ax.spacing, ay.spacing)))
    fx = (fz[2:, 1:-1] - fz[:-2, 1:-1]) / (2.0 * ax.spacing)
    scale = max(float(np.max(np.sqrt(d_grading2(fx)))), 1.0)
    if resid > CAUCHY_RIEMANN_TOL * scale:
        raise NotParaHolomorphic(f"para-Cauchy-Riemann residual {resid:.3e} exceeds "
                                 f"{CAUCHY_RIEMANN_TOL:.1e} * {scale:.3e}")
    values = np.stack([z, fz], axis=-2)
    return SampledImmersion(tuple(axes), values)


def rotate(imm: SampledImmersion, phi0: float) -> SampledImmersion:
    """Multiply every value by e^{tau phi0}; shifts theta by n*phi0, keeps q."""
    rot = np.array([math.cosh(phi0), math.sinh(phi0)])
    return SampledImmersion(imm.axes, sampler=lambda idx: d_mul(imm.sample(idx), rot))


def apply_J_immersion(imm: SampledImmersion) -> SampledImmersion:
    """Point transformation z -> Jz; negates the metric and maps H -> -J H."""
    return SampledImmersion(imm.axes, sampler=lambda idx: apply_J(imm.sample(idx)))
