"""Normal bundles of submanifolds of R^n as Lagrangians of D^n.

A sampled p-submanifold of R^n with its normal frames and shape operators
(NormalBundleSpec) gives the normal-bundle Lagrangian; its para-holomorphic
volume at (x, t nu) is a product over the principal curvatures, so its
angle is closed-form, and constant in t exactly over an austere base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcore import d_mul, d_polar
from .frames import LagrangianAngle

AUSTERE_TOL = 1e-8         # a base is austere when |kappa + reversed kappa| <= tol max|kappa|


@dataclass(frozen=True)
class NormalBundleSpec:
    """Sampled p-submanifold of R^n with normal frames and shape operators.

    points: (*counts, n); normals: (*counts, k, n) orthonormal rows
    (k = n - p); shape_ops: (*counts, k, p, p) symmetric, expressed in an
    orthonormal tangent frame.
    """
    points: np.ndarray
    normals: np.ndarray
    shape_ops: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        nor = np.asarray(self.normals, dtype=float)
        ops = np.asarray(self.shape_ops, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in (pts, nor, ops)):
            raise ValueError("points, normals and shape operators must be finite")
        k = nor.shape[-2]
        gram = np.einsum("...ik,...jk->...ij", nor, nor)
        if float(np.max(np.abs(gram - np.eye(k)))) > 1e-8:
            raise ValueError("normal frames must be orthonormal")
        if float(np.max(np.abs(ops - np.swapaxes(ops, -1, -2)))) > 1e-8:
            raise ValueError("shape operators must be symmetric")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nor)
        object.__setattr__(self, "shape_ops", ops)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[-1]

    @property
    def submanifold_dim(self) -> int:
        return self.shape_ops.shape[-1]


def principal_curvatures(spec: NormalBundleSpec) -> np.ndarray:
    """Eigenvalues of every shape operator, ascending: (*counts, k, p), one
    batched eigvalsh."""
    return np.linalg.eigvalsh(spec.shape_ops)


def normal_bundle_volume(spec: NormalBundleSpec, ts) -> np.ndarray:
    """Volume tau^{n-p} prod_i(1 - tau t k_i) of the normal-bundle Lagrangian
    at (x, t * nu_1) for every node and every t: (*counts, T, 2).  The k_i
    are the principal curvatures of A_{nu_1}, multiplied in ascending order,
    then tau once per codimension (this order fixes the rounding and the
    signed zeros)."""
    ts = np.asarray(ts, dtype=float)
    kappas = principal_curvatures(spec)[..., 0, :]
    volume = np.zeros(kappas.shape[:-1] + ts.shape + (2,))
    volume[..., 0] = 1.0
    for k in np.moveaxis(kappas, -1, 0):
        factor = np.stack(np.broadcast_arrays(1.0, -ts * k[..., None]), axis=-1)
        volume = d_mul(volume, factor)
    for _ in range(spec.ambient_dim - spec.submanifold_dim):
        volume = d_mul(volume, np.array([0.0, 1.0]))
    return volume


def normal_bundle_angle(spec: NormalBundleSpec, ts) -> LagrangianAngle:
    """Angle of the normal-bundle Lagrangian at (x, t * nu_1) for every node
    and every t: q and theta arrays (*counts, T), the polar data of
    normal_bundle_volume; q = -1 and theta = nan where it is null.  Constant
    in t exactly over an austere base."""
    _, q, _, theta, null = d_polar(normal_bundle_volume(spec, ts))
    return LagrangianAngle(np.where(null, -1, q), np.where(null, np.nan, theta))


def is_austere(spec: NormalBundleSpec) -> np.ndarray:
    """One boolean per node: for every normal direction, the sorted
    eigenvalue multiset of the shape operator equals its own negation within
    AUSTERE_TOL * max|kappa|."""
    kappas = principal_curvatures(spec)
    scale = np.max(np.abs(kappas), axis=-1)
    asymmetry = np.max(np.abs(kappas + kappas[..., ::-1]), axis=-1)
    return np.all(asymmetry <= AUSTERE_TOL * scale, axis=-1)


def flat_normal_bundle(p: int, n: int, count: int = 5) -> NormalBundleSpec:
    """R^p inside R^n sampled on a p-cube; all curvatures vanish."""
    shape = (count,) * p
    pts = np.zeros(shape + (n,))
    grids = np.meshgrid(*[np.linspace(-1, 1, count)] * p, indexing="ij")
    for j in range(p):
        pts[..., j] = grids[j]
    normals = np.zeros(shape + (n - p, n))
    for a in range(n - p):
        normals[..., a, p + a] = 1.0
    ops = np.zeros(shape + (n - p, p, p))
    return NormalBundleSpec(pts, normals, ops)


def circle_normal_bundle(R: float, count: int = 32) -> NormalBundleSpec:
    """Circle of radius R in R^2 with the inward unit normal (kappa = 1/R)."""
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    pts = R * np.stack([np.cos(t), np.sin(t)], axis=-1)
    normals = -np.stack([np.cos(t), np.sin(t)], axis=-1)[:, None, :]
    ops = np.full((count, 1, 1, 1), 1.0 / R)
    return NormalBundleSpec(pts, normals, ops)


def catenoid_normal_bundle(u_max: float = 1.0, count: int = 9) -> NormalBundleSpec:
    """Catenoid patch in R^3; principal curvatures +-sech^2(u), austere."""
    u = np.linspace(-u_max, u_max, count)
    v = np.linspace(0.2, 1.2, count)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.stack([np.cosh(uu) * np.cos(vv), np.cosh(uu) * np.sin(vv), uu], axis=-1)
    normals = (np.stack([np.cos(vv), np.sin(vv), -np.sinh(uu)], axis=-1)
               / np.cosh(uu)[..., None])[:, :, None, :]
    ops = np.zeros((count, count, 1, 2, 2))
    ops[..., 0, 0, 0] = 1.0 / np.cosh(uu) ** 2
    ops[..., 0, 1, 1] = -1.0 / np.cosh(uu) ** 2
    return NormalBundleSpec(pts, normals, ops)
