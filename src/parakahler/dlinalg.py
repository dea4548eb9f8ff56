"""Vectors, frames and matrices over the split-complex ring D.

D^n is identified with R^{2n} by splitting each entry into (x, y) parts; a
D-vector is stored as a float array of shape (n, 2) and a D-matrix as
(n, n, 2), rows being frame vectors.  The structures carried along:

    metric   <X, Y>  = sum_j x_j x'_j - y_j y'_j          (signature (n, n))
    J        entrywise multiplication by tau              (J^2 = Id)
    omega    omega(X, Y) = <X, J Y>                       (standard symplectic
             form of T*R^n: omega(e_i, tau e_j) = delta_ij)
    <<X,Y>>  = <X,Y> - tau omega(X,Y) = sum_j X_j conj(Y_j)

D has zero divisors, so elimination with division over D is unsound; but
x + tau y -> (x + y, x - y) is a ring isomorphism D = R x R, so det_D is two
real determinants in these null coordinates (Leibniz expansion for n <= 4,
LU beyond).
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations

import numpy as np

from .dcore import d_array, d_grading2
from .errors import DimensionMismatch, LagrangianViolation

LAGRANGIAN_TOL = 1e-8   # max |omega| <= tol * largest squared frame entry


def metric_rows(X, Y) -> np.ndarray:
    """<X, Y> over the trailing (n, 2) axes, broadcast over the rest: the
    metric kernel.  x x' - y y' per component, added left to right onto
    0, one node-length vector at a time (np.sum's order below 8 terms)."""
    return sum(X[..., k, 0] * Y[..., k, 0] - X[..., k, 1] * Y[..., k, 1]
               for k in range(X.shape[-2]))


def apply_J(X) -> np.ndarray:
    """Entrywise tau-multiplication: (x, y) -> (y, x)."""
    return d_array(X)[..., ::-1].copy()


_PERMS: dict[int, tuple] = {}


def _perm_table(n: int):
    """(columns (n!, n), signs (n!,)) of the permutations of range(n)."""
    table = _PERMS.get(n)
    if table is None:
        perms = np.array(list(permutations(range(n))), dtype=np.intp)
        pairs = perms[:, :, None] > perms[:, None, :]
        inversions = np.triu(pairs, k=1).sum(axis=(1, 2))
        table = (perms, np.where(inversions % 2, -1.0, 1.0))
        _PERMS[n] = table
    return table


def _det_leibniz(R: np.ndarray) -> np.ndarray:
    """Real determinants of (..., n, n) matrices by Leibniz expansion: row by
    row, the products of all n! permutation terms at once."""
    perms, signs = _perm_table(R.shape[-1])
    terms = R[..., 0, perms[:, 0]]
    for i in range(1, R.shape[-1]):
        terms = terms * R[..., i, perms[:, i]]
    return terms @ signs


def det_real(R: np.ndarray) -> np.ndarray:
    """Real determinants of (..., n, n): Leibniz for n <= 4, LU beyond."""
    return _det_leibniz(R) if R.shape[-1] <= 4 else np.linalg.det(R)


def inv_real(R: np.ndarray, det: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """Inverses of (..., n, n) given det_real's det: the adjugate over det
    for n <= 2, LU beyond (the identity standing in for a singular matrix).
    nan where singular or where det is 0, nan or infinite; never a warning."""
    n = R.shape[-1]
    singular = singular | ~np.isfinite(det) | (det == 0.0)
    if n > 2:
        inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(n), R))
        inv[singular] = np.nan
        return inv
    adj = np.ones_like(R) if n == 1 else R[..., ::-1, ::-1] * ((1.0, -1.0), (-1.0, 1.0))
    return adj / np.where(singular, np.nan, det)[..., None, None]


def det_D(M) -> np.ndarray:
    """Determinant over D of a matrix (n, n, 2) or a stack (..., n, n, 2):
    a (..., 2) array, shape (2,) for one matrix.

    x + tau y -> (x + y, x - y) is a ring isomorphism D = R x R, so det_D is
    two real determinants in these null coordinates: Leibniz expansion for
    n <= 4, LU (np.linalg.det) beyond, where real division is sound.
    Multiplicative: det(AB) = det(A) det(B) up to rounding.
    """
    M = d_array(M)
    if M.ndim < 3 or M.shape[-2] != M.shape[-3]:
        raise DimensionMismatch(f"not a square D-matrix: shape {M.shape}")
    plus, minus = det_real(M[..., 0] + M[..., 1]), det_real(M[..., 0] - M[..., 1])
    return np.stack([(plus + minus) / 2.0, (plus - minus) / 2.0], axis=-1)


def frame_matrix(frames) -> np.ndarray:
    """A frame (m, n, 2) of D-vectors, or a stack (..., m, n, 2) of them."""
    frames = d_array(frames)
    if frames.ndim < 3:
        raise DimensionMismatch("a frame is a sequence of D-vectors")
    return frames


def require_lagrangian(frames):
    """Raise LagrangianViolation unless every frame of the stack (..., m, n, 2)
    is Lagrangian: its largest |omega(X_i, X_j)| is at most LAGRANGIAN_TOL
    times its own largest squared entry x^2 + y^2, and finite.  Each frame
    has its own scale, so one stacked call decides as one call per frame
    would; the message reports the worst frame."""
    frames = frame_matrix(frames)
    x, y = frames[..., 0], frames[..., 1]
    worst = np.zeros(frames.shape[:-3])
    for i, j in combinations(range(frames.shape[-3]), 2):
        # omega(X_i, X_j) = sum_k x_ik y_jk - sum_k x_jk y_ik, each sum left
        # to right onto 0: the rounding of x y^T minus its transpose
        ij, ji = (sum(x[..., a, k] * y[..., b, k] for k in range(frames.shape[-2]))
                  for a, b in ((i, j), (j, i)))
        worst = np.maximum(worst, np.abs(ij - ji))
    g2 = d_grading2(frames)
    largest = functools.reduce(np.maximum, (g2[..., i, k] for i, k in np.ndindex(g2.shape[-2:])))
    bound = LAGRANGIAN_TOL * np.maximum(largest, 1e-300)
    bad = ~(worst <= bound) | ~np.isfinite(worst)  # a nan or an infinite omega fails
    if np.any(bad):
        k = np.unravel_index(np.argmax(worst / bound), worst.shape)
        raise LagrangianViolation(
            f"frames are not Lagrangian: max |omega| = {worst[k]:.3e} exceeds {bound[k]:.3e}"
        )


def gram(frames) -> np.ndarray:
    """Gram matrices g_ij = <X_i, X_j> of frames (..., m, n, 2), each entry
    by the metric kernel, g_ji = g_ij bit for bit."""
    m = frames.shape[-3]
    g = np.empty(frames.shape[:-2] + (m,))
    for i in range(m):
        for j in range(i, m):
            g[..., i, j] = g[..., j, i] = metric_rows(frames[..., i, :, :], frames[..., j, :, :])
    return g
