"""Frames of D^n that only the verification suites build: orthonormal
frames for indefinite metrics and the Lagrangian angle of explicit frames.

    basis_vector        e_j or tau e_j of D^n
    metric, omega       <X, Y> and omega(X, Y) of two D-vectors, as floats
    d_matmul            the matrix product over D
    metric_signatures   the signatures of a stack of tangent frames at once
    signed_gram_schmidt orthonormal frames for indefinite metrics from two
                        batched eigen passes over the Gram matrix
    para_adapted_frame  orthonormal frame with e_{2i} = J e_{2i-1}
    second_fundamental_form  h(e_i, e_j) of one node's jet along such a frame
    gram_identity_check det of the Gram matrix against |det_D|^2
    lagrangian_angle_of_frame  (q, theta) of a Lagrangian frame
    random_lagrangian_frames   random Lagrangian frames, drawn in bulk
    det_at_least        |det| >= bound of real matrices, decided as LU decides

The angle and curvature fields of sampled immersions need none of these
(lagrangian and geometry work from the coordinate frame and the trace of
the jet), so the commands that compute them never import this module;
normalbundle takes only the LagrangianAngle record from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcore import d_array, d_grading2, d_norm2, d_polar
from .dlinalg import (
    apply_J,
    det_D,
    det_real,
    frame_matrix,
    gram,
    inv_real,
    metric_rows,
    require_lagrangian,
)
from .errors import DegenerateMetric, DimensionMismatch, NotJInvariant, OddDimension
from .geometry import induced_gram, normal_project

PIVOT_TOL = 1e-10       # a direction v is null when |<v, v>| <= tol * |v|^2
# ... or dependent when |v|^2 <= tol * (the frame's sum of |v_i|^2): the
# rounding of an exact dependency leaves |v|^2 below ~1e-24 of that sum
# (3.3e-25 at worst over random stacks), the nearly dependent frames the
# tests orthonormalize (v_3 = v_1 + 1e-7 w) keep it above 3.6e-16
RANK_TOL = 1e-20
J_INVARIANCE_TOL = 1e-8  # least-squares residual of J v_i off the span, relative to |J v_i|
DET_BAND = 2.0 ** -30   # det_at_least's band, relative to n! max|R_ij|^n: 2^12 x its error bound


def basis_vector(n: int, j: int, tau: bool = False) -> np.ndarray:
    v = np.zeros((n, 2))
    v[j, 1 if tau else 0] = 1.0
    return v


def _check_dims(X, Y):
    if X.shape != Y.shape:
        raise DimensionMismatch(f"shapes {X.shape} and {Y.shape} differ")


def metric(X, Y) -> float:
    X, Y = d_array(X), d_array(Y)
    _check_dims(X, Y)
    return float(metric_rows(X, Y))


def omega(X, Y) -> float:
    X, Y = d_array(X), d_array(Y)
    _check_dims(X, Y)
    return float(np.sum(X[..., 0] * Y[..., 1] - X[..., 1] * Y[..., 0]))


def d_matmul(A, B) -> np.ndarray:
    """Matrix product over D for (..., n, m, 2) x (..., m, k, 2) arrays."""
    A, B = d_array(A), d_array(B)
    re = A[..., 0] @ B[..., 0] + A[..., 1] @ B[..., 1]
    im = A[..., 0] @ B[..., 1] + A[..., 1] @ B[..., 0]
    return np.stack([re, im], axis=-1)


def metric_signatures(tangents: np.ndarray) -> list[tuple[int, ...]]:
    """The signature of each frame of a stack (N, m, n, 2), the signs of its
    Gram matrix's eigenvalues positive first, () where induced_gram finds it
    degenerate; one batched eigvalsh and one sort."""
    g, _, degenerate = induced_gram(tangents)
    signs = np.sort(np.where(np.linalg.eigvalsh(g) > 0, 1, -1), axis=-1)[..., ::-1]
    return [() if d else tuple(s) for s, d in zip(signs.tolist(), degenerate.tolist())]


@dataclass(frozen=True)
class GramSchmidtFrame:
    frame: np.ndarray       # (..., m, n, 2), metric(e_i, e_j) = eps_i delta_ij
    signature: tuple[int, ...]  # eps; an int array (..., m) for a stack
    coeffs: np.ndarray      # frame = coeffs @ input vectors


def signed_gram_schmidt(vectors) -> GramSchmidtFrame:
    """Orthonormal frame for an indefinite metric of one frame (m, n, 2) or
    of each frame of a stack (..., m, n, 2), from two batched eigen passes.

    A pass diagonalizes g = Q L Q^T = gram(vectors) and takes the frame
    |L|^(-1/2) Q^T vectors.  A direction w = Q_i^T vectors is null when
    |L_i| <= PIVOT_TOL * |w|^2, and a dependency of the vectors when
    |w|^2 <= RANK_TOL * sum_j |w_j|^2 (Euclidean lengths; the sum is the
    frame's squared Frobenius norm, since Q is orthogonal).  For a stack,
    DegenerateMetric names the first such frame.  The first pass loses
    accuracy to cond(g) = cond(vectors)^2; the second, over the first
    pass's frame whose Gram matrix is diag(eps) up to rounding, restores it
    (the argument of CholeskyQR2).  One frame gives its signature as a
    tuple, a stack as an int array (..., m), negative signs first.
    """
    vectors = d_array(vectors)
    lead, (m, n) = vectors.shape[:-3], vectors.shape[-3:-1]
    frame, coeffs = vectors.reshape(-1, m, n, 2), np.eye(m)
    for _ in range(2):
        L, Q = np.linalg.eigh(gram(frame))
        rows = Q.transpose(0, 2, 1)
        frame = (rows @ frame.reshape(-1, m, 2 * n)).reshape(-1, m, n, 2)
        sq = np.sum(d_grading2(frame), axis=-1)
        null = (np.abs(L) <= PIVOT_TOL * sq) | (sq <= RANK_TOL * np.sum(sq, axis=-1)[:, None])
        if null.any():
            i, k = map(int, np.argwhere(null)[0])
            where = f"frame {tuple(map(int, np.unravel_index(i, lead)))}: " if lead else ""
            raise DegenerateMetric(f"{where}null or dependent direction {k} of the Gram matrix "
                                   f"(eigenvalue {L[i, k]:.3e})")
        scale = 1.0 / np.sqrt(np.abs(L))
        frame = frame * scale[..., None, None]
        coeffs = scale[..., None] * (rows @ coeffs)
    eps = np.where(L > 0, 1, -1)
    if not lead:
        return GramSchmidtFrame(frame[0], tuple(eps[0].tolist()), coeffs[0])
    return GramSchmidtFrame(frame.reshape(vectors.shape), eps.reshape(lead + (m,)),
                            coeffs.reshape(lead + (m, m)))


def para_adapted_frame(vectors) -> GramSchmidtFrame:
    """Orthonormal frame of a J-invariant span with e_{2i} = J e_{2i-1}.

    The span must be J-invariant (checked by least squares) and of even
    dimension.  Each round picks the best non-null pivot e, appends (e, Je)
    and projects the rest out of that hyperbolic pair; the metric-orthogonal
    complement of a J-invariant pair is again J-invariant.
    """
    vectors = d_array(vectors)
    m = vectors.shape[0]
    if m % 2 != 0:
        raise OddDimension(f"span dimension {m} is odd")
    flat = vectors.reshape(m, -1).T  # (2n, m) real matrix of the span
    jv = apply_J(vectors).reshape(m, -1).T
    sol, *_ = np.linalg.lstsq(flat, jv, rcond=None)
    resid = np.linalg.norm(flat @ sol - jv, axis=0)
    leaves = resid > J_INVARIANCE_TOL * np.maximum(np.linalg.norm(jv, axis=0), 1e-300)
    if leaves.any():
        i = int(np.argmax(leaves))
        raise NotJInvariant(f"J(v_{i}) leaves the span (residual {resid[i]:.3e})")
    work = vectors.copy()
    frame, eps = [], []
    for _ in range(m // 2):
        for e, s in zip(frame, eps):
            work = work - (s * metric_rows(work, e))[:, None, None] * e
        norms = metric_rows(work, work)
        pivot = int(np.argmax(np.abs(norms)))
        g2 = float(np.sum(d_grading2(work[pivot])))
        if abs(norms[pivot]) <= PIVOT_TOL * max(g2, 1e-300):
            raise DegenerateMetric("no non-null pivot left in the J-invariant span")
        s = 1 if norms[pivot] > 0 else -1
        e1 = work[pivot] / np.sqrt(abs(norms[pivot]))
        frame.extend([e1, apply_J(e1)])
        eps.extend([s, -s])
        work = np.delete(work, pivot, axis=0)
    return GramSchmidtFrame(np.array(frame), tuple(eps), np.empty((0, 0)))


def second_fundamental_form(first: np.ndarray, second: np.ndarray):
    """(h, frame) of one node's jet (m, n, 2), (m, m, n, 2): h[i, j] is the
    normal part of the second derivative along the orthonormalized frame
    directions.  DegenerateMetric where induced_gram finds g degenerate."""
    g, det, degenerate = induced_gram(first)
    if degenerate:
        raise DegenerateMetric("induced metric degenerate")
    g_inv = inv_real(g, det, degenerate)
    gs = signed_gram_schmidt(first)
    m = first.shape[0]
    h = np.empty((m, m) + first.shape[1:])
    for i in range(m):
        for j in range(i, m):
            W = np.einsum("a,b,abnc->nc", gs.coeffs[i], gs.coeffs[j], second)
            h[i, j] = h[j, i] = normal_project(W, first, g_inv)
    return h, gs


def gram_identity_check(frames):
    """(det_R of the Gram matrix, squared_norm(det_D M)) as arrays over the
    leading axes of a Lagrangian frame (n, n, 2) or a stack (..., n, n, 2).

    The two numbers agree to relative 1e-10 for well-conditioned frames; the
    caller asserts that contract.
    """
    frames = frame_matrix(frames)
    require_lagrangian(frames)
    return np.linalg.det(gram(frames)), d_norm2(det_D(frames))


@dataclass(frozen=True)
class LagrangianAngle:
    """Causal class q and angle theta of a para-holomorphic volume.

    The overall sign p of the polar form is dropped on purpose: a real frame
    change with negative determinant flips p, so only (q, theta) is intrinsic.
    """
    q: np.ndarray
    theta: np.ndarray


def lagrangian_angle_of_frame(frames) -> LagrangianAngle:
    """(q, theta) as arrays over the leading axes of a Lagrangian frame
    (n, n, 2) or a stack (..., n, n, 2): 0-d arrays for one frame.
    DegenerateMetric when det_D of a frame is null."""
    frames = frame_matrix(frames)
    require_lagrangian(frames)
    dets = det_D(frames)
    _, q, _, theta, null = d_polar(dets)
    if np.any(null):
        raise DegenerateMetric(f"det_D is null: {dets[null][0]}")
    return LagrangianAngle(q, theta)


def random_lagrangian_frames(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count random frames (count, n, n, 2), each spanning a Lagrangian
    plane of D^n: rows e_i + tau S_i for a random symmetric S (omega
    vanishes pairwise by symmetry), mixed by a random real GL(n) matrix A
    with |det| >= 0.1, which preserves the Lagrangian span.

    Each frame reads the stream in n x n chunks: one for S, then candidates
    for A until one passes.  Generator.normal fills its output in stream
    order, so drawing exactly what the remaining frames still consume (two
    each, one less while an S waits for its A) gives the frames and the
    generator state of count one-frame draws.  In a chunk, A is every
    passing draw an even number of places into its run of passing draws
    (the draw after an A is the next S, whether it passes or not), and the
    draw after each A is an S.
    """
    if count == 0:
        return np.empty((0, n, n, 2))
    chunks, s_at, a_at = [], [], []
    k = 0  # the chunk's first index in the stream
    while len(a_at) < count:
        draw = rng.normal(size=(2 * count - len(a_at) - len(s_at), n, n))
        chunks.append(draw)
        passes = det_at_least(draw, 0.1)
        if len(s_at) == len(a_at):  # the chunk opens with an S
            s_at.append(k)
            passes[0] = False
        i = np.arange(len(draw))
        run_start = np.maximum.accumulate(np.where(passes & ~np.r_[False, passes[:-1]], i, 0))
        a = k + np.flatnonzero(passes & ((i - run_start) % 2 == 0))
        k += len(draw)
        a_at += a.tolist()
        s_at += (a + 1)[a + 1 < k].tolist()
    stream = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return lagrangian_frames(stream.take(a_at, axis=0), stream.take(s_at, axis=0))


def det_at_least(R: np.ndarray, bound: float) -> np.ndarray:
    """|det R| >= bound for real matrices (..., n, n), decided as
    np.linalg.det (LU) decides it: det_real decides, and LU re-decides the
    matrices whose |det_real| lies within DET_BAND n! M^n of bound, with M
    their largest |R_ij|.

    Outside that band both determinants lie on the same side of the bound.
    For n <= 4, with u = 2^-53 and pivots of modest scale (|log| < 64), each
    is within 2^-42 n! M^n of the exact determinant:
    - Leibniz: n! products of n entries, summed, err by at most
      gamma_(n!+n-2) n! M^n < 2^-48 n! M^n;
    - LU with partial pivoting is the exact determinant of R + dR, |dR_ij|
      <= gamma_n n 2^(n-1) M (growth at most 2^(n-1)), which moves it by at
      most ((1 + gamma_n n 2^(n-1))^n - 1) n! M^n < 2^-43.9 n! M^n; numpy's
      sign exp(sum log|u_ii|) adds a relative (2n 64 + 1) u < 2^-43.9, and
      |det| <= n^(n/2) M^n <= n! M^n (Hadamard).
    Beyond n = 4 det_real is LU itself."""
    det = np.abs(det_real(R))
    out = det >= bound
    scale = math.factorial(R.shape[-1]) * np.abs(R).max(axis=(-2, -1)) ** R.shape[-1]
    near = np.abs(det - bound) <= DET_BAND * scale
    if near.any():
        out[near] = np.abs(np.linalg.det(R[near])) >= bound
    return out


def lagrangian_frames(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The frames A (I + tau sym S) (count, n, n, 2) of stacks (count, n, n)
    of real matrices: rows e_i + tau S_i of the symmetric part of S mixed
    by A, Lagrangian when A is invertible."""
    out = np.empty(A.shape + (2,))
    out[..., 0] = A  # A (I + tau S) = A + tau A S
    out[..., 1] = np.einsum("fij,fjk->fik", A, 0.5 * (S + S.transpose(0, 2, 1)))
    return out
