import itertools
import math
import warnings

import numpy as np
import pytest

from parakahler import dlinalg
from parakahler.dcore import d_conj, d_exp_tau, d_grading2, d_mul
from conftest import random_frame_stacks, same_bits
from parakahler.dlinalg import (
    LAGRANGIAN_TOL,
    apply_J,
    det_D,
    det_real,
    gram,
    inv_real,
    require_lagrangian,
)
from parakahler.errors import (
    DegenerateMetric,
    DimensionMismatch,
    LagrangianViolation,
)
from parakahler.frames import (
    DET_BAND,
    basis_vector,
    d_matmul,
    det_at_least,
    gram_identity_check,
    lagrangian_angle_of_frame,
    metric,
    omega,
    random_lagrangian_frames,
)


def test_metric_signature():
    e1 = basis_vector(3, 0)
    te1 = basis_vector(3, 0, tau=True)
    assert metric(e1, e1) == 1.0
    assert metric(te1, te1) == -1.0


def test_metric_null_combination():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert metric(X, X) == 0.0


def test_metric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        metric(basis_vector(2, 0), basis_vector(3, 0))


def test_apply_J_involution(rng):
    X = rng.normal(size=(4, 2))
    assert np.allclose(apply_J(apply_J(X)), X)
    assert np.allclose(apply_J(basis_vector(2, 0)), basis_vector(2, 0, tau=True))


def test_J_is_antiisometry(rng):
    for _ in range(50):
        X, Y = rng.normal(size=(2, 3, 2))
        assert metric(apply_J(X), apply_J(Y)) == pytest.approx(-metric(X, Y))


def test_omega_examples(rng):
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    assert omega(e1, apply_J(e1)) == 1.0
    assert omega(e1, e2) == 0.0
    X = rng.normal(size=(2, 2))
    assert omega(X, X) == pytest.approx(0.0)
    Y = rng.normal(size=(2, 2))
    assert omega(X, Y) == pytest.approx(-omega(Y, X))


def _hermitian(X, Y):
    """<<X, Y>> = sum_j X_j conj(Y_j), one D-value."""
    return np.sum(d_mul(X, d_conj(Y)), axis=0)


def _conj_transpose(M):
    return d_conj(np.swapaxes(M, -3, -2))


def test_hermitian_form_values(rng):
    e1 = basis_vector(2, 0)
    assert np.array_equal(_hermitian(e1, e1), [1.0, 0.0])
    assert np.array_equal(_hermitian(e1, apply_J(e1)), [0.0, -1.0])
    X, Y = rng.normal(size=(2, 3, 2))
    a, b = _hermitian(X, Y), d_conj(_hermitian(Y, X))
    assert a[0] == pytest.approx(b[0])
    assert a[1] == pytest.approx(b[1])


def test_hermitian_form_is_entrywise_product(rng):
    # <<X, Y>> = <X, Y> - tau omega(X, Y)
    X, Y = rng.normal(size=(2, 3, 2))
    h = _hermitian(X, Y)
    assert h[0] == pytest.approx(metric(X, Y))
    assert h[1] == pytest.approx(-omega(X, Y))


def test_conj_transpose_involution(rng):
    M = rng.normal(size=(3, 3, 2))
    assert np.allclose(_conj_transpose(_conj_transpose(M)), M)


def test_det_identity():
    I = np.zeros((3, 3, 2))
    I[..., 0] = np.eye(3)
    assert np.array_equal(det_D(I), [1.0, 0.0])


def test_det_tau_proportional_rows():
    M = np.zeros((2, 2, 2))
    M[0, 0] = [1, 0]
    M[0, 1] = [0, 1]
    M[1, 0] = [0, 1]
    M[1, 1] = [1, 0]
    assert d_grading2(det_D(M)) == 0.0


def test_det_diagonal_formula():
    a, b = 0.7, -0.4
    M = np.zeros((2, 2, 2))
    M[0, 0] = [1, a]
    M[1, 1] = [1, b]
    d = det_D(M)
    assert d.shape == (2,)
    assert d[0] == pytest.approx(1 + a * b)
    assert d[1] == pytest.approx(a + b)


def test_det_multiplicative(rng):
    for _ in range(50):
        A, B = rng.normal(size=(2, 3, 3, 2))
        lhs = det_D(d_matmul(A, B))
        rhs = d_mul(det_D(A), det_D(B))
        assert np.sqrt(d_grading2(lhs - rhs)) < 1e-10 * max(np.sqrt(d_grading2(rhs)), 1)


def _det_leibniz_over_D(M):
    # reference: the Leibniz sum with every product taken in the ring D
    from itertools import permutations

    n = M.shape[0]
    acc = np.zeros(2)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = M[0, perm[0]]
        for i in range(1, n):
            term = d_mul(term, M[i, perm[i]])
        acc = acc + sign * term
    return acc


def test_det_large_n_matches_leibniz(rng):
    # n > 4 goes through LU of the two null-coordinate components
    for n in (5, 6):
        M = rng.normal(size=(n, n, 2))
        assert np.allclose(det_D(M), _det_leibniz_over_D(M), atol=1e-9)


def test_det_handles_null_pivots():
    # top-left entry on the light cone defeats division over D
    M = np.zeros((5, 5, 2))
    M[..., 0] = np.eye(5)
    M[0, 0] = [1, 1]
    M[0, 1] = [2, 0]
    M[1, 0] = [3, 0]
    assert np.allclose(det_D(M), _det_leibniz_over_D(M), atol=1e-12)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 3), (2, 5), (4, 9)])
def test_gram_matches_metric_bitwise(m, n, rng):
    frames = rng.normal(size=(6, m, n, 2)) * np.exp(rng.normal(scale=3.0, size=(6, m, n, 1)))
    loop = np.array([[[metric(fr[i], fr[j]) for j in range(m)] for i in range(m)]
                     for fr in frames])
    assert np.array_equal(gram(frames), loop)
    assert np.array_equal(gram(frames[0]), loop[0])


def test_gram_identity_standard_basis():
    frame = np.zeros((3, 3, 2))
    frame[..., 0] = np.eye(3)
    dg, sq = gram_identity_check(frame)
    assert dg == pytest.approx(1.0)
    assert sq == pytest.approx(1.0)


def test_gram_identity_unit_scaling():
    frame = d_exp_tau(0.7)[None, None]
    dg, sq = gram_identity_check(frame)
    assert dg == pytest.approx(1.0)
    assert sq == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_gram_identity_random_frames(n, rng):
    for fr in random_lagrangian_frames(n, 100, rng):
        dg, sq = gram_identity_check(fr)
        assert dg == pytest.approx(sq, rel=1e-10, abs=1e-12)


def _random_lagrangian_frame_per_call(n, rng):
    """Reference: one frame per call, S then candidates for A until
    |det A| >= 0.1, each drawn with its own rng.normal call."""
    S = rng.normal(size=(n, n))
    S = 0.5 * (S + S.T)
    frame = np.zeros((n, n, 2))
    frame[..., 0] = np.eye(n)
    frame[..., 1] = S
    A = rng.normal(size=(n, n))
    while abs(np.linalg.det(A)) < 0.1:
        A = rng.normal(size=(n, n))
    return np.einsum("ij,jkc->ikc", A, frame)


def _assert_stream_exact(n, count, seed):
    """random_lagrangian_frames gives the reference's frames bit for bit and
    leaves the generator where count reference calls leave it."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    frames = random_lagrangian_frames(n, count, rng)
    ref = np.stack([_random_lagrangian_frame_per_call(n, ref_rng) for _ in range(count)])
    assert frames.shape == (count, n, n, 2)
    assert np.array_equal(frames.view(np.uint64), ref.view(np.uint64))
    assert rng.normal() == ref_rng.normal()


@pytest.mark.parametrize("count", [1, 7, 1000])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_frames_match_per_call_draws(n, count):
    for seed in (1, 2, 3, 4, 5, 11):
        _assert_stream_exact(n, count, seed)


def test_random_frames_do_not_overdraw_for_a_waiting_s():
    # Seed scan: at n = 4, seed 3, the first 14 chunks give six frames and
    # the S of the last one, whose first candidate for A is rejected; the
    # next chunk passes.  So the S waits and exactly one chunk must follow:
    # a draw of two per remaining frame leaves the generator one chunk ahead.
    n, count, seed = 4, 7, 3
    rng = np.random.default_rng(seed)
    for _ in range(count - 1):
        _random_lagrangian_frame_per_call(n, rng)
    rng.normal(size=(n, n))
    assert abs(np.linalg.det(rng.normal(size=(n, n)))) < 0.1
    assert abs(np.linalg.det(rng.normal(size=(n, n)))) >= 0.1
    _assert_stream_exact(n, count, seed)


@pytest.mark.parametrize("n", [2, 4])
def test_random_frames_count_zero_draws_nothing(n):
    rng = np.random.default_rng(3)
    assert random_lagrangian_frames(n, 0, rng).shape == (0, n, n, 2)
    assert rng.normal() == np.random.default_rng(3).normal()


def test_random_frames_equal_one_lu_frame_at_a_time_on_the_suite_stream():
    # gram-lemma's six stacks from one generator: Leibniz decides the
    # determinants now, and frames and generator state stay those of
    # one-frame draws decided by LU
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for n, count in [(n, 1000) for n in (2, 3, 4)] + [(n, 200) for n in (2, 3, 4)]:
        frames = random_lagrangian_frames(n, count, rng)
        ref = np.stack([_random_lagrangian_frame_per_call(n, ref_rng) for _ in range(count)])
        assert same_bits(frames, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_at_least_decides_inside_its_band_as_lu_does(n):
    # matrices scaled onto |det| = bound, so that their Leibniz and LU
    # determinants straddle it in a share of cases: each lies within the
    # band, and the decision is LU's, also where Leibniz's would differ
    rng, bound = np.random.default_rng(n), 0.1
    R = rng.normal(size=(4000, n, n)) * np.exp(rng.uniform(-3, 3, (4000, 1, 1)))
    R *= (bound / np.abs(np.linalg.det(R)))[:, None, None] ** (1.0 / n)
    det = np.abs(dlinalg.det_real(R))
    scale = math.factorial(n) * np.abs(R).max(axis=(-2, -1)) ** n
    assert np.all(np.abs(det - bound) <= DET_BAND * scale)
    lu = np.abs(np.linalg.det(R)) >= bound
    assert same_bits(det_at_least(R, bound), lu)
    if n in (2, 3, 4):
        assert np.any((det >= bound) != lu)
    # far from the bound Leibniz decides alone, and as LU does
    far = rng.normal(size=(4000, n, n))
    far = far[np.abs(np.abs(np.linalg.det(far)) - bound) > 1e-6]
    assert same_bits(det_at_least(far, bound), np.abs(np.linalg.det(far)) >= bound)


def test_gram_identity_rejects_non_lagrangian():
    frame = np.zeros((2, 2, 2))
    frame[0] = [[1, 0], [0, 0]]
    frame[1] = [[0, 1], [0, 0]]  # tau e1: omega(e1, tau e1) = 1
    with pytest.raises(LagrangianViolation):
        gram_identity_check(frame)


def test_angle_standard_basis():
    frame = np.zeros((2, 2, 2))
    frame[..., 0] = np.eye(2)
    ang = lagrangian_angle_of_frame(frame)
    assert ang.q.shape == ang.theta.shape == ()
    assert (ang.q, ang.theta) == (0, 0.0)


def test_angle_of_unit_curve_frame():
    ang = lagrangian_angle_of_frame(d_exp_tau(0.4)[None, None])
    assert ang.q == 0
    assert ang.theta == pytest.approx(0.4)


def test_angle_invariant_under_real_frame_changes(rng):
    fr = random_lagrangian_frames(3, 1, rng)[0]
    ang = lagrangian_angle_of_frame(fr)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        if abs(np.linalg.det(A)) < 0.2:
            continue
        ang2 = lagrangian_angle_of_frame(np.einsum("ij,jkc->ikc", A, fr))
        assert ang2.q == ang.q
        assert ang2.theta == pytest.approx(ang.theta, abs=1e-9)


def test_angle_degenerate_frame():
    frame = np.zeros((2, 2, 2))
    frame[0] = [[1, 0], [0, 1]]   # e1 + tau e2
    frame[1] = [[0, -1], [1, 0]]  # e2 - tau e1: Lagrangian but null det
    with pytest.raises((DegenerateMetric, LagrangianViolation)):
        lagrangian_angle_of_frame(frame)


# The broadcast and einsum one-liners that the metric kernel, gram and
# require_lagrangian replaced, kept as references.

def _metric_reference(X, Y):
    return float(np.sum(X[..., 0] * Y[..., 0] - X[..., 1] * Y[..., 1]))


def _gram_reference(frames):
    x, y = frames[..., 0], frames[..., 1]
    return np.sum(x[..., :, None, :] * x[..., None, :, :]
                  - y[..., :, None, :] * y[..., None, :, :], axis=-1)


def _lagrangian_reference(frames):
    """Per frame, whether the einsum require_lagrangian let it pass."""
    w = np.einsum("...in,...jn->...ij", frames[..., 0], frames[..., 1])
    worst = np.max(np.abs(w - np.swapaxes(w, -2, -1)), axis=(-2, -1))
    bound = LAGRANGIAN_TOL * np.maximum(np.max(d_grading2(frames), axis=(-2, -1)), 1e-300)
    return ~(worst > bound)


def _passes(frames) -> bool:
    try:
        require_lagrangian(frames)
    except LagrangianViolation:
        return False
    return True


def test_metric_kernel_matches_the_sums_it_replaced(rng):
    for frames in itertools.chain.from_iterable(random_frame_stacks(rng)):
        m = frames.shape[-3]
        assert same_bits(gram(frames), _gram_reference(frames))
        for stack in frames.reshape((-1,) + frames.shape[-3:])[:3]:
            for i, j in itertools.product(range(m), repeat=2):
                assert same_bits(metric(stack[i], stack[j]), _metric_reference(stack[i], stack[j]))


def test_require_lagrangian_matches_the_einsum_on_random_frame_stacks(rng):
    for frame, stack, empty in random_frame_stacks(rng):
        assert _passes(frame) == _lagrangian_reference(frame)
        assert [_passes(f) for f in stack] == _lagrangian_reference(stack).tolist()
        assert _passes(stack) == _lagrangian_reference(stack).all()
        assert _passes(empty)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_require_lagrangian_decides_the_straddling_frames_as_the_einsum(n, rng):
    # Lagrangian frames bent so that omega(X_i, X_j) is LAGRANGIAN_TOL times
    # the largest squared entry, to within 1e-7 relative; X_i has the
    # largest first x entry, so no other pair bends more.  The rounding of
    # omega (up to about 1e-8 of the bound) decides on which side a frame
    # falls.
    frames = random_lagrangian_frames(n, 400, rng)
    frames *= np.exp(rng.uniform(-20, 20, size=(400, 1, 1, 1)))
    k = np.arange(400)
    i = np.argmax(np.abs(frames[:, :, 0, 0]), axis=1)
    j = (i + 1) % n
    ratio = (1.0 + 1e-7 * rng.uniform(-1, 1, size=400)) * LAGRANGIAN_TOL / frames[k, i, 0, 0]
    bent = frames
    for _ in range(3):  # the bend moves the largest entry a little
        bent = frames.copy()
        bent[k, j, 0, 1] += ratio * np.max(d_grading2(bent), axis=(-2, -1))
    verdicts = _lagrangian_reference(bent)
    assert 20 < verdicts.sum() < 380
    assert [_passes(frame) for frame in bent] == verdicts.tolist()
    assert not _passes(bent)
    assert _passes(bent[verdicts])


def test_require_lagrangian_rejects_a_non_finite_omega():
    frame = np.zeros((2, 2, 2))
    frame[..., 0] = np.eye(2)
    for bad in (np.nan, np.inf):
        frame[1, 0, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(LagrangianViolation):
            require_lagrangian(frame)


def test_require_lagrangian_scales_each_frame_on_its_own():
    big = np.zeros((2, 2, 2))
    big[..., 0] = 1e3 * np.eye(2)
    big[..., 1] = 1e3 * np.array([[0.5, 0.25], [0.25, -0.75]])  # exact: omega = 0
    small = np.zeros((2, 2, 2))
    small[..., 0] = np.eye(2)
    small[..., 1] = [[0.5, 0.25 + 1e-6], [0.25, -0.75]]  # omega(X_1, X_2) ~ 1e-6
    require_lagrangian(big)
    with pytest.raises(LagrangianViolation):
        require_lagrangian(small)
    # a bound from the stack's largest entry (~1e-2 here) would pass the pair
    with pytest.raises(LagrangianViolation, match="max \\|omega\\| = 1.0"):
        require_lagrangian(np.stack([big, small]))
    require_lagrangian(np.stack([big, 1e-3 * big]))


def _leibniz_condition(frames):
    """sum over the null coordinates R = x +- y of perm(|R|) / |det R|: the
    rounding of a Leibniz determinant is at most n! eps perm(|R|), whatever
    order its n! terms are summed in."""
    n = frames.shape[-2]
    out = 0.0
    for R in (frames[..., 0] + frames[..., 1], frames[..., 0] - frames[..., 1]):
        perm = sum(np.prod(np.abs(R[..., range(n), list(p)]), axis=-1)
                   for p in itertools.permutations(range(n)))
        out = out + perm / np.abs(np.linalg.det(R))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_frame_queries_match_single_frames(n, rng):
    frames = random_lagrangian_frames(n, 200, rng)
    det_gram, sq = gram_identity_check(frames)
    ang = lagrangian_angle_of_frame(frames)
    assert det_gram.shape == sq.shape == ang.q.shape == ang.theta.shape == (200,)
    # A stack sums the Leibniz terms of det_D in another order than one frame
    # does, so theta and squared_norm(det_D) may differ by that rounding
    # (measured: at most 2.6e-15 * kappa over ten seeds); the Gram
    # determinant goes through the same LAPACK call either way.
    kappa = _leibniz_condition(frames)
    for k, frame in enumerate(frames):
        one_gram, one_sq = gram_identity_check(frame)
        one = lagrangian_angle_of_frame(frame)
        assert one_gram.shape == one_sq.shape == one.q.shape == one.theta.shape == ()
        assert one.q == ang.q[k]
        assert abs(one.theta - ang.theta[k]) <= 1e-14 * kappa[k]
        assert abs(one_sq - sq[k]) <= 1e-14 * kappa[k] * abs(one_sq)
        assert abs(one_gram - det_gram[k]) <= 1e-13 * abs(one_gram)


def test_stacked_angle_rejects_a_null_frame():
    frames = np.zeros((3, 2, 2, 2))
    frames[:, :, :, 0] = np.eye(2)
    frames[1, :, :, 1] = np.eye(2)   # e_i + tau e_i: Lagrangian, det (1 + tau)^2 null
    with pytest.raises(DegenerateMetric):
        lagrangian_angle_of_frame(frames)


def test_inv_real_is_as_accurate_as_lapack(rng):
    # m <= 2: the adjugate over det_real.  Cramer's rule is forward stable
    # for n = 2, so |g^-1 g - I| stays within cond(g) eps (measured: at most
    # 1.00 with the adjugate, 1.64 with np.linalg.inv, over 1,000 seeds).
    # m > 2: np.linalg.inv with the identity standing in, bit for bit.  A
    # zero det (the stack's first frame has a zero row for m >= 2) is nan.
    from parakahler.geometry import induced_gram

    eps = np.finfo(float).eps
    for frames in itertools.chain.from_iterable(random_frame_stacks(rng)):
        m = frames.shape[-3]
        g, det, degenerate = induced_gram(frames)
        singular = degenerate if m > 2 else np.zeros(det.shape, bool)
        got = inv_real(g, det, singular)
        if m > 2:
            want = np.linalg.inv(np.where(degenerate[..., None, None], np.eye(m), g))
            want[degenerate] = np.nan
            assert same_bits(got, want)
            continue
        finite = det != 0.0
        assert np.array_equal(np.isnan(got).any(axis=(-2, -1)), ~finite)
        bound = 2 * np.linalg.cond(g[finite]) * eps
        for inv in (got[finite], np.linalg.inv(g[finite])):
            assert np.all(np.abs(inv @ g[finite] - np.eye(m)).max(axis=(-2, -1)) <= bound)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_inv_real_gives_nan_rows_without_a_warning(m, rng):
    g = rng.normal(size=(6, m, m))
    g[5] = np.inf
    det = np.array([1.5, 0.0, np.nan, np.inf, -np.inf, np.inf])
    singular = np.array([True, False, False, False, False, False])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = inv_real(g, det, singular)
        one = inv_real(g[0], det[0], singular[0])
    assert np.isnan(got).all() and np.isnan(one).all()
