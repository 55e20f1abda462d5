import numpy as np
import pytest
import scipy.linalg

from wgom import DegenerateRankError, DimensionError, scgoma
from wgom.linalg import PINV_FALLBACK_RTOL, _decompose, _randomized_svd, solve_small_inverse

from helpers import block_pi, leading, randomized_svd_reference


def top_k(a, k, seed=0):
    return leading(*_decompose(a, k, seed=seed), k)


def reconstruct(svd):
    return (svd.left * svd.singulars) @ svd.right.T


def dense(a, k):
    return leading(*np.linalg.svd(a, full_matrices=False), k)


def randomized(a, k, seed):
    return leading(*_randomized_svd(a, k, seed=seed), k)


def test_diagonal_matrix_singular_values():
    a = np.diag([3.0, 2.0, 1.0, 0.0])
    svd = top_k(a, 2)
    assert np.allclose(svd.singulars, [3.0, 2.0], atol=1e-12)


def test_exact_rank_k_reconstruction():
    rng = np.random.default_rng(0)
    pi = block_pi(40, 3, 10)
    theta = rng.random((25, 3))
    r0 = pi @ theta.T
    svd = top_k(r0, 3)
    err = np.linalg.norm(r0 - reconstruct(svd), 2)
    assert err <= 1e-8 * svd.singulars[0]


def test_matches_independent_full_svd_driver():
    # scipy's gesvd driver is a different LAPACK routine than numpy's gesdd.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 30))
    oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
    svd = top_k(a, 5)
    assert np.abs(svd.singulars - oracle[:5]).max() <= 1e-9


def test_eckart_young_bound_against_full_oracle():
    rng = np.random.default_rng(2)
    for trial in range(5):
        n, m = rng.integers(10, 100, size=2)
        a = rng.standard_normal((n, m))
        full = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
        for k in (1, 3, min(n, m) // 2):
            svd = top_k(a, k)
            err = np.linalg.norm(a - reconstruct(svd), 2)
            tail = full[k] if k < len(full) else 0.0
            assert err <= tail + 1e-8 * full[0]


def test_orthonormal_columns():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((60, 40))
    svd = top_k(a, 7)
    assert np.abs(svd.left.T @ svd.left - np.eye(7)).max() <= 1e-8
    assert np.abs(svd.right.T @ svd.right - np.eye(7)).max() <= 1e-8
    assert (np.diff(svd.singulars) <= 1e-12).all()
    assert (svd.singulars > 0).all()


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 20))
    first = top_k(a, 4)
    second = top_k(a.copy(), 4)
    assert np.array_equal(first.left, second.left)


def test_randomized_path_matches_dense():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 150)) @ np.diag(0.7 ** np.arange(150))
    exact = np.linalg.svd(a, compute_uv=False)[:8]
    sketched = randomized(a, 8, seed=42)
    rel = np.abs(sketched.singulars - exact) / exact
    assert rel.max() <= 1e-6
    # Same seed, same factors.
    again = randomized(a, 8, seed=42)
    assert np.array_equal(sketched.left, again.left)


@pytest.mark.parametrize("k, n, dense_side", [(3, 60, 50), (20, 80, 60)])
def test_auto_switches_path_where_the_sketch_covers_half_the_min_side(k, n, dense_side):
    # The sketch has max(k + 10, 25) columns: 25 at k = 3, 30 at k = 20.
    rng = np.random.default_rng(k)
    for side, dense_path in ((dense_side, True), (dense_side + 1, False)):
        a = rng.standard_normal((n, side))
        auto = top_k(a, k, seed=7)
        pinned = dense(a, k) if dense_path else randomized(a, k, seed=7)
        for got, want in zip(
            (auto.left, auto.singulars, auto.right),
            (pinned.left, pinned.singulars, pinned.right),
        ):
            assert np.array_equal(got, want)


def test_one_sketch_serves_every_k_up_to_15():
    a = np.random.default_rng(8).standard_normal((90, 70))
    top = randomized(a, 15, seed=3)
    for k in (1, 5, 14):
        svd = randomized(a, k, seed=3)
        assert np.array_equal(svd.left, top.left[:, :k])
        assert np.array_equal(svd.singulars, top.singulars[:k])
    # Above 15 the sketch widens with k, so the factors differ.
    wider = randomized(a, 16, seed=3)
    assert not np.array_equal(wider.left[:, :15], top.left)


@pytest.mark.parametrize("shape", [(200, 100), (300, 150), (1000, 500), (120, 400)])
def test_randomized_svd_matches_the_plain_orientation(shape):
    # The range finder forms each tall product as (thin' A')' or (thin' A)';
    # that changes rounding only, so a factor transposed back wrongly fails
    # here as a value, not only as a shape.
    a = np.random.default_rng(shape[0]).standard_normal(shape)
    for k in (1, 3, 15):
        u, s, vt = _randomized_svd(a, k, seed=4)
        ref_u, ref_s, ref_vt = randomized_svd_reference(a, k, seed=4)
        assert np.abs(s[:k] - ref_s[:k]).max() <= 1e-13 * ref_s[0]
        assert np.abs(np.abs(u[:, :k]) - np.abs(ref_u[:, :k])).max() <= 1e-10
        assert np.abs(np.abs(vt[:k]) - np.abs(ref_vt[:k])).max() <= 1e-10


def test_randomized_internal_shapes():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((40, 25))
    u, s, vt = _randomized_svd(a, 5, seed=0)
    assert u.shape[0] == 40 and vt.shape[1] == 25
    assert (np.diff(s) <= 1e-12).all()


def test_dimension_and_degeneracy_errors():
    # The class count is checked where the estimators enter the kernels.
    for k in (4, 0, 2.0, True, "2"):
        with pytest.raises(DimensionError):
            scgoma(np.eye(3), k)
    with pytest.raises(DegenerateRankError):
        top_k(np.zeros((4, 4)), 1)
    rank1 = np.outer(np.arange(1.0, 5.0), np.ones(3))
    with pytest.raises(DegenerateRankError):
        top_k(rank1, 2)


def test_small_inverse_identity_and_diagonal():
    inv, fallback = solve_small_inverse(np.eye(3))
    assert not fallback
    assert np.allclose(inv, np.eye(3), atol=1e-12)
    inv, fallback = solve_small_inverse(np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert not fallback
    assert np.allclose(inv, [[0.5, 0.0], [0.0, 0.25]], atol=1e-12)


def test_small_inverse_pseudo_fallback():
    inv, fallback = solve_small_inverse(np.ones((2, 2)))
    assert fallback
    assert np.allclose(inv, np.full((2, 2), 0.25), atol=1e-12)
    # Diagonal matrices on either side of the threshold: their singular
    # values are exact, so rounding cannot move them across it.
    inv, fallback = solve_small_inverse(np.diag([1.0, 2 * PINV_FALLBACK_RTOL]))
    assert not fallback
    assert np.allclose(inv, np.diag([1.0, 0.5 / PINV_FALLBACK_RTOL]), rtol=1e-12, atol=0.0)
    # Past the threshold the flag reports the pseudo-inverse, which at this
    # conditioning still equals the inverse.
    inv, fallback = solve_small_inverse(np.diag([1.0, 0.5 * PINV_FALLBACK_RTOL]))
    assert fallback
    assert np.allclose(inv, np.diag([1.0, 2 / PINV_FALLBACK_RTOL]), rtol=1e-12, atol=0.0)


def test_small_inverse_residual_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        inv, fallback = solve_small_inverse(a)
        if fallback:
            continue
        s = np.linalg.svd(a, compute_uv=False)
        kappa = s[0] / s[-1]
        assert np.abs(a @ inv - np.eye(6)).max() <= 1e-8 * kappa
