import numpy as np
import pytest
import scipy.linalg

from wgom import DegenerateRankError, DimensionError, solve_small_inverse, top_k_svd
from wgom.linalg import _randomized_svd

from helpers import block_pi


def test_diagonal_matrix_singular_values():
    a = np.diag([3.0, 2.0, 1.0, 0.0])
    svd = top_k_svd(a, 2)
    assert np.allclose(svd.singulars, [3.0, 2.0], atol=1e-12)


def test_exact_rank_k_reconstruction():
    rng = np.random.default_rng(0)
    pi = block_pi(40, 3, 10)
    theta = rng.random((25, 3))
    r0 = pi @ theta.T
    svd = top_k_svd(r0, 3)
    err = np.linalg.norm(r0 - svd.reconstruct(), 2)
    assert err <= 1e-8 * svd.singulars[0]


def test_matches_independent_full_svd_driver():
    # scipy's gesvd driver is a different LAPACK routine than numpy's gesdd.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 30))
    oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
    svd = top_k_svd(a, 5)
    assert np.abs(svd.singulars - oracle[:5]).max() <= 1e-9


def test_eckart_young_bound_against_full_oracle():
    rng = np.random.default_rng(2)
    for trial in range(5):
        n, m = rng.integers(10, 100, size=2)
        a = rng.standard_normal((n, m))
        full = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
        for k in (1, 3, min(n, m) // 2):
            svd = top_k_svd(a, k)
            err = np.linalg.norm(a - svd.reconstruct(), 2)
            tail = full[k] if k < len(full) else 0.0
            assert err <= tail + 1e-8 * full[0]


def test_orthonormal_columns():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((60, 40))
    svd = top_k_svd(a, 7)
    assert np.abs(svd.left.T @ svd.left - np.eye(7)).max() <= 1e-8
    assert np.abs(svd.right.T @ svd.right - np.eye(7)).max() <= 1e-8
    assert (np.diff(svd.singulars) <= 1e-12).all()
    assert (svd.singulars > 0).all()


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 20))
    first = top_k_svd(a, 4)
    second = top_k_svd(a.copy(), 4)
    assert np.array_equal(first.left, second.left)
    for j in range(4):
        pivot = np.argmax(np.abs(first.left[:, j]))
        assert first.left[pivot, j] >= 0


def test_randomized_path_matches_dense():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 150)) @ np.diag(0.7 ** np.arange(150))
    dense = top_k_svd(a, 8, method="dense")
    randomized = top_k_svd(a, 8, method="randomized", seed=42)
    rel = np.abs(randomized.singulars - dense.singulars) / dense.singulars
    assert rel.max() <= 1e-6
    # Same seed, same factors.
    again = top_k_svd(a, 8, method="randomized", seed=42)
    assert np.array_equal(randomized.left, again.left)


@pytest.mark.parametrize("k, n, dense_side", [(3, 60, 50), (20, 80, 60)])
def test_auto_switches_path_where_the_sketch_covers_half_the_min_side(k, n, dense_side):
    # The sketch has max(k + 10, 25) columns: 25 at k = 3, 30 at k = 20.
    rng = np.random.default_rng(k)
    for side, method in ((dense_side, "dense"), (dense_side + 1, "randomized")):
        a = rng.standard_normal((n, side))
        auto = top_k_svd(a, k, seed=7)
        pinned = top_k_svd(a, k, seed=7, method=method)
        for got, want in zip(
            (auto.left, auto.singulars, auto.right),
            (pinned.left, pinned.singulars, pinned.right),
        ):
            assert np.array_equal(got, want)


def test_one_sketch_serves_every_k_up_to_15():
    a = np.random.default_rng(8).standard_normal((90, 70))
    top = top_k_svd(a, 15, method="randomized", seed=3)
    for k in (1, 5, 14):
        svd = top_k_svd(a, k, method="randomized", seed=3)
        assert np.array_equal(svd.left, top.left[:, :k])
        assert np.array_equal(svd.singulars, top.singulars[:k])
    # Above 15 the sketch widens with k, so the factors differ.
    wider = top_k_svd(a, 16, method="randomized", seed=3)
    assert not np.array_equal(wider.left[:, :15], top.left)


def test_randomized_internal_shapes():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((40, 25))
    u, s, vt = _randomized_svd(a, 5, seed=0)
    assert u.shape[0] == 40 and vt.shape[1] == 25
    assert (np.diff(s) <= 1e-12).all()


def test_dimension_and_degeneracy_errors():
    with pytest.raises(DimensionError):
        top_k_svd(np.eye(3), 4)
    with pytest.raises(DegenerateRankError):
        top_k_svd(np.zeros((4, 4)), 1)
    rank1 = np.outer(np.arange(1.0, 5.0), np.ones(3))
    with pytest.raises(DegenerateRankError):
        top_k_svd(rank1, 2)


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


def test_small_inverse_shape_limits():
    with pytest.raises(DimensionError):
        solve_small_inverse(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        solve_small_inverse(np.eye(65))
