import itertools

import numpy as np
import pytest

from wgom import DimensionError, RankDeficiencyError, successive_projection

from helpers import block_pi


def test_orthonormal_corners_selected_in_index_order():
    result = successive_projection(np.eye(3), 3)
    assert result.tolist() == [0, 1, 2]


def test_separable_rows_recover_pure_rows():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    assert abs(np.linalg.det(x)) > 1e-6
    pi = np.vstack([np.eye(3), [[1 / 3, 1 / 3, 1 / 3]], [[0.6, 0.3, 0.1]], [[0.1, 0.1, 0.8]]])
    rows = pi @ x
    selected = successive_projection(rows, 3)
    assert sorted(selected.tolist()) == [0, 1, 2]
    # Least-squares oracle: every row must be a convex combination of the
    # selected rows with negligible residual.
    corners = rows[selected]
    for row in rows:
        weights = np.linalg.solve(corners.T, row)
        assert np.linalg.norm(weights @ corners - row) < 1e-8
        assert weights.min() > -1e-9
        assert abs(weights.sum() - 1.0) < 1e-9


def test_duplicated_vertex_never_selected_twice():
    rows = np.array(
        [
            [2.0, 0.0],
            [2.0, 0.0],  # duplicate of row 0
            [0.0, 1.5],
            [1.0, 0.75],
            [0.5, 1.125],
        ]
    )
    selected = successive_projection(rows, 2)
    assert selected.tolist() == [0, 2]
    # Brute-force oracle: the selected pair spans a maximal-volume simplex.
    best = max(
        abs(np.linalg.det(rows[[i, j]]))
        for i, j in itertools.combinations(range(len(rows)), 2)
    )
    assert abs(np.linalg.det(rows[selected])) >= best - 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(1)
    pi = np.vstack([np.eye(4), rng.dirichlet(np.ones(4), size=20)])
    rows = pi @ rng.standard_normal((4, 4))
    base = successive_projection(rows, 4)
    perm = rng.permutation(len(rows))
    permuted = successive_projection(rows[perm], 4)
    assert perm[permuted].tolist() == base.tolist()


def test_scaling_invariance_of_selection():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((30, 5))
    base = successive_projection(rows, 4)
    scaled = successive_projection(7.3 * rows, 4)
    assert scaled.tolist() == base.tolist()


def test_rank_deficiency_error():
    rows = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
    with pytest.raises(RankDeficiencyError):
        successive_projection(rows, 2)


def test_all_zero_rows_error():
    with pytest.raises(RankDeficiencyError):
        successive_projection(np.zeros((4, 3)), 1)


def test_dimension_error():
    with pytest.raises(DimensionError):
        successive_projection(np.eye(3), 4)


def test_exact_recovery_on_simulated_simplex():
    rng = np.random.default_rng(3)
    pi = block_pi(50, 3, 5)
    x = rng.standard_normal((3, 7))
    rows = pi @ x
    selected = successive_projection(rows, 3)
    classes = {int(np.argmax(pi[i])) for i in selected}
    assert all(pi[i].max() == 1.0 for i in selected)
    assert classes == {0, 1, 2}
