import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgom import Bernoulli, DimensionError, RankDeficiencyError, rmsp, sample_response, select_k, simulation_spec
from wgom import vertex_hunting
from wgom.vertex_hunting import _projection_searches

from helpers import block_pi, random_row_stochastic, spa, spa_oracle, spa_search


def test_orthonormal_corners_selected_in_index_order():
    result = spa(np.eye(3), 3)
    assert result.tolist() == [0, 1, 2]


def test_separable_rows_recover_pure_rows():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    assert abs(np.linalg.det(x)) > 1e-6
    pi = np.vstack([np.eye(3), [[1 / 3, 1 / 3, 1 / 3]], [[0.6, 0.3, 0.1]], [[0.1, 0.1, 0.8]]])
    rows = pi @ x
    selected = spa(rows, 3)
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
    selected = spa(rows, 2)
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
    base = spa(rows, 4)
    perm = rng.permutation(len(rows))
    permuted = spa(rows[perm], 4)
    assert perm[permuted].tolist() == base.tolist()


def test_scaling_invariance_of_selection():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((30, 5))
    base = spa(rows, 4)
    scaled = spa(7.3 * rows, 4)
    assert scaled.tolist() == base.tolist()


def test_rank_deficiency_error():
    rows = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
    with pytest.raises(RankDeficiencyError):
        spa(rows, 2)


def test_all_zero_rows_error():
    with pytest.raises(RankDeficiencyError):
        spa(np.zeros((4, 3)), 1)


def test_dimension_error():
    # The pick count is checked where rmsp enters the search on raw rows; the
    # search itself takes it unchecked.
    with pytest.raises(DimensionError):
        rmsp(np.eye(3), 4)


def test_exact_recovery_on_simulated_simplex():
    rng = np.random.default_rng(3)
    pi = block_pi(50, 3, 5)
    x = rng.standard_normal((3, 7))
    rows = pi @ x
    selected = spa(rows, 3)
    classes = {int(np.argmax(pi[i])) for i in selected}
    assert all(pi[i].max() == 1.0 for i in selected)
    assert classes == {0, 1, 2}


INPUT_KINDS = ("separable", "noisy", "bernoulli", "binomial", "duplicates", "near_deficient")


def spa_input(kind, seed, n, d, rank):
    """An n x d test matrix of one kind: a separable simplex, the same plus
    noise, integer responses with many exact norm ties, duplicated rows, or a
    rank-``rank`` matrix plus a perturbation far above rounding and far below
    its spectrum."""
    rng = np.random.default_rng(seed)
    corners = rng.standard_normal((rank, d)) + 2.0
    pi = np.vstack([np.eye(rank), random_row_stochastic(rng, n - rank, rank)])
    if kind == "separable":
        return pi @ corners
    if kind == "noisy":
        return pi @ corners + 0.1 * rng.standard_normal((n, d))
    if kind == "bernoulli":
        return (rng.random((n, d)) < 0.4).astype(float)
    if kind == "binomial":
        return rng.binomial(3, 0.5, (n, d)).astype(float)
    if kind == "duplicates":
        rows = pi @ corners
        return rows[rng.integers(0, n, n)]
    return pi @ corners + 1e-8 * rng.standard_normal((n, d))


def left_factor(rows):
    """The top-min(15, n, d) left singular vectors: the rows scgoma searches."""
    u, _, _ = np.linalg.svd(rows, full_matrices=False)
    return np.ascontiguousarray(u[:, : min(15, *rows.shape)])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(INPUT_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 60),
    d=st.integers(2, 20),
    rank=st.integers(1, 6),
    on_left_factor=st.booleans(),
    k_extra=st.integers(0, 4),
)
def test_downdated_search_matches_residual_oracle(kind, seed, n, d, rank, on_left_factor, k_extra):
    rank = min(rank, n, d)
    rows = spa_input(kind, seed, n, d, rank)
    if on_left_factor:
        rows = left_factor(rows)
    k = min(rank + k_extra, *rows.shape)
    vertices, failure = spa_search(rows, k)
    want, want_failure = spa_oracle(rows, k)
    assert vertices.tolist() == want.tolist()
    assert (failure is None) == (want_failure is None)
    if failure is not None:
        assert failure.split()[0] == want_failure.split()[0]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(INPUT_KINDS),
    right_kind=st.sampled_from(INPUT_KINDS),
    seed=st.integers(0, 2**32 - 2),
    n=st.integers(6, 40),
    d=st.integers(1, 10),
    d_right=st.integers(0, 10),
    rank=st.integers(1, 6),
    on_left_factor=st.booleans(),
    widths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    picks=st.lists(st.integers(1, 20), min_size=6, max_size=6),
)
# Columns 0-3 have rank exactly 2, and columns 4-7 add rank 2 plus a 1e-8
# perturbation: the width-4 search stops after 2 picks while the width-8 one
# goes on to 6.
@example("separable", "near_deficient", 1, 30, 4, 4, 2, False, [4, 8, 3], [4, 6, 2, 1, 1, 1])
# Rows repeat in columns 0-3 only: the narrow searches' tie bands hold
# several rows at steps where the width-8 search's band holds one.
@example("duplicates", "noisy", 1, 30, 4, 4, 3, False, [3, 8, 4], [3, 6, 4, 1, 1, 1])
def test_lockstep_searches_match_residual_oracle_per_prefix(
    kind, right_kind, seed, n, d, d_right, rank, on_left_factor, widths, picks
):
    rows = spa_input(kind, seed, n, d, min(rank, d))
    if d_right:
        # A second column block of another kind: rank, ties and stops then
        # depend on how many columns a search sees.
        rows = np.hstack([rows, spa_input(right_kind, seed + 1, n, d_right, min(rank, d_right))])
    if on_left_factor:
        rows = left_factor(rows)
    widths = [min(w, rows.shape[1]) for w in widths]
    picks = [min(p, n, w) for p, w in zip(picks, widths)]
    searches = _projection_searches(rows, widths, picks)
    assert len(searches) == len(widths)
    for (vertices, failure), w, k in zip(searches, widths, picks):
        want, want_failure = spa_oracle(rows[:, :w], k)
        assert vertices.tolist() == want.tolist()
        assert (failure is None) == (want_failure is None)
        if failure is not None:
            assert failure.split()[0] == want_failure.split()[0]


def test_exact_rank_input_stops_after_its_rank():
    rng = np.random.default_rng(4)
    rows = random_row_stochastic(rng, 40, 3) @ rng.standard_normal((3, 10))
    rows[:3] = rng.standard_normal((3, 3)) @ rows[3:6]
    vertices, failure = spa_search(rows, 6)
    assert len(vertices) == 3
    assert failure.startswith("residual vanished after 3 of 6 selections")
    assert vertices.tolist() == spa_oracle(rows, 6)[0].tolist()
    with pytest.raises(RankDeficiencyError, match="after 3 of 6"):
        spa(rows, 6)
    assert spa(rows, 3).tolist() == vertices.tolist()


@pytest.mark.parametrize("last, picked", [(1.5e-12, 3), (0.5e-12, 2)])
def test_vanishing_threshold_reads_the_last_residual(last, picked):
    # Three orthogonal directions of lengths 1, 0.5 and ``last`` in a random
    # rotation, plus mixtures of the first two: the third pick's residual is
    # ``last`` up to rounding near 1e-16.
    rng = np.random.default_rng(5)
    rotation, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    axes = np.diag([1.0, 0.5, last]) @ rotation[:3]
    rows = np.vstack([axes, random_row_stochastic(rng, 12, 2) @ axes[:2]])
    vertices, failure = spa_search(rows, 3)
    assert vertices.tolist() == [0, 1, 2][:picked]
    assert (failure is None) == (picked == 3)
    assert spa_oracle(rows, 3)[0].tolist() == vertices.tolist()


def bernoulli_draw():
    """A 200 x 100 Bernoulli response matrix: entries 0 and 1."""
    rng = np.random.default_rng(0)
    return sample_response(simulation_spec(Bernoulli(), n=200, rng=rng), rng)[0].values


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(e=st.integers(-470, 470))
# A stop bound blind to the scale would reject every pick here below 2^-42.
@example(-60)
@example(-470)
@example(470)
def test_rmsp_fits_and_selects_alike_at_every_power_of_two_scale(e):
    # The stop rules are relative to the search's largest row norm, and
    # scaling a 0/1 matrix by 2^e is exact: the picks, memberships, curve and
    # k_hat equal those at scale 1 to the bit, and the item parameters and
    # singular values scale by 2^e exactly.
    r, c = bernoulli_draw(), 2.0**e
    fit, want = rmsp(r * c, 3), rmsp(r, 3)
    assert fit.pure_index_set == want.pure_index_set
    assert fit.membership_hat.rows.tobytes() == want.membership_hat.rows.tobytes()
    assert fit.item_params_hat.tobytes() == (want.item_params_hat * c).tobytes()
    assert fit.singular_values.tobytes() == (want.singular_values * c).tobytes()
    assert select_k(r * c, "rmsp", 8) == select_k(r, "rmsp", 8)


def recompute_sizes(monkeypatch):
    """Row counts of each exact recompute made by the search, in order."""
    sizes = []
    exact = vertex_hunting._exact_residuals

    def spy(rows, basis):
        sizes.append(len(rows))
        return exact(rows, basis)

    monkeypatch.setattr(vertex_hunting, "_exact_residuals", spy)
    return sizes


def test_near_duplicate_rows_trigger_the_exact_recompute(monkeypatch):
    # Mixtures of three corners plus a copy of corner 0 moved by 1e-9: the
    # fourth pick's true residual (about 1e-9) lies far below the rounding of
    # the downdated norms (about 1e-16 of |x|^2 = 1e-8 in norm), so only the
    # recompute of every row can find it.
    rng = np.random.default_rng(6)
    corners = rng.standard_normal((3, 5)) + 2.0
    rows = np.vstack([corners, random_row_stochastic(rng, 20, 3) @ corners, corners[:1]])
    rows[-1] += 1e-9 * rng.standard_normal(5)
    sizes = recompute_sizes(monkeypatch)
    vertices, failure = spa_search(rows, 4)
    assert failure is None
    assert vertices.tolist() == spa_oracle(rows, 4)[0].tolist()
    assert sorted(vertices.tolist()) == [0, 1, 2, len(rows) - 1]
    assert sizes[-1] == len(rows)


def test_well_separated_picks_recompute_only_the_picked_row(monkeypatch):
    rows = np.random.default_rng(7).standard_normal((50, 10))
    sizes = recompute_sizes(monkeypatch)
    vertices, _ = spa_search(rows, 8)
    assert sizes == [1] * 7
    assert vertices.tolist() == spa_oracle(rows, 8)[0].tolist()


def test_search_holds_no_residual_copy():
    rows = np.random.default_rng(8).standard_normal((400, 300))
    tracemalloc.start()
    try:
        spa_search(rows, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * rows.nbytes


@pytest.mark.parametrize("k", [True, 2.0, 2.5, "2", None])
def test_non_integer_pick_count_is_a_dimension_error(k):
    with pytest.raises(DimensionError):
        rmsp(np.eye(3), k)


def test_numpy_integer_pick_count_passes():
    assert rmsp(np.eye(3), np.int64(2)).pure_index_set == [0, 1]
