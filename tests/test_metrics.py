import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from wgom import (
    ConfigError,
    DataFormatError,
    DimensionError,
    accuracy_rate,
    data_sparsity,
    hamming_error,
    profile_memberships,
    relative_error,
)
from wgom.metrics import _assignment, _matched_cost

from helpers import brute_hamming, brute_relative, random_row_stochastic


def _costs(k: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "real":
        return rng.random((k, k))
    if kind == "ties":
        return rng.integers(0, 3, (k, k)).astype(float)
    return rng.random((k, k)) * 10.0 ** rng.integers(-6, 7, (k, k))  # mixed magnitudes


def _scipy_cost(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def test_hamming_identity_and_column_swap():
    rng = np.random.default_rng(0)
    pi = random_row_stochastic(rng, 12, 3)
    assert hamming_error(pi, pi) == 0.0
    assert hamming_error(pi[:, [2, 0, 1]], pi) <= 1e-15


def test_hamming_single_flipped_row():
    pi_true = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    pi_hat = pi_true.copy()
    pi_hat[2] = [0.0, 1.0]
    assert hamming_error(pi_hat, pi_true) == pytest.approx(0.5)


def test_relative_error_identity_and_permutation():
    rng = np.random.default_rng(1)
    theta = rng.standard_normal((10, 4))
    assert relative_error(theta, theta) == 0.0
    assert relative_error(theta[:, [3, 1, 0, 2]], theta) <= 1e-15


def test_relative_error_doubled_orthogonal_columns():
    theta = np.array([[2.0, 0.0], [0.0, 2.0]])  # orthogonal, equal norms
    assert relative_error(2.0 * theta, theta) == pytest.approx(1.0)


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(4, 30))
        pi_hat = random_row_stochastic(rng, n, k)
        pi_true = random_row_stochastic(rng, n, k)
        assert hamming_error(pi_hat, pi_true) == pytest.approx(
            brute_hamming(pi_hat, pi_true), abs=1e-12
        )
        theta_hat = rng.standard_normal((n, k))
        theta_true = rng.standard_normal((n, k))
        assert relative_error(theta_hat, theta_true) == pytest.approx(
            brute_relative(theta_hat, theta_true), abs=1e-12
        )


def test_hamming_bounds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3, 20))
        stoch = hamming_error(random_row_stochastic(rng, n, k), random_row_stochastic(rng, n, k))
        assert 0.0 <= stoch <= 1.0
        loose = hamming_error(rng.random((n, k)), rng.random((n, k)))
        assert loose <= 2.0


def test_alignment_invariant_under_shared_column_permutation():
    rng = np.random.default_rng(4)
    pi_hat = random_row_stochastic(rng, 15, 4)
    pi_true = random_row_stochastic(rng, 15, 4)
    perm = rng.permutation(4)
    assert hamming_error(pi_hat[:, perm], pi_true[:, perm]) == pytest.approx(
        hamming_error(pi_hat, pi_true), abs=1e-12
    )


def test_accuracy_rate():
    assert accuracy_rate([3, 3, 3], 3) == 1.0
    assert accuracy_rate([1, 2, 4], 3) == 0.0
    assert accuracy_rate([3] * 18 + [2, 4], 3) == pytest.approx(0.9)
    with pytest.raises(DimensionError):
        accuracy_rate([], 3)
    with pytest.raises(ValueError):
        accuracy_rate([], 3)


def test_profile_all_pure():
    pi = np.tile(np.eye(3), (4, 1))
    profile = profile_memberships(pi)
    assert profile.omega_mixed == 0.0
    assert profile.omega_pure == 1.0
    assert profile.eta == 1.0


def test_profile_all_uniform():
    pi = np.full((10, 4), 0.25)
    profile = profile_memberships(pi)
    assert profile.omega_mixed == 1.0
    assert profile.omega_pure == 0.0
    assert profile.eta == 1.0


def test_profile_mixed_case():
    pi = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    profile = profile_memberships(pi)
    assert profile.omega_mixed == pytest.approx(1 / 3)
    assert profile.omega_pure == pytest.approx(2 / 3)
    assert profile.eta == pytest.approx(0.2)


def test_profile_custom_thresholds():
    pi = np.array([[0.7, 0.3], [0.85, 0.15]])
    profile = profile_memberships(pi, mixed_threshold=0.75, pure_threshold=0.8)
    assert profile.omega_mixed == pytest.approx(0.5)
    assert profile.omega_pure == pytest.approx(0.5)


def test_profile_thresholds_follow_the_number_rule():
    pi = np.array([[0.7, 0.3], [0.85, 0.15]])
    for thresholds in ({"mixed_threshold": "a"}, {"pure_threshold": None}, {"mixed_threshold": True}):
        with pytest.raises(ConfigError):
            profile_memberships(pi, **thresholds)


def test_data_sparsity():
    assert data_sparsity(np.zeros((3, 3))) == 1.0
    assert data_sparsity(np.ones((3, 3))) == 0.0
    assert data_sparsity(np.array([[0.0, 1.0], [2.0, 3.0]])) == 0.25


def test_dimension_errors():
    with pytest.raises(DimensionError):
        hamming_error(np.ones((3, 2)) / 2, np.ones((4, 2)) / 2)
    with pytest.raises(DimensionError):
        relative_error(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(DataFormatError):
        relative_error(np.ones((3, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("metric", [hamming_error, relative_error])
def test_error_metrics_pass_the_input_gate(metric):
    good = np.full((3, 2), 0.5)
    for bad in (np.nan, np.inf, -np.inf):
        broken = good.copy()
        broken[1, 0] = bad
        with pytest.raises(DataFormatError):
            metric(broken, good)
        with pytest.raises(DataFormatError):
            metric(good, broken)
    with pytest.raises(DimensionError):
        metric(np.ones(3), np.ones(3))
    with pytest.raises(DimensionError):
        metric(good, np.ones(2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 7),
    kind=st.sampled_from(["real", "ties", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_assignment_is_the_permutation_minimum(k, kind, seed):
    cost = _costs(k, kind, np.random.default_rng(seed))
    cols = _assignment(cost)
    assert sorted(cols) == list(range(k))
    rows = np.arange(k)
    brute = min(float(cost[rows, list(p)].sum()) for p in itertools.permutations(range(k)))
    assert _matched_cost(cost) == brute


def test_assignment_matches_scipy_up_to_k_40():
    rng = np.random.default_rng(5)
    for k in range(1, 41):
        for kind in ("real", "ties", "mixed"):
            cost = _costs(k, kind, rng)
            assert _matched_cost(cost) == _scipy_cost(cost)


def test_error_metrics_equal_the_scipy_matching_bit_for_bit():
    # Continuous random inputs: the optimal matching is unique, so both
    # solvers sum the same entries in the same order.
    rng = np.random.default_rng(6)
    for _ in range(30):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 60))
        pi_hat, pi_true = random_row_stochastic(rng, n, k), random_row_stochastic(rng, n, k)
        cost = np.abs(pi_hat[:, :, None] - pi_true[:, None, :]).sum(axis=0)
        assert hamming_error(pi_hat, pi_true) == _scipy_cost(cost) / n
        theta_hat, theta_true = rng.standard_normal((n, k)), rng.standard_normal((n, k))
        cost = ((theta_hat[:, :, None] - theta_true[:, None, :]) ** 2).sum(axis=0)
        expected = float(np.sqrt(_scipy_cost(cost)) / np.linalg.norm(theta_true))
        assert relative_error(theta_hat, theta_true) == expected


def test_assignment_avoids_infinite_costs_and_rejects_infeasible_ones():
    inf = np.inf
    cost = np.array([[inf, 1.0, 5.0], [2.0, inf, inf], [inf, 3.0, 0.5]])
    assert _assignment(cost) == [1, 0, 2]
    with pytest.raises(DataFormatError):
        _assignment(np.array([[inf, 1.0], [inf, 2.0]]))
    huge = np.full((4, 2), 1.7e308)
    with np.errstate(over="ignore"), pytest.raises(DataFormatError):
        hamming_error(huge, -huge)
