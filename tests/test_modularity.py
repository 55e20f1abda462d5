import numpy as np
import pytest

from wgom import (
    Binomial,
    DimensionError,
    ModularityDecomposition,
    WgomError,
    fuzzy_weighted_modularity,
    sample_response,
    select_k,
    simulation_spec,
)
from wgom.modularity import _SingleSignScorer

from helpers import modularity_double_sum, random_row_stochastic


def test_trace_form_matches_double_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        r = rng.standard_normal((20, 15))
        pi = random_row_stochastic(rng, 20, 3)
        fast = fuzzy_weighted_modularity(r, pi)
        slow = modularity_double_sum(r, pi)
        assert abs(fast - slow) <= 1e-10


def test_single_class_membership_scores_exactly_zero():
    rng = np.random.default_rng(1)
    r = rng.random((12, 8))
    assert fuzzy_weighted_modularity(r, np.ones((12, 1))) == 0.0


def test_nonnegative_responses_reduce_to_positive_part():
    rng = np.random.default_rng(2)
    r = rng.random((15, 10))
    pi = random_row_stochastic(rng, 15, 3)
    decomp = ModularityDecomposition.from_responses(r)
    assert decomp.m_minus == 0.0
    assert np.array_equal(decomp.a_minus, np.zeros((15, 15)))
    assert fuzzy_weighted_modularity(r, pi) == pytest.approx(
        modularity_double_sum(r, pi), abs=1e-12
    )


def test_sign_split_reconstructs_similarity():
    rng = np.random.default_rng(3)
    r = rng.standard_normal((18, 9))
    decomp = ModularityDecomposition.from_responses(r)
    assert np.abs((decomp.a_plus - decomp.a_minus) - r @ r.T).max() <= 1e-10
    assert np.abs(decomp.a_plus - decomp.a_plus.T).max() == 0.0
    assert np.allclose(decomp.d_plus, decomp.a_plus.sum(axis=1))
    assert decomp.m_plus == pytest.approx(decomp.d_plus.sum() / 2.0)


def test_modularity_bounded_by_one_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(25):
        r = rng.standard_normal((rng.integers(5, 30), rng.integers(3, 20)))
        pi = random_row_stochastic(rng, r.shape[0], rng.integers(2, 5))
        assert abs(fuzzy_weighted_modularity(r, pi)) <= 1.0


def test_product_form_scorer_matches_decomposition():
    rng = np.random.default_rng(5)
    r = rng.random((30, 12))  # single sign
    pi = random_row_stochastic(rng, 30, 4)
    direct = ModularityDecomposition.from_responses(r).score(pi)
    product = _SingleSignScorer(r).score(pi)
    assert abs(direct - product) <= 1e-10


def test_all_zero_responses_score_zero():
    assert fuzzy_weighted_modularity(np.zeros((5, 4)), random_row_stochastic(np.random.default_rng(6), 5, 2)) == 0.0


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        fuzzy_weighted_modularity(np.ones((4, 3)), np.ones((5, 2)) / 2)


# ---------------------------------------------------------------------------
# select_k
# ---------------------------------------------------------------------------


def test_select_k_finds_true_class_count():
    rng = np.random.default_rng(7)
    spec = simulation_spec(Binomial(m=5), n=200, rho=2.0, rng=rng)
    responses, _ = sample_response(spec, 0)
    k_hat, curve = select_k(responses, "scgoma", k_max=6)
    assert k_hat == 3
    assert curve[0] == (1, 0.0)
    assert len(curve) == 6


def test_constant_matrix_falls_back_to_one_class():
    # Rank-one input: every k >= 2 fails with a degenerate spectrum, so only
    # k = 1 lands in the curve and wins by the tie rule.
    constant = np.full((20, 10), 3.0)
    k_hat, curve = select_k(constant, "scgoma", k_max=5)
    assert k_hat == 1
    assert curve == [(1, 0.0)]


def test_ties_break_to_smallest_k():
    calls = []

    def fake_estimator(responses, k):
        calls.append(k)
        from wgom import EstimationResult, MembershipMatrix

        n = responses.shape[0]
        rows = np.full((n, k), 1.0 / k)
        return EstimationResult(
            membership_hat=MembershipMatrix(rows),
            item_params_hat=np.zeros((responses.shape[1], k)),
        )

    # An empty similarity graph scores exactly 0.0 at every k, so the argmax
    # is a pure tie and must resolve to the smallest k.
    k_hat, curve = select_k(np.zeros((10, 8)), fake_estimator, k_max=4)
    assert k_hat == 1
    assert calls == [1, 2, 3, 4]
    assert [q for _, q in curve] == [0.0, 0.0, 0.0, 0.0]


def test_select_k_skips_failing_ks():
    rng = np.random.default_rng(9)
    pi = np.vstack([np.eye(2), random_row_stochastic(rng, 10, 2)])
    theta = rng.random((8, 2))
    r0 = pi @ theta.T  # exactly rank 2: k >= 3 must fail and be skipped
    # rmsp: the one vertex search of the sweep runs out after two picks.
    for estimator in ("scgoma", "rmsp"):
        k_hat, curve = select_k(r0, estimator, k_max=5)
        assert [k for k, _ in curve] == [1, 2]
        assert k_hat == 2


def test_select_k_validates_k_max():
    with pytest.raises(DimensionError):
        select_k(np.ones((4, 3)), "scgoma", k_max=5)
    with pytest.raises(ValueError):
        select_k(np.ones((4, 3)), "unknown-method", k_max=2)


def test_select_k_all_failures_raise():
    with pytest.raises(WgomError):
        select_k(np.zeros((6, 5)), "scgoma", k_max=3)
