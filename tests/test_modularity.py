import tracemalloc

import numpy as np
import pytest

from wgom import (
    Binomial,
    ClassCountSweep,
    DimensionError,
    Normal,
    WgomError,
    estimation,
    fuzzy_weighted_modularity,
    linalg,
    modularity,
    sample_response,
    scgoma,
    select_k,
    simulation_spec,
)

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
    # Nonnegative and nonpositive R both give A = RR' >= 0, scored in product form.
    rng = np.random.default_rng(2)
    r = rng.random((15, 10))
    pi = random_row_stochastic(rng, 15, 3)
    for signed in (r, -r):
        assert fuzzy_weighted_modularity(signed, pi) == pytest.approx(
            modularity_double_sum(signed, pi), abs=1e-12
        )


def test_modularity_bounded_by_one_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(25):
        r = rng.standard_normal((rng.integers(5, 30), rng.integers(3, 20)))
        pi = random_row_stochastic(rng, r.shape[0], rng.integers(2, 5))
        assert abs(fuzzy_weighted_modularity(r, pi)) <= 1.0


def test_mixed_sign_scoring_holds_less_than_one_similarity_matrix():
    # A = RR' is walked in row blocks; one N x N float array would be 72 MB.
    rng = np.random.default_rng(5)
    n = 3000
    r = rng.standard_normal((n, 10))
    pi = random_row_stochastic(rng, n, 3)
    tracemalloc.start()
    try:
        fuzzy_weighted_modularity(r, pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("rows", [1, 7, 20, 50])
def test_mixed_sign_blocks_match_oracle_at_every_block_size(monkeypatch, rows):
    # One row gives 1 x 1 diagonal blocks; 7 leaves a ragged last block; at
    # N rows or more one block holds the whole triangle and nothing mirrors.
    rng = np.random.default_rng(10)
    n = 20
    r = rng.standard_normal((n, 6))
    pis = [random_row_stochastic(rng, n, k) for k in (2, 3, 4)]
    monkeypatch.setattr(modularity, "BLOCK_BYTES", 8 * n * rows)
    for pi, q in zip(pis, modularity._scores(r, pis)):
        assert abs(q - modularity_double_sum(r, pi)) <= 1e-12


def test_mixed_sign_responses_with_no_negative_similarity():
    # R has both signs but A = RR' >= 0, so m- = 0 and A- vanishes; here it
    # is reached as A+ - A, whose rounding must not leave a spurious term.
    rng = np.random.default_rng(11)
    near_positive = rng.random((30, 5)) + 1.0
    near_positive[:, 0] = 0.01 * rng.standard_normal(30)
    for r in (np.array([[1.0, -0.1], [1.0, 0.1], [2.0, 0.05]]), near_positive):
        assert (r < 0).any() and (r @ r.T >= 0).all()
        for k in (2, 3):
            pi = random_row_stochastic(rng, r.shape[0], k)
            q = fuzzy_weighted_modularity(r, pi)
            assert np.isfinite(q)
            assert abs(q - modularity_double_sum(r, pi)) <= 1e-12


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


def test_select_k_curve_scores_each_fit_alone():
    # select_k scores all memberships in one batch; each K must read its own columns.
    rng = np.random.default_rng(8)
    spec = simulation_spec(Normal(sigma2=1.0), n=120, rho=2.0, rng=rng)
    responses, _ = sample_response(spec, rng)
    r = responses.values
    assert (r < 0).any() and (r > 0).any()
    _, curve = select_k(r, "scgoma", k_max=6)
    assert [k for k, _ in curve] == list(range(1, 7))
    for k, q in curve:
        alone = fuzzy_weighted_modularity(r, scgoma(r, k).membership_hat)
        assert abs(q - alone) <= 1e-12


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


# ClassCountSweep
# ---------------------------------------------------------------------------


def _binomial_responses(n):
    rng = np.random.default_rng(10)
    spec = simulation_spec(Binomial(m=5), n=n, rho=2.0, rng=rng)
    return sample_response(spec, rng)[0].values


def test_sweep_fit_then_select_fits_each_k_once(monkeypatch):
    decompositions, fits = [], []
    for modules, name, calls in (((linalg, estimation), "_decompose", decompositions), ((estimation,), "_scgoma_fit", fits)):
        for module in modules:

            def wrapper(*args, _original=getattr(module, name), _calls=calls, **kwargs):
                _calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    sweep = ClassCountSweep(_binomial_responses(120), "scgoma", 6)
    result = sweep.fit(3)
    k_hat, curve = sweep.select()
    assert len(decompositions) == 1 and len(fits) == 6
    assert sweep.fit(3) is result and len(fits) == 6
    assert k_hat == 3 and [k for k, _ in curve] == list(range(1, 7))


@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
def test_sweep_select_over_a_prefix_equals_select_k(method):
    # Min side 100 > 50: the randomized SVD path, one 25-column sketch for every k <= 15.
    r = _binomial_responses(200)
    sweep = ClassCountSweep(r, method, 15)
    for k_max in range(1, 15):
        assert sweep.select(k_max) == select_k(r, method, k_max)
    assert sweep.select() == select_k(r, method, 15)


def test_sweep_select_validates_k_max():
    sweep = ClassCountSweep(_binomial_responses(120), "rmsp", 15)
    for k_max in (0, 16):
        with pytest.raises(DimensionError):
            sweep.select(k_max)
        with pytest.raises(DimensionError):
            sweep.fit(k_max)
