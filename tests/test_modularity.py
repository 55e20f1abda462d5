import tracemalloc
import warnings

import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    ClassCountSweep,
    DataFormatError,
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


@pytest.mark.parametrize("shape", [(300, 150), (1000, 500)])
def test_scores_match_the_plain_trace_product(shape):
    # _scores forms R' pi as (pi' R)' and squares it into C order; Q from the
    # straight product R' pi and a full A = RR' agrees to rounding, so a trace
    # summed over the wrong axis or not transposed back fails as a value.
    rng = np.random.default_rng(shape[0])
    n, j = shape
    for r in (rng.standard_normal(shape), rng.random(shape)):
        pis = [random_row_stochastic(rng, n, k) for k in (1, 2, 3, 7)]
        a = r @ r.T
        d_plus, d_minus = np.maximum(a, 0.0).sum(axis=1), np.maximum(-a, 0.0).sum(axis=1)
        m_plus, m_minus = d_plus.sum() / 2.0, d_minus.sum() / 2.0
        for pi, got in zip(pis, modularity._scores(r, pis)):
            want = ((r.T @ pi) ** 2).sum() - ((d_plus @ pi) ** 2).sum() / (2.0 * m_plus)
            if m_minus > 0.0:
                want += ((d_minus @ pi) ** 2).sum() / (2.0 * m_minus)
            want = 0.0 if pi.shape[1] == 1 else want / (2.0 * (m_plus + m_minus))
            assert abs(got - want) <= 1e-13


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
    # A = RR' is walked in row blocks; one N x N float array would be 72 MB,
    # and each block is freed before the next is formed.
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
    assert peak <= 1.25 * modularity.BLOCK_BYTES


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


def test_select_k_is_unchanged_by_a_power_of_two_scale():
    # Q is a ratio and the scorer rescales its degrees by a power of two, so
    # R * 2**300 and R * 2**-300 give the curve of R to the bit.
    spec = simulation_spec(Bernoulli(), n=200, j=100, rng=np.random.default_rng(0))
    r = sample_response(spec, 1)[0].values
    expected = select_k(r, "scgoma")
    assert expected[0] == 3
    for e in (-300, 300):
        assert select_k(np.ldexp(r, e), "scgoma") == expected


@pytest.mark.parametrize("scale, fault", [(1e160, "overflows"), (1e-200, "underflows")])
def test_scores_refuse_a_similarity_graph_outside_float_range(scale, fault):
    # R * 1e160 and R * 1e-200 are finite, but A = RR' overflows or rounds to zero.
    spec = simulation_spec(Bernoulli(), n=200, j=100, rng=np.random.default_rng(0))
    r = sample_response(spec, 1)[0].values
    pi = scgoma(r, 3).membership_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=fault):
            select_k(r * scale, "scgoma", 8)
        with pytest.raises(DataFormatError, match=fault):
            fuzzy_weighted_modularity(r * scale, pi)
        # A zero row, and an all-zero graph, underflow nothing.
        zero_row = r.copy()
        zero_row[5] = 0.0
        assert select_k(zero_row, "scgoma", 8)[0] == 3
        assert fuzzy_weighted_modularity(np.zeros_like(r), pi) == 0.0


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


def test_ties_break_to_smallest_k(monkeypatch):
    # Every k scores exactly 0.0, so the argmax is a pure tie and must
    # resolve to the smallest k.
    monkeypatch.setattr(modularity, "_scores", lambda r, memberships: [0.0] * len(memberships))
    r = np.random.default_rng(11).random((30, 20))
    for estimator in ("scgoma", "rmsp"):
        k_hat, curve = select_k(r, estimator, k_max=4)
        assert k_hat == 1
        assert curve == [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)]


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
    for modules, name, calls in (((linalg, estimation), "_decompose", decompositions), ((estimation,), "_simplex_memberships", fits)):
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
def test_sweep_select_scores_memberships_and_finishes_no_fit(monkeypatch, method):
    # select() runs only each k's membership stage; fit(k) afterwards finishes
    # k's cached stage: no second vertex search or simplex inversion.  Each
    # sweep makes one vertex search: scgoma's advances every prefix U[:, :k]
    # in lockstep, rmsp's runs to k_max picks.
    calls = {}
    for name in ("_item_regression", "EstimationResult", "_projection_searches", "_simplex_memberships"):

        def wrapper(*args, _original=getattr(estimation, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(estimation, name, wrapper)
    sweep = ClassCountSweep(_binomial_responses(120), method, 6)
    k_hat, _ = sweep.select()
    assert calls == {"_projection_searches": 1, "_simplex_memberships": 6}
    result = sweep.fit(k_hat)
    assert calls == {"_projection_searches": 1, "_simplex_memberships": 6, "_item_regression": 1, "EstimationResult": 1}
    assert result.membership_hat.n_classes == k_hat


@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
def test_sweep_select_over_a_prefix_equals_select_k(method):
    # Min side 100 > 50: the randomized SVD path, one 25-column sketch for every k <= 15.
    r = _binomial_responses(200)
    sweep = ClassCountSweep(r, method, 15)
    for k_max in range(1, 15):
        assert sweep.select(k_max) == select_k(r, method, k_max)
    assert sweep.select() == select_k(r, method, 15)


def test_sweep_select_validates_k_max():
    for method in ("scgoma", "rmsp"):
        sweep = ClassCountSweep(_binomial_responses(120), method, 15)
        for k_max in (0, 16):
            for call in (sweep.select, sweep.fit, sweep.memberships):
                with pytest.raises(DimensionError):
                    call(k_max)
