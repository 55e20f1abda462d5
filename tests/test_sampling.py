import tracemalloc

import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    ConfigError,
    DistributionRangeError,
    Exponential,
    GeneralDiscrete,
    InfeasibleSchemeError,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    Normal,
    Poisson,
    SignedBinary,
    Uniform,
    construct_discrete,
    expected_responses,
    sample_response,
    simulation_spec,
)
from wgom import sampling
from wgom.sampling import DISTRIBUTIONS, Distribution, discrete_mean_interval

from helpers import block_pi, sample_response_reference


def constant_mean_spec(mu, dist, n_draws, sparsity=1.0):
    """n_draws iid entries with mean mu: pure class 0, second class unused."""
    pi = np.tile([1.0, 0.0], (n_draws, 1))
    theta = np.array([[mu, mu + 1.0]])
    return ModelSpec(
        membership=MembershipMatrix(pi),
        item_params=ItemParams(theta),
        distribution=dist,
        sparsity=sparsity,
    )


# ---------------------------------------------------------------------------
# expected_responses
# ---------------------------------------------------------------------------


def test_pure_subjects_copy_item_columns():
    theta = np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.5]])
    spec = ModelSpec(
        membership=MembershipMatrix(np.eye(2)),
        item_params=ItemParams(theta),
        distribution=Bernoulli(),
    )
    assert np.array_equal(expected_responses(spec), theta.T)


def test_mixed_subject_takes_convex_combination():
    spec = ModelSpec(
        membership=MembershipMatrix(np.array([[0.5, 0.5]])),
        item_params=ItemParams(np.array([[0.0, 1.0]])),
        distribution=Bernoulli(),
    )
    assert expected_responses(spec)[0, 0] == 0.5


def test_large_block_spec_has_rank_k_expectation():
    rng = np.random.default_rng(0)
    pi = block_pi(800, 3, 200)
    pi[600:, :2] = rng.uniform(0, 1 / 3, (200, 2))
    pi[600:, 2] = 1.0 - pi[600:, :2].sum(axis=1)
    theta = rng.random((400, 3))
    spec = ModelSpec(
        membership=MembershipMatrix(pi),
        item_params=ItemParams(theta),
        distribution=Bernoulli(),
    )
    s = np.linalg.svd(expected_responses(spec), compute_uv=False)
    assert s[2] > 1e-10 * s[0] and s[3] < 1e-10 * s[0]


# ---------------------------------------------------------------------------
# construct_discrete
# ---------------------------------------------------------------------------


def test_two_point_symmetric_midpoint():
    assert np.array_equal(construct_discrete((-1.0, 1.0), "binary", 0.0), [0.5, 0.5])


def test_two_point_general():
    p = construct_discrete((-1.0, 1.0), "binary", 0.6)
    assert np.allclose(p, [0.2, 0.8], atol=1e-15)
    assert p.sum() == 1.0


def test_three_point_mean_locked_triple():
    p = construct_discrete((-2.0, 1.0, 1.5), "mean-locked", 0.3)
    assert np.allclose(p, [0.3, 0.3, 0.4], atol=1e-12)
    for mean in (0.25, 0.28, 1.0 / 3.0):
        p = construct_discrete((-2.0, 1.0, 1.5), "mean-locked", mean)
        expect = [mean, 3.0 - 9.0 * mean, 8.0 * mean - 2.0]
        assert np.allclose(p, expect, atol=1e-12)


def test_mean_locked_interval_matches_derivation():
    lo, hi = discrete_mean_interval((-2.0, 1.0, 1.5), "mean-locked")
    assert abs(lo - 0.25) < 1e-15
    assert abs(hi - 1.0 / 3.0) < 1e-15
    with pytest.raises(DistributionRangeError):
        construct_discrete((-2.0, 1.0, 1.5), "mean-locked", 0.2)


def test_canonical_scheme_uniform_solution():
    p = construct_discrete((0.0, 1.0, 2.0), 0, 1.0)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_canonical_scheme_nonzero_free_index():
    # support (0, 1, 3), free index 2: y = (mean - 3) / (4 - 9).
    p = construct_discrete((0.0, 1.0, 3.0), 2, 2.0)
    assert np.allclose(p, [0.2, 0.2, 0.6], atol=1e-15)
    assert abs(np.dot((0.0, 1.0, 3.0), p) - 2.0) <= 1e-12


def test_sum_exact_and_mean_hit_across_grid():
    rng = np.random.default_rng(1)
    cases = [
        ((-1.0, 1.0), "binary"),
        ((0.0, 1.0, 2.0), 0),
        ((0.0, 1.0, 3.0), 2),
        ((-2.0, 1.0, 1.5), "mean-locked"),
        ((-1.0, 0.5, 2.0, 4.0), 0),
        ((1.0, 2.0, 5.0, 7.0, 11.0), 3),
    ]
    for support, scheme in cases:
        lo, hi = discrete_mean_interval(support, scheme)
        for _ in range(20):
            mean = rng.uniform(lo, hi)
            p = construct_discrete(support, scheme, mean)
            assert p.sum() == 1.0
            assert abs(np.dot(support, p) - mean) <= 1e-12
            assert p.min() >= -1e-12 and p.max() <= 1.0 + 1e-12


def test_degenerate_free_index_is_infeasible():
    # support (0, 1, 2), free index 1: support[1] equals the support average.
    with pytest.raises(InfeasibleSchemeError):
        construct_discrete((0.0, 1.0, 2.0), 1, 1.0)


def test_mean_locked_infeasible_support():
    with pytest.raises(InfeasibleSchemeError):
        construct_discrete((10.0, 11.0, 12.0), "mean-locked", 11.0)


def test_admitted_mean_solving_to_a_negative_probability_is_infeasible():
    # The admissible interval lets a mean 5e-13 below 0 in, but on the narrow
    # support (0, 1e-3) it solves to a probability near -5e-10.
    with pytest.raises(InfeasibleSchemeError, match="outside"):
        construct_discrete((0.0, 1e-3), "binary", -5e-13)


def test_out_of_interval_mean_is_range_error():
    with pytest.raises(DistributionRangeError):
        construct_discrete((0.0, 1.0, 2.0), 0, 1.7)
    with pytest.raises(DistributionRangeError):
        construct_discrete((-1.0, 1.0), "binary", 1.2)


@pytest.mark.parametrize(
    "support, scheme",
    [
        ((0.0, 1.0, 2.0), "bogus"),
        (5, 0),
        ((1.0, 0.0), 0),
        (("0", "1", "3"), 0),
        ((0.0, 1.0, 2.0), "binary"),  # "binary" needs exactly 2 points
        ((0.0, 1.0, 3.0), 1.5),  # no longer truncated to index 1
        ((0.0, 1.0, 3.0), True),
        ((0.0, 1.0), "mean-locked"),
    ],
)
def test_bad_support_or_scheme_is_a_config_error(support, scheme):
    with pytest.raises(ConfigError):
        discrete_mean_interval(support, scheme)
    with pytest.raises(ConfigError):
        construct_discrete(support, scheme, 0.5)


def test_bad_support_rejected():
    with pytest.raises(ValueError):
        construct_discrete((1.0,), 0, 1.0)
    with pytest.raises(ValueError):
        construct_discrete((1.0, 1.0), 0, 1.0)


# ---------------------------------------------------------------------------
# sample_response
# ---------------------------------------------------------------------------


def test_signed_binary_mean_one_is_always_plus_one():
    spec = constant_mean_spec(1.0, SignedBinary(), 500)
    responses, _ = sample_response(spec, 0)
    assert np.array_equal(responses.values, np.ones((500, 1)))


def test_bernoulli_zero_mean_gives_all_zero_matrix():
    spec = constant_mean_spec(0.0, Bernoulli(), 500)
    responses, _ = sample_response(spec, 0)
    assert np.array_equal(responses.values, np.zeros((500, 1)))


def test_uniform_zero_mean_draws_zero():
    spec = constant_mean_spec(0.0, Uniform(), 100)
    responses, _ = sample_response(spec, 0)
    assert np.array_equal(responses.values, np.zeros((100, 1)))


def test_binomial_monte_carlo_mean():
    spec = constant_mean_spec(2.5, Binomial(m=5), 10_000)
    responses, _ = sample_response(spec, 7)
    values = responses.values.ravel()
    assert set(np.unique(values)) <= set(range(6))
    # Analytic mean 2.5, variance m q (1 - q) = 1.25.
    assert abs(values.mean() - 2.5) <= 3 * np.sqrt(1.25 / 10_000)


CATALOG = [
    (Bernoulli(), 0.35),
    (Binomial(m=5), 1.7),
    (Uniform(), 2.0),
    (Normal(sigma2=1.0), -0.4),
    (SignedBinary(), 0.25),
    (Poisson(), 3.2),
    (Exponential(), 1.4),
    (GeneralDiscrete(support=(-2.0, 1.0, 1.5), scheme="mean-locked"), 0.3),
    (GeneralDiscrete(support=(0.0, 1.0, 2.0), scheme=0), 0.8),
]


@pytest.mark.parametrize("dist,mean", CATALOG)
def test_monte_carlo_mean_each_variant(dist, mean):
    spec = constant_mean_spec(mean, dist, 10_000)
    responses, _ = sample_response(spec, 123)
    values = responses.values.ravel()
    stderr = values.std() / 100.0
    assert abs(values.mean() - mean) <= 4 * max(stderr, 1e-12)


def test_discrete_draws_stay_on_support():
    dist = GeneralDiscrete(support=(-2.0, 1.0, 1.5), scheme="mean-locked")
    spec = constant_mean_spec(0.3, dist, 2_000)
    responses, _ = sample_response(spec, 5)
    assert set(np.unique(responses.values)) <= {-2.0, 1.0, 1.5}


def test_mask_sparsity_fraction():
    # SignedBinary never draws 0, so every zero comes from the mask.
    pi = block_pi(100, 2, 30)
    theta = np.random.default_rng(2).uniform(-1, 1, (80, 2))
    spec = ModelSpec(
        membership=MembershipMatrix(pi),
        item_params=ItemParams(theta),
        distribution=SignedBinary(),
        sparsity=0.7,
    )
    responses, _ = sample_response(spec, 11)
    zero_fraction = (responses.values == 0.0).mean()
    sigma = np.sqrt(0.3 * 0.7 / responses.values.size)
    assert abs(zero_fraction - 0.3) <= 3 * sigma


def test_diagnostics_are_premask():
    spec = constant_mean_spec(0.2, SignedBinary(), 400, sparsity=0.5)
    _, diag = sample_response(spec, 3)
    # Pre-mask deviations are 0.8 (for +1) or 1.2 (for -1); a masked zero
    # would contribute 0.2 instead.
    assert abs(diag.tau_hat - 1.2) < 1e-12
    assert abs(diag.gamma_hat - diag.tau_hat**2 / spec.item_params.scale) < 1e-12


def test_out_of_range_mean_names_entry():
    spec = constant_mean_spec(1.5, Bernoulli(), 3)
    with pytest.raises(DistributionRangeError, match=r"\(0, 0\)"):
        sample_response(spec, 0)


def test_same_seed_reproduces_matrix():
    spec = constant_mean_spec(0.4, Binomial(m=3), 50, sparsity=0.8)
    first, _ = sample_response(spec, 99)
    second, _ = sample_response(spec, 99)
    assert np.array_equal(first.values, second.values)


def test_seed_is_an_integer_seed_sequence_or_generator():
    spec = constant_mean_spec(0.4, Binomial(m=3), 20)
    first, _ = sample_response(spec, np.int64(7))
    for seed in (np.random.SeedSequence(7), np.random.default_rng(7)):
        assert np.array_equal(sample_response(spec, seed)[0].values, first.values)
    for seed in (-1, 1.5, 7.0, True, None, "7"):
        with pytest.raises(ConfigError, match="seed must be"):
            sample_response(spec, seed)


def test_draws_are_new_arrays():
    # sample_response masks the draws in place and keeps them without a copy,
    # so no catalog draw may alias its means.
    assert {dist.name for dist, _ in CATALOG} == set(DISTRIBUTIONS)
    for dist, mean in CATALOG:
        means = np.full((6, 4), mean)
        draws = dist.draw(means, np.random.default_rng(0))
        assert draws.dtype == float and not np.shares_memory(draws, means)
        assert np.array_equal(means, np.full((6, 4), mean))


# (distribution, rho, peak bound in units of R) at 400 x 200.  R0 and the
# draws take 2 R; a draw whose outcome needs one more full-size array (its
# integer counts, or uniforms beside a threshold derived from R0) takes 3 R.
# The discrete draw holds its Q cumulative probabilities per entry.
PEAK_BOUNDS = [
    (Normal(), 1.0, 2.5),
    (Bernoulli(), 0.5, 2.5),
    (Exponential(), 1.0, 2.5),
    (Binomial(m=5), 2.0, 3.25),
    (Uniform(), 1.0, 3.25),
    (SignedBinary(), 0.5, 3.25),
    (Poisson(), 1.0, 3.25),
    (GeneralDiscrete(support=(0.0, 1.0, 2.0)), 1.0, 7.25),
]


@pytest.mark.parametrize("sparsity", [1.0, 0.5])
def test_sampling_peak_memory_is_a_small_multiple_of_r(sparsity):
    # The deviations reuse R0's buffer, the mask applies in place, the
    # response matrix keeps the draws, and each draw frees its temporaries
    # before it makes the next.
    peaks = {}
    for dist, rho, bound in PEAK_BOUNDS:
        spec = simulation_spec(dist, n=400, rho=rho, sparsity=sparsity, rng=np.random.default_rng(0))
        r_bytes = spec.n_subjects * spec.n_items * 8
        tracemalloc.start()
        try:
            responses, _ = sample_response(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert responses.values.shape == (400, 200) and not responses.values.flags.writeable
        peaks[dist.name] = (round(peak / r_bytes, 3), bound)
    assert all(peak <= bound for peak, bound in peaks.values()), peaks


# At 400 x 200, 64 KiB blocks of 40 rows split R into 10.  Beside R the
# sampler holds one block of R0 and the draw's block-sized temporaries.
BLOCKED_PEAK_BOUNDS = {
    "normal": 1.3, "bernoulli": 1.3, "exponential": 1.3,
    "binomial": 1.5, "uniform": 1.5, "signed": 1.5, "poisson": 1.5,
    "discrete": 1.85,
}


@pytest.mark.parametrize("sparsity", [1.0, 0.5])
def test_blocked_sampling_peak_memory_is_r_plus_a_few_blocks(monkeypatch, sparsity):
    monkeypatch.setattr(sampling, "BLOCK_BYTES", 64 * 2**10)
    peaks = {}
    for dist, rho, _ in PEAK_BOUNDS:
        spec = simulation_spec(dist, n=400, rho=rho, sparsity=sparsity, rng=np.random.default_rng(0))
        r_bytes = spec.n_subjects * spec.n_items * 8
        tracemalloc.start()
        try:
            sample_response(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[dist.name] = (round(peak / r_bytes, 3), BLOCKED_PEAK_BOUNDS[dist.name])
    assert all(peak <= bound for peak, bound in peaks.values()), peaks


# Every catalog family, the discrete one with an index and a mean-locked scheme.
BLOCKED_DRAWS = [(dist, rho) for dist, rho, _ in PEAK_BOUNDS] + [
    (GeneralDiscrete(support=(-2.0, 1.0, 1.5), scheme="mean-locked"), None)
]


@pytest.mark.parametrize("sparsity", [1.0, 0.5])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_blocked_draws_equal_the_whole_matrix_draw(monkeypatch, rows, sparsity):
    # One row per block, 7 rows that leave a ragged last block of N = 60, and
    # the default budget on a matrix it splits in two.
    n, j = (60, 30) if rows else (600, 300)
    if rows:
        monkeypatch.setattr(sampling, "BLOCK_BYTES", 8 * j * rows)
    assert sampling.BLOCK_BYTES < 8 * n * j
    for dist, rho in BLOCKED_DRAWS:
        spec = simulation_spec(dist, n=n, j=j, k=4, rho=rho, sparsity=sparsity, rng=np.random.default_rng(2))
        blocked, blocked_diag = sample_response(spec, 5)
        whole, whole_diag = sample_response_reference(spec, 5)
        assert blocked.values.tobytes() == whole.values.tobytes(), dist
        assert blocked_diag == whole_diag, dist


def pure_rows_spec(dist, theta, n=60):
    """All but the last subject pure in class 0, the last one pure in class 1."""
    pi = np.zeros((n, 2))
    pi[:-1, 0] = pi[-1, 1] = 1.0
    return ModelSpec(membership=MembershipMatrix(pi), item_params=ItemParams(theta), distribution=dist)


def test_range_error_in_the_last_block_names_the_entry_as_a_whole_draw_does(monkeypatch):
    theta = np.full((30, 2), 0.5)
    theta[3, 1] = -0.25
    spec = pure_rows_spec(Bernoulli(), theta)
    with pytest.raises(DistributionRangeError) as whole:
        sample_response_reference(spec, 0)
    monkeypatch.setattr(sampling, "BLOCK_BYTES", 8 * 30 * 7)
    with pytest.raises(DistributionRangeError) as blocked:
        sample_response(spec, 0)
    assert str(blocked.value) == str(whole.value)
    assert "(59, 3) = -0.25" in str(blocked.value)


class NanAboveOne(Distribution):
    """Normal draws, except nan where the mean exceeds 1."""

    name = "nan-above-one"
    interval = (-np.inf, np.inf, False)

    def draw(self, means, rng):
        return np.where(means > 1.0, np.nan, rng.normal(means))


@pytest.mark.parametrize("dist,mean", [(Exponential(), 1e308), (NanAboveOne(), 2.0)])
def test_an_overflow_in_a_later_block_is_refused(monkeypatch, dist, mean):
    # Only the last subject's draws leave float range, as inf or nan; a nan
    # must survive the maximum taken over the blocks.
    theta = np.full((30, 2), 0.5)
    theta[:, 1] = mean
    spec = pure_rows_spec(dist, theta)
    monkeypatch.setattr(sampling, "BLOCK_BYTES", 8 * 30 * 7)
    for sample in (sample_response, sample_response_reference):
        with pytest.raises(ConfigError, match="draws overflow"):
            sample(spec, 0)
