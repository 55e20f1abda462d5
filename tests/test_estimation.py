import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    ClassCountSweep,
    DegenerateRankError,
    DimensionError,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    Normal,
    RankDeficiencyError,
    hamming_error,
    ideal_rmsp,
    ideal_scgoma,
    relative_error,
    rmsp,
    sample_response,
    scgoma,
    simulation_spec,
)
from wgom.estimation import _normalize_clamped
from wgom.linalg import top_k_svd

from helpers import block_pi, brute_hamming


def small_noiseless(seed=0, n=60, j=30, k=3):
    rng = np.random.default_rng(seed)
    pi = block_pi(n, k, n // (k + 1))
    theta = rng.random((j, k))
    return pi, theta, pi @ theta.T


# ---------------------------------------------------------------------------
# oracle variants
# ---------------------------------------------------------------------------


def test_ideal_recovery_is_exact():
    pi, theta, r0 = small_noiseless()
    pi_hat, theta_hat = ideal_scgoma(r0, 3)
    assert hamming_error(pi_hat, pi) <= 1e-10
    assert relative_error(theta_hat, theta) <= 1e-10


def test_ideal_pure_subjects_return_item_params():
    rng = np.random.default_rng(1)
    theta = rng.random((15, 3))
    r0 = np.eye(3) @ theta.T
    pi_hat, theta_hat = ideal_scgoma(r0, 3)
    assert relative_error(theta_hat, theta) <= 1e-10
    assert hamming_error(pi_hat, np.eye(3)) <= 1e-10


def test_ideal_hand_solved_two_class_system():
    pi = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    theta = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    r0 = pi @ theta.T
    pi_hat, _ = ideal_scgoma(r0, 2)
    aligned = min(
        np.abs(pi_hat.rows[2] - pi[2]).max(),
        np.abs(pi_hat.rows[2] - pi[2, ::-1]).max(),
    )
    assert aligned <= 1e-10


def test_ideal_rmsp_matches_ideal_scgoma():
    pi, theta, r0 = small_noiseless(seed=2)
    pi_a, theta_a = ideal_scgoma(r0, 3)
    pi_b, theta_b = ideal_rmsp(r0, 3)
    assert hamming_error(pi_a, pi_b) <= 1e-8
    assert brute_hamming(pi_a.rows, pi_b.rows) <= 1e-8
    assert relative_error(theta_a, theta_b) <= 1e-8


def test_ideal_rank_mismatch_errors():
    pi, theta, r0 = small_noiseless(seed=3)
    with pytest.raises(DegenerateRankError):
        ideal_scgoma(r0, 4)  # rank below requested
    noisy = r0 + np.random.default_rng(4).normal(0, 0.5, r0.shape)
    with pytest.raises(DegenerateRankError):
        ideal_scgoma(noisy, 3)  # rank above requested
    with pytest.raises(DegenerateRankError):
        ideal_rmsp(noisy, 3)


# ---------------------------------------------------------------------------
# real estimators
# ---------------------------------------------------------------------------


def test_noiseless_input_recovers_exactly():
    pi, theta, r0 = small_noiseless(seed=5)
    for estimator in (scgoma, rmsp):
        result = estimator(r0, 3)
        assert hamming_error(result.membership_hat, pi) <= 1e-8
        assert relative_error(result.item_params_hat, theta) <= 1e-8
        assert len(set(result.pure_index_set)) == 3
        assert len(result.singular_values) == 3


def test_identity_memberships_from_k_pure_subjects():
    rng = np.random.default_rng(6)
    theta = rng.random((12, 3))
    r0 = np.eye(3) @ theta.T
    result = scgoma(r0, 3)
    assert hamming_error(result.membership_hat, np.eye(3)) <= 1e-8
    result = rmsp(r0, 3)
    assert hamming_error(result.membership_hat, np.eye(3)) <= 1e-8


def test_scgoma_pure_index_set_points_at_pure_rows():
    pi, theta, r0 = small_noiseless(seed=7)
    result = scgoma(r0, 3)
    for i in result.pure_index_set:
        assert pi[i].max() == 1.0
    assert {int(np.argmax(pi[i])) for i in result.pure_index_set} == {0, 1, 2}


def test_permutation_equivariance_on_noisy_data():
    rng = np.random.default_rng(8)
    spec = simulation_spec(Binomial(m=5), n=80, rho=4.0, rng=rng)
    responses, _ = sample_response(spec, 0)
    base = scgoma(responses, 3)
    perm = rng.permutation(80)
    permuted = scgoma(responses.values[perm], 3)
    assert hamming_error(permuted.membership_hat.rows, base.membership_hat.rows[perm]) <= 1e-8
    assert relative_error(permuted.item_params_hat, base.item_params_hat) <= 1e-8


def test_scale_invariance_of_memberships():
    rng = np.random.default_rng(9)
    spec = simulation_spec(Binomial(m=5), n=80, rho=4.0, rng=rng)
    responses, _ = sample_response(spec, 1)
    base = scgoma(responses, 3)
    scaled = scgoma(3.7 * responses.values, 3)
    assert np.abs(scaled.membership_hat.rows - base.membership_hat.rows).max() <= 1e-8
    assert np.abs(scaled.item_params_hat - 3.7 * base.item_params_hat).max() <= 1e-8
    base_r = rmsp(responses, 3)
    scaled_r = rmsp(3.7 * responses.values, 3)
    assert np.abs(scaled_r.membership_hat.rows - base_r.membership_hat.rows).max() <= 1e-8
    assert np.abs(scaled_r.item_params_hat - 3.7 * base_r.item_params_hat).max() <= 1e-8


def test_membership_rows_normalized_and_nonnegative():
    rng = np.random.default_rng(10)
    spec = simulation_spec(Bernoulli(), n=100, rho=0.8, rng=rng)
    responses, _ = sample_response(spec, 2)
    for estimator in (scgoma, rmsp):
        pi_hat = estimator(responses, 3).membership_hat.rows
        assert pi_hat.min() >= 0.0
        assert np.abs(pi_hat.sum(axis=1) - 1.0).max() <= 1e-9


def test_rmsp_not_better_than_scgoma_at_low_scale():
    # Weak inequality over 20 replicates at the hard end of the binomial grid.
    rng_master = 0
    scg, rms = [], []
    for rep in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([rng_master, rep]))
        spec = simulation_spec(Binomial(m=5), n=400, rho=0.5, rng=rng)
        responses, _ = sample_response(spec, rng)
        scg.append(hamming_error(scgoma(responses, 3).membership_hat, spec.membership))
        rms.append(hamming_error(rmsp(responses, 3).membership_hat, spec.membership))
    assert np.mean(rms) >= np.mean(scg)


def test_zero_row_fallback_gets_uniform_membership():
    z = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
    pi, n_clamped = _normalize_clamped(z, 3)
    assert n_clamped == 1
    assert np.allclose(pi[1], [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(pi[0], [0.25, 0.25, 0.5])


def test_over_specified_k_reports_its_clamped_rows():
    # K = 4 on a 3-class Normal model: both estimators clamp rows to zero.
    rng = np.random.default_rng(1)
    spec = simulation_spec(Normal(sigma2=1.0), n=60, rho=1.0, rng=rng)
    r = sample_response(spec, rng)[0].values
    for method, result, x in (("scgoma", scgoma(r, 4), top_k_svd(r, 4).left), ("rmsp", rmsp(r, 4), r)):
        corners = x[result.pure_index_set]
        z = np.maximum(0.0, x @ corners.T @ np.linalg.inv(corners @ corners.T))
        dead = z.sum(axis=1) <= 0.0
        assert result.n_clamped_rows == dead.sum() > 0
        assert np.array_equal(result.membership_hat.rows[dead], np.full((dead.sum(), 4), 0.25))
        assert ClassCountSweep(r, method, 6).fit(4).n_clamped_rows == result.n_clamped_rows


def test_error_conditions():
    with pytest.raises(DegenerateRankError):
        scgoma(np.zeros((5, 4)), 2)
    with pytest.raises(RankDeficiencyError):
        rmsp(np.zeros((5, 4)), 2)
    with pytest.raises(DimensionError):
        scgoma(np.eye(3), 5)
    constant = np.full((6, 5), 2.0)
    with pytest.raises(DegenerateRankError):
        scgoma(constant, 2)
