import warnings

import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    ClassCountSweep,
    DataFormatError,
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
    select_k,
    simulation_spec,
)
from wgom.errors import ConfigError
from wgom import estimation
from wgom.estimation import _normalize_clamped
from wgom.linalg import _decompose, solve_small_inverse

from helpers import block_pi, brute_hamming, leading


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


def test_rmsp_refuses_rows_whose_squared_norm_overflows():
    # Entries near 1e160 square past float range; the search's norms would
    # read inf and its band test nan.
    r = np.random.default_rng(0).random((50, 30)) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: rmsp(r, 3), lambda: select_k(r, "rmsp", 5)):
            with pytest.raises(DataFormatError, match="squared norm must stay within float range"):
                call()


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
    for method, result, x in (("scgoma", scgoma(r, 4), leading(*_decompose(r, 4), 4).left), ("rmsp", rmsp(r, 4), r)):
        corners = x[result.pure_index_set]
        z = np.maximum(0.0, x @ corners.T @ np.linalg.inv(corners @ corners.T))
        dead = z.sum(axis=1) <= 0.0
        assert result.n_clamped_rows == dead.sum() > 0
        assert np.array_equal(result.membership_hat.rows[dead], np.full((dead.sum(), 4), 0.25))
        assert ClassCountSweep(r, method, 6).fit(4).n_clamped_rows == result.n_clamped_rows


def test_class_counts_above_64():
    # The K x K inverses take any side, so K is bounded only by min(N, J).
    r = np.random.default_rng(0).random((300, 200))
    for result in (scgoma(r, 70), rmsp(r, 70)):
        assert result.membership_hat.rows.shape == (300, 70)
        assert result.item_params_hat.shape == (200, 70)
    _, curve = select_k(r, "scgoma", 70)
    assert [k for k, _ in curve][-1] == 70


@pytest.mark.parametrize("shape", [(300, 150), (1000, 500)])
@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
def test_fits_match_the_plain_products(method, shape):
    # The simplex weights form X C' as (C X')' and rmsp's regression forms
    # R' pi as (pi' R)'.  The straight products agree to rounding, so a factor
    # not transposed back fails as a value.
    rng = np.random.default_rng(shape[0])
    n, j = shape
    r = block_pi(n, 3, n // 4) @ rng.random((j, 3)).T + 0.2 * rng.standard_normal(shape)
    sweep = ClassCountSweep(r, method, 6)
    for k in (2, 3, 6):
        pi, _, vertices = sweep.memberships(k)
        x = r if method == "rmsp" else leading(*_decompose(r, 6), k).left
        corners = x[vertices]
        want, _ = _normalize_clamped(np.maximum(0.0, x @ corners.T @ solve_small_inverse(corners @ corners.T)[0]), k)
        assert np.abs(pi - want).max() <= 1e-13
        if method == "rmsp":
            theta = sweep.fit(k).item_params_hat
            want = r.T @ pi @ solve_small_inverse(pi.T @ pi)[0]
            assert np.abs(theta - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 3, 15, 16, 20])
def test_single_fit_equals_sweep_fit_above_15_classes(k):
    # Min side 120, the randomized path.  For k <= 15 the fit of README's
    # quick start, a k_max = 15 sweep's, and the single fit both sketch 25
    # columns; k = 16 and 20 sketch 26 and 30 in a sweep with k_max = k.
    r = np.random.default_rng(3).random((200, 120))
    for method, single in (("scgoma", scgoma(r, k, seed=5)), ("rmsp", rmsp(r, k))):
        assert_same_fit(single, ClassCountSweep(r, method, max(k, 15), seed=5).fit(k))


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


@pytest.mark.parametrize("k", [True, False, 2.0, 2.5, "2", None])
def test_non_integer_class_count_is_a_dimension_error(k):
    r = np.random.default_rng(0).random((20, 10))
    r0 = np.random.default_rng(1).random((20, 2)) @ np.random.default_rng(2).random((2, 10))
    for method in ("scgoma", "rmsp"):
        with pytest.raises(DimensionError):
            ClassCountSweep(r, method, k)
        sweep = ClassCountSweep(r, method, 4)
        with pytest.raises(DimensionError):
            sweep.fit(k)
        if k is not None:
            with pytest.raises(DimensionError):
                sweep.select(k)
    for estimator in (scgoma, rmsp, ideal_scgoma, ideal_rmsp):
        with pytest.raises(DimensionError):
            estimator(r0, k)


def assert_same_fit(a, b):
    assert np.array_equal(a.membership_hat.rows, b.membership_hat.rows)
    assert np.array_equal(a.item_params_hat, b.item_params_hat)
    assert a.pure_index_set == b.pure_index_set
    assert np.array_equal(a.singular_values, b.singular_values)
    assert a.n_clamped_rows == b.n_clamped_rows


def sweep_outcomes(sweep):
    """``select()`` and, per k, the bytes of every output of ``fit(k)`` or the
    error it raises."""
    outcomes = [sweep.select()]
    for k in range(1, sweep.k_max + 1):
        try:
            fit = sweep.fit(k)
        except (DegenerateRankError, RankDeficiencyError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
            continue
        outcomes.append((
            fit.membership_hat.rows.tobytes(),
            fit.item_params_hat.tobytes(),
            fit.pure_index_set,
            fit.singular_values.tobytes(),
            fit.n_clamped_rows,
        ))
    return outcomes


@pytest.mark.parametrize("shape, rank", [((40, 30), None), ((120, 60), None), ((300, 150), None), ((120, 60), 2)])
@pytest.mark.parametrize("flip_seed", range(3))
def test_fits_do_not_depend_on_the_signs_of_the_singular_vectors(monkeypatch, shape, rank, flip_seed):
    # A 40 x 30 input takes the dense SVD path and the others the randomized
    # one.  Flipping a random set of columns of both U and V' flips both
    # factors of every product term a fit forms from them, so k_hat, the
    # curve and every fit are unchanged to the bit, and a rank-2 input fails
    # at k >= 3 with the same errors.
    rng = np.random.default_rng(shape[0] + 10 * flip_seed)
    n, j = shape
    classes = rank or 3
    r = block_pi(n, classes, n // 4) @ rng.random((j, classes)).T
    if rank is None:
        r += 0.3 * rng.standard_normal(shape)
    k_max = 8
    want = sweep_outcomes(ClassCountSweep(r, "scgoma", k_max))
    decompose = estimation._decompose

    def flipped(a, k, *, seed=0):
        u, s, vt = decompose(a, k, seed=seed)
        flip = rng.random(len(s)) < 0.5
        flip[rng.integers(k_max)] = True
        u[:, flip] = -u[:, flip]
        vt[flip] = -vt[flip]
        return u, s, vt

    monkeypatch.setattr(estimation, "_decompose", flipped)
    assert sweep_outcomes(ClassCountSweep(r, "scgoma", k_max)) == want


def count_decompositions(monkeypatch):
    calls = []
    decompose = estimation._decompose

    def counted(a, k, *, seed=0):
        calls.append((k, seed))
        return decompose(a, k, seed=seed)

    monkeypatch.setattr(estimation, "_decompose", counted)
    return calls


def memo_responses():
    # Min side 100, the randomized path for every k_max here.
    spec = simulation_spec(Normal(sigma2=1.0), n=200, j=100, rng=np.random.default_rng(12))
    return sample_response(spec, 12)[0]


def test_a_response_matrix_is_decomposed_once_per_sketch_and_seed(monkeypatch):
    # A ResponseMatrix keeps its newest decomposition; a plain array, which
    # its caller may change, is decomposed on every call.  Both give the same bits.
    responses = memo_responses()
    calls = count_decompositions(monkeypatch)
    plain_fit, plain_selected = scgoma(responses.values, 3, seed=4), select_k(responses.values, "scgoma", 15, seed=4)
    assert len(calls) == 2
    fit, selected = scgoma(responses, 3, seed=4), select_k(responses, "scgoma", 15, seed=4)
    assert len(calls) == 3
    assert_same_fit(fit, plain_fit)
    assert selected == plain_selected
    assert "_svd" not in repr(responses)


def test_a_response_matrix_reuses_no_decomposition_of_another_sketch_or_seed():
    responses, fresh = memo_responses(), memo_responses()
    # k_max = 20 sketches 30 columns, not the 25 of every k <= 15.
    scgoma(responses, 3, seed=0)
    assert_same_fit(ClassCountSweep(responses, "scgoma", 20).fit(20), ClassCountSweep(fresh.values, "scgoma", 20).fit(20))
    scgoma(responses, 3, seed=0)
    assert_same_fit(scgoma(responses, 3, seed=1), scgoma(fresh.values, 3, seed=1))
    for seed in (2, 3, 4):
        scgoma(responses, 3, seed=seed)
    assert list(responses._svd) == [(25, 4)]
    assert not any(factor.flags.writeable for factor in responses._svd[25, 4])


def test_numpy_integer_class_counts_pass():
    r = np.random.default_rng(3).random((20, 10))
    for method in ("scgoma", "rmsp"):
        plain = ClassCountSweep(r, method, 4)
        numpy_ints = ClassCountSweep(r, method, np.int64(4))
        assert_same_fit(numpy_ints.fit(np.int32(2)), plain.fit(2))
        assert numpy_ints.select(np.uint8(3)) == plain.select(3)
    assert_same_fit(scgoma(r, np.int64(3)), scgoma(r, 3))
    assert_same_fit(rmsp(r, np.int16(3)), rmsp(r, 3))


def test_unknown_estimator_name_is_a_config_error():
    r = np.random.default_rng(4).random((30, 20))
    assert issubclass(ConfigError, ValueError) and issubclass(DimensionError, ValueError)
    with pytest.raises(ConfigError, match="unknown estimator 'bogus'"):
        ClassCountSweep(r, "bogus", 3)
    for estimator in ("bogus", lambda responses, k: scgoma(responses, k)):
        with pytest.raises(ConfigError):
            ClassCountSweep(r, estimator)
        with pytest.raises(ConfigError):
            select_k(r, estimator, 3)
    # A seed is an integer >= 0 on either SVD path (30 x 20 is dense, 120 x 60
    # randomized) and for rmsp, which does not use it.
    wide = np.random.default_rng(5).random((120, 60))
    for seed in (-1, 1.5, 2.0, True, "3", None):
        for values in (r, wide):
            for call in (
                lambda: scgoma(values, 3, seed=seed),
                lambda: select_k(values, "scgoma", 4, seed=seed),
                lambda: ClassCountSweep(values, "rmsp", 4, seed=seed),
            ):
                with pytest.raises(ConfigError, match="seed must be"):
                    call()
    for seed in (np.int64(5), np.uint32(5)):
        assert_same_fit(scgoma(wide, 3, seed=seed), scgoma(wide, 3, seed=5))
        assert select_k(wide, "scgoma", 4, seed=seed) == select_k(wide, "scgoma", 4, seed=5)
