import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    DimensionError,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    ResponseMatrix,
    SignedBinary,
    validate_model_spec,
)


def make_spec(pi, theta, dist=None, sparsity=1.0):
    return ModelSpec(
        membership=MembershipMatrix(pi),
        item_params=ItemParams(theta),
        distribution=dist or Bernoulli(),
        sparsity=sparsity,
    )


def test_valid_spec_has_no_violations():
    pi = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    theta = np.array([[0.9, 0.2], [0.1, 0.8], [0.5, 0.4]])
    assert validate_model_spec(make_spec(pi, theta)) == []


def test_row_sum_violation_reported():
    pi = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.5]])
    theta = np.array([[0.9, 0.2], [0.1, 0.8]])
    violations = validate_model_spec(make_spec(pi, theta))
    assert len(violations) == 1
    assert "row 2" in violations[0] and "sum" in violations[0]


def test_missing_pure_subject_reported():
    pi = np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.4]])
    theta = np.array([[0.9, 0.2], [0.1, 0.8]])
    violations = validate_model_spec(make_spec(pi, theta))
    assert any("class 1" in v and "pure" in v for v in violations)


def test_negative_membership_reported():
    pi = np.array([[1.0, 0.0], [0.0, 1.0], [-0.2, 1.2]])
    theta = np.array([[0.9, 0.2], [0.1, 0.8]])
    violations = validate_model_spec(make_spec(pi, theta))
    assert any("negative" in v for v in violations)


def test_rank_deficient_item_params_reported():
    pi = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([[0.5, 0.5], [0.3, 0.3]])  # identical columns
    violations = validate_model_spec(make_spec(pi, theta))
    assert any("rank" in v for v in violations)


def test_out_of_range_expectations_reported():
    pi = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([[1.5, 0.2], [0.1, 0.8]])  # 1.5 > 1 under Bernoulli
    violations = validate_model_spec(make_spec(pi, theta))
    assert any("admissible" in v and "(0, 0)" in v for v in violations)


def test_signed_range_allows_negative_means():
    pi = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([[-0.9, 0.4], [0.2, 0.7]])
    assert validate_model_spec(make_spec(pi, theta, SignedBinary())) == []


def test_expected_matrix_has_exact_rank_k_on_valid_specs():
    rng = np.random.default_rng(3)
    pi = np.vstack([np.eye(3), helpers_random_stochastic(rng, 17, 3)])
    theta = rng.random((12, 3))
    spec = make_spec(pi, theta)
    assert validate_model_spec(spec) == []
    r0 = spec.membership.rows @ spec.item_params.values.T
    s = np.linalg.svd(r0, compute_uv=False)
    assert s[2] > 1e-10 * s[0]
    assert s[3] < 1e-10 * s[0]


def helpers_random_stochastic(rng, n, k):
    raw = rng.random((n, k))
    return raw / raw.sum(axis=1, keepdims=True)


def test_row_sums_assertable_on_every_instance():
    rng = np.random.default_rng(9)
    pi = helpers_random_stochastic(rng, 40, 5)
    assert np.abs(MembershipMatrix(pi).rows.sum(axis=1) - 1.0).max() <= 1e-9


def test_structural_errors():
    with pytest.raises(ValueError):
        ResponseMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(DimensionError):
        ResponseMatrix(np.ones(3))
    with pytest.raises(ValueError):
        ItemParams(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        make_spec(np.eye(3), np.random.default_rng(0).random((4, 2)))
    with pytest.raises(ValueError):
        make_spec(np.eye(2), np.eye(2), sparsity=0.0)
    with pytest.raises(ValueError):
        make_spec(np.eye(2), np.eye(2), sparsity=1.5)


def test_item_params_scale_defaults_to_max_abs():
    theta = np.array([[0.5, -2.0], [0.1, 0.3]])
    assert ItemParams(theta).scale == 2.0
    with pytest.raises(TypeError):  # always max|Theta|, never an argument
        ItemParams(theta, scale=3.0)


def test_binomial_requires_positive_integer_trials():
    with pytest.raises(ValueError):
        Binomial(m=0)
    with pytest.raises(ValueError):
        Binomial(m=2.5)


def test_types_are_read_only():
    rm = ResponseMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        rm.values[0, 0] = 5.0
