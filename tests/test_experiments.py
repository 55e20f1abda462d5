from dataclasses import replace

import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    ConfigError,
    GeneralDiscrete,
    MembershipMatrix,
    ModelSpec,
    SignedBinary,
    Uniform,
    ItemParams,
    block_memberships,
    distribution_from_config,
    estimation,
    experiments,
    hamming_error,
    linalg,
    random_item_params,
    relative_error,
    rmsp,
    run_experiment,
    sample_response,
    scgoma,
    select_k,
    simulation_spec,
    validate_model_spec,
    vertex_hunting,
)
from wgom.experiments import (
    _class_count_geometry,
    config_value,
    normalize_family,
    parse_config,
    replicate_rng,
)
from wgom.metrics import accuracy_rate


def test_block_memberships_structure():
    membership = block_memberships(12, 3, 3)
    pi = membership.rows
    for cls in range(3):
        assert (pi[cls * 3 : (cls + 1) * 3, cls] == 1.0).all()
    assert np.allclose(pi[9:], 1.0 / 3.0)


def test_block_memberships_fixed_and_random_mixed_rows():
    fixed = block_memberships(8, 2, 3, mixed=(0.25, 0.75)).rows
    assert np.allclose(fixed[6:], [0.25, 0.75])
    rng = np.random.default_rng(0)
    random_rows = block_memberships(20, 4, 4, mixed="random", rng=rng).rows[16:]
    assert random_rows[:, :3].max() <= 0.25
    assert np.allclose(random_rows.sum(axis=1), 1.0)
    with pytest.raises(ConfigError):
        block_memberships(8, 2, 3, mixed="random")  # needs an rng
    with pytest.raises(ConfigError):
        block_memberships(8, 2, 5)
    with pytest.raises(ConfigError):
        block_memberships(8, 2, 3, mixed=(0.5, 0.7))
    with pytest.raises(ConfigError):
        block_memberships(8, 0, 2)
    with pytest.raises(ConfigError):
        block_memberships(20, 2, -1, mixed="random", rng=rng)


def test_random_item_params_modes():
    rng = np.random.default_rng(1)
    plain = random_item_params(30, 3, 2.0, rng)
    assert plain.values.min() >= 0.0 and plain.values.max() <= 2.0
    signed = random_item_params(30, 3, 2.0, rng, signed=True)
    assert signed.values.min() < 0.0
    ranged = random_item_params(30, 3, 99.0, rng, mean_range=(0.25, 1 / 3))
    assert ranged.values.min() >= 0.25 and ranged.values.max() <= 1 / 3
    with pytest.raises(ConfigError):
        random_item_params(30, 3, -1.0, rng)
    with pytest.raises(ConfigError):
        random_item_params(30, 3, 1.0, rng, mean_range=(2.0, 1.0))


def test_simulation_spec_defaults_are_valid_models():
    rng = np.random.default_rng(2)
    spec = simulation_spec(Binomial(m=5), n=80, rho=3.0, rng=rng)
    assert spec.n_subjects == 80 and spec.n_items == 40 and spec.n_classes == 3
    assert (spec.membership.rows[:20, 0] == 1.0).all()  # n/4 pure per class
    assert validate_model_spec(spec) == []


def test_simulation_spec_targets_discrete_interval():
    rng = np.random.default_rng(3)
    dist = GeneralDiscrete(support=(-2.0, 1.0, 1.5), scheme="mean-locked")
    spec = simulation_spec(dist, n=40, rng=rng)
    theta = spec.item_params.values
    assert theta.min() >= 0.25 and theta.max() <= 1 / 3
    assert validate_model_spec(spec) == []


def test_class_count_sweep_geometry():
    rng = np.random.default_rng(4)
    spec = simulation_spec(Uniform(), rho=1.0, rng=rng, **_class_count_geometry(4))
    assert spec.n_subjects == 400 and spec.n_items == 200
    assert (spec.membership.rows[:80, 0] == 1.0).all()


def test_distribution_from_config():
    assert distribution_from_config({"name": "bernoulli"}) == Bernoulli()
    assert distribution_from_config({"name": "binomial", "m": 4}).m == 4
    dist = distribution_from_config(
        {"name": "discrete", "support": [-1, 1], "scheme": "binary"}
    )
    assert dist.support == (-1.0, 1.0)
    with pytest.raises(ConfigError):
        distribution_from_config({"name": "cauchy"})
    with pytest.raises(ConfigError):
        distribution_from_config({"name": "binomial"})  # missing m
    with pytest.raises(ConfigError):
        distribution_from_config("binomial")


def test_replicate_rng_streams_are_deterministic_and_distinct():
    a = replicate_rng(5, 0).random(4)
    b = replicate_rng(5, 0).random(4)
    c = replicate_rng(5, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normalize_family():
    assert normalize_family("rho") == "rho"
    assert normalize_family("vary-n") == "n"
    with pytest.raises(ConfigError):
        normalize_family("vary-sigma")


def test_run_experiment_grid_and_pairing():
    rows = run_experiment(
        "rho",
        values=[10.0, 100.0],
        distribution=Uniform(),
        replicates=3,
        seed=0,
        n=80,
        k=3,
        k_max=4,
    )
    assert [row.value for row in rows] == [10.0, 100.0]
    assert all(row.error is None for row in rows)
    # Shared replicate streams plus exact scale equivariance: the uniform
    # sweep is perfectly paired, so errors agree across the grid.
    assert rows[0].mean_hamming_error == pytest.approx(
        rows[1].mean_hamming_error, abs=1e-10
    )
    assert 0.0 <= rows[0].accuracy_rate <= 1.0


def test_run_experiment_records_error_row():
    rows = run_experiment(
        "rho",
        values=[0.5, 1.5],  # expectations escape [0, 1] at rho = 1.5
        distribution=Bernoulli(),
        replicates=2,
        seed=1,
        n=40,
        k=2,
        k_max=3,
    )
    assert rows[0].error is None
    assert rows[1].error is not None and "admissible" in rows[1].error
    assert np.isnan(rows[1].mean_hamming_error)


def test_run_experiment_rejects_unknown_inputs():
    with pytest.raises(ConfigError):
        run_experiment("sigma", [1.0], Bernoulli(), replicates=1, seed=0)
    with pytest.raises(ConfigError):
        run_experiment("rho", [1.0], Bernoulli(), method="other", replicates=1, seed=0)


def test_validate_reports_degenerate_discrete_scheme():
    # Free index at the support average: no unique solution exists, which is
    # a violation to report, not an exception to raise.
    dist = GeneralDiscrete(support=(0.0, 1.0, 2.0), scheme=1)
    spec = ModelSpec(
        membership=MembershipMatrix(np.eye(2)),
        item_params=ItemParams(np.array([[1.0, 0.9], [0.8, 1.0]])),
        distribution=dist,
    )
    violations = validate_model_spec(spec)
    assert any("cannot realize" in v for v in violations)


def _counting(monkeypatch, name, modules, calls):
    """Wrap ``name`` in each module, recording the row matrix of every call."""
    for module in modules:
        original = getattr(module, name)

        def wrapper(x, *args, _original=original, **kwargs):
            calls.append(np.asarray(x))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
def test_run_experiment_decomposes_each_replicate_once(monkeypatch, method):
    drawn, decompositions = [], []
    sample = experiments.sample_response

    def recording_sample(spec, rng):
        responses, diagnostics = sample(spec, rng)
        drawn.append(responses.values)
        return responses, diagnostics

    monkeypatch.setattr(experiments, "sample_response", recording_sample)
    _counting(monkeypatch, "_decompose", (linalg, estimation), decompositions)
    _counting(monkeypatch, "_projection_prefix", (vertex_hunting, estimation), decompositions)
    rows = run_experiment(
        "rho", [1.0], Binomial(m=4), method=method, replicates=3, seed=2, n=60, k=3, k_max=5
    )
    assert rows[0].error is None and len(drawn) == 3
    # Only decompositions of R itself count: scgoma also searches the rows of U_k.
    for r in drawn:
        assert sum(x.shape == r.shape and np.array_equal(x, r) for x in decompositions) == 1


@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
@pytest.mark.parametrize("k_max", [5, 2])
def test_run_experiment_rows_equal_separate_fits(method, k_max):
    # n = 60 (J = 30) runs the dense SVD path, n = 120 (J = 60) the randomized
    # one, whose 25-column sketch the sweep and scgoma(R, k) share.
    for n in (60, 120):
        check_rows_equal_separate_fits(method, k_max, n)


def check_rows_equal_separate_fits(method, k_max, n):
    distribution, k, seed = Binomial(m=4), 3, 5
    rows = run_experiment(
        "rho", [1.0, 2.0], distribution, method=method, replicates=3, seed=seed, n=n, k=k,
        k_max=k_max,
    )
    for row in rows:
        hams, rels, k_hats = [], [], []
        for rep in range(3):
            rng = replicate_rng(seed, rep)
            spec = simulation_spec(
                distribution, n=n, k=k, rho=row.value, sparsity=1.0, mean_range=None, rng=rng
            )
            responses, _ = sample_response(spec, rng)
            result = (scgoma if method == "scgoma" else rmsp)(responses, k)
            hams.append(hamming_error(result.membership_hat, spec.membership))
            rels.append(relative_error(result.item_params_hat, spec.item_params.values))
            k_hats.append(select_k(responses, method, k_max=k_max)[0])
        expected = replace(
            row,
            mean_hamming_error=float(np.mean(hams)),
            mean_relative_error=float(np.mean(rels)),
            accuracy_rate=accuracy_rate(k_hats, k),
        )
        assert row == expected and row.error is None


@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
def test_run_experiment_true_k_above_min_side_is_an_error_row(method):
    # n = 4 gives J = 2 items, fewer than the k = 3 classes.
    rows = run_experiment("rho", [1.0], Bernoulli(), method=method, replicates=1, seed=0, n=4, k=3)
    assert rows[0].error is not None and rows[0].error.startswith("DimensionError")
    assert np.isnan(rows[0].mean_hamming_error)


def test_run_experiment_checks_the_whole_grid_before_any_replicate(monkeypatch):
    drawn = []
    monkeypatch.setattr(experiments, "sample_response", lambda *args: drawn.append(args))
    for kwargs in (
        {"family": "n", "values": [40, -5]},
        {"family": "k", "values": [2, 0]},
        {"seed": -1}, {"replicates": 0}, {"k_max": 0}, {"n": 0}, {"k": 0},
        {"family": "n", "values": [40.5]},
        {"family": "k", "values": [2.5]},
        {"values": ["0.6"]},
        {"replicates": True}, {"n": 40.5}, {"rho": float("inf")}, {"rho": -1.0}, {"sparsity": 2.0},
        {"threads": 0}, {"n": 1e300}, {"family": "k", "values": [2, 1e300]}, {"mean_range": (1.0, float("inf"))},
    ):
        kwargs = {"family": "rho", "values": [1.0], **kwargs}
        with pytest.raises(ConfigError):
            run_experiment(distribution=Bernoulli(), **kwargs)
    assert drawn == []


def test_config_value_converts_by_the_table():
    assert config_value("n", 20) == 20 and type(config_value("n", 20.0)) is int
    assert config_value("n", np.int64(7)) == 7 and type(config_value("k", np.float64(3.0))) is int
    assert config_value("seed", 2**70) == 2**70
    assert config_value("rho", np.float32(0.5)) == 0.5 and type(config_value("sparsity", 1)) is float
    assert config_value("values", [1.0]) == [1.0] and config_value("membership_file", "pi.csv") == "pi.csv"
    for key, value in (
        ("n", 20.7), ("seed", 0.5), ("n", True), ("rho", True), ("replicates", np.bool_(True)),
        ("n", "20"), ("sparsity", "0.5"), ("seed", None), ("rho", float("inf")), ("rho", float("nan")),
        ("n", 10**400), ("n", 0), ("seed", -1), ("n_pure_per_class", -1), ("rho", 0.0),
        ("sparsity", 0.0), ("sparsity", 1.5), ("values", []), ("methods", "scgoma"), ("membership_file", 5),
    ):
        with pytest.raises(ConfigError, match=f"^{key} must be ") as raised:
            config_value(key, value)
        assert repr(value) in str(raised.value)


def test_parse_config_requires_known_keys():
    sweep = {"family": "rho", "values": [1.0], "distribution": {"name": "bernoulli"}}
    assert parse_config({**sweep, "n": 40.0}, "experiment") == {**sweep, "n": 40}
    for config, key in (
        ({"values": [1.0], "distribution": {"name": "bernoulli"}}, "family"),
        ({**sweep, "method": "rmsp"}, "method"),
        ({**sweep, "j": 100}, "j"),
        ({**sweep, "threads": 2}, "threads"),
    ):
        with pytest.raises(ConfigError, match=repr(key)):
            parse_config(config, "experiment")
    with pytest.raises(ConfigError, match="'j'"):
        parse_config({"n": 4, "k": 2, "distribution": {"name": "bernoulli"}}, "generate")
    for config in (5, None, [1], "n"):
        with pytest.raises(ConfigError):
            parse_config(config, "generate")


@pytest.mark.parametrize("method", ["scgoma", "rmsp"])
def test_class_count_family_samples_within_mean_range(method):
    distribution, seed, k, k_max = GeneralDiscrete(support=(0, 1, 2, 3)), 7, 2, 3
    metrics = set()
    for mean_range in (None, (0.5, 1.0), (1.0, 1.4)):
        (row,) = run_experiment(
            "k", [k], distribution, method=method, replicates=2, seed=seed, k_max=k_max,
            mean_range=mean_range,
        )
        hams, rels, k_hats = [], [], []
        for rep in range(2):
            rng = replicate_rng(seed, rep)
            spec = simulation_spec(
                distribution, n=100 * k, j=50 * k, k=k, n_pure=80, mean_range=mean_range, rng=rng
            )
            responses, _ = sample_response(spec, rng)
            result = (scgoma if method == "scgoma" else rmsp)(responses, k)
            hams.append(hamming_error(result.membership_hat, spec.membership))
            rels.append(relative_error(result.item_params_hat, spec.item_params.values))
            k_hats.append(select_k(responses, method, k_max=k_max)[0])
        assert row == replace(
            row,
            mean_hamming_error=float(np.mean(hams)),
            mean_relative_error=float(np.mean(rels)),
            accuracy_rate=accuracy_rate(k_hats, k),
        )
        assert row.error is None
        metrics.add((row.mean_hamming_error, row.mean_relative_error))
    assert len(metrics) == 3
