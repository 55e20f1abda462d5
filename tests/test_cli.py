import json
import subprocess
import sys

import numpy as np
import pytest

from wgom.cli import main
from wgom.matrix_io import read_dense_csv, write_coordinate, write_dense_csv


@pytest.fixture()
def generated(tmp_path):
    config = {
        "n": 80,
        "j": 40,
        "k": 3,
        "distribution": {"name": "binomial", "m": 5},
        "rho": 4.0,
        "seed": 11,
    }
    config_path = tmp_path / "gen.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "gen-out"
    assert main(["generate", str(config_path), "--out", str(out)]) == 0
    return config_path, out


def test_generate_writes_all_files_and_manifest(generated):
    _, out = generated
    for name in ("responses.csv", "membership.csv", "item_params.csv", "expected.csv"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert len(manifest["config_sha256"]) == 64
    responses = read_dense_csv(out / "responses.csv")
    assert responses.shape == (80, 40)
    assert set(np.unique(responses)) <= set(range(6))  # binomial(m=5) counts
    pi = read_dense_csv(out / "membership.csv")
    theta = read_dense_csv(out / "item_params.csv")
    expected = read_dense_csv(out / "expected.csv")
    assert np.allclose(pi @ theta.T, expected, atol=1e-12)


def test_generate_is_deterministic(generated, tmp_path):
    config_path, out = generated
    again = tmp_path / "gen-again"
    assert main(["generate", str(config_path), "--out", str(again)]) == 0
    assert (out / "responses.csv").read_bytes() == (again / "responses.csv").read_bytes()
    assert (out / "membership.csv").read_bytes() == (again / "membership.csv").read_bytes()


def test_generate_mask_fraction(tmp_path):
    config = {
        "n": 60,
        "j": 40,
        "k": 3,
        "distribution": {"name": "signed"},
        "rho": 1.0,
        "sparsity": 0.5,
        "seed": 4,
    }
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "mask-out"
    assert main(["generate", str(path), "--out", str(out)]) == 0
    responses = read_dense_csv(out / "responses.csv")
    zero_fraction = (responses == 0.0).mean()
    sigma = np.sqrt(0.25 / responses.size)
    assert abs(zero_fraction - 0.5) <= 3 * sigma


def test_estimate_outputs_and_determinism(generated, tmp_path):
    _, gen_out = generated
    est1 = tmp_path / "est1"
    est2 = tmp_path / "est2"
    for est in (est1, est2):
        code = main(
            ["estimate", str(gen_out / "responses.csv"), "--k", "3", "--out", str(est)]
        )
        assert code == 0
    assert (est1 / "membership_hat.csv").read_bytes() == (est2 / "membership_hat.csv").read_bytes()
    assert (est1 / "item_params_hat.csv").read_bytes() == (est2 / "item_params_hat.csv").read_bytes()
    summary = json.loads((est1 / "summary.json").read_text())
    assert summary["method"] == "scgoma"
    assert len(summary["pure_subject_rows"]) == 3
    assert len(summary["singular_values"]) == 3
    assert summary["n_clamped_rows"] == 0
    assert 0.0 <= summary["omega_mixed"] <= 1.0
    assert summary["timing_seconds"] > 0
    pi_hat = read_dense_csv(est1 / "membership_hat.csv")
    assert np.abs(pi_hat.sum(axis=1) - 1.0).max() <= 1e-9


def test_estimate_accepts_coordinate_input_with_prune(generated, tmp_path):
    _, gen_out = generated
    dense = read_dense_csv(gen_out / "responses.csv")
    padded = np.zeros((dense.shape[0] + 2, dense.shape[1] + 1))
    padded[: dense.shape[0], : dense.shape[1]] = dense
    coo = tmp_path / "resp.txt"
    write_coordinate(coo, padded)
    out = tmp_path / "est-coo"
    assert main(["estimate", str(coo), "--k", "3", "--prune", "--out", str(out)]) == 0
    pi_hat = read_dense_csv(out / "membership_hat.csv")
    assert pi_hat.shape[0] <= dense.shape[0]  # padding pruned, zero rows in data may drop too


def test_select_k_json(generated, tmp_path, capsys):
    _, gen_out = generated
    out = tmp_path / "selk"
    code = main(
        [
            "select-k",
            str(gen_out / "responses.csv"),
            "--k-max",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "select_k.json").read_text())
    assert payload["k_hat"] == 3
    assert payload["curve"][0] == [1, 0.0]
    printed = json.loads(capsys.readouterr().out)
    assert printed["k_hat"] == 3


def test_experiment_csv_columns_and_determinism(tmp_path):
    config = {
        "family": "rho",
        "values": [1.0, 4.0],
        "distribution": {"name": "binomial", "m": 5},
        "n": 80,
        "k": 3,
        "replicates": 2,
        "seed": 9,
        "k_max": 5,
        "methods": ["scgoma"],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["experiment", str(path), "--out", str(out)]) == 0
        outs.append(out)

    def rows_without_timing(out):
        lines = (out / "results_scgoma.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "rho",
            "mean_hamming_error",
            "mean_relative_error",
            "mean_runtime_seconds",
            "accuracy_rate",
        ]
        return [
            [cell for i, cell in enumerate(line.split(",")) if i != 3]
            for line in lines[1:]
        ]

    assert rows_without_timing(outs[0]) == rows_without_timing(outs[1])
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["errors"] == []
    assert manifest["files"] == ["results_scgoma.csv"]


def test_experiment_json_rows_equal_csv_rows(tmp_path):
    config = {
        "family": "n", "values": [4, 60], "distribution": {"name": "binomial", "m": 5},
        "replicates": 2, "seed": 3, "k_max": 4, "methods": ["scgoma", "rmsp"],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    for fmt in ("csv", "json"):
        assert main(["experiment", str(path), "--out", str(tmp_path / fmt), "--format", fmt]) == 0
    for method in ("scgoma", "rmsp"):
        lines = (tmp_path / "csv" / f"results_{method}.csv").read_text().splitlines()
        header = lines[0].split(",")
        csv_rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        json_rows = json.loads((tmp_path / "json" / f"results_{method}.json").read_text())
        assert [sorted(row) for row in json_rows] == [sorted(header)] * 2
        # n = 4 leaves 2 items for 3 classes: an error row of NaN metrics in both.
        for csv_row, json_row in zip(csv_rows, json_rows):
            timings = csv_row.pop("mean_runtime_seconds"), json_row.pop("mean_runtime_seconds")
            assert all(np.isnan(timings)) or all(t > 0 for t in timings)
            np.testing.assert_equal(json_row, csv_row)
        assert np.isnan(json_rows[0]["mean_hamming_error"]) and json_rows[1]["mean_hamming_error"] >= 0
    manifests = [json.loads((tmp_path / fmt / "manifest.json").read_text()) for fmt in ("csv", "json")]
    assert manifests[0]["errors"] == manifests[1]["errors"] != []
    assert manifests[1]["files"] == ["results_scgoma.json", "results_rmsp.json"]


def test_generate_large_block_geometry(tmp_path):
    # 800 subjects, 400 items, 200 pure subjects per class, randomized mixed
    # rows: the geometry of the oracle-recovery acceptance run.
    config = {
        "n": 800,
        "j": 400,
        "k": 3,
        "n_pure_per_class": 200,
        "mixed_membership": "random",
        "distribution": {"name": "binomial", "m": 5},
        "rho": 1.0,
        "seed": 3,
    }
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "fig-out"
    assert main(["generate", str(path), "--out", str(out)]) == 0
    pi = read_dense_csv(out / "membership.csv")
    assert pi.shape == (800, 3)
    for cls in range(3):
        assert (pi[:, cls] == 1.0).sum() == 200
    mixed = pi[600:]
    assert mixed[:, :2].max() <= 1 / 3
    assert np.allclose(mixed.sum(axis=1), 1.0)
    expected = read_dense_csv(out / "expected.csv")
    s = np.linalg.svd(expected, compute_uv=False)
    assert s[2] > 1e-10 * s[0] and s[3] < 1e-10 * s[0]


def test_experiment_accepts_vary_prefixed_family(tmp_path):
    config = {
        "family": "vary-p",
        "values": [0.5, 1.0],
        "distribution": {"name": "signed"},
        "n": 80,
        "k": 3,
        "rho": 1.0,
        "replicates": 2,
        "seed": 3,
        "k_max": 4,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "vp"
    assert main(["experiment", str(path), "--out", str(out)]) == 0
    header = (out / "results_scgoma.csv").read_text().splitlines()[0]
    assert header.startswith("p,")


def test_generate_honors_membership_file(tmp_path):
    pi = np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75], [0.5, 0.5]])
    pi_path = tmp_path / "pi.csv"
    write_dense_csv(pi_path, pi)
    config = {
        "n": 4,
        "j": 6,
        "k": 2,
        "membership_file": str(pi_path),
        "distribution": {"name": "bernoulli"},
        "rho": 0.8,
        "seed": 5,
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["generate", str(path), "--out", str(out)]) == 0
    assert np.array_equal(read_dense_csv(out / "membership.csv"), pi)
    theta = read_dense_csv(out / "item_params.csv")
    assert theta.shape == (6, 2)
    assert theta.min() >= 0.0 and theta.max() <= 0.8


def test_generate_discrete_distribution(tmp_path):
    config = {
        "n": 40,
        "j": 20,
        "k": 2,
        "distribution": {
            "name": "discrete",
            "support": [-2.0, 1.0, 1.5],
            "scheme": "mean-locked",
        },
        "seed": 8,
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["generate", str(path), "--out", str(out)]) == 0
    responses = read_dense_csv(out / "responses.csv")
    assert set(np.unique(responses)) <= {-2.0, 1.0, 1.5}
    expected = read_dense_csv(out / "expected.csv")
    assert expected.min() >= 0.25 - 1e-12 and expected.max() <= 1 / 3 + 1e-12


def test_exit_code_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["generate", str(missing), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", str(bad), "--out", str(tmp_path / "o")]) == 2
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(
        json.dumps(
            {"n": 20, "j": 10, "k": 2, "distribution": {"name": "bernoulli"}, "rho": 3.0}
        )
    )
    assert main(["generate", str(infeasible), "--out", str(tmp_path / "o")]) == 2
    zero_items = tmp_path / "zero_items.csv"
    write_dense_csv(zero_items, np.zeros((10, 2)))
    base = {"n": 20, "j": 10, "k": 2, "distribution": {"name": "bernoulli"}, "rho": 0.5}
    bad_distributions = (
        {"name": "normal", "sigma2": "abc"},
        {"name": "normal", "sigma2": None},
        {"name": "discrete", "support": 5},
        {"name": "discrete", "support": [0, 1, 2], "scheme": [1]},
        {"name": "binomial", "m": 1e999},  # JSON 1e999 parses to inf
        {"name": "binomial", "m": 10**400},
        {"name": "discrete", "support": [0, 1, 2], "scheme": 1e999},
        {"name": "discrete", "support": [0, 1e999]},
        {"name": "normal", "sigma2": 1e999},
        {"name": "normal", "sigma": 4},  # an unknown key
        {"name": "discrete", "support": [0, 1, 3], "scheme": 1.5},
    )
    for extra in (
        {"sparsity": 1.5},
        {"item_params_file": str(zero_items)},
        {"n": "abc"},
        {"k": 0},
        {"j": -1},
        {"mean_range": "ab"},
        {"seed": -1},
        {"mixed_membership": "zzz"},
        {"membership_file": 5},
        {"n": 1e12},  # the model cannot be allocated
        {"n": 1e999},
        {"seed": 1e999},
        {"n_pure_per_class": 1e999},
        {"distribution": {"name": "uniform"}, "rho": 1e999},
        *({"distribution": dist} for dist in bad_distributions),
        # Fractional whole numbers, bools and numeric strings are not read as numbers.
        {"n": 20.7},
        {"j": 10.5},
        {"k": 1.5},
        {"seed": 0.5},
        {"n_pure_per_class": 2.5},
        {"rho": True},
        {"n": "20"},
        {"sparsity": "0.5"},
        {"n_pure_per_class": -1, "mixed_membership": "random"},
        {"membership_file": ""},
        {"replicates": 2},  # an experiment key
    ):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({**base, **extra}))
        assert main(["generate", str(path), "--out", str(tmp_path / "o")]) == 2
    # A huge finite rho overflows the item parameters' singular values.
    path.write_text(json.dumps({**base, "distribution": {"name": "normal"}, "rho": 1e308}))
    capsys.readouterr()
    assert main(["generate", str(path), "--out", str(tmp_path / "o")]) == 2
    message = capsys.readouterr().err
    assert "overflow" in message and "rank deficient" not in message
    experiment = tmp_path / "experiment.json"
    sweep = {
        "family": "rho", "values": [1.0], "n": 40, "replicates": 1,
        "distribution": {"name": "bernoulli"},
    }
    for extra in (
        {"values": ["abc"]},
        {"mean_range": 5},
        {"mean_range": "ab"},
        {"methods": 5},
        {"methods": "scgoma"},
        {"methods": []},
        {"values": 5},
        {"values": []},
        {"replicates": 0},
        {"seed": -1},
        {"n": -5},
        {"k": 0},
        {"k_max": 0},
        {"n": 1e999},
        {"seed": 1e999},
        {"family": "n", "values": [1e999]},
        {"values": [1e999], "distribution": {"name": "uniform"}},
        {"values": [1e308], "distribution": {"name": "uniform"}},  # draws overflow
        # Faults found inside a replicate end the run instead of a NaN row.
        {"sparsity": 2},
        {"family": "n", "values": [40], "rho": -1},
        {"k": 5},  # 5 classes x n/4 pure subjects exceed n
        {"n": 1e12},  # the model cannot be allocated
        {"distribution": {"name": "discrete", "support": [0, 1, 2], "scheme": 1}},  # no mean
        *({"distribution": dist} for dist in bad_distributions),
        {"n": 40.5},
        {"k": 2.5},
        {"seed": 0.5},
        {"replicates": 1.5},
        {"k_max": 2.5},
        {"family": "n", "values": [40.5]},
        {"family": "k", "values": [2.5]},
        {"rho": True},
        {"replicates": True},
        {"n": "40"},
        {"sparsity": "0.5"},
        {"values": ["0.6"]},
        # Unknown keys: a typo for "methods", a generate key and a CLI flag.
        {"method": "rmsp"},
        {"j": 100},
        {"threads": 2},
    ):
        experiment.write_text(json.dumps({**sweep, **extra}))
        assert main(["experiment", str(experiment), "--out", str(tmp_path / "o")]) == 2
    # Whole numbers beyond any array numpy can address end in one error line.
    for command, config in (
        ("generate", {**base, "n": 1e18}),
        ("generate", {**base, "n": 1e300}),
        ("generate", {**base, "j": 1e300}),
        ("experiment", {**sweep, "n": 1e300}),
        ("experiment", {**sweep, "family": "k", "values": [1e300]}),
    ):
        experiment.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, str(experiment), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
    experiment.write_text(json.dumps(sweep))
    for threads in ("0", "-2"):
        assert main(["experiment", str(experiment), "--out", str(tmp_path / "t"), "--threads", threads]) == 2
    assert not (tmp_path / "t").exists()
    matrix = tmp_path / "m.csv"
    write_dense_csv(matrix, np.random.default_rng(0).random((20, 10)))
    for value in ("0", "-3"):
        assert main(["estimate", str(matrix), "--k", value, "--out", str(tmp_path / "o")]) == 2
        assert main(["select-k", str(matrix), "--k-max", value]) == 2
    # Profiling thresholds must satisfy 0 <= mixed < pure <= 1.
    for thresholds in ("nan,0.9", "inf,inf", "0.9,0.6"):
        out = str(tmp_path / "thr")
        assert main(["estimate", str(matrix), "--k", "2", "--thresholds", thresholds, "--out", out]) == 2
    assert not (tmp_path / "thr").exists()
    for command in ("generate", "experiment"):
        for config in ("5", "null", "[1]", '"n"'):
            experiment.write_text(config)
            assert main([command, str(experiment), "--out", str(tmp_path / "o")]) == 2


def test_flags_follow_the_config_rules(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(
        json.dumps(
            {"family": "rho", "values": [1.0], "n": 40, "replicates": 1, "k_max": 3,
             "distribution": {"name": "bernoulli"}}
        )
    )
    for flags in (["--replicates", "0"], ["--k-max", "0"], ["--seed", "-1"]):
        assert main(["experiment", str(sweep), "--out", str(tmp_path / "x"), *flags]) == 2
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"n": 20, "j": 10, "k": 2, "distribution": {"name": "bernoulli"}}))
    assert main(["generate", str(model), "--out", str(tmp_path / "g"), "--seed", "-1"]) == 2
    # At min side 60 > 50 the fit takes the seeded randomized SVD path.
    matrix = tmp_path / "m.csv"
    write_dense_csv(matrix, np.random.default_rng(0).random((80, 60)))
    for argv in (["estimate", str(matrix), "--k", "2", "--out", str(tmp_path / "e")], ["select-k", str(matrix)]):
        assert main([*argv, "--seed", "-1"]) == 2
    assert not (tmp_path / "x").exists() and not (tmp_path / "e").exists()


def test_exit_code_data_error(tmp_path):
    garbled = tmp_path / "m.csv"
    garbled.write_text("1.0,2.0\nnot,numbers\n")
    assert main(["estimate", str(garbled), "--k", "2", "--out", str(tmp_path / "o")]) == 3
    small = tmp_path / "small.csv"
    write_dense_csv(small, np.eye(3))
    assert main(["estimate", str(small), "--k", "5", "--out", str(tmp_path / "o")]) == 3
    assert main(["select-k", str(small), "--k-max", "5"]) == 3
    # A header whose dense array cannot be allocated, with no entries to read.
    huge = tmp_path / "huge.txt"
    huge.write_text("10000000 10000000 0\n")
    assert main(["estimate", str(huge), "--k", "2", "--out", str(tmp_path / "o")]) == 3


def test_exit_code_numerical_error(tmp_path):
    constant = tmp_path / "const.csv"
    write_dense_csv(constant, np.full((8, 6), 2.0))
    assert main(["estimate", str(constant), "--k", "2", "--out", str(tmp_path / "o")]) == 4


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wgom.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "experiment" in proc.stdout
