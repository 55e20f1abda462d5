import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wgom import Binomial, ItemParams, MembershipMatrix, ModelSpec, expected_responses
from wgom import cli
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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["responses.csv", "membership.csv", "item_params.csv"]
    assert sorted(path.name for path in out.iterdir()) == sorted([*manifest["files"], "manifest.json"])
    assert manifest["seed"] == 11
    assert len(manifest["config_sha256"]) == 64
    responses = read_dense_csv(out / "responses.csv")
    assert responses.shape == (80, 40)
    assert set(np.unique(responses)) <= set(range(6))  # binomial(m=5) counts
    pi = read_dense_csv(out / "membership.csv")
    theta = read_dense_csv(out / "item_params.csv")
    # R0 is membership.csv @ item_params.csv', as wgom.expected_responses computes it.
    expected = pi @ theta.T
    spec = ModelSpec(MembershipMatrix(pi), ItemParams(theta), Binomial(m=5))
    assert np.allclose(expected, expected_responses(spec), atol=1e-12)
    # The factors describe the sampled matrix: its grand mean is within 5 standard errors of R0's.
    assert abs(responses.mean() - expected.mean()) < 5 * np.sqrt(5 / 4 / responses.size)


def test_generate_is_deterministic(generated, tmp_path):
    config_path, out = generated
    again = tmp_path / "gen-again"
    assert main(["generate", str(config_path), "--out", str(again)]) == 0
    assert (out / "responses.csv").read_bytes() == (again / "responses.csv").read_bytes()
    assert (out / "membership.csv").read_bytes() == (again / "membership.csv").read_bytes()


# responses.csv digests for README's generate config and CI's signed config.
# They fix the draw order: responses first, then the retention mask.
PINNED_RESPONSES = [
    (
        {
            "n": 800, "j": 400, "k": 3, "n_pure_per_class": 200,
            "mixed_membership": [0.334, 0.333, 0.333],
            "distribution": {"name": "binomial", "m": 5}, "rho": 2.5, "sparsity": 1.0, "seed": 7,
        },
        "f1d852f97744eb1b4905f28dc5e2bef0e906ae31a190177c68d405fed4360a3a",
    ),
    (
        {"n": 200, "j": 100, "k": 3, "distribution": {"name": "signed"}, "sparsity": 0.5, "seed": 3},
        "5d72e490e078cf0c2cadb16c78655fe342673ac8787f89ad864e59f647af9154",
    ),
]


@pytest.mark.parametrize("config,digest", PINNED_RESPONSES, ids=["readme", "signed-sparse"])
def test_generate_bytes_are_pinned(tmp_path, config, digest):
    config_path = tmp_path / "model.json"
    config_path.write_text(json.dumps(config))
    assert main(["generate", str(config_path), "--out", str(tmp_path / "data")]) == 0
    assert hashlib.sha256((tmp_path / "data" / "responses.csv").read_bytes()).hexdigest() == digest


# responses.csv digests with a membership file, an item parameter file and
# both.  A file replaces one draw of the model and leaves the others in place.
FILE_MEMBERSHIP = np.vstack([np.eye(3), np.full((57, 3), 1 / 3)])
FILE_ITEM_PARAMS = np.linspace(0.1, 1.9, 90).reshape(30, 3) ** 2
PINNED_FILE_RESPONSES = [
    (("membership",), "6728a151734ea201fdc165fe3192c9e333fd2f08d1a38db8b22ef7edaf1f3b4f"),
    (("item_params",), "aeb790450f4085adc4de26fc9a108fac00dc55fe40fab0fa7f06a278b119b4d4"),
    (("membership", "item_params"), "2bd4d713e2c9502325fc539d93349cbac077cc7cdadb0f8ca08a98703def1ddb"),
]


def write_model_files(folder):
    folder.mkdir()
    write_dense_csv(folder / "membership.csv", FILE_MEMBERSHIP)
    write_dense_csv(folder / "item_params.csv", FILE_ITEM_PARAMS)
    return {"n": 60, "j": 30, "k": 3, "distribution": {"name": "binomial", "m": 4}, "sparsity": 0.8, "seed": 5}


@pytest.mark.parametrize("files,digest", PINNED_FILE_RESPONSES, ids=["membership", "item-params", "both"])
def test_generate_from_files_is_pinned(tmp_path, files, digest):
    config = write_model_files(tmp_path / "in")
    config.update((f"{name}_file", str(tmp_path / "in" / f"{name}.csv")) for name in files)
    (tmp_path / "model.json").write_text(json.dumps(config))
    assert main(["generate", str(tmp_path / "model.json"), "--out", str(tmp_path / "data")]) == 0
    assert hashlib.sha256((tmp_path / "data" / "responses.csv").read_bytes()).hexdigest() == digest
    for name in files:
        assert (tmp_path / "data" / f"{name}.csv").read_bytes() == (tmp_path / "in" / f"{name}.csv").read_bytes()


def test_generate_refuses_a_key_beside_the_file_that_replaces_it(tmp_path, capsys):
    config = write_model_files(tmp_path / "in")
    for file_key, key, value in (
        ("membership_file", "n_pure_per_class", 100),  # 3 x 100 pure subjects exceed n = 60
        ("membership_file", "mixed_membership", "zzz"),
        ("item_params_file", "rho", 0.5),
        ("item_params_file", "mean_range", [0.5, 2.0]),
    ):
        file = str(tmp_path / "in" / f"{file_key.removesuffix('_file')}.csv")
        (tmp_path / "model.json").write_text(json.dumps({**config, file_key: file, key: value}))
        capsys.readouterr()
        assert main(["generate", str(tmp_path / "model.json"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and f"'{file_key}'" in err
    assert not (tmp_path / "o").exists()


def test_generate_default_geometry_runs_for_five_classes(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 60, "j": 30, "k": 5, "distribution": {"name": "bernoulli"}, "seed": 2}))
    assert main(["generate", str(path), "--out", str(tmp_path / "data")]) == 0
    pi = read_dense_csv(tmp_path / "data" / "membership.csv")
    # min(n // 4, n // k) = 12 pure subjects per class, and no mixed subject.
    assert (pi == np.repeat(np.eye(5), 12, axis=0)).all()


def test_generate_prints_huge_sizes_briefly(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 1e300, "j": 30, "k": 5, "distribution": {"name": "bernoulli"}}))
    capsys.readouterr()
    assert main(["generate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "1e+300 x 30" in err and len(err) < 100


# sha256 of each fit output for the configs above, in their order: estimate
# --k 3's membership_hat.csv and item_params_hat.csv, and select-k's JSON, per
# method.  A refactor of the estimators must leave these bytes unchanged.
PINNED_FITS = [
    {
        "scgoma": (
            "ffcf981119f4a35594883682d8259cce7600b4c175d3f9e2e304c0b1bdaf3c93",
            "f23719d088a71b5dffb849b1e5ef5fc41752dab16be487cabf9d0bb9119c636f",
            "cf217491fb6a5e06cc37ef11239453128322ae00e11d0a057ac0c47da959852d",
        ),
        "rmsp": (
            "77c1c78ab74994a61c45f3668b6968ca6a093f4eff09d3511367a7f883b4bd48",
            "e2db8527851f7bca69375b77f7ca5e05098e47756a34d4bfed57392166fffb0b",
            "2c3f8ae261543a39c1b7ad82b78356affe73d4e94a868b96b352130895c74eaa",
        ),
    },
    {
        "scgoma": (
            "08dbbc1a0e302ea17135c789889f19b05debbf766f97388c52ebfc3a247d13ee",
            "cea809ed7df7a0e00d43e5cf89f2ccf6e3c02d1e5ec5603ace7e631de7e8a47b",
            "7bbf5abb7955f4e77ffe28f4f2549d398b963e4b673ff6fd841edb02f8fff63c",
        ),
        "rmsp": (
            "1c8f80cd33c8a38a956ec28de9e341331160352197286aad261d142869f66250",
            "e745aa53c9dc9df1d0aed92cc6ab2611c707bdecf2d9886c3e5b103dbe27efa3",
            "0218e7e0633849984a0d6ed32e8f0f9932f9a36a9fab53255d0d9f4c8093724f",
        ),
    },
]
# The child runs each argv list through the CLI, then prints a digest of
# fixed BLAS and LAPACK results like the randomized SVD's.  Float bits depend
# on the BLAS build, CPU kernel and thread count, so the child runs on one
# BLAS thread, and the digests are checked only where that canary matches
# the machine they were taken on (OpenBLAS 0.3.31, x86-64).
FIT_CHILD = """
import hashlib, json, sys
import numpy as np
from wgom.cli import main
if any(main(argv) != 0 for argv in json.loads(sys.argv[1])):
    sys.exit(1)
rng = np.random.default_rng(0)
a = rng.standard_normal((800, 400))
q, _ = np.linalg.qr(a @ rng.standard_normal((400, 25)))
print(hashlib.sha256(q.tobytes() + np.linalg.svd(q.T @ a, compute_uv=False).tobytes()).hexdigest())
"""
BLAS_CANARY = "0cd719559aa243ba746286ff820f6d8f99a5665cc7e36601c0c81a76e22a1506"


@pytest.mark.parametrize(
    "config,fits", [(config, fits) for (config, _), fits in zip(PINNED_RESPONSES, PINNED_FITS)], ids=["readme", "signed-sparse"]
)
def test_fit_outputs_are_pinned(tmp_path, config, fits):
    (tmp_path / "model.json").write_text(json.dumps(config))
    data = str(tmp_path / "data" / "responses.csv")
    argvs = [["generate", str(tmp_path / "model.json"), "--out", str(tmp_path / "data")]]
    for method in fits:
        argvs.append(["estimate", data, "--k", "3", "--method", method, "--out", str(tmp_path / f"{method}-fit")])
        argvs.append(["select-k", data, "--method", method, "--out", str(tmp_path / f"{method}-k")])
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", FIT_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, **one_thread},
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.splitlines()[-1] != BLAS_CANARY:
        pytest.skip("this BLAS rounds differently from the one the digests were taken on")
    for method, digests in fits.items():
        outputs = (f"{method}-fit/membership_hat.csv", f"{method}-fit/item_params_hat.csv", f"{method}-k/select_k.json")
        assert [hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() for path in outputs] == list(digests), method


# The pinned configs' fit outputs per method: memberships, item parameters,
# pure indices, and select-k's k_hat and curve.  Unlike the digests they are
# compared on every host: indices, k_hat and the curve's k exactly, the rest
# to FIT_ATOL (relative to max |Theta| for item parameters).  Across
# OpenBLAS 0.3.31's SkylakeX, Haswell, Zen, Sandybridge and Prescott kernels
# (OPENBLAS_CORETYPE) at one and two threads, no output moved by more than
# 6e-15 and no index or k_hat changed.  The file holds a SkylakeX run on one
# thread; rewrite it with
# ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_cli.py``.
FIT_REFERENCES = Path(__file__).with_name("fit_references.npz")
FIT_ATOL = 1e-12


def pinned_fit_outputs(directory, config) -> dict:
    """Generate ``config`` and fit it with estimate --k 3 and select-k per
    method, in process; the outputs keyed as in ``FIT_REFERENCES``."""
    (directory / "model.json").write_text(json.dumps(config))
    data = directory / "data"
    assert main(["generate", str(directory / "model.json"), "--out", str(data)]) == 0
    outputs = {}
    for method in ("scgoma", "rmsp"):
        fit, chosen = directory / f"{method}-fit", directory / f"{method}-k"
        assert main(["estimate", str(data / "responses.csv"), "--k", "3", "--method", method, "--out", str(fit)]) == 0
        assert main(["select-k", str(data / "responses.csv"), "--method", method, "--out", str(chosen)]) == 0
        selected = json.loads((chosen / "select_k.json").read_text())
        outputs.update({
            f"{method}/membership": read_dense_csv(fit / "membership_hat.csv"),
            f"{method}/item_params": read_dense_csv(fit / "item_params_hat.csv"),
            f"{method}/pure": np.array(json.loads((fit / "summary.json").read_text())["pure_subject_rows"]),
            f"{method}/k_hat": np.array(selected["k_hat"]),
            f"{method}/curve": np.array(selected["curve"], dtype=float),
        })
    return outputs


PIN_NAMES = ["readme", "signed-sparse"]


@pytest.mark.parametrize("config,name", [(config, name) for (config, _), name in zip(PINNED_RESPONSES, PIN_NAMES)], ids=PIN_NAMES)
def test_fit_outputs_match_the_pinned_references(tmp_path, config, name):
    outputs = pinned_fit_outputs(tmp_path, config)
    with np.load(FIT_REFERENCES) as references:
        for key, got in outputs.items():
            want = references[f"{name}/{key}"]
            assert got.shape == want.shape, key
            if key.endswith(("/pure", "/k_hat")):
                assert np.array_equal(got, want), key
            elif key.endswith("/curve"):
                assert np.array_equal(got[:, 0], want[:, 0]), key
                assert np.abs(got[:, 1] - want[:, 1]).max() <= FIT_ATOL, key
            else:
                scale = np.abs(want).max() if key.endswith("/item_params") else 1.0
                assert np.abs(got - want).max() <= FIT_ATOL * scale, key


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
    expected = pi @ read_dense_csv(out / "item_params.csv").T
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
    expected = read_dense_csv(out / "membership.csv") @ read_dense_csv(out / "item_params.csv").T
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
        {"name": "binomial", "m": True},  # a bool is not a number
        {"name": "discrete", "support": ["0", "1", "3"]},  # nor is a numeric string
    )
    for extra in (
        {"sparsity": 1.5},
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
    # An all-zero item parameter file, with no key that the file replaces.
    path.write_text(json.dumps({**{key: base[key] for key in ("n", "j", "k", "distribution")}, "item_params_file": str(zero_items)}))
    capsys.readouterr()
    assert main(["generate", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "item parameter scale must be positive" in capsys.readouterr().err
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
        ("generate", {**base, "n": 12, "j": 6, "k": 1e18}),
    ):
        experiment.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, str(experiment), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
    # The error names the array that cannot be addressed, not the tiny 12 x 6 one.
    assert "(N x K)" in err
    # Every method is checked before the first one runs, so nothing is written.
    experiment.write_text(json.dumps({**sweep, "methods": ["scgoma", "bogus"]}))
    assert main(["experiment", str(experiment), "--out", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m").exists()
    experiment.write_text(json.dumps({**sweep, "methods": ["scgoma", "scgoma"]}))
    assert main(["experiment", str(experiment), "--out", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m").exists()
    # experiment takes no --threads: replicates run in order.  argparse exits 2.
    experiment.write_text(json.dumps(sweep))
    for threads in ("0", "-2", "2"):
        with pytest.raises(SystemExit) as exited:
            main(["experiment", str(experiment), "--out", str(tmp_path / "t"), "--threads", threads])
        assert exited.value.code == 2
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


# Models whose draws reach numpy's or float's limits: (distribution, rho,
# generate's exit code, experiment's).  Poisson's rate passes numpy's limit,
# which the admissible range refuses (an error row in an experiment); the
# Exponential draws and the Normal noise overflow gamma_hat; Uniform's
# deviations stay finite (its sweep may then record an estimator's error row).
FLOAT_LIMIT_MODELS = [
    ({"name": "poisson"}, 1e20, 2, 0),
    ({"name": "exponential"}, 1e307, 2, 2),
    ({"name": "normal", "sigma2": 1.7e308}, 1.0, 2, 2),
    ({"name": "uniform"}, 1e307, 0, 0),
]


@pytest.mark.parametrize(
    "distribution,rho,generate_code,experiment_code", FLOAT_LIMIT_MODELS, ids=[d["name"] for d, *_ in FLOAT_LIMIT_MODELS]
)
def test_models_at_the_float_limit_exit_with_documented_codes(
    tmp_path, capsys, distribution, rho, generate_code, experiment_code
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 200, "j": 100, "k": 3, "distribution": distribution, "rho": rho, "seed": 1}))
    capsys.readouterr()
    assert main(["generate", str(config), "--out", str(tmp_path / "g")]) == generate_code
    err = capsys.readouterr().err
    if generate_code:
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "g").exists()
    else:
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        assert np.isfinite([manifest["tau_hat"], manifest["gamma_hat"]]).all()
    sweep = {"family": "rho", "values": [rho], "n": 60, "replicates": 2, "k_max": 4, "distribution": distribution}
    config.write_text(json.dumps(sweep))
    assert main(["experiment", str(config), "--out", str(tmp_path / "e")]) == experiment_code
    err = capsys.readouterr().err
    if experiment_code:
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "e").exists()
    elif distribution["name"] == "poisson":
        errors = json.loads((tmp_path / "e" / "manifest.json").read_text())["errors"]
        assert [row["error"].split(":")[0] for row in errors] == ["DistributionRangeError"]


def test_estimate_accepts_k_above_64(tmp_path):
    matrix = tmp_path / "m.csv"
    write_dense_csv(matrix, np.random.default_rng(0).random((300, 200)))
    assert main(["estimate", str(matrix), "--k", "70", "--out", str(tmp_path / "o")]) == 0
    assert read_dense_csv(tmp_path / "o" / "membership_hat.csv").shape == (300, 70)


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


def test_rmsp_on_entries_past_the_squared_norm_range_is_a_data_error(tmp_path, capsys):
    huge = tmp_path / "huge.csv"
    write_dense_csv(huge, np.random.default_rng(0).random((50, 30)) * 1e160)
    capsys.readouterr()
    assert main(["estimate", str(huge), "--k", "3", "--method", "rmsp", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_select_k_on_a_similarity_graph_past_float_range_is_a_data_error(tmp_path, capsys):
    r = (np.random.default_rng(0).random((200, 100)) < 0.5).astype(float)
    for scale in (1e160, 1e-200):
        path = tmp_path / "scaled.csv"
        write_dense_csv(path, r * scale)
        capsys.readouterr()
        assert main(["select-k", str(path), "--k-max", "8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_select_k_on_a_csv_of_comment_lines_prints_one_error_line(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text("#,\n# 1,2\n")
    run = subprocess.run(
        [sys.executable, "-W", "always", "-m", "wgom.cli", "select-k", str(path)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 3
    assert run.stderr.splitlines() == [f"error: {path}: empty matrix file"]


def test_generate_refuses_factor_files_of_the_wrong_shape(tmp_path, capsys):
    membership = tmp_path / "membership.csv"
    write_dense_csv(membership, np.full((20, 3), 1 / 3))
    items = tmp_path / "items.csv"
    write_dense_csv(items, np.full((9, 2), 0.5))
    config = tmp_path / "config.json"
    base = {"n": 20, "j": 10, "k": 2, "distribution": {"name": "bernoulli"}}
    for key, path, message in (
        ("membership_file", membership, "membership file is 20x3, config says 20x2"),
        ("item_params_file", items, "item parameter file is 9x2, config says 10x2"),
    ):
        config.write_text(json.dumps({**base, key: str(path)}))
        capsys.readouterr()
        assert main(["generate", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_malformed_thresholds_flag_is_a_usage_error(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    write_dense_csv(matrix, np.random.default_rng(0).random((20, 10)))
    with pytest.raises(SystemExit) as exited:
        main(["estimate", str(matrix), "--k", "2", "--thresholds", "abc", "--out", str(tmp_path / "o")])
    assert exited.value.code == 2
    assert "expected '<mixed>,<pure>', got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_generate_turns_a_sampling_memory_error_into_a_config_error(tmp_path, capsys, monkeypatch):
    # No array is allocated: the sampler is replaced by one that raises.
    def exhausted(spec, seed):
        raise MemoryError

    monkeypatch.setattr(cli, "sample_response", exhausted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 20, "j": 10, "k": 2, "distribution": {"name": "bernoulli"}}))
    capsys.readouterr()
    assert main(["generate", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: cannot allocate the 20 x 10 (N x J) array of the model the config declares\n"
    assert not (tmp_path / "o").exists()


def test_exit_code_numerical_error(tmp_path):
    constant = tmp_path / "const.csv"
    write_dense_csv(constant, np.full((8, 6), 2.0))
    assert main(["estimate", str(constant), "--k", "2", "--out", str(tmp_path / "o")]) == 4
    assert main(["estimate", str(constant), "--method", "rmsp", "--k", "2", "--out", str(tmp_path / "o")]) == 4
    zeros = tmp_path / "zeros.csv"
    write_dense_csv(zeros, np.zeros((8, 6)))
    for method in ("scgoma", "rmsp"):
        assert main(["select-k", str(zeros), "--method", method, "--k-max", "3"]) == 4


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wgom.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "experiment" in proc.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        references = {}
        for (config, _), name in zip(PINNED_RESPONSES, PIN_NAMES):
            (Path(scratch) / name).mkdir()
            outputs = pinned_fit_outputs(Path(scratch) / name, config)
            references.update({f"{name}/{key}": value for key, value in outputs.items()})
    np.savez_compressed(FIT_REFERENCES, **references)
