"""Property tests for the estimators, the modularity scorer and the input gate.

Each property draws small inputs with ``hypothesis``; example counts are
bounded so the file stays fast.  The CLI fuzz tests run ``main`` in-process on
malformed matrix files and on ``generate``/``experiment`` configs with arbitrary
JSON values, and require a documented exit code, never an exception.  The
Python API fuzz calls the library's entry points with the same arbitrary
scalars and requires a result or a ``WgomError``.
"""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wgom import (
    Binomial,
    ClassCountSweep,
    GeneralDiscrete,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    Normal,
    WgomError,
    accuracy_rate,
    block_memberships,
    fuzzy_weighted_modularity,
    hamming_error,
    ideal_rmsp,
    ideal_scgoma,
    profile_memberships,
    random_item_params,
    relative_error,
    rmsp,
    sample_response,
    scgoma,
    select_k,
    simulation_spec,
)
from wgom import modularity
from wgom.cli import main
from wgom.experiments import CONFIG_KEYS
from wgom.sampling import DISTRIBUTIONS

from helpers import modularity_double_sum, random_row_stochastic, select_by_single_fits

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
ESTIMATORS = (scgoma, rmsp)


def exact_model(seed, k, n_mixed, j_extra):
    """A valid model: k pure subjects first, Dirichlet mixed rows, well-conditioned Theta."""
    rng = np.random.default_rng(seed)
    pi = np.vstack([np.eye(k), random_row_stochastic(rng, n_mixed, k)])
    theta = rng.uniform(0.1, 1.0, (k + j_extra, k)) + 2.0 * np.eye(k + j_extra, k)
    return pi, theta, pi @ theta.T


def noisy_responses(seed, k, n, j):
    """(R, k): a rank-k expectation with 5 pure subjects per class plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    pi = np.vstack([np.repeat(np.eye(k), 5, axis=0), random_row_stochastic(rng, n, k)])
    theta = rng.uniform(0.0, 1.0, (j, k)) + np.eye(j, k)
    return pi @ theta.T + 0.1 * rng.standard_normal((pi.shape[0], j)), k


models = st.builds(
    exact_model,
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n_mixed=st.integers(0, 20),
    j_extra=st.integers(0, 8),
)
noisy = st.builds(
    noisy_responses,
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 4),
    n=st.integers(10, 40),
    j=st.integers(6, 20),
)


@SETTINGS
@given(model=models)
def test_all_four_estimators_are_exact_on_valid_models(model):
    pi, theta, r0 = model
    k = pi.shape[1]
    fits = [ideal_scgoma(r0, k), ideal_rmsp(r0, k)]
    fits += [(res.membership_hat, res.item_params_hat) for res in (scgoma(r0, k), rmsp(r0, k))]
    for pi_hat, theta_hat in fits:
        assert hamming_error(pi_hat, pi) <= 1e-8
        assert relative_error(theta_hat, theta) <= 1e-8


@SETTINGS
@given(noisy_k=noisy, data=st.data())
def test_permutation_equivariance(noisy_k, data):
    r, k = noisy_k
    n, j = r.shape
    rows = np.asarray(data.draw(st.permutations(range(n))))
    cols = np.asarray(data.draw(st.permutations(range(j))))
    for estimator in ESTIMATORS:
        base = estimator(r, k)
        by_subject = estimator(r[rows], k)
        assert hamming_error(by_subject.membership_hat.rows, base.membership_hat.rows[rows]) <= 1e-8
        assert relative_error(by_subject.item_params_hat, base.item_params_hat) <= 1e-8
        by_item = estimator(r[:, cols], k)
        assert hamming_error(by_item.membership_hat, base.membership_hat) <= 1e-8
        assert relative_error(by_item.item_params_hat, base.item_params_hat[cols]) <= 1e-8


@SETTINGS
@given(noisy_k=noisy, c=st.floats(1e-3, 1e3))
def test_memberships_invariant_under_positive_scaling(noisy_k, c):
    r, k = noisy_k
    for estimator in ESTIMATORS:
        base = estimator(r, k)
        scaled = estimator(c * r, k)
        assert np.abs(scaled.membership_hat.rows - base.membership_hat.rows).max() <= 1e-8
        assert relative_error(scaled.item_params_hat, c * base.item_params_hat) <= 1e-8


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_same_seed_same_results(seed):
    # n = 1040, J = 520: the seeded randomized SVD path runs.
    spec = simulation_spec(Binomial(m=5), n=1040, rho=3.0, rng=np.random.default_rng(seed))
    first, _ = sample_response(spec, seed)
    second, _ = sample_response(spec, seed)
    assert np.array_equal(first.values, second.values)
    a = scgoma(first, 3, seed=seed)
    b = scgoma(second, 3, seed=seed)
    assert np.array_equal(a.membership_hat.rows, b.membership_hat.rows)
    assert np.array_equal(a.item_params_hat, b.item_params_hat)


@SETTINGS
@given(noisy_k=noisy, model=models)
def test_caller_arrays_are_not_mutated(noisy_k, model):
    r, k = noisy_k
    pi = random_row_stochastic(np.random.default_rng(0), r.shape[0], k)
    pi_true, _, r0 = model
    inputs = (r, pi, r0)
    originals = [a.copy() for a in inputs]
    for estimator in ESTIMATORS:
        hamming_error(pi, estimator(r, k).membership_hat)
    select_k(r, "rmsp", k_max=k)
    fuzzy_weighted_modularity(r, pi)
    profile_memberships(pi)
    ideal_scgoma(r0, pi_true.shape[1])
    ideal_rmsp(r0, pi_true.shape[1])
    for array, original in zip(inputs, originals):
        assert np.array_equal(array, original) and array.flags.writeable


# select_k fits every k from one decomposition per sweep; separate single
# fits at each k are the reference.
@SETTINGS
@given(
    r=st.one_of(noisy.map(lambda rk: rk[0]), models.map(lambda model: model[2])),
    k_max=st.integers(1, 8),
    method=st.sampled_from(["scgoma", "rmsp"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_k_sweep_equals_per_k_fits_on_dense_path(r, k_max, method, seed):
    k_max = min(k_max, *r.shape)
    assert select_k(r, method, k_max, seed=seed) == select_by_single_fits(r, method, k_max, seed=seed)


def test_select_k_sweep_on_randomized_path():
    # Min side 520 runs the randomized path.  Every k <= 15 sketches the same
    # 25 columns for a given seed, so the sweep equals the per-k fits exactly.
    rng = np.random.default_rng(11)
    spec = simulation_spec(Binomial(m=5), n=1040, rho=3.0, rng=rng)
    r, _ = sample_response(spec, rng)
    k_hat, curve = select_k(r, "scgoma", 6, seed=4)
    assert k_hat == 3
    assert (k_hat, curve) == select_by_single_fits(r, "scgoma", 6, seed=4)


# Min side 51-80 with k_max <= 15: the smallest inputs on the randomized path.
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 4),
    side=st.integers(51, 80),
    extra=st.integers(0, 40),
    k_max=st.integers(1, 15),
    tall=st.booleans(),
)
def test_select_k_sweep_equals_per_k_fits_on_randomized_path(seed, k, side, extra, k_max, tall):
    r, _ = noisy_responses(seed, k, side + extra - 5 * k, side)
    if not tall:
        r = r.T.copy()
    assert min(r.shape) == side
    assert select_k(r, "scgoma", k_max, seed=seed) == select_by_single_fits(r, "scgoma", k_max, seed=seed)


def signed_responses(seed, kind, n, j):
    """An n x j response matrix of one sign pattern."""
    r = np.random.default_rng(seed).standard_normal((n, j))
    return {
        "mixed": r,
        "nonnegative": np.abs(r),
        "nonpositive": -np.abs(r),
        "zero": np.zeros((n, j)),
        "rank-1": np.outer(r[:, 0], r[0]),
    }[kind]


@SETTINGS
@given(
    r=st.builds(
        signed_responses,
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["mixed", "nonnegative", "nonpositive", "zero", "rank-1"]),
        n=st.integers(5, 25),
        j=st.integers(1, 10),
    ),
    ks=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    rows=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_modularity_equals_double_sum_oracle(r, ks, rows, seed):
    n = r.shape[0]
    rng = np.random.default_rng(seed)
    pis = [random_row_stochastic(rng, n, k) for k in ks]
    # Blocks of `rows` subjects: several per pass, the last one ragged unless rows divides n.
    with patch.object(modularity, "BLOCK_BYTES", 8 * n * rows):
        scores = modularity._scores(r, pis)
    for pi, q in zip(pis, scores):
        assert abs(q - modularity_double_sum(r, pi)) <= 1e-10


@SETTINGS
@given(
    r=st.builds(
        signed_responses,
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["mixed", "nonnegative", "nonpositive", "zero", "rank-1"]),
        n=st.integers(5, 25),
        j=st.integers(1, 10),
    ),
    k=st.integers(1, 4),
    e=st.integers(-400, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_modularity_is_unchanged_by_a_power_of_two_scale(r, k, e, seed):
    pi = random_row_stochastic(np.random.default_rng(seed), r.shape[0], k)
    assert fuzzy_weighted_modularity(np.ldexp(r, e), pi) == fuzzy_weighted_modularity(r, pi)


# ---------------------------------------------------------------------------
# Sampling near the float limits
# ---------------------------------------------------------------------------

# Every catalog class, and fields at or near the largest they take.
CATALOG = [cls() for name, cls in DISTRIBUTIONS.items() if name not in ("binomial", "discrete")] + [
    Binomial(m=5), Binomial(m=2**63 - 1), Normal(sigma2=1.7e308),
    GeneralDiscrete(support=(0, 1, 3)), GeneralDiscrete(support=(-1e300, 1e300), scheme="binary"),
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    dist=st.sampled_from(CATALOG),
    log_scale=st.floats(-300, 308),
    sparsity=st.floats(0, 1, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_is_finite_or_raises_wgom_error(dist, log_scale, sparsity, seed):
    """Item parameters of scale 10**log_scale, signed where the family admits
    negative means: every number sampling returns is finite, or it refuses."""
    rng = np.random.default_rng(seed)
    low = -1.0 if dist.mean_interval()[0] < 0 else 0.0
    b = rng.uniform(low, 1.0, (6, 2))
    b[0, 0] = 1.0
    pi = np.vstack([np.eye(2), random_row_stochastic(rng, 10, 2)])
    spec = ModelSpec(MembershipMatrix(pi), ItemParams(10.0**log_scale * b), dist, sparsity=sparsity)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            responses, diagnostics = sample_response(spec, rng)
        except WgomError:
            return
    assert np.isfinite(responses.values).all()
    assert np.isfinite([diagnostics.tau_hat, diagnostics.gamma_hat]).all()


# ---------------------------------------------------------------------------
# CLI fuzz
# ---------------------------------------------------------------------------

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
NUMBERS = st.sampled_from(["0", "1", "2.5", "-3", "0.25", "4", "1e-3", "7"])
# One defect per file at most, so about a third of the files are well formed.
DEFECTS = st.sampled_from([None, None, None, "nan", "inf", "-inf", "x", "", "ragged", "blank"])


@st.composite
def csv_texts(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = [[draw(NUMBERS) for _ in range(n_cols)] for _ in range(n_rows)]
    defect = draw(DEFECTS)
    i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
    if defect == "ragged":
        rows[i] = rows[i][:-1] if n_cols > 1 else rows[i] * 2
    elif defect not in (None, "blank"):
        rows[i][j] = defect
    lines = [",".join(row) for row in rows]
    if defect == "blank":
        lines.insert(i, "")
    return "\n".join(lines) + "\n"


@st.composite
def coordinate_texts(draw):
    n, j = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    entries = draw(
        st.lists(
            st.tuples(st.integers(1, max(n, 1)), st.integers(1, j), NUMBERS),
            max_size=15,
        )
    )
    lines = [f"{row} {col} {value}" for row, col, value in entries]
    header = f"{n} {j} {len(entries)}"
    defect = draw(DEFECTS)
    at = draw(st.integers(0, len(lines)))
    if defect == "ragged":
        header = f"{n} {j} {len(entries) + 1}"
    elif defect == "blank":
        lines.insert(at, "")
    elif defect is not None:
        lines.insert(at, f"{max(n, 1)} {j} {defect}")
        header = f"{n} {j} {len(entries) + 1}"
    return "\n".join([header] + lines) + "\n"


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=st.one_of(csv_texts(), coordinate_texts()), prune=st.booleans())
def test_cli_fuzz_exits_with_documented_codes(tmp_path, text, prune):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(text)
    out = tmp_path / "out"
    extra = ["--prune"] if prune else []
    commands = [
        ["estimate", str(matrix), "--k", "2", "--out", str(out)] + extra,
        ["estimate", str(matrix), "--k", "2", "--method", "rmsp", "--out", str(out)] + extra,
        ["select-k", str(matrix), "--k-max", "2"] + extra,
    ]
    for argv in commands:
        for stale in out.glob("*") if out.exists() else ():
            stale.unlink()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        written = printed.getvalue() + "".join(p.read_text() for p in out.glob("*"))
        assert not NON_FINITE.search(written)


# Config values are arbitrary JSON: numbers past float range (1e999 is written
# as Infinity, 10**400 has no float), NaN, strings, bools, null, lists and
# objects, plus values that pass the rules.  Whole numbers are small, so a
# config that passes every rule still samples a tiny model, or so huge
# (10**18, 1e18, 1e300) that no array of that size can be addressed.
VALID_NUMBERS = st.sampled_from([1, 2, 3, 0.5, 1.0])
CONFIG_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(-2, 5)
    | st.sampled_from([1e999, -1e999, float("nan"), 10**400, 10**18, 1e18, 1e300])
    | st.sampled_from(["rho", "k", "p", "random", "uniform"])
    | st.text(max_size=4)
)
CONFIG_VALUES = (
    VALID_NUMBERS
    | st.lists(VALID_NUMBERS, min_size=1, max_size=2)
    | st.recursive(
        CONFIG_SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
        max_leaves=6,
    )
)
VALID_CONFIGS = {
    "generate": {"n": 12, "j": 6, "k": 2, "distribution": {"name": "bernoulli"}, "rho": 0.5},
    "experiment": {
        "family": "rho", "values": [0.5], "n": 12, "k": 2, "replicates": 1, "k_max": 2,
        "distribution": {"name": "bernoulli"},
    },
}
# Every table key plus keys no subcommand accepts.
CONFIG_FIELDS = st.sampled_from(sorted(CONFIG_KEYS) + ["method", "threads"])


@st.composite
def cli_configs(draw):
    """A subcommand and a valid config of it with up to 3 keys set to drawn values;
    keys the subcommand accepts are drawn more often."""
    command = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    accepted = sorted(key for key, rule in CONFIG_KEYS.items() if command in rule.commands)
    changes = draw(st.dictionaries(st.sampled_from(accepted) | CONFIG_FIELDS, CONFIG_VALUES, max_size=3))
    return command, {**VALID_CONFIGS[command], **changes}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command_config=cli_configs())
def test_config_fuzz_exits_with_documented_codes(command_config):
    command, config = command_config
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            json.dump(config, fh)
        printed = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(printed):
            code = main([command, path, "--out", f"{tmp}/out"])
    assert code in (0, 2, 3, 4)
    lines = printed.getvalue().splitlines()
    assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# Python API fuzz
# ---------------------------------------------------------------------------


def bit_identical(a, b):
    """Equal types, array bytes and scalars, through dataclasses and sequences
    (NaN equals NaN)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            bit_identical(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(bit_identical, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and (a == b or (a != a and b != b))


def outcome(call):
    """What ``call()`` returns, or the type of the ``WgomError`` it raises;
    any other exception fails the test."""
    try:
        return call()
    except WgomError as exc:
        return type(exc)


# Class counts and seeds are the config fuzz's scalars, plus small valid
# integers so that the valid path runs often.
API_INTEGERS = st.integers(1, 5) | CONFIG_SCALARS
API_NAMES = st.sampled_from(["scgoma", "rmsp"]) | st.text(max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    r=st.one_of(noisy.map(lambda rk: rk[0]), models.map(lambda model: model[2])),
    k=API_INTEGERS,
    k_other=API_INTEGERS,
    seed=API_INTEGERS,
    method=API_NAMES,
    k_hats=st.lists(CONFIG_SCALARS, max_size=3),
)
def test_python_api_returns_or_raises_wgom_error(r, k, k_other, seed, method, k_hats):
    def sweep(first_fit):
        swept = ClassCountSweep(r, method, k, seed=seed)
        fit, select = (lambda: swept.fit(k_other)), (lambda: swept.select(k_other))
        if first_fit:
            return outcome(fit), outcome(select), outcome(swept.select)
        prefix, full = outcome(select), outcome(swept.select)
        return outcome(fit), prefix, full

    def simulated():
        # The fuzzed scalars as sizes n, k and j of a simulation geometry.
        spec = simulation_spec(Binomial(m=5), n=k_other, k=k, j=seed, rng=np.random.default_rng(0))
        return spec.membership.rows, spec.item_params.values

    # A small valid spec, for the seed of sample_response.
    spec = simulation_spec(Binomial(m=5), n=12, k=2, rng=np.random.default_rng(1))
    calls = [
        lambda: scgoma(r, k, seed=seed),
        lambda: rmsp(r, k),
        lambda: ideal_scgoma(r, k),
        lambda: ideal_rmsp(r, k),
        lambda: sweep(first_fit=True),
        lambda: select_k(r, method, k, seed=seed),
        lambda: accuracy_rate(k_hats, k),
        lambda: random_item_params(k_other, k, 1.0, np.random.default_rng(2)).values,
        lambda: block_memberships(k_other, k, seed).rows,
        simulated,
        lambda: sample_response(spec, seed)[0].values,
    ]
    for call in calls:
        assert bit_identical(outcome(call), outcome(call))
    # A sweep's fits and curves do not depend on the order of the calls.
    assert bit_identical(outcome(lambda: sweep(first_fit=True)), outcome(lambda: sweep(first_fit=False)))
