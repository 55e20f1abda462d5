"""The distribution catalog: each class's admissible interval, range text and
config keys."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgom import (
    Bernoulli,
    Binomial,
    ConfigError,
    Exponential,
    GeneralDiscrete,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    Normal,
    Poisson,
    SignedBinary,
    Uniform,
    WgomError,
    construct_discrete,
    distribution_from_config,
)
from wgom.sampling import DISTRIBUTIONS, RANGE_TOL, discrete_mean_interval

INF = np.inf
# numpy's largest Poisson rate: a larger one raises "lam value too large".
POISSON_MAX = 9.223372006484771e18

# (instance, lo, hi, lower end open, range text as printed before the catalog
# moved into wgom.sampling)
CATALOG = [
    (Bernoulli(), 0.0, 1.0, False, "[0, 1]"),
    (Binomial(m=5), 0.0, 5.0, False, "[0, 5]"),
    (Uniform(), 0.0, INF, False, "[0, inf)"),
    (Normal(sigma2=2.0), -INF, INF, False, "(-inf, inf)"),
    (SignedBinary(), -1.0, 1.0, False, "[-1, 1]"),
    (Poisson(), 0.0, POISSON_MAX, True, "(0, 9.22337e+18]"),
    (Exponential(), 0.0, INF, True, "(0, inf)"),
    (GeneralDiscrete(support=(0, 1, 3)), 0.0, 2.0, False, "[0, 2]"),
    (GeneralDiscrete(support=(0, 1, 2), scheme="mean-locked"), 0.5, 2 / 3, False, "[0.5, 0.666667]"),
    (GeneralDiscrete(support=(-1, 1), scheme="binary"), -1.0, 1.0, False, "[-1, 1]"),
    (GeneralDiscrete(support=(0.1, 0.2, 0.7), scheme=2), 0.15, 0.7, False, "[0.15, 0.7]"),
]
IDS = [f"{dist!r}" for dist, *_ in CATALOG]


def test_catalog_covers_every_class():
    assert {type(dist) for dist, *_ in CATALOG} == set(DISTRIBUTIONS.values())
    assert len(DISTRIBUTIONS) == 8


@pytest.mark.parametrize("dist, lo, hi, lower_open, text", CATALOG, ids=IDS)
def test_admissible_interval_ends(dist, lo, hi, lower_open, text):
    got_lo, got_hi, got_open = dist.mean_interval()
    assert (got_lo, got_hi) == pytest.approx((lo, hi)) and got_open == lower_open
    assert dist.range_description() == text

    inside, outside = [], []
    if lo == -INF:
        inside.append(-1e300)
    elif lower_open:
        inside.append(np.nextafter(lo, INF))
        outside.append(lo)
    else:
        inside += [lo, lo - RANGE_TOL / 2]
        outside.append(lo - 2 * RANGE_TOL)
    if hi == INF:
        inside.append(1e300)
    else:
        inside += [hi, hi + RANGE_TOL / 2]
        outside.append(np.nextafter(hi + RANGE_TOL, INF))  # past the slack, also where hi + RANGE_TOL == hi
    assert dist.admissible(np.array(inside)).all()
    assert not dist.admissible(np.array(outside)).any()


def test_poisson_upper_end_is_numpys_largest_rate():
    rng = np.random.default_rng(0)
    assert Poisson().draw(np.array([POISSON_MAX]), rng) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        Poisson().draw(np.array([np.nextafter(POISSON_MAX, INF)]), rng)


@pytest.mark.parametrize("dist", [dist for dist, *_ in CATALOG], ids=IDS)
def test_config_keys_are_the_fields(dist):
    config = json.loads(json.dumps({"name": dist.name, **dataclasses.asdict(dist)}))
    assert distribution_from_config(config) == dist


def test_range_text_prints_trial_counts_in_full():
    assert Binomial(m=1234567).range_description() == "[0, 1234567]"


def test_normal_variance_defaults_to_one():
    assert distribution_from_config({"name": "normal"}) == Normal(sigma2=1.0) == Normal()


@pytest.mark.parametrize(
    "config",
    [
        {"name": "normal", "sigma": 4},  # a misspelt key is not ignored
        {"name": "bernoulli", "m": 3},
        {"name": 5},
        {"name": None},
        {"name": ["normal"]},
        {"name": {"normal": 1}},
        {"name": "normal", "sigma2": float("inf")},
        {"name": "normal", "sigma2": 10**400},
        {"name": "binomial", "m": float("inf")},
        {"name": "binomial", "m": 10**400},
        {"name": "discrete", "support": [0, float("inf")]},
        {"name": "discrete", "support": [0, float("nan"), 2]},
        {"name": "discrete", "support": [0, 1, 2], "scheme": float("inf")},
        {"name": "discrete", "support": [0, 1, 3], "scheme": 1.5},
        # Bools and numeric strings are not numbers.
        {"name": "binomial", "m": True},
        {"name": "normal", "sigma2": True},
        {"name": "discrete", "support": [0, 1, 3], "scheme": True},
        {"name": "discrete", "support": ["0", "1", "3"]},
        {"name": "discrete", "support": [0, "1", 3]},
    ],
)
def test_bad_distribution_configs_are_config_errors(config):
    with pytest.raises(ConfigError):
        distribution_from_config(config)


# Arbitrary JSON values; numbers past float range (JSON 1e999 parses to inf,
# 10**400 has no float) are drawn often, since they reach the int() and
# float() conversions.
BEYOND_FLOAT = st.sampled_from([1e999, -1e999, 10**400])
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5) | BEYOND_FLOAT
)
JSON = BEYOND_FLOAT | SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def configs(draw):
    name = draw(st.sampled_from(sorted(DISTRIBUTIONS)))
    keys = [field.name for field in dataclasses.fields(DISTRIBUTIONS[name])] + ["sigma"]
    return {"name": name, **draw(st.dictionaries(st.sampled_from(keys), JSON, max_size=3))}


@settings(max_examples=500, deadline=None)
@given(config=configs())
def test_distribution_from_config_returns_a_member_or_config_error(config):
    try:
        dist = distribution_from_config(config)
    except ConfigError:
        return
    assert type(dist) is DISTRIBUTIONS[config["name"]]


# Each model parameter's entry point and how many arguments it takes; every
# one of them reads its numbers by the same rule.
PARAMETER_CALLS = {
    "Binomial": (Binomial, 1),
    "Normal": (Normal, 1),
    "GeneralDiscrete": (GeneralDiscrete, 2),
    "construct_discrete": (construct_discrete, 3),
    "discrete_mean_interval": (discrete_mean_interval, 2),
    "ModelSpec": (
        lambda sparsity: ModelSpec(MembershipMatrix(np.eye(2)), ItemParams(np.eye(2)), Bernoulli(), sparsity),
        1,
    ),
}
# JSON values, plus the scheme names and short numeric supports that reach
# the interval algebra.
ARGUMENTS = (
    JSON
    | st.sampled_from(["binary", "mean-locked"])
    | st.lists(st.integers(-3, 3) | st.floats(), min_size=2, max_size=4)
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(PARAMETER_CALLS)), args=st.lists(ARGUMENTS, min_size=3, max_size=3))
def test_model_parameters_return_a_value_or_a_wgom_error(name, args):
    call, arity = PARAMETER_CALLS[name]
    try:
        call(*args[:arity])
    except WgomError:
        pass


# Support points and means near the float limit, where the construction's
# sums (S, Q a_q, S - Q a_q) and the mean-locked coefficients overflow unless
# GeneralDiscrete refuses the support.  Means are mostly drawn between the
# support's ends, so that many reach the probability algebra.
HUGE = st.floats(min_value=1e306, max_value=np.finfo(float).max)
NEAR_LIMIT = HUGE | HUGE.map(lambda x: -x) | st.sampled_from([0.0, 1.0, -1.0, 5e-324, 1e-300])


@settings(max_examples=600, deadline=None, derandomize=True)
# Q a_1 overflows in the first; in the second Q max|a| is finite and S - Q a_0 overflows.
@example(support=[0.0, 8.98846567431158e307], scheme=1, weight=0.0)
@example(support=[-5.9e307, 5.8e307, 5.9e307], scheme=0, weight=0.5)
@given(
    support=st.lists(NEAR_LIMIT, min_size=2, max_size=4, unique=True).map(sorted),
    scheme=st.integers(0, 3) | st.sampled_from(["binary", "mean-locked"]),
    weight=st.floats(0.0, 1.0) | NEAR_LIMIT,
)
def test_discrete_supports_near_the_float_limit_give_a_vector_or_a_wgom_error(support, scheme, weight):
    mean = (1.0 - weight) * support[0] + weight * support[-1] if 0.0 <= weight <= 1.0 else weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            discrete_mean_interval(support, scheme)
            probs = construct_discrete(support, scheme, mean)
        except WgomError:
            return
    assert ((probs >= -1e-12) & (probs <= 1.0 + 1e-12)).all()
    assert abs(probs.sum() - 1.0) <= 1e-12
