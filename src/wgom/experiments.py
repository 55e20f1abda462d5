"""Simulation geometry builders and the replicate experiment harness.

Default geometry (used when parameters are omitted): three latent classes,
J = N // 2 items, min(N // 4, N // K) pure subjects per class (N // 4 for
K <= 4), and every mixed subject at the uniform membership (1/K, ..., 1/K).
The class-count sweep geometry instead scales with k: N = 100k, J = 50k,
80 pure subjects per class.

Replicate r of an experiment seeded with s draws from the generator
``default_rng(SeedSequence([s, r]))``; streams are independent across
replicates, reproducible, and shared across grid points so parameter
comparisons are paired.  Replicates run one after another; the parallel
work of a replicate is BLAS's.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InfeasibleSchemeError, WgomError
from .estimation import METHODS
from .metrics import accuracy_rate, hamming_error, relative_error
from .modularity import ClassCountSweep
from .sampling import DISTRIBUTIONS, GeneralDiscrete, sample_response
from .types import ItemParams, MembershipMatrix, ModelSpec, _number

# Every top-level key of a ``generate`` or ``experiment`` config: the subcommands that accept and require it,
# and its kind (None: checked where it is used): a whole number (int) >= least, a finite real (float) in
# (least, most], a finite pair (tuple) lo < hi, a non-empty str or list.
ConfigKey = namedtuple("ConfigKey", "commands required kind least most", defaults=((), None, 0, math.inf))
GENERATE, EXPERIMENT, BOTH = ("generate",), ("experiment",), ("generate", "experiment")
CONFIG_KEYS = {
    "distribution": ConfigKey(BOTH, BOTH),
    "n": ConfigKey(BOTH, GENERATE, int, 1),
    "j": ConfigKey(GENERATE, GENERATE, int, 1),
    "k": ConfigKey(BOTH, GENERATE, int, 1),
    "seed": ConfigKey(BOTH, (), int, 0),
    "n_pure_per_class": ConfigKey(GENERATE, (), int, 0),
    "replicates": ConfigKey(EXPERIMENT, (), int, 1),
    "k_max": ConfigKey(EXPERIMENT, (), int, 1),
    "rho": ConfigKey(BOTH, (), float),
    "sparsity": ConfigKey(BOTH, (), float, 0, 1),
    "mean_range": ConfigKey(BOTH, (), tuple),
    "mixed_membership": ConfigKey(GENERATE),
    "membership_file": ConfigKey(GENERATE, (), str),
    "item_params_file": ConfigKey(GENERATE, (), str),
    "family": ConfigKey(EXPERIMENT, EXPERIMENT),
    "values": ConfigKey(EXPERIMENT, EXPERIMENT, list),
    "methods": ConfigKey(EXPERIMENT, (), list),
}
# The config key each experiment family sweeps.
FAMILY_KEYS = {"rho": "rho", "n": "n", "k": "k", "p": "sparsity"}


def config_value(key: str, value):
    """``value`` as the kind ``CONFIG_KEYS`` gives ``key``, else ``ConfigError`` naming
    key, rule and value; a number follows the number rule, ``types._number``."""
    _, _, kind, least, most = CONFIG_KEYS[key]
    if kind in (int, float):
        return _number(key, value, whole=kind is int, least=least, most=most)
    if kind in (str, list):
        if isinstance(value, kind) and value:
            return value
        rule = f"a non-empty {kind.__name__}"
    else:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            lo, hi = (_number(f"{key} bound", bound) for bound in value)
            if lo < hi:
                return lo, hi
        rule = "a pair of finite numbers lo < hi"
    raise ConfigError(f"{key} must be {rule}, got {value!r}")


def parse_config(config, command: str) -> dict:
    """A copy of the ``command`` config with each value of a key of known kind
    passed through ``config_value``; ``ConfigError`` if ``config`` is not a JSON
    object, lacks a key ``command`` requires or holds one it does not accept."""
    if not isinstance(config, dict):
        raise ConfigError(f"the {command} config must be a JSON object, got {type(config).__name__}")
    accepted = [key for key, rule in CONFIG_KEYS.items() if command in rule.commands]
    missing = [key for key in accepted if command in CONFIG_KEYS[key].required and key not in config]
    unknown = [key for key in config if key not in accepted]
    if missing or unknown:
        fault = f"is missing {missing[0]!r}" if missing else f"has unknown key {unknown[0]!r}"
        raise ConfigError(f"{command} config {fault}; it takes {accepted}")
    return {key: config_value(key, value) if CONFIG_KEYS[key].kind else value for key, value in config.items()}


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent per-replicate stream derived from one experiment seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replicate)]))


def _size(count: int) -> str:
    """A size for an error message: in full up to 10**12, else in %.3g form."""
    return str(count) if count <= 10**12 else f"{count:.3g}"


def _allocate(make, rows: int, cols: int, name: str) -> np.ndarray:
    """``make((rows, cols))``, or ``ConfigError`` where numpy cannot allocate
    that many floats."""
    try:
        return make((rows, cols))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate the {_size(rows)} x {_size(cols)} {name}") from exc


def block_memberships(n: int, k: int, n_pure_per_class: int, mixed="uniform", rng=None) -> MembershipMatrix:
    """Pure-block membership matrix: class c owns rows [c*n0, (c+1)*n0).

    Remaining rows are mixed: either one fixed row (``"uniform"`` for
    (1/k, ..., 1/k), or an explicit length-k sequence), or ``"random"`` rows
    whose first k-1 weights are drawn independently from U(0, 1/k) with the
    last taking the remainder.
    """
    n, k = config_value("n", n), config_value("k", k)
    n_pure_per_class = config_value("n_pure_per_class", n_pure_per_class)
    if n_pure_per_class * k > n:
        raise ConfigError(
            f"{k} classes x {n_pure_per_class} pure subjects exceed n={n}"
        )
    rows = _allocate(np.zeros, n, k, "membership matrix")
    for cls in range(k):
        rows[cls * n_pure_per_class : (cls + 1) * n_pure_per_class, cls] = 1.0
    n_mixed = n - k * n_pure_per_class
    if n_mixed:
        if isinstance(mixed, str) and mixed == "uniform":
            rows[k * n_pure_per_class :] = 1.0 / k
        elif isinstance(mixed, str) and mixed == "random":
            if rng is None:
                raise ConfigError('mixed="random" needs a random generator')
            head = rng.uniform(0.0, 1.0 / k, size=(n_mixed, k - 1))
            rows[k * n_pure_per_class :, :-1] = head
            rows[k * n_pure_per_class :, -1] = 1.0 - head.sum(axis=1)
        else:
            try:
                row = np.asarray(mixed, dtype=float)
                valid = row.shape == (k,) and abs(row.sum() - 1.0) <= 1e-9 and (row >= 0).all()
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ConfigError(f"mixed membership row must be a length-{k} probability vector")
            rows[k * n_pure_per_class :] = row
    return MembershipMatrix(rows)


def unallocatable(n: int, j: int, k: int) -> ConfigError:
    """The config error for a model that cannot be allocated, naming its
    largest float array: N x J, N x K or J x K (the first on a tie)."""
    name, rows, cols = max(("N x J", n, j), ("N x K", n, k), ("J x K", j, k), key=lambda a: a[1] * a[2])
    return ConfigError(f"cannot allocate the {_size(rows)} x {_size(cols)} ({name}) array of the model the config declares")


def check_addressable(n: int, j: int, k: int) -> None:
    """``unallocatable`` unless numpy can address the model's float arrays of
    N x J, N x K and J x K entries, whatever memory the machine has."""
    if max(n * j, n * k, j * k) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise unallocatable(n, j, k)


def random_item_params(
    n_items: int,
    k: int,
    rho: float,
    rng: np.random.Generator,
    *,
    signed: bool = False,
    mean_range: Optional[tuple] = None,
) -> ItemParams:
    """Item parameters rho * B with B drawn uniformly per entry.

    ``signed`` draws B from U(-1, 1) instead of U(0, 1).  Alternatively an
    explicit ``mean_range`` (lo, hi) places entries uniformly inside it
    (useful for finite-support distributions whose admissible interval does
    not start at zero); ``rho`` is ignored in that mode.
    """
    n_items, k = config_value("j", n_items), config_value("k", k)
    if mean_range is not None:
        lo, hi = config_value("mean_range", mean_range)
        return ItemParams(lo + (hi - lo) * _allocate(rng.random, n_items, k, "item parameter matrix"))
    rho = config_value("rho", rho)
    draw = (lambda shape: rng.uniform(-1.0, 1.0, shape)) if signed else rng.random
    return ItemParams(rho * _allocate(draw, n_items, k, "item parameter matrix"))


def _default_j(n: int) -> int:
    """The default item count J = n // 2, or ``ConfigError`` naming ``n`` if that is 0."""
    if n < 2:
        raise ConfigError(f"n must be at least 2 for the default j = n // 2 items, got n={n}")
    return n // 2


def simulation_spec(
    distribution,
    *,
    n: int,
    rho: Optional[float] = None,
    rng: np.random.Generator,
    k: int = 3,
    j: Optional[int] = None,
    n_pure: Optional[int] = None,
    mixed="uniform",
    sparsity: float = 1.0,
    mean_range: Optional[tuple] = None,
) -> ModelSpec:
    """Model spec with the default simulation geometry (see the module
    docstring) and item-parameter policy: entries uniform inside
    ``mean_range``, or else inside a ``GeneralDiscrete``'s admissible mean
    interval, or else rho * U(-1, 1) where the distribution admits
    negative means and rho * U(0, 1) otherwise.  The membership is drawn
    from ``rng`` before the item parameters."""
    n, k = config_value("n", n), config_value("k", k)
    j = _default_j(n) if j is None else j
    n_pure = min(n // 4, n // k) if n_pure is None else n_pure
    membership = block_memberships(n, k, n_pure, mixed=mixed, rng=rng)
    if mean_range is None and isinstance(distribution, GeneralDiscrete):
        mean_range = distribution.mean_interval()[:2]
    signed = mean_range is None and distribution.mean_interval()[0] < 0
    item_params = random_item_params(j, k, 1.0 if rho is None else rho, rng, signed=signed, mean_range=mean_range)
    return ModelSpec(membership=membership, item_params=item_params, distribution=distribution, sparsity=sparsity)


def _class_count_geometry(k: int) -> dict:
    """Geometry for varying the class count: N = 100k, J = 50k, 80 pure each."""
    return {"n": 100 * k, "j": 50 * k, "k": k, "n_pure": 80}


def distribution_from_config(config: dict):
    """Build a distribution from its JSON configuration: ``name`` picks the
    catalog class and every other key is one of its fields."""
    if not isinstance(config, dict) or "name" not in config:
        raise ConfigError(f"distribution config needs a 'name' key, got {config!r}")
    fields = dict(config)
    name = fields.pop("name")
    if not isinstance(name, str) or name not in DISTRIBUTIONS:
        raise ConfigError(f"unknown distribution name {name!r}; pick one of {tuple(DISTRIBUTIONS)}")
    try:
        return DISTRIBUTIONS[name](**fields)
    except TypeError as exc:  # an unknown or missing key; the constructor checks the values
        raise ConfigError(f"bad distribution config {config!r}: {exc}") from exc


@dataclass(frozen=True)
class GridRow:
    """One grid point of an experiment: averaged metrics over replicates."""

    family: str
    value: float
    mean_hamming_error: float
    mean_relative_error: float
    mean_runtime_seconds: float
    accuracy_rate: float
    error: Optional[str] = None


def normalize_family(family: str) -> str:
    """Accept both "rho" and "vary-rho" spellings of a sweep family."""
    name = str(family).removeprefix("vary-")
    if name not in FAMILY_KEYS:
        raise ConfigError(f"unknown experiment family {family!r}; pick one of {tuple(FAMILY_KEYS)}")
    return name


def run_experiment(
    family: str,
    values,
    distribution,
    *,
    method: str = "scgoma",
    replicates: int = 20,
    seed: int = 0,
    n: int = 400,
    k: int = 3,
    rho: float = 1.0,
    sparsity: float = 1.0,
    k_max: int = 15,
    threads: int = 1,
    mean_range: Optional[tuple] = None,
) -> list:
    """Sweep one parameter family and average metrics over replicates.

    Every grid point runs ``replicates`` independent draws: sample a response
    matrix R, estimate at the true class count k, score the permutation-
    matched errors, and select the class count by modularity for the accuracy
    rate.  A replicate decomposes R once: one ``ClassCountSweep`` up to
    max(k, k_max') with k_max' = min(k_max, N, J) gives the true-k estimate,
    the one fit it finishes, and the memberships of every k that its
    ``select(k_max')`` scores.  ``mean_runtime_seconds``
    times that decomposition plus the true-k fit: for ``"scgoma"`` one SVD,
    a lockstep search over max(k, k_max') prefixes where ``scgoma(R, k)``
    searches k, and one fit; for ``"rmsp"`` a vertex search to
    max(k, k_max') picks, longer than the k picks of ``rmsp(R, k)``.  The
    estimate equals ``scgoma(R, k)`` / ``rmsp(R, k)`` exactly whenever
    max(k, k_max') <= 15.  Above that ``"scgoma"`` fits k from the sweep's
    decomposition, which differs from its own where ``scgoma(R, k)`` takes
    the randomized SVD path (see ``ClassCountSweep``).

    Every numeric argument and grid value passes ``config_value`` (``ConfigError``),
    and every grid point ``check_addressable``, before any replicate runs; the
    ``"k"`` family samples at ``_class_count_geometry``.
    A config fault found inside a replicate (a ``ConfigError`` such as a model
    too large to allocate or draws that overflow, or the
    ``InfeasibleSchemeError`` of a discrete scheme that admits no mean) is
    raised and ends the sweep.  Only data-dependent failures
    (``DistributionRangeError``, ``DimensionError``, ``RankDeficiencyError``
    or any other ``WgomError``) abort just that grid point and record an
    error row (metrics NaN); remaining grid points still run.

    Replicates run one after another.  ``threads`` accepts only 1
    (``ConfigError`` otherwise): it is kept for callers that still pass
    ``threads=1`` and goes with them.
    """
    family = normalize_family(family)
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    mean_range = None if mean_range is None else config_value("mean_range", mean_range)

    seed, replicates, k_max = (config_value(*item) for item in (("seed", seed), ("replicates", replicates), ("k_max", k_max)))
    _number("threads", threads, whole=True, least=1, most=1)
    base = {key: config_value(key, number) for key, number in (("n", n), ("k", k), ("rho", rho), ("sparsity", sparsity))}
    key = FAMILY_KEYS[family]
    points = [(value, {**base, key: config_value(key, value)}) for value in values]
    if family == "k":
        points = [(value, {**params, **_class_count_geometry(params["k"])}) for value, params in points]
    for _, params in points:
        params.setdefault("j", _default_j(params["n"]))
        check_addressable(params["n"], params["j"], params["k"])
    rows = []
    for value, params in points:
        outcomes = []
        try:
            for rep in range(replicates):
                rng = replicate_rng(seed, rep)
                spec = simulation_spec(distribution, **params, mean_range=mean_range, rng=rng)
                responses, _ = sample_response(spec, rng)
                k_sweep = min(k_max, min(responses.values.shape))
                started = time.perf_counter()
                sweep = ClassCountSweep(responses, method, max(k_sweep, params["k"]))
                result = sweep.fit(params["k"])
                elapsed = time.perf_counter() - started
                ham = hamming_error(result.membership_hat, spec.membership)
                rel = relative_error(result.item_params_hat, spec.item_params.values)
                outcomes.append((ham, rel, elapsed, sweep.select(k_sweep)[0]))
        except (ConfigError, InfeasibleSchemeError):
            raise
        except MemoryError as exc:
            raise unallocatable(params["n"], params["j"], params["k"]) from exc
        except WgomError as exc:
            rows.append(
                GridRow(
                    family=family,
                    value=float(value),
                    mean_hamming_error=float("nan"),
                    mean_relative_error=float("nan"),
                    mean_runtime_seconds=float("nan"),
                    accuracy_rate=float("nan"),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue

        hams, rels, times, k_hats = zip(*outcomes)
        rows.append(
            GridRow(
                family=family,
                value=float(value),
                mean_hamming_error=float(np.mean(hams)),
                mean_relative_error=float(np.mean(rels)),
                mean_runtime_seconds=float(np.mean(times)),
                accuracy_rate=accuracy_rate(k_hats, params["k"]),
            )
        )
    return rows
