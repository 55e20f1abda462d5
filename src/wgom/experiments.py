"""Simulation geometry builders and the replicate experiment harness.

Default geometry (used when parameters are omitted): three latent classes,
J = N/2 items, N/4 pure subjects per class, and every mixed subject at the
uniform membership (1/3, 1/3, 1/3).  The class-count sweep geometry instead
scales with k: N = 100k, J = 50k, 80 pure subjects per class.

Replicate r of an experiment seeded with s draws from the generator
``default_rng(SeedSequence([s, r]))``; streams are independent across
replicates, reproducible regardless of scheduling, and shared across grid
points so parameter comparisons are paired.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import estimation
from .errors import ConfigError, InfeasibleSchemeError, WgomError
from .metrics import accuracy_rate, hamming_error, relative_error
from .modularity import select_k
from .sampling import DISTRIBUTIONS, GeneralDiscrete, sample_response
from .types import ItemParams, MembershipMatrix, ModelSpec

EXPERIMENT_FAMILIES = ("rho", "n", "k", "p")


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent per-replicate stream derived from one experiment seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replicate)]))


def block_memberships(n: int, k: int, n_pure_per_class: int, mixed="uniform", rng=None) -> MembershipMatrix:
    """Pure-block membership matrix: class c owns rows [c*n0, (c+1)*n0).

    Remaining rows are mixed: either one fixed row (``"uniform"`` for
    (1/k, ..., 1/k), or an explicit length-k sequence), or ``"random"`` rows
    whose first k-1 weights are drawn independently from U(0, 1/k) with the
    last taking the remainder.
    """
    if k < 1:
        raise ConfigError(f"the class count k must be at least 1, got {k}")
    if n_pure_per_class * k > n:
        raise ConfigError(
            f"{k} classes x {n_pure_per_class} pure subjects exceed n={n}"
        )
    rows = np.zeros((n, k))
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


def unallocatable(n: int, j: int) -> ConfigError:
    """The config error for a model whose N x J arrays cannot be allocated."""
    return ConfigError(f"cannot allocate the {n} x {j} (N x J) model the config declares")


def _mean_range_pair(mean_range) -> Optional[tuple]:
    """``mean_range`` as a float pair (lo, hi) with lo < hi, or None; else ``ConfigError``."""
    if mean_range is None:
        return None
    try:
        lo, hi = (float(bound) for bound in mean_range)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mean_range must be a pair of numbers, got {mean_range!r}") from exc
    if not lo < hi:
        raise ConfigError(f"mean_range must satisfy lo < hi, got ({lo}, {hi})")
    return lo, hi


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
    mean_range = _mean_range_pair(mean_range)
    if mean_range is not None:
        lo, hi = mean_range
        values = lo + (hi - lo) * rng.random((n_items, k))
        return ItemParams(values)
    if not 0 < rho < np.inf:
        raise ConfigError(f"rho must be positive and finite, got {rho}")
    b = rng.uniform(-1.0, 1.0, (n_items, k)) if signed else rng.random((n_items, k))
    return ItemParams(rho * b)


def default_item_params(distribution, n_items: int, k: int, rho: float, rng, mean_range=None) -> ItemParams:
    """Item parameters under the default policy: finite-support distributions
    without a ``mean_range`` fill their admissible mean interval, and
    distributions that admit negative means draw from U(-1, 1)."""
    if mean_range is None and isinstance(distribution, GeneralDiscrete):
        mean_range = distribution.mean_interval()[:2]
    signed = mean_range is None and distribution.mean_interval()[0] < 0
    return random_item_params(n_items, k, rho, rng, signed=signed, mean_range=mean_range)


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
    """Model spec with the default simulation geometry and item-parameter
    policy (see ``default_item_params``)."""
    j = n // 2 if j is None else j
    n_pure = n // 4 if n_pure is None else n_pure
    membership = block_memberships(n, k, n_pure, mixed=mixed, rng=rng)
    item_params = default_item_params(
        distribution, j, k, rho if rho is not None else 1.0, rng, mean_range
    )
    return ModelSpec(
        membership=membership,
        item_params=item_params,
        distribution=distribution,
        sparsity=sparsity,
    )


def class_count_sweep_spec(distribution, k: int, rho: float, rng, *, sparsity: float = 1.0) -> ModelSpec:
    """Geometry for varying the class count: N = 100k, J = 50k, 80 pure each."""
    return simulation_spec(
        distribution,
        n=100 * k,
        j=50 * k,
        k=k,
        n_pure=80,
        rho=rho,
        rng=rng,
        sparsity=sparsity,
    )


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
    except (TypeError, ValueError, OverflowError) as exc:
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
    name = str(family)
    if name.startswith("vary-"):
        name = name[len("vary-") :]
    if name not in EXPERIMENT_FAMILIES:
        raise ConfigError(
            f"unknown experiment family {family!r}; pick one of {EXPERIMENT_FAMILIES}"
        )
    return name


def _point_params(family: str, value, base: dict) -> dict:
    params = dict(base)
    key, kind = {
        "rho": ("rho", float), "n": ("n", int), "k": ("k", int), "p": ("sparsity", float)
    }[family]
    try:
        params[key] = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"experiment value {value!r} for family {family!r} must be {kind.__name__}"
        ) from exc
    return params


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
    rate.  A replicate decomposes R once: one ``estimation.sweep_fitter`` up
    to max(k, k_max') with k_max' = min(k_max, N, J) gives the true-k estimate
    and every fit ``select_k`` scores.  ``mean_runtime_seconds`` times that
    decomposition plus the true-k fit: one SVD and one fit for ``"scgoma"``,
    as in ``scgoma(R, k)``; for ``"rmsp"`` a vertex search to max(k, k_max')
    picks, longer than the k picks of ``rmsp(R, k)``.  The estimate equals
    ``scgoma(R, k)`` / ``rmsp(R, k)`` exactly, except on the randomized SVD
    path (min(N, J) > 512), where ``"scgoma"`` fits k from the sweep's
    (max(k, k_max') + 10)-column sketch instead of its own k + 10 columns.

    ``seed`` >= 0, ``replicates`` >= 1, ``k_max`` >= 1 and each grid point's
    n >= 1 and k >= 1 are checked (``ConfigError``) before any replicate runs.
    A config fault found inside a replicate (a ``ConfigError`` such as a
    sparsity outside (0, 1], a negative rho, too many pure subjects for n or
    a model too large to allocate, or the ``InfeasibleSchemeError`` of a
    discrete scheme that admits no mean) is raised and ends the sweep.  Only
    data-dependent failures (``DistributionRangeError``, ``DimensionError``,
    ``RankDeficiencyError`` or any other ``WgomError``) abort just that grid
    point and record an error row (metrics NaN); remaining grid points still
    run.
    """
    family = normalize_family(family)
    if method not in ("scgoma", "rmsp"):
        raise ConfigError(f"unknown method {method!r}")
    mean_range = _mean_range_pair(mean_range)

    base = {"n": int(n), "k": int(k), "rho": float(rho), "sparsity": float(sparsity)}
    points = [(value, _point_params(family, value, base)) for value in values]
    checks = [("seed", seed, 0), ("replicates", replicates, 1), ("k_max", k_max, 1)]
    checks += [(key, params[key], 1) for _, params in points for key in ("n", "k")]
    for key, number, least in checks:
        if number < least:
            raise ConfigError(f"{key} must be at least {least}, got {number}")
    rows = []
    for value, params in points:

        def one_replicate(rep: int, params=params):
            rng = replicate_rng(seed, rep)
            if family == "k":
                spec = class_count_sweep_spec(
                    distribution, params["k"], params["rho"], rng, sparsity=params["sparsity"]
                )
            else:
                spec = simulation_spec(
                    distribution,
                    n=params["n"],
                    k=params["k"],
                    rho=params["rho"],
                    sparsity=params["sparsity"],
                    mean_range=mean_range,
                    rng=rng,
                )
            responses, _ = sample_response(spec, rng)
            k, k_sweep = params["k"], min(k_max, min(responses.values.shape))
            started = time.perf_counter()
            fit = estimation.sweep_fitter(responses, method, max(k_sweep, k))
            result = fit(k)
            elapsed = time.perf_counter() - started
            ham = hamming_error(result.membership_hat, spec.membership)
            rel = relative_error(result.item_params_hat, spec.item_params.values)
            k_hat, _ = select_k(responses, lambda _, kk: result if kk == k else fit(kk), k_max=k_sweep)
            return ham, rel, elapsed, k_hat

        try:
            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    outcomes = list(pool.map(one_replicate, range(replicates)))
            else:
                outcomes = [one_replicate(rep) for rep in range(replicates)]
        except (ConfigError, InfeasibleSchemeError):
            raise
        except MemoryError as exc:
            n = 100 * params["k"] if family == "k" else params["n"]
            raise unallocatable(n, n // 2) from exc
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
