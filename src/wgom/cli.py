"""Command-line front end.

Subcommands
-----------
generate    sample a response matrix plus ground-truth files from a config
estimate    estimate memberships and item parameters from a matrix file
select-k    choose the number of latent classes by modularity maximization
experiment  sweep one parameter family and emit averaged-metric CSVs

Exit codes: 0 success, 2 configuration error, 3 data/format error,
4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import estimation, matrix_io
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateRankError,
    DimensionError,
    DistributionRangeError,
    InfeasibleSchemeError,
    RankDeficiencyError,
    WgomError,
)
from .experiments import (
    block_memberships,
    check_addressable,
    config_value,
    default_item_params,
    distribution_from_config,
    normalize_family,
    parse_config,
    run_experiment,
    unallocatable,
)
from .metrics import data_sparsity, profile_memberships
from .modularity import select_k
from .sampling import expected_responses, sample_response
from .types import (
    PURE_TOL_LOADED,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    validate_model_spec,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_CONFIG_ERRORS = (ConfigError, DistributionRangeError, InfeasibleSchemeError)
_DATA_ERRORS = (DataFormatError, DimensionError, OSError)
_NUMERICAL_ERRORS = (DegenerateRankError, RankDeficiencyError)
# The metric columns of an experiment's result file, after the family's value.
_METRICS = ("mean_hamming_error", "mean_relative_error", "mean_runtime_seconds", "accuracy_rate")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pruned_matrix(args) -> np.ndarray:
    values = matrix_io.read_matrix(args.matrix)
    if getattr(args, "prune", False):
        values, kept_rows, kept_cols = matrix_io.prune_empty(values)
        print(
            f"pruned to {len(kept_rows)} subjects x {len(kept_cols)} items "
            f"(single pass over empty rows/columns)"
        )
    return values


def _spec_from_config(config: dict) -> tuple[ModelSpec, int]:
    config = parse_config(config, "generate")
    distribution = distribution_from_config(config["distribution"])
    seed, n, j, k = config.get("seed", 0), config["n"], config["j"], config["k"]
    check_addressable(n, j, k)
    rng = np.random.default_rng(seed)
    mixed = config.get("mixed_membership", "uniform")

    if "membership_file" in config:
        membership = MembershipMatrix(matrix_io.read_matrix(config["membership_file"]))
        if membership.n_subjects != n or membership.n_classes != k:
            raise ConfigError(
                f"membership file is {membership.n_subjects}x{membership.n_classes}, "
                f"config says {n}x{k}"
            )
    else:
        membership = block_memberships(n, k, config.get("n_pure_per_class", n // 4), mixed=mixed, rng=rng)

    if "item_params_file" in config:
        item_params = ItemParams(matrix_io.read_matrix(config["item_params_file"]))
        if item_params.n_items != j or item_params.n_classes != k:
            raise ConfigError(
                f"item parameter file is {item_params.n_items}x{item_params.n_classes}, "
                f"config says {j}x{k}"
            )
    else:
        item_params = default_item_params(
            distribution,
            j,
            k,
            config.get("rho", 1.0),
            rng,
            config.get("mean_range"),
        )

    spec = ModelSpec(
        membership=membership,
        item_params=item_params,
        distribution=distribution,
        sparsity=config.get("sparsity", 1.0),
    )
    return spec, seed


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        spec, seed = _spec_from_config(config)
        violations = validate_model_spec(spec, pure_tol=PURE_TOL_LOADED)
        if violations:
            raise ConfigError("invalid model spec: " + "; ".join(violations))
        responses, diagnostics = sample_response(spec, seed)
    except MemoryError as exc:
        raise unallocatable(int(config["n"]), int(config["j"])) from exc
    out = _out_dir(args)
    matrix_io.write_dense_csv(out / "responses.csv", responses.values)
    matrix_io.write_dense_csv(out / "membership.csv", spec.membership.rows)
    matrix_io.write_dense_csv(out / "item_params.csv", spec.item_params.values)
    matrix_io.write_dense_csv(out / "expected.csv", expected_responses(spec))
    matrix_io.write_manifest(
        out / "manifest.json",
        {
            "command": "generate",
            "seed": seed,
            "config": config,
            "config_sha256": matrix_io.config_hash(config),
            "tau_hat": diagnostics.tau_hat,
            "gamma_hat": diagnostics.gamma_hat,
            "files": ["responses.csv", "membership.csv", "item_params.csv", "expected.csv"],
        },
    )
    print(f"wrote {spec.n_subjects}x{spec.n_items} response matrix to {out}")
    return 0


def cmd_estimate(args) -> int:
    seed, k = config_value("seed", args.seed), config_value("k", args.k)
    values = _load_pruned_matrix(args)
    started = time.perf_counter()
    if args.method == "scgoma":
        result = estimation.scgoma(values, k, seed=seed)
    else:
        result = estimation.rmsp(values, k)
    elapsed = time.perf_counter() - started

    mixed_thr, pure_thr = args.thresholds
    profile = profile_memberships(
        result.membership_hat, mixed_threshold=mixed_thr, pure_threshold=pure_thr
    )
    summary = {
        "command": "estimate",
        "method": args.method,
        "k": k,
        "seed": seed,
        "timing_seconds": elapsed,
        "pure_subject_rows": result.pure_index_set,
        "singular_values": [float(s) for s in result.singular_values],
        "n_clamped_rows": result.n_clamped_rows,
        "data_sparsity": data_sparsity(values),
        "omega_mixed": profile.omega_mixed,
        "omega_pure": profile.omega_pure,
        "eta": profile.eta,
    }

    out = _out_dir(args)
    matrix_io.write_dense_csv(out / "membership_hat.csv", result.membership_hat.rows)
    matrix_io.write_dense_csv(out / "item_params_hat.csv", result.item_params_hat)
    matrix_io.write_manifest(out / "summary.json", summary)
    print(f"estimated {k} classes with {args.method} in {elapsed:.3f}s -> {out}")
    return 0


def cmd_select_k(args) -> int:
    seed, k_max = config_value("seed", args.seed), config_value("k_max", args.k_max)
    values = _load_pruned_matrix(args)
    k_hat, curve = select_k(values, args.method, k_max=k_max, seed=seed)
    payload = {
        "command": "select-k",
        "method": args.method,
        "k_max": k_max,
        "k_hat": k_hat,
        "curve": [[k, q] for k, q in curve],
    }
    print(json.dumps(payload, indent=2))
    if args.out is not None:
        out = _out_dir(args)
        matrix_io.write_manifest(out / "select_k.json", payload)
    return 0


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    settings = parse_config(config, "experiment")
    overrides = {key: getattr(args, key) for key in ("seed", "replicates", "k_max")}
    settings.update((key, config_value(key, value)) for key, value in overrides.items() if value is not None)
    family = normalize_family(settings["family"])
    distribution = distribution_from_config(settings["distribution"])
    seed, replicates, k_max = settings.get("seed", 0), settings.get("replicates", 20), settings.get("k_max", 15)

    manifest = {
        "command": "experiment",
        "seed": seed,
        "replicates": replicates,
        "k_max": k_max,
        "config": config,
        "config_sha256": matrix_io.config_hash(config),
        "errors": [],
        "files": [],
    }
    for method in settings.get("methods", ["scgoma"]):
        rows = run_experiment(
            family,
            settings["values"],
            distribution,
            method=method,
            replicates=replicates,
            seed=seed,
            k_max=k_max,
            threads=args.threads,
            **{key: settings[key] for key in ("n", "k", "rho", "sparsity", "mean_range") if key in settings},
        )
        # After run_experiment has checked the grid and flags: a rejected run writes nothing.
        out = _out_dir(args)
        name = f"results_{method}.{args.format}"
        path = out / name
        if args.format == "json":
            records = [{family: row.value, **{column: getattr(row, column) for column in _METRICS}} for row in rows]
            matrix_io.write_manifest(path, records)
        else:
            with open(path, "w") as fh:
                fh.write(",".join((family, *_METRICS)) + "\n")
                for row in rows:
                    cells = [f"{row.value:g}", *(repr(getattr(row, column)) for column in _METRICS)]
                    fh.write(",".join(cells) + "\n")
        manifest["files"].append(name)
        manifest["errors"].extend(
            {"method": method, family: row.value, "error": row.error}
            for row in rows
            if row.error
        )
        print(f"wrote {len(rows)} grid rows for {method} -> {path}")
    matrix_io.write_manifest(out / "manifest.json", manifest)
    return 0


def _thresholds(text: str) -> tuple[float, float]:
    try:
        mixed, pure = (float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected '<mixed>,<pure>', got {text!r}") from exc
    return mixed, pure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgom",
        description="Mixed-membership analysis for weighted categorical responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a response matrix from a model config")
    gen.add_argument("config", help="JSON model config")
    gen.add_argument("--out", default="wgom-out", help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.set_defaults(func=cmd_generate)

    est = sub.add_parser("estimate", help="estimate memberships from a matrix file")
    est.add_argument("matrix", help="dense CSV or 1-indexed coordinate file")
    est.add_argument("--k", type=int, required=True, help="number of latent classes")
    est.add_argument("--method", choices=("scgoma", "rmsp"), default="scgoma")
    est.add_argument("--seed", type=int, default=0, help="seed for the randomized SVD path")
    est.add_argument("--out", default="wgom-out")
    est.add_argument(
        "--thresholds",
        type=_thresholds,
        default=(0.6, 0.9),
        metavar="MIXED,PURE",
        help="profiling thresholds, 0 <= MIXED < PURE <= 1 (default 0.6,0.9)",
    )
    est.add_argument(
        "--prune",
        action="store_true",
        help="drop all-zero rows/columns once before estimating",
    )
    est.set_defaults(func=cmd_estimate)

    sel = sub.add_parser("select-k", help="select the class count by modularity")
    sel.add_argument("matrix")
    sel.add_argument("--method", choices=("scgoma", "rmsp"), default="scgoma")
    sel.add_argument("--k-max", type=int, default=15, dest="k_max")
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--out", default=None, help="also write select_k.json here")
    sel.add_argument("--prune", action="store_true")
    sel.set_defaults(func=cmd_select_k)

    exp = sub.add_parser("experiment", help="run a parameter-sweep experiment")
    exp.add_argument("config", help="JSON experiment spec")
    exp.add_argument("--out", default="wgom-out")
    exp.add_argument("--seed", type=int, default=None, help="override the config seed")
    exp.add_argument("--replicates", type=int, default=None)
    exp.add_argument("--k-max", type=int, default=None, dest="k_max")
    exp.add_argument("--threads", type=int, default=1, help="parallel replicates per grid point")
    exp.add_argument("--format", choices=("csv", "json"), default="csv")
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except _DATA_ERRORS as exc:
        return _fail(EXIT_DATA, str(exc))
    except _NUMERICAL_ERRORS as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    except WgomError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))


if __name__ == "__main__":
    sys.exit(main())
