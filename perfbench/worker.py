"""Run one benchmark workload in this process and write its raw results.

Started by ``run.py``, once per set-up probe and once for the measured run:

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --profile full|tiny --workdir DIR [--setup-only]

The worker imports ``wgom`` from the checkout's ``src``, builds its inputs from
the seed, warms up, prints ``ready`` and then runs ops in a closed loop (the
next op starts when the previous one ends) until ``--seconds`` have passed and
at least the workload's quality window of ops is done.  Every op's outputs are
checked; a failed op is counted and left out of the timings.  Results go to
``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import envstamp  # noqa: E402
import spans  # noqa: E402
import wgom  # noqa: E402

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
# How an op runs: untraced, with spans, or with spans and tracemalloc.
PLAIN, SPANS, MEMORY = "plain", "spans", "memory"
CHILD_TIMEOUT_S = 120.0
STARTUP_SAMPLES = 3
# Index of the warm-up op; far from the measured ops so their inputs differ.
WARMUP_OP = 10**6

# Geometry per workload.  ``window`` is the number of leading ops whose quality
# and traced counts are reported: a fixed set, so both repeat exactly for a
# seed however many ops fit in the measured time.
SIZES = {
    "full": {
        "mc-sweep": {"n": 300, "k": 3, "k_max": 15, "window": 80},
        "select-mixed": {"n": 2000, "j": 1000, "k": 3, "k_max": 15, "window": 20},
        "cli-pipeline": {"n": 1000, "j": 500, "k": 3, "n_pure": 250, "k_max": 15, "window": 4},
    },
    "tiny": {
        "mc-sweep": {"n": 60, "k": 3, "k_max": 4, "window": 3},
        "select-mixed": {"n": 120, "j": 60, "k": 3, "k_max": 4, "window": 3},
        "cli-pipeline": {"n": 120, "j": 60, "k": 3, "n_pure": 30, "k_max": 4, "window": 1},
    },
}


class CheckFailed(Exception):
    """An op's output violated one of the benchmark's output checks."""


def op_seed(seed, op):
    """Seed of op ``op`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def check_fit(membership, item_params, n_items, k):
    """Membership rows are probability vectors; item parameters are finite (J, K)."""
    pi = np.asarray(membership, dtype=float)
    theta = np.asarray(item_params, dtype=float)
    if pi.ndim != 2 or pi.shape[1] != k:
        raise CheckFailed(f"membership shape {pi.shape}, expected (N, {k})")
    if not np.isfinite(pi).all() or (pi < 0.0).any():
        raise CheckFailed("membership has a negative or non-finite entry")
    if np.abs(pi.sum(axis=1) - 1.0).max() > 1e-9:
        raise CheckFailed("a membership row does not sum to 1 within 1e-9")
    if theta.shape != (n_items, k):
        raise CheckFailed(f"item parameters shape {theta.shape}, expected ({n_items}, {k})")
    if not np.isfinite(theta).all():
        raise CheckFailed("item parameters are not finite")


def check_selection(k_hat, curve, k_max):
    if not isinstance(k_hat, (int, np.integer)) or not 1 <= k_hat <= k_max:
        raise CheckFailed(f"k_hat {k_hat!r} outside [1, {k_max}]")
    if len(curve) == 0:
        raise CheckFailed("empty modularity curve")


def child_env():
    """This environment, with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv, workdir, label):
    """Run a process to completion in ``workdir``; return (exit code, wall seconds).

    Its output goes to ``label.out`` and ``label.err`` there.
    """
    workdir = Path(workdir)
    with open(workdir / f"{label}.out", "w") as out, open(workdir / f"{label}.err", "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=child_env())
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return code, time.perf_counter() - started


def cli_startup_s(workdir):
    """Wall time of a fresh interpreter importing ``wgom.cli``, timed from outside."""
    code, seconds = run_child([sys.executable, "-c", "import wgom.cli"], workdir, "startup")
    if code != 0:
        raise CheckFailed(f"import wgom.cli exited with {code}")
    return seconds


class Workload:
    """Inputs from a seed, a warm-up, and ops whose outputs are checked.

    ``setup`` runs before the first timed op, ``prepare(op)`` before each op's
    clock starts, ``run(op, mode)`` is the timed op and ``check(output)``
    returns the op's (hamming, relative error, k correct) tuples or raises.
    """

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, size, Path(workdir)

    def prepare(self, op):
        pass


class McSweep(Workload):
    """One op: a paired Monte Carlo replicate, run_experiment for scgoma then rmsp."""

    def setup(self):
        self._replicates(WARMUP_OP)

    def _replicates(self, op):
        size = self.size
        return [
            wgom.run_experiment(
                "rho", [1.0], wgom.Bernoulli(), method=method, n=size["n"], k=size["k"],
                k_max=size["k_max"], replicates=1, threads=1, seed=op_seed(self.seed, op),
            )
            for method in ("scgoma", "rmsp")
        ]

    def run(self, op, mode):
        return self._replicates(op)

    def check(self, output):
        quality = []
        for rows in output:
            if len(rows) != 1:
                raise CheckFailed(f"expected one grid row, got {len(rows)}")
            row = rows[0]
            if row.error is not None:
                raise CheckFailed(row.error)
            values = (row.mean_hamming_error, row.mean_relative_error, row.accuracy_rate)
            if not np.isfinite(values).all() or not 0.0 <= row.mean_hamming_error <= 2.0:
                raise CheckFailed(f"bad grid row {row}")
            if row.accuracy_rate not in (0.0, 1.0) or not row.mean_runtime_seconds > 0.0:
                raise CheckFailed(f"bad grid row {row}")
            quality.append(values)
        return quality


class SelectMixed(Workload):
    """One op: scgoma at the true K, then select_k, on a large Normal matrix.

    Each op gets its own matrix, sampled before the op's clock starts: the
    quality of a single matrix varies too much between seeds to be a steady
    metric, and only one matrix is held at a time, so peak RSS still belongs
    to the modularity scorer.
    """

    op = None

    def setup(self):
        self.prepare(0)
        wgom.scgoma(self.responses, self.size["k"], seed=WARMUP_OP)

    def prepare(self, op):
        if op == self.op:
            return
        size = self.size
        self.responses = None
        rng = np.random.default_rng(op_seed(self.seed, op))
        self.spec = wgom.simulation_spec(
            wgom.Normal(sigma2=1.0), n=size["n"], j=size["j"], k=size["k"], rng=rng
        )
        self.responses, _ = wgom.sample_response(self.spec, rng)
        self.op = op

    def run(self, op, mode):
        result = wgom.scgoma(self.responses, self.size["k"], seed=op)
        k_hat, curve = wgom.select_k(self.responses, "scgoma", k_max=self.size["k_max"], seed=op)
        return result, k_hat, curve

    def check(self, output):
        result, k_hat, curve = output
        k = self.size["k"]
        check_fit(result.membership_hat.rows, result.item_params_hat, self.size["j"], k)
        check_selection(k_hat, curve, self.size["k_max"])
        return [(
            wgom.hamming_error(result.membership_hat, self.spec.membership),
            wgom.relative_error(result.item_params_hat, self.spec.item_params.values),
            float(k_hat == k),
        )]


class CliPipeline(Workload):
    """One op: ``generate``, ``estimate`` and ``select-k``, each a fresh CLI process."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.spans_dir = self.workdir / "spans"
        self.step_seconds = {}

    def setup(self):
        size = self.size
        self.config = self.workdir / "model.json"
        # The README's generate example, at this workload's geometry.
        config = {
            "n": size["n"], "j": size["j"], "k": size["k"],
            "n_pure_per_class": size["n_pure"],
            "mixed_membership": [0.334, 0.333, 0.333],
            "distribution": {"name": "binomial", "m": 5},
            "rho": 2.5, "sparsity": 1.0, "seed": 7,
        }
        self.config.write_text(json.dumps(config))
        self.spans_dir.mkdir(exist_ok=True)
        cli_startup_s(self.workdir)

    def run(self, op, mode):
        op_dir = self.workdir / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        data, fit = op_dir / "data", op_dir / "fit"
        responses = str(data / "responses.csv")
        steps = [
            ("generate", [str(self.config), "--seed", str(op_seed(self.seed, op)), "--out", str(data)]),
            ("estimate", [responses, "--k", str(self.size["k"]), "--out", str(fit)]),
            ("select-k", [responses, "--k-max", str(self.size["k_max"])]),
        ]
        seconds = {}
        for step, args in steps:
            if mode == PLAIN:
                argv = [sys.executable, "-m", "wgom.cli", step]
            else:
                spans_file = self.spans_dir / f"{op}-{step}.json"
                argv = [sys.executable, str(CLI_CHILD), "--spans", str(spans_file), "--op", str(op)]
                argv += ["--memory"] * (mode == MEMORY) + ["--", step]
            code, seconds[step] = run_child(argv + args, self.workdir, step)
            if code != 0:
                err = (self.workdir / f"{step}.err").read_text()[-500:]
                raise CheckFailed(f"wgom {step} exited with {code}: {err}")
        self.step_seconds[op] = seconds
        return data, fit

    def check(self, output):
        data, fit = output
        size, k = self.size, self.size["k"]
        try:
            json.loads((data / "manifest.json").read_text())
            summary = json.loads((fit / "summary.json").read_text())
            selection = json.loads((self.workdir / "select-k.out").read_text())
            truth_pi = np.loadtxt(data / "membership.csv", delimiter=",", ndmin=2)
            truth_theta = np.loadtxt(data / "item_params.csv", delimiter=",", ndmin=2)
            pi = np.loadtxt(fit / "membership_hat.csv", delimiter=",", ndmin=2)
            theta = np.loadtxt(fit / "item_params_hat.csv", delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"unreadable CLI output: {exc}") from exc
        if summary.get("k") != k or pi.shape[0] != size["n"]:
            raise CheckFailed("estimate summary does not match the request")
        check_fit(pi, theta, size["j"], k)
        check_selection(selection.get("k_hat"), selection.get("curve", []), size["k_max"])
        return [(
            wgom.hamming_error(pi, truth_pi),
            wgom.relative_error(theta, truth_theta),
            float(selection["k_hat"] == k),
        )]

    def layer_metrics(self, totals, ops, memory_op):
        """Fold the CLI children's spans into ``totals``; return the ``cli.*`` metrics."""
        for op in [*ops, memory_op]:
            for step in ("generate", "estimate", "select-k"):
                path = self.spans_dir / f"{op}-{step}.json"
                if path.exists():  # absent when an earlier step of the op failed
                    totals.add(json.loads(path.read_text()), set(ops))

        def per_op(step):
            return sum(self.step_seconds.get(op, {}).get(step, 0.0) for op in ops) / len(ops)

        return {
            "cli.generate_s": (per_op("generate"), "s/op"),
            "cli.estimate_s": (per_op("estimate"), "s/op"),
            "cli.select_k_s": (per_op("select-k"), "s/op"),
            "cli.self_s": (totals.self_time.get("cli.main", 0.0) / len(ops), "s/op"),
        }


WORKLOADS = {"mc-sweep": McSweep, "select-mixed": SelectMixed, "cli-pipeline": CliPipeline}
CLI_OP_METRICS = ("cli.generate_s", "cli.estimate_s", "cli.select_k_s", "cli.self_s")


def schedule(op, window, traced):
    """How op ``op`` runs.

    Untraced runs are all PLAIN.  A traced run traces the window's ops with
    spans only, runs one MEMORY op (spans plus tracemalloc, which slows Python
    code too much to leave on), then alternates PLAIN and SPANS ops so the
    tracing overhead is measured on neighbouring ops.
    """
    if not traced:
        return PLAIN
    if op < window:
        return SPANS
    if op == window:
        return MEMORY
    return SPANS if (op - window) % 2 == 0 else PLAIN


def measure(workload, args, window, tracer):
    """The closed loop: ops until ``args.seconds`` pass and the window is done."""
    result = {
        "attempted": 0, "failed": 0, "failures": [], "durations": [], "busy_s": 0.0,
        "quality": [], "window_passed": 0,
    }
    compared = {PLAIN: [], SPANS: []}
    # A traced run also needs its memory op and one PLAIN/SPANS pair.
    last_required = window + (3 if tracer else 0)
    started = time.perf_counter()
    op = 0
    while op < last_required or time.perf_counter() - started < args.seconds:
        mode = schedule(op, window, tracer is not None)
        workload.prepare(op)
        if mode != PLAIN:
            tracer.op = op
            tracer.enabled = True
        if mode == MEMORY:
            tracemalloc.start()
        began = time.perf_counter()
        try:
            output, error = workload.run(op, mode), None
        except Exception as exc:  # a failed op is counted, never fatal
            error = f"op {op}: {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - began
            if mode != PLAIN:
                tracer.enabled = False
            if mode == MEMORY:
                tracemalloc.stop()
        result["attempted"] += 1
        result["busy_s"] += elapsed
        if error is None:
            try:
                quality = workload.check(output)
            except Exception as exc:  # CheckFailed, or outputs the checks cannot read
                error = f"op {op}: check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            result["failed"] += 1
            result["failures"].append(error[:1000])
        else:
            result["durations"].append(elapsed)
            if op > window:
                compared[mode].append(elapsed)
            if op < window:
                result["quality"].extend(quality)
                result["window_passed"] += 1
        op += 1
    if tracer is not None and compared[PLAIN] and compared[SPANS]:
        result["overhead_frac"] = statistics.median(compared[SPANS]) / statistics.median(compared[PLAIN]) - 1.0
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Clamped-row warnings are expected at over-specified K, not failures.
    warnings.filterwarnings("ignore", message=".*clamped to zero", category=RuntimeWarning)
    size = SIZES[args.profile][args.workload]
    window = size["window"]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, size, args.workdir)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = measure(workload, args, window, tracer)
    ham, rel, k_ok = zip(*result.pop("quality")) if result["quality"] else ((), (), ())
    result["window"] = window
    result["quality"] = {
        "hamming_error": statistics.fmean(ham) if ham else float("nan"),
        "relative_error": statistics.fmean(rel) if rel else float("nan"),
        "k_accuracy": statistics.fmean(k_ok) if k_ok else float("nan"),
    }
    if tracer is not None:
        totals = spans.LayerTotals()
        totals.add(tracer.spans, set(range(window)))
        cli = dict.fromkeys(CLI_OP_METRICS, (0.0, "s/op"))
        if isinstance(workload, CliPipeline):
            cli = workload.layer_metrics(totals, range(window), window)
        per_layer = totals.metrics(window)
        # Start-up does not depend on the workload, so every traced run times it.
        startups = [cli_startup_s(args.workdir) for _ in range(STARTUP_SAMPLES)]
        per_layer["cli.startup_s"] = (statistics.median(startups), "s")
        per_layer.update(cli)
        per_layer["trace.overhead_frac"] = (result.pop("overhead_frac", float("nan")), "ratio")
        result["per_layer"] = per_layer
        result["trace_missing"] = tracer.missing
    result["env"] = envstamp.stamp(str(ROOT))
    Path(args.workdir, "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
