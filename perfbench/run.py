"""wgom benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``mc-sweep``, ``select-mixed`` and ``cli-pipeline`` (see
``perfbench/README.md`` for what each exercises and why).  Run from anywhere;
the benchmark uses the ``src/wgom`` next to this directory.

With ``--trace 0`` the result holds the end-to-end metrics, measured without
tracing: the op latency median and tail, throughput, peak RSS of the
workload's processes, set-up time, the three quality metrics and the share of
ops that passed the output checks.  With ``--trace 1`` it holds the per-module
metrics from a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a JSON
object with the details (sample counts, tail percentile, environment stamp).

Each workload runs in fresh worker processes (``worker.py``): a few that only
set up, to time set-up, and one that sets up and measures.  This script uses
only the standard library, so it does not add to the workers' memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("mc-sweep", "select-mixed", "cli-pipeline")
# Set-up is timed in this many set-up-only workers besides the measured one.
SETUP_PROBES = 2
# Everything, set-up probes included, ends within this many seconds.
DEADLINE_S = 170.0
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def run_worker(args, workdir, deadline, setup_only):
    """Start a worker in its own process group; return its set-up seconds.

    Set-up is the wall time from spawning the worker until it reports
    ``ready``: interpreter start, imports, input generation and warm-up.
    """
    argv = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--profile", args.profile, "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if readable else ""
        setup_s = time.perf_counter() - started
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        _kill_group(proc)
        raise
    if line.strip() != "ready":
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup_s


def tail(durations):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples.

    With fewer than 2 * TAIL_BEYOND samples that percentile lies below the
    median; it is still the one reported, with its percentile in the details.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(result, setups, peak_rss_kb):
    durations = result["durations"]
    attempted, failed = result["attempted"], result["failed"]
    tail_s, percentile, beyond = tail(durations) if durations else (math.nan, math.nan, 0)
    quality = result["quality"]
    metrics = {
        "op_p50_s": (statistics.median(durations) if durations else math.nan, "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(durations) / result["busy_s"] if result["busy_s"] else math.nan, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "hamming_error": (quality["hamming_error"], "ratio"),
        "relative_error": (quality["relative_error"], "ratio"),
        "k_accuracy": (quality["k_accuracy"], "ratio"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "ops_timed": len(durations),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setups,
    }
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the smoke test only",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wgom" / "__init__.py").is_file():
        print(f"error: no wgom package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # Byte-compile once so the first worker does not pay for it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        setups = []
        if not args.trace:
            setups = [run_worker(args, workdir, deadline, True) for _ in range(SETUP_PROBES)]
        setups.append(run_worker(args, workdir, deadline, False))
        result = json.loads((workdir / "result.json").read_text())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    # ru_maxrss of waited-for children is the largest peak RSS among them: the
    # workers and every CLI process they ran.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
        "window_ops": result["window"],
        "failures": result["failures"][:5],
        "env": result["env"],
    }
    if args.trace:
        metrics = result["per_layer"]
        details["quality"] = result["quality"]
        details["trace_missing"] = result["trace_missing"]
    else:
        metrics, extra = end_to_end(result, setups, peak_rss_kb)
        details.update(extra)
    values = [value for value, _ in metrics.values()]
    correct = (
        result["failed"] == 0
        and result["window_passed"] == result["window"]
        and all(map(math.isfinite, values))
    )

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'output checks':40s} {'pass' if correct else 'FAIL':>16s}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
