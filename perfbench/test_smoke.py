"""Smoke test of the benchmark at tiny sizes, kept out of the tier-1 suite.

    python -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced with ``--profile tiny`` and
checks the result line against ``BENCHMARK.json``, the counts the code implies,
and that tracing leaves the quality metrics unchanged.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_K_MAX = 4


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(completed):
    assert completed.returncode == 0, completed.stderr
    details, result = completed.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def values(result, unit=None):
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if unit is None or metric["unit"] in unit
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_result_lines(workload):
    _, plain = parse(bench(workload, 0))
    traced_details, traced = parse(bench(workload, 1))

    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {metric["name"]: metric["unit"] for metric in SPEC[kind]}

    for name in ("hamming_error", "relative_error", "k_accuracy"):
        assert traced_details["quality"][name] == plain["metrics"][name]["value"]

    counts = values(traced)
    assert counts["linalg.svd.randomized_calls"] == 0
    assert counts["linalg.svd.calls_per_select_k"] == TINY_K_MAX
    io_counts = [counts[f"matrix_io.{kind}.{what}"] for kind in ("read", "write") for what in ("calls", "bytes")]
    cli_steps = [counts[f"cli.{step}_s"] for step in ("generate", "estimate", "select_k")]
    assert counts["cli.startup_s"] > 0
    if workload == "cli-pipeline":
        assert all(io_counts) and all(cli_steps)
    else:
        assert not any(io_counts) and not any(cli_steps)


def test_traced_counts_repeat():
    first = values(parse(bench("mc-sweep", 1))[1], unit=("count", "bytes"))
    second = values(parse(bench("mc-sweep", 1))[1], unit=("count", "bytes"))
    assert first == second and first["experiments.replicates"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("mc-sweep", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
