"""Start-up cost: wgom must not load scipy, on import or at run time.

scipy is a test dependency only; the error metrics match columns with
their own assignment solver.  The check runs in a fresh interpreter,
because the test process has usually imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
import wgom, wgom.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
from wgom import Bernoulli, run_experiment
rows = run_experiment("rho", [0.5, 1.0], Bernoulli(), n=60, k=2, k_max=4, replicates=2, seed=7)
after_run = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"loaded": loaded, "after_run": after_run, "errors": [row.error for row in rows]}))
"""


def test_import_and_a_run_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["loaded"] == []
    assert out["after_run"] == []
    assert out["errors"] == [None, None]


# Imports one wgom module as the first, bypassing the package __init__ (which
# imports every module in a fixed order and so hides import cycles), and
# prints the wgom modules that loaded with it.
FIRST_IMPORT = """
import importlib, json, sys, types
package = types.ModuleType("wgom")
package.__path__ = [sys.argv[1]]
sys.modules["wgom"] = package
importlib.import_module("wgom." + sys.argv[2])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("wgom."))))
"""
MODULES = sorted(path.stem for path in (SRC / "wgom").glob("*.py") if path.stem != "__init__")


def _import_first(module: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, str(SRC / "wgom"), module],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_types_imports_no_distribution():
    assert "wgom.sampling" not in _import_first("types")


def test_every_module_can_be_imported_first():
    for module in MODULES:
        assert f"wgom.{module}" in _import_first(module)
