"""Environment stamp recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys

# Thread-count getters exported by the OpenBLAS builds numpy ships or links.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas(numpy):
    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                return info
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root):
    """Versions, BLAS threading and machine facts; needs numpy and scipy importable."""
    import numpy
    import scipy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(pages / 2**20),
        "executable": os.path.basename(sys.executable),
    }
