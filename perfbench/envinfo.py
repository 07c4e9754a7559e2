"""The environment recorded with every result: cores, Python, numpy,
scipy, BLAS name, version and thread count, and the commit."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

# OpenBLAS as numpy's wheels ship it (symbol-suffixed) and as a plain build
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count of the OpenBLAS loaded in this process, asked through
    its own API; falls back to the usual environment variables."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def collect(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "commit": commit(root),
    }
