"""Environment fingerprint recorded with every benchmark result.

Two results are comparable only when their fingerprints are equal: the
same core count, BLAS build, numpy/scipy/Python versions, worker count
the library would choose, and thread variables in effect.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform

__all__ = ["THREAD_VARS", "fingerprint", "fingerprint_id"]

# Variables that set the library's worker count or a BLAS/OpenMP thread
# count.  The runner strips the first four from every workload process.
THREAD_VARS = (
    "BOXPREC_WORKERS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(show_config) -> dict:
    blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def _chosen_workers() -> int:
    from boxprec import montecarlo

    choose = getattr(montecarlo, "_worker_count", None)
    # A library without a worker selector runs its trials serially.
    return choose(None) if choose is not None else 1


def fingerprint() -> dict:
    """Facts about this process's environment that move the timings."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "workers": _chosen_workers(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def fingerprint_id(fp: dict) -> str:
    text = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
