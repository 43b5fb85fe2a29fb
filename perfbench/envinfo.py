"""Thread pinning and the environment record printed next to every result.

``pin_threads`` must run before numpy is first imported: OpenBLAS sizes
its thread pool when it loads, so setting the variables later has no
effect. ``record`` then checks, after a warm matmul, how many OS threads
the process really runs.
"""

from __future__ import annotations

import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def live_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def record() -> dict:
    """Environment facts; the thread count is taken after a warm matmul,
    when a BLAS pool, if any, has started."""
    import numpy as np

    a = np.ones((256, 256))
    a @ a
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "live_threads": live_threads(),
    }
