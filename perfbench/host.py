"""Host record and calibration loop, to tell host drift from a regression."""

from __future__ import annotations

import os
import platform
from time import perf_counter

# BLAS and OpenMP read these once, when numpy loads, so the entry point sets
# them before anything imports numpy; this module imports numpy only inside
# its functions for that reason.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# Timings of the end-to-end metrics are scaled to a host on which calibrate()
# takes this long: the shared host this benchmark was built on swings between
# about 16 and 32 ms within a minute, and the simulator slows in step.
REFERENCE_CALIB_MS = 20.0


def host_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def calibrate() -> float:
    """Milliseconds for a fixed mix of small numpy calls and pure Python.

    Small matrices, like the simulator's, so per-call overhead dominates.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
    start = perf_counter()
    for _ in range(300):
        np.linalg.qr(a)
        np.abs(a @ a).sum()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return (perf_counter() - start) * 1e3
