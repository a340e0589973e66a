"""Statistics and host records shared by every workload of the benchmark."""

from __future__ import annotations

import bisect
import importlib.metadata
import os
import platform
import statistics
import time
from typing import Iterable, List, Sequence, Tuple

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMBA_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def tail(samples: Iterable[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples strictly above it.

    Returns ``(value, percentile, sample_count)``.  Ties are resolved by
    stepping down until enough samples lie strictly beyond the value.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    k = n - beyond - 1
    while k > 0 and n - bisect.bisect_right(xs, xs[k]) < beyond:
        k -= 1
    at_or_below = bisect.bisect_right(xs, xs[k])
    return xs[k], 100.0 * at_or_below / n, n


def probe_loop(repeats: int = 5) -> List[float]:
    """Seconds taken by a fixed pure-Python loop, ``repeats`` times.

    Recorded before and after a run so that runs taken while the host was
    slow can be recognised; never used to scale a metric.
    """
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        out.append(time.perf_counter() - t0)
    return out


def host_record() -> dict:
    """Interpreter, library and host facts that can explain a slow run."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg": list(os.getloadavg()),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
