"""Process-level probes: CPU time, peak resident memory, percentiles and
the machine fingerprint every result carries."""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import statistics
import sys
import time


def cpu_seconds() -> float:
    """CPU consumed so far by this process (all threads) and by every
    child process it has reaped, user plus system time."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``).

    Freed heap is first handed back to the kernel (glibc ``malloc_trim``),
    so the peak starts from what is live, not from what set-up left
    behind.  Returns ``False`` where the kernel does not allow the reset;
    the peak read afterwards is then the process-lifetime peak.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quartiles(values: list[float]) -> tuple[float, float]:
    """``(median, 75th percentile)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3


def skew(values: list[float]) -> float:
    """Max over mean; 0 when there is nothing to compare."""
    mean = statistics.fmean(values) if values else 0.0
    return max(values) / mean if mean > 0 else 0.0


def calibrate(rounds: int = 5, steps: int = 300_000) -> float:
    """Median seconds of a fixed pure-Python loop.

    Timed beside every set of runs so that a result can be told apart
    from a slower or faster machine state.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(steps):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fingerprint() -> dict:
    """The machine and kernel configuration a result was measured on."""
    from repro.er.batch_kernel import active_numpy

    numpy = active_numpy()
    try:
        import numpy as installed_numpy

        numpy_version = installed_numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "numpy": numpy_version,
        "kernel_path": "numpy" if numpy is not None else "stdlib",
        "REPRO_ER_FORCE_STDLIB": bool(os.environ.get("REPRO_ER_FORCE_STDLIB")),
    }
