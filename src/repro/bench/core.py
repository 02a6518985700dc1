"""The shared timing core of the performance tooling.

Every wall-clock measurement in the repo — the ``repro bench``
perf-regression harness, the ``benchmarks/`` table and ablation scripts, and
ad-hoc profiling — goes through :func:`time_call` / :func:`measure` so the
numbers are produced the same way everywhere: ``time.perf_counter`` around
the bare call, garbage collection left alone, best-of-*k* reported as the
headline figure (the minimum is the least noisy location statistic for
wall-clock micro-benchmarks; the mean is kept alongside for context).
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["time_call", "measure"]


def time_call(func: Callable[..., Any], /, *args, **kwargs) -> tuple[Any, float]:
    """Call ``func(*args, **kwargs)`` once and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def measure(
    func: Callable[[], Any],
    *,
    repeats: int = 3,
    warmup: int = 0,
) -> dict:
    """Run a zero-argument callable *repeats* times and summarize the timings.

    Parameters
    ----------
    func:
        The measured callable.  Its return value is discarded (run it through
        :func:`time_call` instead when the result is needed).
    repeats:
        Timed runs; must be positive.
    warmup:
        Untimed runs executed first (cache warming, lazy imports).

    Returns
    -------
    dict
        ``{"best_s", "mean_s", "times_s", "repeats"}`` — ``best_s`` is the
        minimum over the timed runs, the statistic the regression harness
        compares.
    """
    repeats = int(repeats)
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    for _ in range(int(warmup)):
        func()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return {
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "repeats": repeats,
    }
