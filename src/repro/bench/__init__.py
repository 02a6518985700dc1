"""Performance tooling: shared timing core and the ``repro bench`` harness.

>>> from repro.bench import measure
>>> stats = measure(lambda: sum(range(100)), repeats=2)
>>> stats["repeats"]
2
>>> 0.0 <= stats["best_s"] <= stats["mean_s"]
True
"""

from repro.lazy import lazy_exports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "KernelBench",
    "bench_revision",
    "default_artifact_path",
    "diff_bench",
    "format_diff",
    "format_trend",
    "load_bench",
    "machine_info",
    "measure",
    "pinned_micro_suite",
    "run_bench",
    "save_bench",
    "time_call",
    "trend_bench",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.bench.core": ("measure", "time_call"),
    "repro.bench.harness": (
        "BENCH_SCHEMA_VERSION",
        "KernelBench",
        "bench_revision",
        "default_artifact_path",
        "diff_bench",
        "format_diff",
        "format_trend",
        "load_bench",
        "machine_info",
        "pinned_micro_suite",
        "run_bench",
        "save_bench",
        "trend_bench",
    ),
})
