"""Shared infrastructure for the pytest-benchmark harnesses.

* ``bench_figures_4_1_to_4_5.py`` — structure plots of BARTH4 under the five
  orderings (Figures 4.1-4.5);
* ``bench_ablation_*.py`` — ablations of the library's design choices: the
  Fiedler solver, the multilevel parameters, the hybrid ordering, the
  preconditioner ordering and the scaling with problem size.

The paper's Tables 4.1-4.4 come from ``repro suite --table 4.x`` at any
scale and from ``benchmarks/bench_fidelity.py`` at paper size.

Surrogate sizes are controlled by the ``REPRO_BENCH_SCALE`` environment
variable (default 0.05, i.e. about 5% of the paper's matrix orders).  Run
the harnesses once each, untimed, with::

    REPRO_BENCH_SCALE=0.02 python -m pytest benchmarks -o python_files='bench_*.py' --benchmark-disable

Each harness also writes a human-readable results file under
``benchmarks/results/``, which git ignores.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.bench import time_call
from repro.collections.registry import load_problem

RESULTS_DIR = Path(__file__).parent / "results"


def timed_once(benchmark, func):
    """Run *func* once under pytest-benchmark and return ``(result, seconds)``.

    The measurement itself goes through :func:`repro.bench.time_call`, the
    same timing core the ``repro bench`` regression harness uses, so the
    numbers in the table/ablation results files and in ``BENCH_*.json``
    artifacts are produced identically.
    """
    holder: dict = {}

    def call():
        holder["result"], holder["seconds"] = time_call(func)
        return holder["result"]

    benchmark.pedantic(call, rounds=1, iterations=1)
    return holder["result"], holder["seconds"]


def bench_scale() -> float:
    """Surrogate scale used by the benchmark harnesses."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))


@lru_cache(maxsize=None)
def cached_problem(name: str, scale: float | None = None):
    """Build (and memoize) the surrogate pattern for a paper problem."""
    if scale is None:
        scale = bench_scale()
    pattern, _spec = load_problem(name, scale=scale)
    return pattern


class TableCollector:
    """Accumulates paper-style rows and rewrites a results file after each update.

    The file is rewritten on every :meth:`add` so that a partially executed
    benchmark session still leaves a readable (if incomplete) table behind.
    """

    def __init__(self, filename: str, title: str, columns: list[str]):
        self.path = RESULTS_DIR / filename
        self.title = title
        self.columns = columns
        self.rows: list[dict] = []

    def add(self, **row) -> None:
        self.rows.append(row)
        self.write()

    def write(self) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        widths = {c: max(len(c), 14) for c in self.columns}
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(f"{c:>{widths[c]}}" for c in self.columns))
        for row in self.rows:
            cells = []
            for c in self.columns:
                value = row.get(c, "")
                if isinstance(value, float):
                    cells.append(f"{value:>{widths[c]}.4f}")
                elif isinstance(value, int):
                    cells.append(f"{value:>{widths[c]},}")
                else:
                    cells.append(f"{str(value):>{widths[c]}}")
            lines.append("  ".join(cells))
        self.path.write_text("\n".join(lines) + "\n")
