"""Reporting: text spy plots, Table 4.x rows, and the experiment runner.

* :mod:`repro.analysis.spy` — the Figure 4.1-4.5 equivalents: density grids
  and ASCII spy plots of a matrix structure under an ordering, plus numerical
  band-profile summaries that capture the visual difference the paper shows
  between the local (GPS/GK/RCM) and spectral reorderings;
* :mod:`repro.analysis.report` — the Table 4.1-4.3 row format: one row per
  (matrix, algorithm) with envelope size, bandwidth, run time and rank;
* :mod:`repro.analysis.runner` — the experiment driver used by the benchmark
  harnesses and by ``examples/paper_tables.py``.
"""

from repro.analysis.spy import ascii_spy, density_grid, band_profile
from repro.analysis.report import ComparisonRow, format_table, rank_by
from repro.analysis.runner import ExperimentResult, run_comparison, run_problem_suite

__all__ = [
    "ascii_spy",
    "density_grid",
    "band_profile",
    "ComparisonRow",
    "format_table",
    "rank_by",
    "ExperimentResult",
    "run_comparison",
    "run_problem_suite",
]
