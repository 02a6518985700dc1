"""Reporting: text spy plots, Table 4.x rows, and the paper-fidelity scorecard.

* :mod:`repro.analysis.spy` — the Figure 4.1-4.5 equivalents: density grids
  and ASCII spy plots of a matrix structure under an ordering, plus numerical
  band-profile summaries that capture the visual difference the paper shows
  between the local (GPS/GK/RCM) and spectral reorderings;
* :mod:`repro.analysis.report` — the Table 4.1-4.3 row format: one row per
  (matrix, algorithm) with envelope size, bandwidth, run time and rank, and
  the scorecards that set batch records and envelope factorizations against
  the numbers of the paper's Tables 4.1-4.4.

``repro suite --table 4.x`` and :func:`repro.core.pipeline.compare_orderings`
produce the rows; ``benchmarks/bench_fidelity.py`` scores them.
"""

from repro.analysis.spy import ascii_spy, density_grid, band_profile
from repro.analysis.report import ComparisonRow, format_table, rank_by

__all__ = [
    "ascii_spy",
    "density_grid",
    "band_profile",
    "ComparisonRow",
    "format_table",
    "rank_by",
]
