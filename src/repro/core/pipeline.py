"""The user-facing pipeline of the library.

Typical use::

    import scipy.sparse as sp
    from repro import reorder

    report = reorder(matrix, algorithm="spectral")
    reordered = report.apply(matrix)          # P^T A P
    print(report.statistics.envelope_size)    # down from report.original.envelope_size

or, to reproduce a row block of the paper's tables for your own matrix::

    from repro import compare_orderings
    result = compare_orderings(matrix)
    print(result.to_text())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.runner import ExperimentResult, run_comparison
from repro.bench.core import time_call
from repro.envelope.metrics import EnvelopeStatistics, envelope_statistics
from repro.orderings.base import Ordering
from repro.orderings.registry import PAPER_ALGORITHMS, get_ordering_algorithm
from repro.sparse.ops import permute_symmetric, structure_from_matrix
from repro.sparse.pattern import SymmetricPattern

__all__ = ["EnvelopeReport", "reorder", "compare_orderings"]


@dataclass(frozen=True)
class EnvelopeReport:
    """Result of :func:`reorder`.

    Attributes
    ----------
    ordering:
        The computed :class:`Ordering`.
    original:
        Envelope statistics of the matrix in its natural order.
    statistics:
        Envelope statistics after reordering.
    run_time:
        Wall-clock seconds spent computing the ordering.
    """

    ordering: Ordering
    original: EnvelopeStatistics
    statistics: EnvelopeStatistics
    run_time: float

    @property
    def envelope_reduction(self) -> float:
        """Ratio ``original envelope / reordered envelope`` (>1 means improvement)."""
        if self.statistics.envelope_size == 0:
            return float("inf") if self.original.envelope_size > 0 else 1.0
        return self.original.envelope_size / self.statistics.envelope_size

    def apply(self, matrix):
        """Return ``P^T A P`` for a values-carrying matrix (or a permuted pattern)."""
        if isinstance(matrix, SymmetricPattern):
            return matrix.permute(self.ordering.perm)
        return permute_symmetric(matrix, self.ordering.perm)


def reorder(matrix, algorithm: str = "spectral", **options) -> EnvelopeReport:
    """Compute an envelope-reducing ordering of a symmetric matrix.

    Parameters
    ----------
    matrix:
        Symmetric SciPy sparse matrix, dense array, or
        :class:`repro.sparse.SymmetricPattern` (structure only is used).
    algorithm:
        Registered algorithm name: ``"spectral"`` (default, Algorithm 1 of the
        paper), ``"rcm"``, ``"gps"``, ``"gk"``, ``"sloan"``, ``"hybrid"``, ...
    **options:
        Forwarded to the algorithm (e.g. ``method="multilevel"`` for the
        spectral ordering).

    Returns
    -------
    EnvelopeReport
    """
    pattern = structure_from_matrix(matrix)
    func = get_ordering_algorithm(algorithm)
    ordering, run_time = time_call(func, pattern, **options)
    original = envelope_statistics(pattern)
    stats = envelope_statistics(pattern, ordering.perm)
    return EnvelopeReport(
        ordering=ordering,
        original=original,
        statistics=stats,
        run_time=run_time,
    )


def compare_orderings(
    matrix,
    algorithms: tuple = PAPER_ALGORITHMS,
    problem: str = "problem",
    **algorithm_options,
) -> ExperimentResult:
    """Run several ordering algorithms on one matrix and rank them.

    This reproduces one problem block of the paper's Tables 4.1-4.3 for an
    arbitrary user matrix.  See :func:`repro.analysis.runner.run_comparison`.
    """
    pattern = structure_from_matrix(matrix)
    return run_comparison(
        pattern,
        algorithms=algorithms,
        problem=problem,
        algorithm_options=algorithm_options or None,
    )
