"""Experiment runner: orchestrates the Table 4.1-4.3 style comparisons.

The benchmark harnesses and ``examples/paper_tables.py`` both need the same
operation: given a problem (a matrix structure), run a set of ordering
algorithms on it, time each one, compute the envelope statistics of each
result, and rank the algorithms.  :func:`run_comparison` does that for one
problem, :func:`run_problem_suite` for a whole paper table of registered
surrogate problems.

Both are thin adapters over the parallel batch engine
(:mod:`repro.batch.engine`): :func:`run_comparison` executes the engine's
tasks in-process against an explicit pattern (exceptions propagate, as the
legacy API always did), while :func:`run_problem_suite` drives a full
:func:`repro.batch.engine.run_suite` run and accepts ``n_jobs`` to fan the
cells out over worker processes.  Callers that want structured, savable
results (failure records, the JSON artifact) should use
:func:`repro.batch.run_suite` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import ComparisonRow, format_table, rows_from_records
from repro.batch.engine import execute_task, run_suite
from repro.batch.tasks import BatchTask, derive_seed
from repro.orderings.registry import PAPER_ALGORITHMS
from repro.sparse.ops import structure_from_matrix

__all__ = ["ExperimentResult", "run_comparison", "run_problem_suite"]


@dataclass
class ExperimentResult:
    """Result of one problem's comparison run.

    Attributes
    ----------
    problem:
        Problem name.
    rows:
        Ranked :class:`ComparisonRow` entries, one per algorithm.
    orderings:
        The computed :class:`repro.orderings.base.Ordering` objects by name.
    run_times:
        Ordering computation wall-clock times by algorithm name.
    """

    problem: str
    rows: list = field(default_factory=list)
    orderings: dict = field(default_factory=dict)
    run_times: dict = field(default_factory=dict)

    @property
    def winner(self) -> str:
        """Algorithm with the smallest envelope size.

        Raises
        ------
        ValueError
            When the result holds no comparison rows (no algorithm ran
            successfully), instead of an opaque ``min()`` crash.
        """
        if not self.rows:
            raise ValueError(
                f"cannot determine a winner for {self.problem!r}: "
                "the result has no comparison rows"
            )
        best = min(self.rows, key=lambda r: r.envelope_size)
        return best.algorithm

    def row_for(self, algorithm: str) -> ComparisonRow:
        """The row of a specific algorithm (KeyError if absent)."""
        for row in self.rows:
            if row.algorithm == algorithm:
                return row
        raise KeyError(f"no row for algorithm {algorithm!r}")

    def to_text(self) -> str:
        """Render this result as a paper-style text table."""
        return format_table(self.rows, title=f"Results for {self.problem}")


def _experiment_from_records(problem: str, records) -> ExperimentResult:
    """Bundle the engine's per-task records into the legacy result object."""
    return ExperimentResult(
        problem=problem,
        rows=rows_from_records(records),
        orderings={r.algorithm: r.ordering for r in records if r.ok and r.ordering is not None},
        run_times={r.algorithm: r.time_s for r in records if r.ok},
    )


def run_comparison(
    pattern,
    algorithms: tuple = PAPER_ALGORITHMS,
    problem: str = "problem",
    algorithm_options: dict | None = None,
    base_seed: int = 0,
) -> ExperimentResult:
    """Run several ordering algorithms on one matrix and tabulate the results.

    Parameters
    ----------
    pattern:
        Matrix structure (pattern, SciPy sparse matrix or dense array).
    algorithms:
        Iterable of registered algorithm names (default: the paper's four).
    problem:
        Problem name used in the rows.
    algorithm_options:
        Optional mapping ``name -> dict of keyword arguments``.
    base_seed:
        Root of the deterministic per-algorithm seeding.

    Returns
    -------
    ExperimentResult
    """
    pattern = structure_from_matrix(pattern)
    algorithm_options = algorithm_options or {}
    records = []
    for index, name in enumerate(algorithms):
        task = BatchTask(
            problem=problem,
            algorithm=name,
            seed=derive_seed(base_seed, problem, name),
            options=dict(algorithm_options.get(name, {})),
            index=index,
        )
        records.append(execute_task(task, pattern=pattern, capture_errors=False))
    return _experiment_from_records(problem, records)


def run_problem_suite(
    problem_names,
    algorithms: tuple = PAPER_ALGORITHMS,
    scale: float | None = None,
    algorithm_options: dict | None = None,
    n_jobs: int = 1,
    base_seed: int = 0,
    timeout: float | None = None,
) -> list[ExperimentResult]:
    """Run the comparison over a list of registered surrogate problems.

    Parameters
    ----------
    problem_names:
        Iterable of names from :data:`repro.collections.registry.PAPER_PROBLEMS`.
    algorithms:
        Algorithm names to run.
    scale:
        Surrogate scale forwarded to the problem generators.
    algorithm_options:
        Per-algorithm keyword arguments.
    n_jobs:
        Worker processes for the batch engine (``1`` = serial in-process;
        results are identical either way).
    base_seed:
        Root of the deterministic per-task seeding.
    timeout:
        Per-task wall-clock limit in seconds, enforced by the batch engine's
        timeout pool (``None`` = unlimited).  A timed-out task surfaces as a
        :class:`RuntimeError` here, like any other failure.

    Returns
    -------
    list of ExperimentResult, one per problem, in the given order.

    Raises
    ------
    RuntimeError
        When any task failed or timed out — this legacy API has no
        failure-record channel.  Use :func:`repro.batch.run_suite` to get
        structured failure records instead.
    """
    suite = run_suite(
        problem_names,
        algorithms,
        scale=scale,
        n_jobs=n_jobs,
        algorithm_options=algorithm_options,
        base_seed=base_seed,
        timeout=timeout,
    )
    if suite.failures:
        first = suite.failures[0]
        error = first.error or {}
        raise RuntimeError(
            f"{len(suite.failures)} suite task(s) failed; first: "
            f"{first.problem}/{first.algorithm}: "
            f"{error.get('type', 'Error')}: {error.get('message', '')}"
        )
    # Records arrive in cross-product order: len(algorithms) consecutive
    # records per problem entry.  Chunking (rather than filtering by name)
    # keeps duplicate problem names as separate results, like the legacy loop.
    width = len(suite.algorithms)
    return [
        _experiment_from_records(problem, suite.records[i * width : (i + 1) * width])
        for i, problem in enumerate(suite.problems)
    ]
