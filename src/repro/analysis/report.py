"""Comparison tables in the format of the paper's Tables 4.1-4.3.

Each paper table row reports, for one matrix and one algorithm: the envelope
size, the bandwidth, the ordering run time and the rank of the algorithm by
envelope size.  :func:`rows_from_records` produces exactly those rows from
the batch engine's records, and :func:`format_table` renders them as a
fixed-width text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ComparisonRow", "rank_by", "rows_from_records", "format_table"]


@dataclass(frozen=True)
class ComparisonRow:
    """One row of a Table 4.x-style comparison."""

    problem: str
    algorithm: str
    n: int
    nnz: int
    envelope_size: int
    envelope_work: int
    bandwidth: int
    run_time: float
    rank: int = 0
    extra: dict = field(default_factory=dict)


def rank_by(rows: list[ComparisonRow], key: str = "envelope_size") -> list[ComparisonRow]:
    """Assign 1-based ranks by the given metric (smaller is better), per problem."""
    by_problem: dict[str, list[ComparisonRow]] = {}
    for row in rows:
        by_problem.setdefault(row.problem, []).append(row)
    ranked: list[ComparisonRow] = []
    for problem_rows in by_problem.values():
        order = np.argsort([getattr(r, key) for r in problem_rows], kind="stable")
        ranks = np.empty(len(problem_rows), dtype=int)
        ranks[order] = np.arange(1, len(problem_rows) + 1)
        for row, rank in zip(problem_rows, ranks):
            ranked.append(ComparisonRow(**{**row.__dict__, "rank": int(rank)}))
    return ranked


def rows_from_records(records) -> list[ComparisonRow]:
    """Ranked comparison rows from batch :class:`repro.batch.results.TaskRecord`s.

    The adapter between the batch engine's structured results and the paper's
    table format: non-ok tasks (``"error"`` and ``"timeout"`` records alike)
    carry no metrics and are skipped — they are reported separately, e.g. as
    the ``FAILED``/``TIMEOUT`` lines of ``SuiteResult.to_text``.
    """
    rows = []
    for record in records:
        if not getattr(record, "ok", False):
            continue
        rows.append(
            ComparisonRow(
                problem=record.problem,
                algorithm=record.algorithm,
                n=int(record.n),
                nnz=int(record.nnz),
                envelope_size=int(record.metrics["envelope_size"]),
                envelope_work=int(record.metrics["envelope_work"]),
                bandwidth=int(record.metrics["bandwidth"]),
                run_time=float(record.time_s),
            )
        )
    return rank_by(rows)


def format_table(rows: list[ComparisonRow], title: str = "") -> str:
    """Render comparison rows as a fixed-width text table (paper layout)."""
    header = (
        f"{'Problem':<12} {'(n)':>9} {'(nnz)':>11} {'Algorithm':<10} "
        f"{'Envelope':>12} {'Bandwidth':>10} {'Time (s)':>10} {'Rank':>5}"
    )
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    lines.append(header)
    lines.append("-" * len(header))
    previous_problem = None
    for row in rows:
        problem_label = row.problem if row.problem != previous_problem else ""
        n_label = f"({row.n})" if row.problem != previous_problem else ""
        nnz_label = f"({row.nnz})" if row.problem != previous_problem else ""
        previous_problem = row.problem
        lines.append(
            f"{problem_label:<12} {n_label:>9} {nnz_label:>11} {row.algorithm.upper():<10} "
            f"{row.envelope_size:>12,} {row.bandwidth:>10,} {row.run_time:>10.3f} {row.rank:>5}"
        )
    return "\n".join(lines)
