"""Comparison tables in the format of the paper's Tables 4.1-4.3.

Each paper table row reports, for one matrix and one algorithm: the envelope
size, the bandwidth, the ordering run time and the rank of the algorithm by
envelope size.  :func:`rows_from_records` produces exactly those rows from
the batch engine's records, and :func:`format_table` renders them as a
fixed-width text table.  :func:`fidelity_scorecard` sets the same records
against the numbers the paper reports, and :func:`factor_scorecard` does
the same for the envelope factorizations of Table 4.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.orderings.registry import PAPER_ALGORITHMS

__all__ = [
    "ComparisonRow", "rank_by", "rows_from_records", "format_table",
    "COMBINATORIAL_ALGORITHMS", "FidelityRow", "fidelity_scorecard",
    "PAPER_FACTOR_TIMES", "FactorRow", "factor_scorecard",
]

#: The paper's combinatorial orderings, against whose best spectral is judged.
COMBINATORIAL_ALGORITHMS = ("rcm", "gps", "gk")

#: Table 4.4: the paper's envelope factorization times in seconds, spectral
#: and RCM ordering, of the three problems it factors.
PAPER_FACTOR_TIMES = {
    "BCSSTK29": {"spectral": 257.0, "rcm": 1677.0},
    "BCSSTK33": {"spectral": 670.0, "rcm": 685.0},
    "BARTH4": {"spectral": 8.19, "rcm": 35.17},
}


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


@dataclass(frozen=True)
class FidelityRow:
    """One problem's run set against the paper's row for it.

    Every ratio is ours over the paper's.  ``nnz_ratio`` counts one triangle
    and the diagonal, as the paper does.  ``spectral_ratio`` is the spectral
    envelope over the best GK, GPS or RCM envelope (below 1, spectral wins);
    ``paper_spectral_ratio`` is the same from the paper's envelopes.
    ``envelopes`` and ``bandwidths`` map each of rcm, gps and gk to ours over
    the paper's.
    """

    problem: str
    n_ratio: float
    nnz_ratio: float
    spectral_ratio: float
    paper_spectral_ratio: float
    envelopes: dict
    bandwidths: dict

    @property
    def agrees(self) -> bool:
        """Whether spectral wins here exactly when it wins in the paper."""
        return (self.spectral_ratio < 1) == (self.paper_spectral_ratio < 1)


def _spectral_ratio(envelopes: dict) -> float:
    return envelopes["spectral"] / min(envelopes[name] for name in COMBINATORIAL_ALGORITHMS)


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def fidelity_scorecard(records, specs) -> tuple[list[FidelityRow], dict]:
    """Score batch records against the paper's Tables 4.1-4.3.

    *specs* are :class:`repro.collections.registry.ProblemSpec`s; a problem
    gets a row, in *specs* order, when its four paper cells all read ok.
    The summary counts the problems scored, our spectral wins, the paper's
    and the problems on which the two agree, and gives the geometric mean
    of each of ``envelopes`` and ``bandwidths`` over the rows.
    """
    cells = {(record.problem, record.algorithm): record for record in records if record.ok}
    rows = []
    for spec in specs:
        by_name = {name: cells.get((spec.name, name)) for name in PAPER_ALGORITHMS}
        if None in by_name.values():
            continue
        envelopes = {name: record.metrics["envelope_size"] for name, record in by_name.items()}
        n = by_name["spectral"].n
        rows.append(FidelityRow(
            problem=spec.name,
            n_ratio=n / spec.paper_n,
            nnz_ratio=(by_name["spectral"].nnz + n) / 2 / spec.paper_nnz,
            spectral_ratio=_spectral_ratio(envelopes),
            paper_spectral_ratio=_spectral_ratio(spec.paper_envelopes),
            envelopes={
                name: envelopes[name] / spec.paper_envelopes[name]
                for name in COMBINATORIAL_ALGORITHMS
            },
            bandwidths={
                name: by_name[name].metrics["bandwidth"] / spec.paper_bandwidths[name]
                for name in COMBINATORIAL_ALGORITHMS
            },
        ))
    summary = {
        "problems": len(rows),
        "spectral_wins": sum(row.spectral_ratio < 1 for row in rows),
        "paper_spectral_wins": sum(row.paper_spectral_ratio < 1 for row in rows),
        "agreements": sum(row.agrees for row in rows),
    }
    for column in ("envelopes", "bandwidths"):
        summary[column] = {
            name: _geomean([getattr(row, column)[name] for row in rows]) if rows else None
            for name in COMBINATORIAL_ALGORITHMS
        }
    return rows, summary


@dataclass(frozen=True)
class FactorRow:
    """One problem's envelope factorizations against the paper's Table 4.4.

    Every ratio is the spectral ordering's over RCM's: ``envelope_ratio`` of
    the envelope sizes, ``work_ratio`` of the factor's multiply-adds and
    ``time_ratio`` of the factor times; the ``paper_`` ratios come from the
    paper's envelopes and times.  ``seconds`` holds our two factor times,
    spectral first.
    """

    problem: str
    envelope_ratio: float
    paper_envelope_ratio: float
    work_ratio: float
    time_ratio: float
    paper_time_ratio: float
    seconds: tuple


def factor_scorecard(factorizations, specs) -> list[FactorRow]:
    """Score envelope factorizations against the paper's Table 4.4.

    *factorizations* maps ``(problem, algorithm)`` to the ``(envelope size,
    operations, seconds)`` of one factorization under that ordering.
    *specs* are :class:`repro.collections.registry.ProblemSpec`s of problems
    in :data:`PAPER_FACTOR_TIMES`; one gets a row, in *specs* order, when
    both its spectral and RCM factorizations are there.
    """
    rows = []
    for spec in specs:
        spectral = factorizations.get((spec.name, "spectral"))
        rcm = factorizations.get((spec.name, "rcm"))
        if spectral is None or rcm is None:
            continue
        paper_times = PAPER_FACTOR_TIMES[spec.name]
        rows.append(FactorRow(
            problem=spec.name,
            envelope_ratio=spectral[0] / rcm[0],
            paper_envelope_ratio=spec.paper_envelopes["spectral"] / spec.paper_envelopes["rcm"],
            work_ratio=spectral[1] / rcm[1],
            time_ratio=spectral[2] / rcm[2],
            paper_time_ratio=paper_times["spectral"] / paper_times["rcm"],
            seconds=(spectral[2], rcm[2]),
        ))
    return rows


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
