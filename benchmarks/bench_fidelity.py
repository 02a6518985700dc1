#!/usr/bin/env python
"""Paper-fidelity scorecard: how close the reproduction comes to Tables 4.1-4.4.

Runs the paper's four algorithms (spectral, gk, gps, rcm) on all 18 paper
problems, each at its ``ProblemSpec.paper_scale`` (the size the paper
reports), with one ``run_suite`` call per distinct scale and base seed 0.
Per problem it shows n and nnz over the paper's, our spectral ratio
(spectral envelope over the best of GK, GPS and RCM) next to the paper's,
whether the two agree on spectral winning, and our RCM, GPS and GK envelope
and bandwidth over the paper's.

For Table 4.4 it then factors Laplacian + I of BCSSTK29, BCSSTK33 and
BARTH4 with :func:`repro.factor.cholesky.envelope_cholesky` under the
spectral and RCM orderings of that run, once each, and shows the spectral
over RCM ratios of envelope, multiply-adds and factor time next to the
paper's.  The time ratio comes from one run per cell, so it moves by about
25% with host load, and ``envelope_cholesky``'s time follows the envelope
size rather than the work: the work ratio is the one to compare.  The
scorecard is written to ``benchmarks/results/fidelity.txt``.

Run with::

    PYTHONPATH=src python benchmarks/bench_fidelity.py [--jobs N] [--output PATH]

It reports and does not gate: the spectral agreement count is a measurement,
never a target.  The exit code is 1 only when a cell does not read ok.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.analysis.report import (
    COMBINATORIAL_ALGORITHMS,
    PAPER_FACTOR_TIMES,
    factor_scorecard,
    fidelity_scorecard,
)
from repro.batch import run_suite
from repro.bench import time_call
from repro.collections.registry import PAPER_PROBLEMS, available_problems, load_problem
from repro.factor.cholesky import envelope_cholesky
from repro.orderings.registry import PAPER_ALGORITHMS

RESULTS_PATH = Path(__file__).parent / "results" / "fidelity.txt"


def format_scorecard(rows, summary) -> list[str]:
    """The scorecard's table, geometric-mean row and summary line."""
    columns = [(f"{name.upper()} {kind}", name, field)
               for name in COMBINATORIAL_ALGORITHMS
               for kind, field in (("env", "envelopes"), ("bw", "bandwidths"))]
    header = (f"{'Problem':<10} {'n':>6} {'nnz':>6} {'spectral':>9} {'paper':>7} {'agree':>6}"
              + "".join(f" {label:>8}" for label, _name, _field in columns))
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.problem:<10} {row.n_ratio:>6.3f} {row.nnz_ratio:>6.3f} "
            f"{row.spectral_ratio:>9.3f} {row.paper_spectral_ratio:>7.3f} "
            f"{'yes' if row.agrees else 'no':>6}"
            + "".join(f" {getattr(row, field)[name]:>8.3f}" for _label, name, field in columns)
        )
    lines.append("-" * len(header))
    lines.append(f"{'geomean':<49}"
                 + "".join(f" {summary[field][name]:>8.3f}" for _label, name, field in columns))
    lines.append(
        f"spectral wins on {summary['spectral_wins']} of {summary['problems']} problems "
        f"(paper: {summary['paper_spectral_wins']}); "
        f"the winner agrees on {summary['agreements']}"
    )
    return lines


def factorize(records) -> dict:
    """Factor each Table 4.4 problem under the spectral and RCM orderings of *records*.

    Returns ``{(problem, algorithm): (envelope size, operations, seconds)}``
    for :func:`repro.analysis.report.factor_scorecard`; a cell that did not
    read ok is left out.
    """
    cells = {(record.problem, record.algorithm): record for record in records if record.ok}
    factorizations = {}
    for name in PAPER_FACTOR_TIMES:
        pattern, _spec = load_problem(name, scale=PAPER_PROBLEMS[name].paper_scale)
        matrix = pattern.to_scipy("spd")  # Laplacian + I
        for algorithm in ("spectral", "rcm"):
            record = cells.get((name, algorithm))
            if record is None:
                continue
            chol, seconds = time_call(envelope_cholesky, matrix, perm=record.ordering.perm)
            factorizations[name, algorithm] = (
                record.metrics["envelope_size"], chol.operations, seconds)
    return factorizations


def format_factor_scorecard(rows) -> list[str]:
    """The Table 4.4 section: spectral over RCM, ours next to the paper's."""
    header = (f"{'Problem':<10} {'envelope':>9} {'paper':>7} {'work':>7} {'time':>7} "
              f"{'paper':>7} {'spectral s':>11} {'RCM s':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.problem:<10} {row.envelope_ratio:>9.3f} {row.paper_envelope_ratio:>7.3f} "
            f"{row.work_ratio:>7.3f} {row.time_ratio:>7.3f} {row.paper_time_ratio:>7.3f} "
            f"{row.seconds[0]:>11.2f} {row.seconds[1]:>7.2f}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args()

    problems = available_problems(paper_order=True)
    by_scale = defaultdict(list)
    for name in problems:
        by_scale[PAPER_PROBLEMS[name].paper_scale].append(name)

    records = []
    started = time.perf_counter()
    for scale, names in by_scale.items():
        print(f"{len(names)} problem(s) at scale {scale:g} ...", flush=True)
        result = run_suite(names, PAPER_ALGORITHMS, scale=scale, n_jobs=args.jobs,
                           base_seed=0)
        records.extend(result.records)
    print(f"{len(PAPER_FACTOR_TIMES)} problem(s) to factor ...", flush=True)
    factorizations = factorize(records)
    wall = time.perf_counter() - started

    rows, summary = fidelity_scorecard(records, [PAPER_PROBLEMS[name] for name in problems])
    factor_rows = factor_scorecard(factorizations,
                                   [PAPER_PROBLEMS[name] for name in PAPER_FACTOR_TIMES])
    cell_time = defaultdict(float)
    for record in records:
        cell_time[record.algorithm] += record.time_s
    failed = [f"{record.problem}/{record.algorithm}: {record.status}"
              for record in records if not record.ok]

    lines = [
        f"Paper-fidelity scorecard: {len(problems)} problems at paper scale, "
        f"algorithms {','.join(PAPER_ALGORITHMS)}, base seed 0",
        "Ratios are ours over the paper's; nnz counts one triangle and the diagonal.",
        "spectral: spectral envelope over the best of GK, GPS and RCM (below 1, spectral wins).",
        "",
        *format_scorecard(rows, summary),
        *(f"not scored: {line}" for line in failed),
        "",
        "Table 4.4: envelope Cholesky of Laplacian + I, one timed factorization per ordering.",
        "Ratios are spectral over RCM of envelope size, multiply-adds (work) and factor time;",
        "each paper column is the ratio to its left from the paper's numbers.",
        "The time ratio is one run per cell and moves by about 25% with host load, and",
        "envelope_cholesky's time follows the envelope size, not the work: compare the work ratio.",
        "",
        *format_factor_scorecard(factor_rows),
        "",
        f"wall: {wall:.1f} s over {len(by_scale)} run_suite calls and "
        f"{len(factorizations)} factorizations, --jobs {args.jobs}; cell time by algorithm: "
        + ", ".join(f"{name} {cell_time[name]:.1f} s" for name in PAPER_ALGORITHMS)
        + f"; factor time {sum(seconds for *_, seconds in factorizations.values()):.1f} s",
    ]
    print("\n".join(lines))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text("\n".join(lines) + "\n")
    print(f"scorecard written to {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
