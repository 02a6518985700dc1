#!/usr/bin/env python
"""Paper-fidelity scorecard: how close the reproduction comes to Tables 4.1-4.3.

Runs the paper's four algorithms (spectral, gk, gps, rcm) on all 18 paper
problems, each at its ``ProblemSpec.paper_scale`` (the size the paper
reports), with one ``run_suite`` call per distinct scale and base seed 0.
Per problem it shows n and nnz over the paper's, our spectral ratio
(spectral envelope over the best of GK, GPS and RCM) next to the paper's,
whether the two agree on spectral winning, and our RCM, GPS and GK envelope
and bandwidth over the paper's.  The scorecard is written to
``benchmarks/results/fidelity.txt``.

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

from repro.analysis.report import COMBINATORIAL_ALGORITHMS, fidelity_scorecard
from repro.batch import run_suite
from repro.collections.registry import PAPER_PROBLEMS, available_problems
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
                           base_seed=0, keep_orderings=False)
        records.extend(result.records)
    wall = time.perf_counter() - started

    rows, summary = fidelity_scorecard(records, [PAPER_PROBLEMS[name] for name in problems])
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
        f"wall: {wall:.1f} s over {len(by_scale)} run_suite calls, --jobs {args.jobs}; "
        "cell time by algorithm: "
        + ", ".join(f"{name} {cell_time[name]:.1f} s" for name in PAPER_ALGORITHMS),
    ]
    print("\n".join(lines))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text("\n".join(lines) + "\n")
    print(f"scorecard written to {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
