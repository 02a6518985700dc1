#!/usr/bin/env python
"""Suite-level speedup of the parallel batch engine (`repro suite --jobs N`).

Runs one paper table's full ``problems x algorithms`` cross-product twice —
serially (``n_jobs=1``) and on worker processes (``--jobs``, default 4) —
verifies that the two runs produce *identical* results modulo timing fields,
and reports the wall-clock speedup.  A summary is written to
``benchmarks/results/suite_speedup.txt``.

Run with::

    PYTHONPATH=src python benchmarks/bench_suite_speedup.py [--jobs 4]
        [--scale 0.05] [--table 4.2]

This is a plain script (not a pytest-benchmark harness): the quantity under
test is the end-to-end suite wall time, which ``SuiteResult.wall_time_s``
already records.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.batch import run_suite
from repro.collections.registry import available_problems

RESULTS_PATH = Path(__file__).parent / "results" / "suite_speedup.txt"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--table", default="4.2", choices=["4.1", "4.2", "4.3"])
    args = parser.parse_args()

    problems = available_problems(args.table)
    print(f"Table {args.table} suite ({len(problems)} problems x 4 algorithms, "
          f"scale={args.scale})")

    print("serial run (n_jobs=1) ...")
    serial = run_suite(problems, scale=args.scale, n_jobs=1, keep_orderings=False)
    print(f"  wall time: {serial.wall_time_s:.2f} s")

    print(f"parallel run (n_jobs={args.jobs}) ...")
    parallel = run_suite(problems, scale=args.scale, n_jobs=args.jobs,
                         keep_orderings=False)
    print(f"  wall time: {parallel.wall_time_s:.2f} s")

    differences = serial.diff(parallel)
    if differences:
        print(f"ERROR: serial and parallel runs differ ({len(differences)}):",
              file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 1

    speedup = serial.wall_time_s / max(parallel.wall_time_s, 1e-9)
    lines = [
        f"Suite speedup — Table {args.table}, scale={args.scale}, "
        f"{len(serial.records)} tasks, {os.cpu_count()} core(s)",
        f"serial   (n_jobs=1): {serial.wall_time_s:8.2f} s",
        f"parallel (n_jobs={args.jobs}): {parallel.wall_time_s:8.2f} s",
        f"speedup           : {speedup:8.2f}x",
        "results identical modulo timing fields: yes",
    ]
    print("\n".join(lines))
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text("\n".join(lines) + "\n")
    print(f"summary written to {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
