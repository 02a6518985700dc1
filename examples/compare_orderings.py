#!/usr/bin/env python
"""Compare all ordering algorithms across the surrogate problem suite.

Reproduces the layout of the paper's Tables 4.1-4.3 on the synthetic
surrogates, including the extension algorithms (Sloan, hybrid) that the paper
does not evaluate.

Run with::

    python examples/compare_orderings.py [scale] [problem ...]

``scale`` controls the surrogate size (default 0.05, i.e. roughly 5% of the
paper's matrix orders, which keeps the run under a minute); problem names
default to one representative per paper table.  The exit code is 1 when a
cell fails, as for ``repro suite``.
"""

from __future__ import annotations

import sys

from repro.batch import run_suite
from repro.collections.registry import available_problems


def main(argv: list[str]) -> int:
    scale = float(argv[1]) if len(argv) > 1 else 0.05
    problems = argv[2:] if len(argv) > 2 else ["BCSSTK13", "POW9", "DWT2680", "BARTH4", "SHUTTLE"]
    unknown = [p for p in problems if p.upper() not in available_problems()]
    if unknown:
        raise SystemExit(f"unknown problems: {unknown}; available: {available_problems()}")

    algorithms = ("spectral", "gk", "gps", "rcm", "sloan", "hybrid")
    suite = run_suite(problems, algorithms, scale=scale)
    print(suite.to_text())
    print()

    wins = {name: 0 for name in algorithms}
    for winner in suite.winners().values():
        wins[winner] += 1

    print("Envelope-size wins per algorithm (paper: spectral wins 14 of 18):")
    for name, count in sorted(wins.items(), key=lambda kv: -kv[1]):
        print(f"  {name.upper():<10} {count}")
    return 1 if suite.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
