#!/usr/bin/env python
"""Structural-analysis workflow: shell model, reordering, envelope factorization.

This mirrors how the paper motivates envelope reduction: frontal/envelope
solvers are "still the method of choice ... in many structural engineering
applications", and a better ordering directly reduces both the storage and the
factorization time of such a solver.

The script

1. builds a stiffened cylindrical shell model with 4 degrees of freedom per
   node (a small stand-in for BCSSTK29 / the SHUTTLE model),
2. computes the spectral, RCM, GPS, GK and Sloan orderings,
3. factors the matrix in envelope form under the best spectral ordering and
   under RCM, timing both (the Table 4.4 experiment), and
4. solves a load case and verifies the solution.

Run with::

    python examples/structural_analysis.py [n_axial] [n_around]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import envelope_solve
from repro.analysis.runner import run_comparison
from repro.collections import cylinder_shell_pattern
from repro.envelope.metrics import envelope_size
from repro.factor.cholesky import envelope_cholesky, estimate_factor_work


def main(argv: list[str]) -> None:
    n_axial = int(argv[1]) if len(argv) > 1 else 36
    n_around = int(argv[2]) if len(argv) > 2 else 14

    pattern = cylinder_shell_pattern(
        n_axial=n_axial, n_around=n_around, dofs_per_node=4, stiffener_every=6
    )
    print(
        f"Stiffened shell model: {n_axial} x {n_around} nodes x 4 dof "
        f"=> n={pattern.n}, nonzeros={pattern.nnz}"
    )

    # --- ordering comparison (one block of Table 4.1) ------------------------
    comparison = run_comparison(
        pattern, algorithms=("spectral", "gk", "gps", "rcm", "sloan"), problem="shell"
    )
    print()
    print(comparison.to_text())

    # --- factorization experiment (Table 4.4) --------------------------------
    matrix = pattern.to_scipy("spd")
    spectral = comparison.orderings["spectral"]
    rcm = comparison.orderings["rcm"]

    print("\nEnvelope factorization (Table 4.4 shape):")
    print(f"{'ordering':<10} {'envelope':>12} {'est. work':>14} {'ops':>14} {'time (s)':>10}")
    for name, ordering in (("SPECTRAL", spectral), ("RCM", rcm)):
        start = time.perf_counter()
        chol = envelope_cholesky(matrix, perm=ordering.perm)
        elapsed = time.perf_counter() - start
        print(
            f"{name:<10} {envelope_size(pattern, ordering.perm):>12,} "
            f"{estimate_factor_work(pattern, ordering.perm):>14,.0f} "
            f"{chol.operations:>14,} {elapsed:>10.3f}"
        )

    # --- load-case solve ------------------------------------------------------
    rng = np.random.default_rng(1)
    load = rng.standard_normal(pattern.n)
    solution = envelope_solve(matrix, load, ordering=spectral)
    print(f"\nLoad-case solve residual: {solution.residual_norm:.2e}")


if __name__ == "__main__":
    main(sys.argv)
