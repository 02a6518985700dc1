#!/usr/bin/env python
"""Quickstart: reorder a sparse symmetric matrix and factor it in envelope form.

Run with::

    python examples/quickstart.py

The script builds a small finite-element-style mesh matrix, computes the
spectral (Fiedler-vector) ordering of the paper next to reverse Cuthill-McKee,
reports the envelope statistics of each, and solves a linear system through
the envelope Cholesky factorization of the reordered matrix.
"""

from __future__ import annotations

import numpy as np

from repro import compare_orderings, envelope_solve, reorder
from repro.analysis import format_table
from repro.collections import airfoil_pattern


def main() -> None:
    # An unstructured airfoil mesh with ~1500 vertices — the BARTH4 family on
    # which the paper's spectral ordering shows its largest gains.
    pattern = airfoil_pattern(1500, seed=4)
    print(f"Problem: unstructured airfoil mesh, n={pattern.n}, nonzeros={pattern.nnz}")

    # --- one-call reordering ------------------------------------------------
    report = reorder(pattern, algorithm="spectral")
    print("\nSpectral ordering (Algorithm 1 of the paper):")
    print(f"  envelope size : {report.original.envelope_size:>10,} -> {report.statistics.envelope_size:,}")
    print(f"  bandwidth     : {report.original.bandwidth:>10,} -> {report.statistics.bandwidth:,}")
    print(f"  reduction     : {report.envelope_reduction:.2f}x")
    print(f"  ordering time : {report.run_time*1e3:.1f} ms")

    # --- compare against the paper's baselines -------------------------------
    result = compare_orderings(pattern, problem="airfoil")
    print()
    print(format_table(result.to_rows(), title="Results for airfoil"))

    # --- solve a linear system with the envelope Cholesky solver -------------
    matrix = pattern.to_scipy("spd")
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(pattern.n)
    b = matrix @ x_true

    solution = envelope_solve(matrix, b, ordering=report.ordering)
    error = np.linalg.norm(solution.x - x_true) / np.linalg.norm(x_true)
    print("\nEnvelope Cholesky solve with the spectral ordering:")
    print(f"  factor operations : {solution.factorization.operations:,}")
    print(f"  residual norm     : {solution.residual_norm:.2e}")
    print(f"  relative error    : {error:.2e}")


if __name__ == "__main__":
    main()
