#!/usr/bin/env python
"""The multilevel Fiedler-vector solver of Section 3, dissected.

Shows the contraction hierarchy (maximal independent sets + domain growing),
the coarse Lanczos solve, and the interpolation/RQI refinement sweep, and
compares accuracy and run time against plain Lanczos and SciPy's LOBPCG.

Run with::

    python examples/multilevel_fiedler.py [n_points]
"""

from __future__ import annotations

import sys
import time

from repro.collections import airfoil_pattern
from repro.eigen import fiedler_vector, multilevel_fiedler
from repro.graph.coarsen import coarsening_hierarchy
from repro.graph.laplacian import laplacian_matrix


def main(argv: list[str]) -> None:
    n_points = int(argv[1]) if len(argv) > 1 else 4000
    pattern = airfoil_pattern(n_points, seed=4)
    print(f"Unstructured airfoil mesh: n={pattern.n}, edges={pattern.num_edges}")

    # --- the contraction hierarchy -------------------------------------------
    hierarchy = coarsening_hierarchy(pattern, coarsest_size=100)
    sizes = [pattern.n] + [level.coarse_pattern.n for level in hierarchy]
    print("\nContraction hierarchy (vertex counts):", " -> ".join(str(s) for s in sizes))

    # --- the full multilevel solve --------------------------------------------
    start = time.perf_counter()
    result = multilevel_fiedler(pattern, coarsest_size=100)
    multilevel_time = time.perf_counter() - start
    print(
        f"\nMultilevel solver: lambda_2 = {result.eigenvalue:.6e}, "
        f"residual = {result.residual_norm:.1e}, levels = {result.levels}, "
        f"coarse Lanczos iters = {result.coarse_iterations}, "
        f"RQI steps = {result.refinement_iterations}, time = {multilevel_time:.3f}s"
    )

    # --- compare against the other solvers ------------------------------------
    lap = laplacian_matrix(pattern)
    print(f"\n{'method':<12} {'lambda_2':>14} {'residual':>10} {'time (s)':>10}")
    for method in ("multilevel", "lanczos", "lobpcg", "eigsh"):
        start = time.perf_counter()
        res = fiedler_vector(pattern, method=method)
        elapsed = time.perf_counter() - start
        print(f"{method:<12} {res.eigenvalue:>14.6e} {res.residual_norm:>10.1e} {elapsed:>10.3f}")

    # sanity: the eigenvector really is the second one (orthogonal to constants)
    print(f"\n|1^T x_2| of the multilevel vector: {abs(result.eigenvector.sum()):.2e}")


if __name__ == "__main__":
    main(sys.argv)
