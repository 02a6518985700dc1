"""Ablation A1 — which Fiedler-vector solver to use.

The paper computes the second Laplacian eigenvector with Lanczos or with the
multilevel scheme; SciPy offers LOBPCG and shift-invert ARPACK.  This harness
times every method on unstructured airfoil meshes of increasing size and
records the eigenvalue and residual each produces, quantifying the
quality/time trade-off behind the ``method="auto"`` policy.

Results are written to ``benchmarks/results/ablation_eigensolvers.txt``.
"""

import pytest

from common import TableCollector, timed_once
from repro.collections.generators import airfoil_pattern
from repro.eigen.fiedler import fiedler_vector

SIZES = (400, 1200, 3000)
METHODS = ("lanczos", "multilevel", "lobpcg", "eigsh")

_collector = TableCollector(
    "ablation_eigensolvers.txt",
    "Ablation A1 — Fiedler solver comparison on airfoil meshes",
    ["n_points", "n", "method", "eigenvalue", "residual", "time_s", "converged"],
)

_patterns = {}


def _pattern(n_points):
    if n_points not in _patterns:
        _patterns[n_points] = airfoil_pattern(n_points, seed=4)
    return _patterns[n_points]


@pytest.mark.parametrize(
    "case",
    [(n, m) for n in SIZES for m in METHODS],
    ids=lambda case: f"n{case[0]}-{case[1]}",
)
def test_ablation_eigensolver(benchmark, case):
    n_points, method = case
    benchmark.group = f"ablation-eigensolver:n{n_points}"
    pattern = _pattern(n_points)
    result, seconds = timed_once(
        benchmark, lambda: fiedler_vector(pattern, method=method, rng=1)
    )
    _collector.add(
        n_points=n_points,
        n=pattern.n,
        method=method,
        eigenvalue=float(result.eigenvalue),
        residual=float(result.residual_norm),
        time_s=seconds,
        converged=str(result.converged),
    )
    benchmark.extra_info.update(
        {"method": method, "n": pattern.n, "eigenvalue": result.eigenvalue}
    )
    assert result.eigenvalue > 0
