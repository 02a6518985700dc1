"""Ablation A2 — multilevel solver parameters.

Section 3 of the paper contracts "until the size of the vertex set is less
than some number (typically 100)" and refines with "one or perhaps two" RQI
iterations.  This harness sweeps the coarsest-graph size and the per-level
RQI step count on an airfoil mesh and records quality (eigenvalue, residual)
and cost, justifying the library defaults (coarsest_size=100, rqi_steps=2).

Results are written to ``benchmarks/results/ablation_multilevel.txt``.
"""

import pytest

from common import TableCollector, timed_once
from repro.collections.generators import airfoil_pattern
from repro.eigen.multilevel import multilevel_fiedler

COARSEST_SIZES = (25, 100, 400)
RQI_STEPS = (1, 2, 4)
N_POINTS = 2500

_collector = TableCollector(
    "ablation_multilevel.txt",
    f"Ablation A2 — multilevel parameters (airfoil mesh, {N_POINTS} points)",
    ["coarsest_size", "rqi_steps", "levels", "eigenvalue", "residual", "rqi_total", "time_s"],
)

_pattern_cache = {}


def _pattern():
    if "p" not in _pattern_cache:
        _pattern_cache["p"] = airfoil_pattern(N_POINTS, seed=4)
    return _pattern_cache["p"]


@pytest.mark.parametrize(
    "case",
    [(c, r) for c in COARSEST_SIZES for r in RQI_STEPS],
    ids=lambda case: f"coarse{case[0]}-rqi{case[1]}",
)
def test_ablation_multilevel(benchmark, case):
    coarsest_size, rqi_steps = case
    benchmark.group = "ablation-multilevel"
    pattern = _pattern()
    result, seconds = timed_once(
        benchmark,
        lambda: multilevel_fiedler(
            pattern, coarsest_size=coarsest_size, rqi_steps=rqi_steps, rng=1
        ),
    )
    _collector.add(
        coarsest_size=coarsest_size,
        rqi_steps=rqi_steps,
        levels=result.levels,
        eigenvalue=float(result.eigenvalue),
        residual=float(result.residual_norm),
        rqi_total=result.refinement_iterations,
        time_s=seconds,
    )
    benchmark.extra_info.update(
        {"coarsest_size": coarsest_size, "rqi_steps": rqi_steps, "levels": result.levels}
    )
    assert result.eigenvalue > 0
