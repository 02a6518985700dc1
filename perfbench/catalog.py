"""Every metric the benchmark reports, with its unit (``BENCHMARK.json`` lists
the same names; ``tests/test_benchmark_cli.py`` keeps the two in step)."""

from __future__ import annotations

#: End-to-end metrics, measured with tracing off: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_rps", "1/s"),
    ("ok_rate", "ratio"),
    ("envelope_geomean", "count"),
    ("bandwidth_geomean", "count"),
    ("fiedler_residual_max", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: ``(name, unit)``.  A ``.s`` metric
#: is the layer's self time summed over the run.
PER_LAYER = (
    ("collections.load_problem.s", "s"),
    ("graph.breadth_first_levels.calls", "count"),
    ("graph.breadth_first_levels.s", "s"),
    ("graph.breadth_first_levels.rcm_cell_max_calls", "count"),
    ("graph.pseudo_peripheral_node.s", "s"),
    ("graph.pseudo_diameter.s", "s"),
    ("graph.connected_components.s", "s"),
    ("graph.laplacian_matrix.s", "s"),
    ("graph.coarsening_hierarchy.s", "s"),
    ("orderings.number_by_levels.s", "s"),
    ("orderings.gk.number_by_levels_share", "ratio"),
    ("orderings.spectral.self_s", "s"),
    ("orderings.gk.self_s", "s"),
    ("orderings.gps.self_s", "s"),
    ("orderings.rcm.self_s", "s"),
    ("orderings.sloan.self_s", "s"),
    ("orderings.ordering_from_vector.s", "s"),
    ("eigen.fiedler_vector.s", "s"),
    ("eigen.lanczos_smallest_nontrivial.s", "s"),
    ("eigen.lanczos_smallest_nontrivial.iterations", "count"),
    ("eigen.multilevel_fiedler.s", "s"),
    ("eigen.multilevel_fiedler.levels", "count"),
    ("eigen.multilevel_fiedler.refinement_iterations", "count"),
    ("envelope.envelope_statistics.s", "s"),
    ("envelope.envelope_size.calls", "count"),
    ("batch.parallel_efficiency", "ratio"),
    ("batch.cell_time.sum_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.hit_ratio", "ratio"),
    ("serve.compute_p50_s", "s"),
    ("serve.overhead_p50_s", "s"),
    ("serve.inline.overhead_p50_s", "s"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("serve.pool.crashed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)
