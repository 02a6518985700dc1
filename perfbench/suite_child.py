"""The suite workloads, run inside a freshly spawned interpreter.

``run.py`` starts this script once per run (and twice more with ``--probe``
to time set-up alone).  It prints ``READY`` as soon as ``repro.cli`` and
``repro.batch`` are imported, then measures, checks every record and prints
one JSON line of results.  Tracing is off unless ``--trace 1``; the traced
run repeats the cells serially in this interpreter with the layer functions
wrapped (see :mod:`tracer`).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from catalog import PER_LAYER
from check import RESIDUAL_FLOOR, check_record
from stats import geomean, median, percentile
from tracer import Target, Tracer, calibrate_overhead, layer_totals, write_chrome

PAPER = "paper"
ALGORITHMS = {
    "paper-suite": ("spectral", "gk", "gps", "rcm", "sloan"),
    "powerlaw": ("rcm", "gk", "sloan", "spectral"),
}
#: ``(scale, problems)`` groups; one ``run_suite`` call each.
GROUPS = {
    "paper-suite": ((0.25, PAPER),),
    "powerlaw": ((0.02, ("RANDOM/BA", "RANDOM/RMAT")), (0.05, ("RANDOM/WS",))),
}
SMOKE_GROUPS = {
    "paper-suite": ((0.02, ("POW9", "CAN1072", "BCSSTK13")),),
    "powerlaw": ((0.002, ("RANDOM/BA", "RANDOM/RMAT")), (0.005, ("RANDOM/WS",))),
}
#: ``powerlaw`` goes through the per-task killable-process path with a limit
#: no cell comes near, as ``--timeout auto`` does for ``RANDOM/*`` cells.
TIMEOUT_S = {"paper-suite": None, "powerlaw": 120.0}
#: ``paper-suite`` dispatches longest-first by the analytic cost model, the
#: order ``repro suite --balance cost`` uses.  In canonical order FLAP's three
#: slow cells come last and straddle the 90th percentile arrival, so p90
#: jumped between two values 30% apart from run to run.
LONGEST_FIRST = {"paper-suite": True, "powerlaw": False}
N_JOBS = 2


def _cell(task, *_args, **_kwargs) -> str:
    return f"{task.problem}@{task.scale:g}/{task.algorithm}"


TARGETS = (
    Target("batch.execute_task", "repro.batch.engine", "execute_task", cell=_cell),
    Target("collections.load_problem", "repro.collections.registry", "load_problem"),
    Target("graph.breadth_first_levels", "repro.graph.traversal", "breadth_first_levels"),
    Target("graph.pseudo_peripheral_node", "repro.graph.peripheral", "pseudo_peripheral_node"),
    Target("graph.pseudo_diameter", "repro.graph.peripheral", "pseudo_diameter"),
    Target("graph.connected_components", "repro.graph.components", "connected_components"),
    Target("graph.laplacian_matrix", "repro.graph.laplacian", "laplacian_matrix"),
    Target("graph.coarsening_hierarchy", "repro.graph.coarsen", "coarsening_hierarchy"),
    Target("orderings.number_by_levels", "repro.orderings.gps", "number_by_levels"),
    Target("orderings.ordering_from_vector", "repro.orderings.spectral", "ordering_from_vector"),
    *(Target(f"orderings.{name}", "repro.orderings.registry", "ORDERING_ALGORITHMS", key=name)
      for name in ALGORITHMS["paper-suite"]),
    Target("eigen.fiedler_vector", "repro.eigen.fiedler", "fiedler_vector"),
    Target("eigen.lanczos_smallest_nontrivial", "repro.eigen.lanczos",
           "lanczos_smallest_nontrivial", counts=(("iterations", "iterations"),)),
    Target("eigen.multilevel_fiedler", "repro.eigen.multilevel", "multilevel_fiedler",
           counts=(("levels", "levels"), ("refinement_iterations", "refinement_iterations"))),
    Target("envelope.envelope_statistics", "repro.envelope.metrics", "envelope_statistics"),
    Target("envelope.envelope_size", "repro.envelope.metrics", "envelope_size"),
)


def groups_for(workload: str, smoke: bool):
    from repro.collections.registry import available_problems

    chosen = (SMOKE_GROUPS if smoke else GROUPS)[workload]
    return [(scale, available_problems(paper_order=True) if problems == PAPER else list(problems))
            for scale, problems in chosen]


def run_pass(groups, algorithms, seed, n_jobs, timeout, longest_first=False):
    """One pass over every cell: ``(wall_s, [(scale, record)], arrivals)``,
    ``arrivals`` holding each record's arrival time from the pass start."""
    from repro.batch import CostModel, run_suite

    records, arrivals = [], []
    start = time.perf_counter()
    for scale, problems in groups:
        result = run_suite(problems, algorithms, scale=scale, n_jobs=n_jobs,
                           base_seed=seed, keep_orderings=True, timeout=timeout,
                           cost_model=CostModel() if longest_first else None,
                           on_record=lambda *_: arrivals.append(time.perf_counter() - start))
        records.extend((scale, record) for record in result.records)
    return time.perf_counter() - start, records, arrivals


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_records(records) -> dict:
    """Run the output check on every record; failures count against ok_rate."""
    from repro.collections.registry import load_problem

    patterns = {}
    failed, problems, residuals = 0, [], []
    for scale, record in records:
        label = f"{record.problem}@{scale:g}/{record.algorithm}"
        if not record.ok or record.ordering is None:
            failed += 1
            problems.append(f"{label}: status {record.status} {record.error or ''}"[:300])
            continue
        key = (record.problem, scale)
        if key not in patterns:
            patterns[key] = load_problem(record.problem, scale=scale)[0]
        pattern = patterns[key]
        components = (record.ordering.metadata.get("components", [])
                      if record.algorithm == "spectral" else None)
        found, cell_residuals = check_record(pattern.indptr, pattern.indices, pattern.n,
                                             record.ordering.perm, record.metrics, components)
        residuals.extend(cell_residuals)
        if found:
            failed += 1
            problems.extend(f"{label}: {message}" for message in found)
    return {"attempted": len(records), "failed": failed, "problems": problems[:20],
            "residual_max": max(residuals, default=0.0)}


def end_to_end(passes, checked, records, arrivals) -> dict:
    ok = [record for _scale, record in records if record.ok]
    walls = [wall for wall, _count in passes]
    return {
        "wall_s": median(walls),
        "latency_p50_s": median(arrivals),
        "latency_p90_s": percentile(arrivals, 0.90),
        "latency_samples": len(arrivals),
        "throughput_rps": median([count / wall for wall, count in passes]),
        "ok_rate": 1.0 - checked["failed"] / checked["attempted"],
        "envelope_geomean": geomean([max(r.metrics["envelope_size"], 1) for r in ok]) if ok else 0.0,
        "bandwidth_geomean": geomean([max(r.metrics["bandwidth"], 1) for r in ok]) if ok else 0.0,
        "fiedler_residual_max": max(checked["residual_max"], RESIDUAL_FLOOR),
        "fiedler_residual_raw": checked["residual_max"],
        "passes": len(passes),
    }


def traced_pass(groups, algorithms, seed, trace_out):
    """The cells again, serially in this interpreter, under the tracer."""
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        wall, records, _arrivals = run_pass(groups, algorithms, seed, 1, None)
    finally:
        tracer.uninstall()
    per_call = calibrate_overhead()
    if trace_out:
        write_chrome(trace_out, tracer.spans, {"wall_s": wall, "per_span_overhead_s": per_call,
                                               "absent": tracer.absent})
    return wall, records, tracer, per_call


def layer_metrics(tracer, traced_wall, per_call, parallel) -> tuple[dict, list, dict]:
    """``(values, absent, details)``: per-layer metrics from the spans.  A
    metric whose function is missing is listed in ``absent`` and reads 0."""
    totals = layer_totals(tracer.spans)
    values, absent = {}, []

    def put(metric, value, *layers):
        if set(layers) & set(tracer.absent):
            absent.append(metric)
            value = 0
        values[metric] = value

    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field in ("s", "self_s"):
            put(metric, totals.get(layer, {}).get("self_s", 0.0), layer)
        elif field in ("calls", "iterations", "levels", "refinement_iterations"):
            put(metric, totals.get(layer, {}).get(field, 0), layer)

    bfs_per_rcm_cell: dict = {}
    nbl_per_gk_cell: dict = {}
    for span in tracer.spans:
        if span.cell and span.cell.endswith("/rcm") and span.name == "graph.breadth_first_levels":
            bfs_per_rcm_cell[span.cell] = bfs_per_rcm_cell.get(span.cell, 0) + 1
        if span.cell and span.cell.endswith("/gk") and span.name == "orderings.number_by_levels":
            nbl_per_gk_cell[span.cell] = nbl_per_gk_cell.get(span.cell, 0.0) + span.end - span.start
    nbl_in_gk = sum(nbl_per_gk_cell.values())
    put("graph.breadth_first_levels.rcm_cell_max_calls",
        max(bfs_per_rcm_cell.values(), default=0), "graph.breadth_first_levels")
    gk_total = totals.get("orderings.gk", {}).get("total_s", 0.0)
    put("orderings.gk.number_by_levels_share", nbl_in_gk / gk_total if gk_total else 0.0,
        "orderings.number_by_levels", "orderings.gk")
    values["batch.parallel_efficiency"] = parallel["cell_sum"] / (N_JOBS * parallel["wall"])
    values["batch.cell_time.sum_s"] = parallel["cell_sum"]
    values["trace.overhead_ratio"] = per_call * len(tracer.spans) / traced_wall
    values["trace.spans"] = len(tracer.spans)
    details = {
        "bfs_calls_per_rcm_cell": dict(sorted(bfs_per_rcm_cell.items(),
                                              key=lambda item: -item[1])[:6]),
        "number_by_levels_s_per_gk_cell": {cell: round(seconds, 3) for cell, seconds in sorted(
            nbl_per_gk_cell.items(), key=lambda item: -item[1])[:6]},
        "traced_wall_s": traced_wall,
        "per_span_overhead_s": per_call,
        "top_layers": sorted(((name, round(entry["self_s"], 4)) for name, entry in totals.items()),
                             key=lambda item: -item[1])[:8],
    }
    return values, absent, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(GROUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        return 0

    algorithms = ALGORITHMS[args.workload]
    groups = groups_for(args.workload, args.smoke)
    timeout = TIMEOUT_S[args.workload]
    deadline = time.perf_counter() + args.seconds
    passes, records, arrivals = [], [], []
    while True:
        # With tracing on, one untraced pass gives the batch-layer figures.
        wall, pass_records, pass_arrivals = run_pass(groups, algorithms, args.seed, N_JOBS,
                                                     timeout, LONGEST_FIRST[args.workload])
        passes.append((wall, len(pass_records)))
        records.extend(pass_records)
        arrivals.extend(pass_arrivals)
        if args.trace or time.perf_counter() + wall > deadline:
            break
    result = {"peak_rss_mb": peak_rss_mb()}
    checked = check_records(records)
    if args.trace:
        parallel = {"wall": passes[0][0],
                    "cell_sum": sum(record.time_s for _scale, record in records)}
        traced_wall, traced_records, tracer, per_call = traced_pass(
            groups, algorithms, args.seed, args.trace_out)
        traced_check = check_records(traced_records)
        for key in ("attempted", "failed"):
            checked[key] += traced_check[key]
        checked["problems"] += traced_check["problems"]
        result["layers"], result["absent"], result["trace_details"] = layer_metrics(
            tracer, traced_wall, per_call, parallel)
    result.update(end_to_end(passes, checked, records, arrivals))
    result.update(attempted=checked["attempted"], failed=checked["failed"],
                  problems=checked["problems"], seed=args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    import repro.cli  # noqa: F401  (set-up is what a user of the CLI pays)
    import repro.batch  # noqa: F401

    print("READY", flush=True)
    sys.exit(main())
