"""The ``repro bench`` perf-regression harness.

Runs a **pinned micro-suite** — named kernel benchmarks over fixed surrogate
problems (orderings, graph kernels, eigensolvers) plus one small
``problems x algorithms`` suite run — and emits a versioned JSON artifact
(``BENCH_<rev>.json``) holding per-kernel and per-cell wall times together
with machine info.  Two artifacts diff with :func:`diff_bench`, which flags
regressions beyond a noise threshold; this is how the repo's bench
trajectory is recorded and how "every PR makes a hot path measurably
faster" gets checked instead of asserted.

Usage (full reference: ``docs/performance.md``)::

    repro bench --output BENCH_abc1234.json          # record a run
    repro bench --against BENCH_abc1234.json         # rerun + diff, exit 1
                                                     # on regressions
    repro bench --quick                              # CI smoke variant

The timing statistic compared across runs is **best-of-k** wall time (see
:mod:`repro.bench.core`); the suite cells additionally record the engine's
own per-task ``time_s``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bench.core import measure

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "KernelBench",
    "pinned_micro_suite",
    "run_bench",
    "save_bench",
    "load_bench",
    "diff_bench",
    "format_diff",
    "trend_bench",
    "format_trend",
    "bench_revision",
    "default_artifact_path",
    "machine_info",
]

#: Version of the ``BENCH_*.json`` artifact schema.
BENCH_SCHEMA_VERSION = 1

_KIND = "repro-bench"

#: Baseline timings below this are treated as pure noise by the regression
#: check (a 2x "regression" of a 50 microsecond kernel is jitter, not a bug).
_NOISE_FLOOR_S = 1e-3


#: Run configuration switches that change what a bench artifact timed, with
#: the value a missing (or null) entry reads as: artifacts recorded before a
#: switch existed ran its default.
_CONFIG_DEFAULTS = {"fiedler_policy": "default", "backend": "numpy", "quick": False}

#: Switches this build no longer has, so new artifacts omit them: an artifact
#: recorded with another value than the default timed code that is gone.
#: Artifacts recorded before the rank-stability stopping rule was deleted may
#: say ``fiedler_policy: "fast"``, and ones recorded on the loop reference
#: kernels ``backend: "python"``.
_RETIRED = ("fiedler_policy", "backend")

#: ``machine`` fields that identify the host and library stack a bench ran on.
_HOST_FIELDS = ("platform", "machine", "python", "numpy", "scipy", "cpu_count")


def _config_value(artifact: dict, key: str):
    """One configuration switch of an artifact (see ``_CONFIG_DEFAULTS``)."""
    value = (artifact.get("config") or {}).get(key)
    return _CONFIG_DEFAULTS[key] if value is None else value


def _retired_settings(artifact: dict) -> list[str]:
    """The retired switches (see ``_RETIRED``) *artifact* was recorded under."""
    return [f"{key}={_config_value(artifact, key)!r}" for key in _RETIRED
            if _config_value(artifact, key) != _CONFIG_DEFAULTS[key]]


def _incomparable(base: dict, new: dict) -> list[str]:
    """The configuration switches and host fields two artifacts differ in."""
    changed = [key for key in _CONFIG_DEFAULTS
               if _config_value(base, key) != _config_value(new, key)]
    base_host, new_host = base.get("machine") or {}, new.get("machine") or {}
    changed += [key for key in _HOST_FIELDS if base_host.get(key) != new_host.get(key)]
    return changed


@dataclass(frozen=True)
class KernelBench:
    """One named micro-benchmark of the pinned suite.

    ``setup`` builds the inputs (untimed) and returns the zero-argument
    callable that gets measured.
    """

    name: str
    group: str
    setup: Callable[[], Callable[[], object]]
    problem: str = ""
    repeats: int | None = None


def machine_info() -> dict:
    """Platform / library versions recorded into every artifact."""
    import scipy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def bench_revision() -> str:
    """Short source revision for artifact naming (``local`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"


def default_artifact_path(rev: str | None = None) -> Path:
    """``BENCH_<rev>.json`` in the current directory."""
    return Path(f"BENCH_{rev or bench_revision()}.json")


# --------------------------------------------------------------------- #
# the pinned micro-suite
# --------------------------------------------------------------------- #
def _ordering_bench(problem: str, scale: float, algorithm: str,
                    group: str = "orderings") -> KernelBench:
    def setup():
        from repro.batch import BatchTask, derive_seed, task_options
        from repro.collections.registry import load_problem
        from repro.orderings.registry import ORDERING_ALGORITHMS

        pattern, _spec = load_problem(problem, scale=scale)
        func = ORDERING_ALGORITHMS[algorithm]
        task = BatchTask(problem=problem, algorithm=algorithm, scale=scale,
                         seed=derive_seed(0, problem, algorithm))
        options = task_options(func, task)
        if algorithm in ("spectral", "hybrid"):
            # Repeats share the pattern's spectral workspace: a warm plan.
            return lambda: func(pattern, **options)
        # A fresh copy per call, so no repeat reads a memoized search.
        return lambda: func(pattern.copy(), **options)

    return KernelBench(
        name=f"{group}/{algorithm}/{problem}@{scale:g}",
        group=group, setup=setup, problem=problem,
    )


def _graph_bench(problem: str, scale: float, kernel: str) -> KernelBench:
    def setup():
        from repro.collections.registry import load_problem
        from repro.graph.coarsen import coarsen_graph, maximal_independent_set
        from repro.graph.peripheral import pseudo_diameter
        from repro.graph.traversal import breadth_first_levels
        from repro.orderings.gps import combined_level_structure, number_by_levels

        pattern, _spec = load_problem(problem, scale=scale)
        if kernel == "number_by_levels":
            # GK's numbering phase alone, on the GPS combined levels.
            levels, _height, start, _end = combined_level_structure(pattern)
            return lambda: number_by_levels(pattern, levels, start, tie_break="king")
        kernels = {
            "bfs_levels": lambda: breadth_first_levels(pattern, 0),
            "pseudo_diameter": lambda: pseudo_diameter(pattern.copy()),  # cold search
            "mis": lambda: maximal_independent_set(pattern),
            "coarsen": lambda: coarsen_graph(pattern),
            "validate": pattern.validate,
        }
        return kernels[kernel]

    return KernelBench(
        name=f"graph/{kernel}/{problem}@{scale:g}",
        group="graph", setup=setup, problem=problem,
    )


def _load_problem_bench(problem: str, scale: float) -> KernelBench:
    def setup():
        from repro.collections.registry import load_problem

        return lambda: load_problem(problem, scale=scale)

    return KernelBench(
        name=f"collections/load_problem/{problem}@{scale:g}",
        group="collections", setup=setup, problem=problem,
    )


def _eigen_bench(problem: str, scale: float, kernel: str) -> KernelBench:
    def setup():
        from repro.collections.registry import load_problem
        from repro.eigen.lanczos import lanczos_smallest_nontrivial
        from repro.eigen.multilevel import multilevel_fiedler
        from repro.graph.laplacian import laplacian_matrix

        pattern, _spec = load_problem(problem, scale=scale)
        if kernel == "lanczos":
            laplacian = laplacian_matrix(pattern)
            return lambda: lanczos_smallest_nontrivial(laplacian, rng=0)
        return lambda: multilevel_fiedler(pattern, rng=0)

    return KernelBench(
        name=f"eigen/{kernel}/{problem}@{scale:g}",
        group="eigen", setup=setup, problem=problem,
    )


def _startup_bench(name: str, *argv: str) -> KernelBench:
    """Process wall of ``python *argv`` in a fresh interpreter: what a user
    of the CLI waits for before and around the work itself."""
    def setup():
        import repro

        env = dict(os.environ)
        source = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        command = [sys.executable, *argv]
        return lambda: subprocess.run(command, env=env, check=True, capture_output=True)

    return KernelBench(name=f"startup/{name}", group="startup", setup=setup)


def pinned_micro_suite(quick: bool = False) -> list[KernelBench]:
    """The fixed benchmark list compared across revisions.

    Names are stable identifiers: :func:`diff_bench` joins artifacts on them,
    so renaming or re-scaling an entry breaks the trajectory for that kernel
    (the diff reports it as added/removed rather than silently comparing
    different work).
    """
    if quick:
        ordering_cases = [("CAN1072", 0.1), ("DWT2680", 0.05)]
        ordering_algorithms = ("rcm", "gps", "gk", "sloan")
        powerlaw_cases = [("RANDOM/BA", 0.002), ("RANDOM/RMAT", 0.002)]
        powerlaw_algorithms = ("rcm", "gk")
        graph_problem, graph_scale = "PWT", 0.03
        ws_scale = 0.002
        sweep_scale = 0.05
        stiff_case = ("BCSSTK30", 0.05)
    else:
        ordering_cases = [("CAN1072", 0.5), ("DWT2680", 0.2)]
        ordering_algorithms = ("rcm", "gps", "gk", "sloan", "king", "spectral")
        powerlaw_cases = [("RANDOM/BA", 0.004), ("RANDOM/RMAT", 0.004)]
        powerlaw_algorithms = ("rcm", "gk", "sloan")
        graph_problem, graph_scale = "PWT", 0.1
        ws_scale = 0.01
        sweep_scale = 0.1
        stiff_case = ("FLAP", 0.25)

    benches = [
        _ordering_bench(problem, scale, algorithm)
        for problem, scale in ordering_cases
        for algorithm in ordering_algorithms
    ]
    # The power-law group: same ordering kernels on hub-dominated graphs,
    # where frontier widths behave nothing like the mesh cases above.
    benches += [
        _ordering_bench(problem, scale, algorithm, group="powerlaw")
        for problem, scale in powerlaw_cases
        for algorithm in powerlaw_algorithms
    ]
    benches += [
        _graph_bench(graph_problem, graph_scale, kernel)
        for kernel in ("bfs_levels", "pseudo_diameter", "mis", "coarsen")
    ]
    # PWT's levels are narrow; small-world levels are wide and tie-heavy,
    # and a stiff 3-D solid's are wide and high-degree.
    benches.append(_graph_bench("RANDOM/WS", ws_scale, "number_by_levels"))
    benches.append(_graph_bench(*stiff_case, "number_by_levels"))
    # The structural check of an inline CSR upload, at an upload's size.
    benches.append(_graph_bench(*stiff_case, "validate"))
    # PWT's sweeps are cheap; a stiff 3-D problem's pseudo-diameter search
    # runs ~150-200 costly ones.  Sloan on a small-world graph spreads its
    # priorities over many values.
    benches.append(_graph_bench("BCSSTK30", sweep_scale, "pseudo_diameter"))
    benches.append(_ordering_bench("RANDOM/WS", ws_scale, "sloan"))
    benches += [
        _eigen_bench(graph_problem, graph_scale, kernel)
        for kernel in ("lanczos", "multilevel_fiedler")
    ]
    # One surrogate build per call: a dense multi-dof 3-D solid.
    benches.append(_load_problem_bench(*stiff_case))
    benches.append(_startup_bench("import_cli", "-c", "import repro.cli"))
    benches.append(_startup_bench(
        "suite", "-m", "repro", "suite", "POW9", "--algorithms", "rcm", "--scale", "0.05"))
    return benches


def _suite_spec(quick: bool) -> dict:
    return {
        "problems": ["CAN1072", "POW9"],
        "algorithms": ["spectral", "gk", "gps", "rcm"],
        "scale": 0.02 if quick else 0.05,
    }


# --------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------- #
def run_bench(
    *,
    quick: bool = False,
    repeats: int | None = None,
    name_filter: str | None = None,
    include_suite: bool = True,
    on_result: Callable[[dict], None] | None = None,
    rev: str | None = None,
) -> dict:
    """Execute the pinned micro-suite and return the artifact dictionary.

    Parameters
    ----------
    quick:
        Smaller problem scales and fewer repeats — the CI smoke variant.
    repeats:
        Timed runs per kernel (default: 2 quick, 3 full; best-of-k is the
        compared statistic, so more repeats mean less noise).  The suite
        section runs the same number of times, so its cells carry best-of-k
        ``best_s`` too.
    name_filter:
        Case-insensitive substring; only matching kernel names run.
    include_suite:
        Also run the small batch-engine suite and record per-cell times.
    on_result:
        Callback invoked with each finished kernel entry (progress hook).
    rev:
        Source revision recorded in the artifact (default: git describe).
    """
    if repeats is None:
        repeats = 2 if quick else 3
    start = time.perf_counter()
    kernels = []
    for bench in pinned_micro_suite(quick):
        if name_filter and name_filter.lower() not in bench.name.lower():
            continue
        func = bench.setup()
        stats = measure(func, repeats=bench.repeats or repeats, warmup=1)
        entry = {
            "name": bench.name,
            "group": bench.group,
            "problem": bench.problem,
            "best_s": stats["best_s"],
            "mean_s": stats["mean_s"],
            "repeats": stats["repeats"],
        }
        kernels.append(entry)
        if on_result is not None:
            on_result(entry)

    suite_section = None
    if include_suite and not name_filter:
        from repro.batch import run_suite

        spec = _suite_spec(quick)
        # Best-of-k per cell: the suite runs `repeats` times and each cell
        # records the minimum of its per-run engine timings — the same
        # statistic the kernel rows use — so bench-sourced cost-model
        # observations and suite-cell diffs stop depending on one noisy run.
        best_cells: dict[tuple, float] = {}
        for _run in range(repeats):
            suite = run_suite(spec["problems"], spec["algorithms"],
                              scale=spec["scale"], n_jobs=1,
                              keep_orderings=False)
            for record in suite.records:
                if record.status != "ok":
                    continue
                key = (record.problem, record.algorithm)
                previous = best_cells.get(key)
                if previous is None or record.time_s < previous:
                    best_cells[key] = record.time_s
        suite_section = {
            **spec,
            "wall_s": suite.wall_time_s,
            "repeats": repeats,
            "cells": [
                {
                    "problem": record.problem,
                    "algorithm": record.algorithm,
                    "status": record.status,
                    "time_s": record.time_s,
                    "best_s": best_cells.get((record.problem, record.algorithm)),
                    # n/nnz let the scheduler's CostModel fit per-algorithm
                    # cost rates from bench artifacts (additive; older
                    # artifacts without them still load and diff fine).
                    "n": record.n,
                    "nnz": record.nnz,
                }
                for record in suite.records
            ],
        }
        if on_result is not None:
            on_result({"name": "suite", "group": "suite",
                       "best_s": suite.wall_time_s, "mean_s": suite.wall_time_s,
                       "repeats": repeats})

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": _KIND,
        "rev": rev or bench_revision(),
        "created_s": time.time(),
        "machine": machine_info(),
        "config": {"quick": quick, "repeats": repeats,
                   "filter": name_filter, "include_suite": include_suite},
        "kernels": kernels,
        "suite": suite_section,
        "total_s": time.perf_counter() - start,
    }


def save_bench(artifact: dict, path) -> Path:
    """Write the artifact as indented JSON, atomically; returns the path."""
    from repro.utils.atomic import atomic_write_text

    return atomic_write_text(
        path, json.dumps(artifact, indent=2, sort_keys=False) + "\n"
    )


def load_bench(path) -> dict:
    """Load and validate a ``BENCH_*.json`` artifact.

    Raises
    ------
    ValueError
        When the file is not a bench artifact or its schema version is newer
        than this build understands.
    """
    path = Path(path)
    try:
        artifact = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(artifact, dict) or artifact.get("kind") != _KIND:
        raise ValueError(f"{path} is not a repro bench artifact")
    version = artifact.get("schema_version")
    if not isinstance(version, int) or version > BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has bench schema version {version!r}; this build reads "
            f"versions up to {BENCH_SCHEMA_VERSION}"
        )
    return artifact


# --------------------------------------------------------------------- #
# diffing two artifacts
# --------------------------------------------------------------------- #
def _cell_rows(artifact: dict) -> dict[str, float]:
    suite = artifact.get("suite")
    if not suite:
        return {}
    # Prefer the best-of-k statistic; artifacts recorded before cells carried
    # ``best_s`` fall back to their single-run ``time_s``.
    return {
        f"suite/{cell['problem']}/{cell['algorithm']}":
            float(cell.get("best_s") or cell["time_s"])
        for cell in suite["cells"]
        if cell.get("status") == "ok"
    }


def diff_bench(baseline: dict, current: dict, *, threshold: float = 0.25) -> dict:
    """Compare two bench artifacts kernel by kernel (and cell by cell).

    Parameters
    ----------
    baseline, current:
        Artifacts from :func:`run_bench` / :func:`load_bench`.
    threshold:
        Relative slowdown treated as a regression: a kernel regresses when
        ``current > baseline * (1 + threshold)`` *and* the baseline is above
        the noise floor.  Timing noise on sub-millisecond kernels is never
        flagged.

    Returns
    -------
    dict
        ``rows`` (one per kernel present in both artifacts: name, base_s,
        new_s, speedup), ``regressions`` (names), ``added`` / ``removed``
        (names only in one artifact), ``geomean_speedup`` over comparable
        rows, ``gate_geomean_speedup`` (geomean over rows above the noise
        floor — the ``--gate geomean`` CI statistic), the two revisions,
        and ``retired`` (each retired setting either artifact was recorded
        under, such as ``"baseline fiedler_policy='fast'"``: that artifact
        timed code this build no longer runs).
    """
    base_times = {k["name"]: float(k["best_s"]) for k in baseline.get("kernels", [])}
    base_times.update(_cell_rows(baseline))
    new_times = {k["name"]: float(k["best_s"]) for k in current.get("kernels", [])}
    new_times.update(_cell_rows(current))

    rows, regressions, log_speedups, gated_logs = [], [], [], []
    for name in [n for n in base_times if n in new_times]:
        base_s, new_s = base_times[name], new_times[name]
        speedup = base_s / new_s if new_s > 0 else math.inf
        row = {"name": name, "base_s": base_s, "new_s": new_s, "speedup": speedup}
        regressed = new_s > base_s * (1.0 + threshold) and base_s >= _NOISE_FLOOR_S
        row["regressed"] = regressed
        if regressed:
            regressions.append(name)
        if base_s > 0 and new_s > 0:
            log_speedups.append(math.log(speedup))
            if base_s >= _NOISE_FLOOR_S:
                gated_logs.append(math.log(speedup))
        rows.append(row)

    geomean = math.exp(sum(log_speedups) / len(log_speedups)) if log_speedups else 1.0
    # The CI gate statistic: geomean restricted to kernels above the noise
    # floor, so sub-millisecond jitter cannot fail (or save) a gated job.
    gate_geomean = math.exp(sum(gated_logs) / len(gated_logs)) if gated_logs else 1.0
    # Total micro-suite wall time over the pinned kernels present in both
    # artifacts (suite cells excluded: the suite section re-times ordering
    # work the kernel rows already cover).
    kernel_rows = [r for r in rows if not r["name"].startswith("suite/")]
    total_base = sum(r["base_s"] for r in kernel_rows)
    total_new = sum(r["new_s"] for r in kernel_rows)
    return {
        "baseline_rev": baseline.get("rev", "?"),
        "current_rev": current.get("rev", "?"),
        "retired": [f"{side} {setting}"
                    for side, artifact in (("baseline", baseline), ("current", current))
                    for setting in _retired_settings(artifact)],
        "threshold": threshold,
        "rows": rows,
        "regressions": regressions,
        "added": sorted(set(new_times) - set(base_times)),
        "removed": sorted(set(base_times) - set(new_times)),
        "geomean_speedup": geomean,
        "gate_geomean_speedup": gate_geomean,
        "total_base_s": total_base,
        "total_new_s": total_new,
        "total_speedup": total_base / total_new if total_new > 0 else math.inf,
    }


# --------------------------------------------------------------------- #
# trajectory across many artifacts
# --------------------------------------------------------------------- #
def trend_bench(artifacts: list[dict], labels: list[str] | None = None) -> dict:
    """Kernel-group geomean trajectory across checked-in bench artifacts.

    *labels* name the artifacts in the output, one per artifact (the CLI
    passes each file name without its ``BENCH_`` prefix, since two artifacts
    can record the same ``rev``); without them each artifact is named by its
    ``rev``.  Sorts the artifacts, each with its label, by their recorded
    ``created_s`` timestamp, then for each consecutive pair computes the
    per-group geometric-mean speedup over the kernel names present in
    **both** artifacts (suite cells excluded — they re-time ordering work the
    kernel rows already cover).  Speedups are chained cumulatively, so the
    last step's ``cumulative`` column answers "how much faster is the newest
    artifact than the oldest, per group".
    A step between artifacts that differ in a configuration switch
    (``quick``, or a legacy artifact's backend tier or Fiedler policy) or
    a host field (``machine.platform``, ``machine``, ``python``, ``numpy``,
    ``scipy`` or ``cpu_count``) measures that change, not the revision: it
    keeps its speedups but stays out of the cumulative product.

    Returns a dict with ``groups`` (sorted union of group names),
    ``revisions`` (the labels in time order), ``steps`` (one per consecutive
    pair: the ``base_rev`` and ``new_rev`` labels, the ``changed`` switch
    and host field names, per-group
    ``speedups``/``cumulative`` maps and ``common`` row counts), suitable
    for :func:`format_trend`.
    """
    if len(artifacts) < 2:
        raise ValueError("trend needs at least two bench artifacts")
    if labels is None:
        labels = [a.get("rev", "?") for a in artifacts]
    if len(labels) != len(artifacts):
        raise ValueError(f"trend got {len(labels)} label(s) for "
                         f"{len(artifacts)} artifact(s)")
    ordered = sorted(zip(labels, artifacts),
                     key=lambda pair: float(pair[1].get("created_s", 0.0)))

    def rows(artifact: dict) -> dict[str, tuple[str, float]]:
        return {
            k["name"]: (k.get("group", "?"), float(k["best_s"]))
            for k in artifact.get("kernels", [])
        }

    groups: set[str] = set()
    for _label, artifact in ordered:
        groups.update(group for group, _ in rows(artifact).values())
    group_list = sorted(groups)

    steps = []
    cumulative = {group: 1.0 for group in group_list}
    for (base_label, base), (new_label, new) in zip(ordered, ordered[1:]):
        base_rows, new_rows = rows(base), rows(new)
        logs: dict[str, list[float]] = {group: [] for group in group_list}
        for name, (group, base_s) in base_rows.items():
            if name not in new_rows:
                continue
            new_s = new_rows[name][1]
            if base_s > 0 and new_s > 0:
                logs[group].append(math.log(base_s / new_s))
        speedups = {
            group: math.exp(sum(values) / len(values)) if values else None
            for group, values in logs.items()
        }
        changed = _incomparable(base, new)
        for group, speedup in speedups.items():
            if speedup is not None and not changed:
                cumulative[group] *= speedup
        steps.append({
            "base_rev": base_label,
            "new_rev": new_label,
            "changed": changed,
            "speedups": speedups,
            "cumulative": dict(cumulative),
            "common": {group: len(values) for group, values in logs.items()},
        })
    return {"groups": group_list, "steps": steps,
            "revisions": [label for label, _artifact in ordered]}


def format_trend(trend: dict) -> str:
    """Human-readable table of a :func:`trend_bench` result."""
    groups = trend["groups"]
    lines = [
        "bench trend: " + " -> ".join(trend["revisions"]),
        f"{'step':<28} " + " ".join(f"{group:>12}" for group in groups),
    ]

    def cell(value) -> str:
        return f"{value:>11.2f}x" if value is not None else f"{'-':>12}"

    for step in trend["steps"]:
        label = f"{step['base_rev']} -> {step['new_rev']}"
        row = f"{label:<28} " + " ".join(cell(step["speedups"].get(g)) for g in groups)
        if step["changed"]:
            row += f"  (not in cumulative: {', '.join(step['changed'])} changed)"
        lines.append(row)
    if trend["steps"]:
        final = trend["steps"][-1]["cumulative"]
        lines.append(f"{'cumulative':<28} "
                     + " ".join(cell(final.get(g)) for g in groups))
    return "\n".join(lines)


def format_diff(diff: dict) -> str:
    """Human-readable table of a :func:`diff_bench` result."""
    lines = [
        f"bench diff: baseline {diff['baseline_rev']} -> current {diff['current_rev']}",
        f"{'kernel':<44} {'baseline':>10} {'current':>10} {'speedup':>8}",
    ]
    for row in diff["rows"]:
        flag = "  << REGRESSION" if row["regressed"] else ""
        lines.append(
            f"{row['name']:<44} {row['base_s']:>9.4f}s {row['new_s']:>9.4f}s "
            f"{row['speedup']:>7.2f}x{flag}"
        )
    for name in diff["added"]:
        lines.append(f"{name:<44} {'-':>10} {'new':>10}")
    for name in diff["removed"]:
        lines.append(f"{name:<44} {'gone':>10} {'-':>10}")
    lines.append(f"geometric-mean speedup over {len(diff['rows'])} kernels: "
                 f"{diff['geomean_speedup']:.2f}x "
                 f"(above noise floor: {diff.get('gate_geomean_speedup', 1.0):.2f}x)")
    if diff["retired"]:
        lines.append(f"WARNING: recorded under retired settings "
                     f"({', '.join(diff['retired'])}) — timings are not like-for-like")
    lines.append(f"total micro-suite wall time: {diff['total_base_s']:.3f}s -> "
                 f"{diff['total_new_s']:.3f}s ({diff['total_speedup']:.2f}x)")
    if diff["regressions"]:
        lines.append(f"{len(diff['regressions'])} regression(s) beyond "
                     f"{diff['threshold']:.0%}: {', '.join(diff['regressions'])}")
    else:
        lines.append("no regressions")
    return "\n".join(lines)
