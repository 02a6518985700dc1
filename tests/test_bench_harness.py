"""The ``repro bench`` perf-regression harness: timing core, artifact
round-trip, regression diffing, and the CLI subcommand."""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import repro.bench.core as bench_core
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    diff_bench,
    format_diff,
    load_bench,
    measure,
    pinned_micro_suite,
    run_bench,
    save_bench,
    time_call,
)
from repro.cli import main


# --------------------------------------------------------------------- #
# timing core
# --------------------------------------------------------------------- #
def test_time_call_returns_result_and_elapsed():
    result, seconds = time_call(lambda x: x * 2, 21)
    assert result == 42
    assert seconds >= 0.0


def test_time_call_reads_perf_counter_around_the_call(monkeypatch):
    ticks = itertools.count(10.0, 2.5)
    monkeypatch.setattr(bench_core, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert time_call(lambda: "done") == ("done", 2.5)


def test_time_call_measures_the_whole_call():
    _, seconds = time_call(time.sleep, 0.002)
    assert seconds > 0.001


def test_time_call_forwards_positional_and_keyword_arguments():
    assert time_call(divmod, 17, 5)[0] == (3, 2)
    assert time_call(sorted, [3, 1, 2], reverse=True)[0] == [3, 2, 1]


def test_time_call_passes_a_func_keyword_to_the_callee():
    # ``func`` is positional-only, so the timed callable may take its own.
    assert time_call(dict, func=1)[0] == {"func": 1}


def test_time_call_propagates_exceptions():
    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        time_call(boom)


class _FixedDurations:
    """Stands in for ``time_call`` at one call site: runs the call and
    reports the next of a fixed list of durations, so a timing field can be
    traced back to the measurement that produced it."""

    def __init__(self, *seconds):
        self.seconds = list(seconds)

    def __call__(self, func, /, *args, **kwargs):
        result = func(*args, **kwargs)
        return result, self.seconds.pop(0)


def test_suite_cell_and_wall_times_come_from_time_call(monkeypatch):
    import repro.batch.engine as engine

    # the cell is timed inside the suite's wall-clock call, so it ends first
    monkeypatch.setattr(engine, "time_call", _FixedDurations(1.25, 7.5))
    suite = engine.run_suite(["POW9"], ["rcm"], scale=0.05)
    (record,) = suite.records
    assert record.status == "ok"
    assert record.time_s == 1.25
    assert suite.wall_time_s == 7.5


def test_reorder_run_time_comes_from_time_call(monkeypatch):
    import repro.core.pipeline as pipeline
    from repro.collections.meshes import grid2d_pattern

    monkeypatch.setattr(pipeline, "time_call", _FixedDurations(0.75))
    assert pipeline.reorder(grid2d_pattern(4, 4), "rcm").run_time == 0.75


@pytest.mark.parametrize("preconditioner, setup_s, solve_s",
                         [("ic0", 0.5, 2.0), ("jacobi", 0.5, 2.0), ("none", 0.0, 0.5)])
def test_pcg_setup_and_solve_times_come_from_time_call(monkeypatch, preconditioner,
                                                        setup_s, solve_s):
    import repro.solvers.experiment as experiment
    from repro.collections.meshes import grid2d_pattern
    from repro.graph.laplacian import laplacian_matrix

    matrix = laplacian_matrix(grid2d_pattern(4, 4)) + 0.1 * sp.identity(16)
    monkeypatch.setattr(experiment, "time_call", _FixedDurations(0.5, 2.0))
    result = experiment.preconditioned_cg_experiment(
        matrix, np.ones(16), preconditioner=preconditioner)
    assert result.cg.converged
    assert (result.setup_time, result.solve_time) == (setup_s, solve_s)


def test_measure_statistics():
    calls = []
    stats = measure(lambda: calls.append(1), repeats=3, warmup=2)
    assert len(calls) == 5  # warmup runs execute but are not timed
    assert stats["repeats"] == 3
    assert len(stats["times_s"]) == 3
    assert stats["best_s"] == min(stats["times_s"])
    assert stats["best_s"] <= stats["mean_s"]


def test_measure_rejects_nonpositive_repeats():
    with pytest.raises(ValueError):
        measure(lambda: None, repeats=0)


# --------------------------------------------------------------------- #
# harness + artifact
# --------------------------------------------------------------------- #
def test_pinned_micro_suite_names_are_stable_and_unique():
    for quick in (False, True):
        names = [bench.name for bench in pinned_micro_suite(quick)]
        assert len(names) == len(set(names))
        # group/algorithm/problem@scale — problem names may themselves
        # contain "/" (RANDOM/BA), so two slashes is the *minimum*
        assert all(name.count("/") >= 2 for name in names)
        assert all("@" in name for name in names)
    # quick mode is a subset-shaped suite, not a rename of the full one
    assert {b.group for b in pinned_micro_suite(True)} == {
        "orderings", "graph", "eigen", "powerlaw", "collections"}


def test_numbering_entry_times_king_rule_on_wide_levels():
    """Wide low-degree levels (small-world) and wide high-degree ones (a
    stiff 3-D solid)."""
    artifact = run_bench(quick=True, repeats=1, name_filter="number_by_levels",
                         rev="test-rev")
    assert [kernel["name"] for kernel in artifact["kernels"]] == [
        "graph/number_by_levels/RANDOM/WS@0.002", "graph/number_by_levels/BCSSTK30@0.05"]
    assert all(kernel["group"] == "graph" and kernel["best_s"] > 0.0
               for kernel in artifact["kernels"])
    full = [b.name for b in pinned_micro_suite(False) if "number_by_levels" in b.name]
    assert full == ["graph/number_by_levels/RANDOM/WS@0.01",
                    "graph/number_by_levels/FLAP@0.25"]


def test_validate_entry_checks_a_stiff_pattern():
    """The structural check of an inline CSR upload, on the stiff 3-D case."""
    for quick, name in ((True, "graph/validate/BCSSTK30@0.05"),
                        (False, "graph/validate/FLAP@0.25")):
        assert [b.name for b in pinned_micro_suite(quick) if "/validate/" in b.name] == [name]
    artifact = run_bench(quick=True, repeats=1, name_filter="graph/validate", rev="test-rev")
    (kernel,) = artifact["kernels"]
    assert kernel["group"] == "graph" and kernel["best_s"] > 0.0


def test_sweep_and_sloan_entries_run_on_wide_inputs():
    """A stiff problem's costly pseudo-diameter sweeps and Sloan on a
    small-world graph, in both suites."""
    for quick, sweep_scale, ws_scale in ((True, 0.05, 0.002), (False, 0.1, 0.01)):
        names = {b.name for b in pinned_micro_suite(quick)}
        assert f"graph/pseudo_diameter/BCSSTK30@{sweep_scale:g}" in names
        assert f"orderings/sloan/RANDOM/WS@{ws_scale:g}" in names


def test_load_problem_entry_times_one_build_per_call(monkeypatch):
    for quick, name in ((True, "collections/load_problem/BCSSTK30@0.05"),
                        (False, "collections/load_problem/FLAP@0.25")):
        (bench,) = [b for b in pinned_micro_suite(quick) if b.group == "collections"]
        assert bench.name == name
    import repro.collections.registry as registry

    builds = []
    build = registry.ProblemSpec.build
    monkeypatch.setattr(registry.ProblemSpec, "build",
                        lambda self, scale=None: builds.append(scale) or build(self, scale))
    artifact = run_bench(quick=True, repeats=2, name_filter="load_problem", rev="test-rev")
    (kernel,) = artifact["kernels"]
    assert kernel["name"] == "collections/load_problem/BCSSTK30@0.05"
    assert builds == [0.05] * 3  # warm-up plus two timed calls


def test_search_entries_time_cold_searches(monkeypatch):
    """Every repeat of a search-based entry searches: no memo hit."""
    import repro.graph.peripheral as peripheral

    sweeps = []
    sweep = peripheral.breadth_first_levels
    monkeypatch.setattr(peripheral, "breadth_first_levels",
                        lambda *args, **kwargs: sweeps.append(1) or sweep(*args, **kwargs))
    for name in ("graph/pseudo_diameter/PWT", "orderings/rcm/CAN1072",
                 "orderings/gk/CAN1072", "powerlaw/rcm/RANDOM/BA"):
        counts = []
        for repeats in (1, 3):
            sweeps.clear()
            run_bench(quick=True, repeats=repeats, name_filter=name, rev="test-rev")
            counts.append(len(sweeps))
        # warm-up + repeats calls, each sweeping as many times as the first
        assert counts[1] == 2 * counts[0] > 0, name


def _tiny_artifact(tmp_path, name="bench.json", **overrides):
    """A real (but minimal) run: one filtered kernel, no suite section."""
    artifact = run_bench(quick=True, repeats=1, name_filter="mis", rev="test-rev")
    artifact.update(overrides)
    return save_bench(artifact, tmp_path / name), artifact


def test_run_bench_artifact_schema(tmp_path):
    path, artifact = _tiny_artifact(tmp_path)
    assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
    assert artifact["rev"] == "test-rev"
    assert artifact["machine"]["numpy"]
    assert len(artifact["kernels"]) == 1
    (kernel,) = artifact["kernels"]
    assert kernel["name"] == "graph/mis/PWT@0.03"
    assert kernel["best_s"] >= 0.0
    assert artifact["suite"] is None  # filtered runs skip the suite section
    assert load_bench(path) == json.loads(path.read_text())


def test_load_bench_rejects_foreign_and_future_files(tmp_path):
    not_bench = tmp_path / "other.json"
    not_bench.write_text('{"schema_version": 1}')
    with pytest.raises(ValueError, match="not a repro bench artifact"):
        load_bench(not_bench)
    future = tmp_path / "future.json"
    future.write_text(json.dumps({"kind": "repro-bench",
                                  "schema_version": BENCH_SCHEMA_VERSION + 1}))
    with pytest.raises(ValueError, match="schema version"):
        load_bench(future)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_bench(garbage)


def _artifact_with(kernels, suite=None, rev="r"):
    return {"schema_version": 1, "kind": "repro-bench", "rev": rev,
            "machine": {}, "config": {}, "kernels": kernels, "suite": suite,
            "total_s": 0.0}


def test_diff_bench_speedups_and_regressions():
    baseline = _artifact_with(
        [{"name": "a", "best_s": 1.0}, {"name": "b", "best_s": 0.10},
         {"name": "gone", "best_s": 1.0}],
        suite={"cells": [{"problem": "P", "algorithm": "rcm",
                          "status": "ok", "time_s": 2.0}]},
        rev="old",
    )
    current = _artifact_with(
        [{"name": "a", "best_s": 0.25}, {"name": "b", "best_s": 0.20},
         {"name": "new", "best_s": 1.0}],
        suite={"cells": [{"problem": "P", "algorithm": "rcm",
                          "status": "ok", "time_s": 0.5}]},
        rev="new",
    )
    diff = diff_bench(baseline, current, threshold=0.25)
    by_name = {row["name"]: row for row in diff["rows"]}
    assert by_name["a"]["speedup"] == pytest.approx(4.0)
    assert by_name["suite/P/rcm"]["speedup"] == pytest.approx(4.0)
    assert by_name["b"]["regressed"] is True
    assert diff["regressions"] == ["b"]
    assert diff["added"] == ["new"]
    assert diff["removed"] == ["gone"]
    # geomean over (4, 0.5, 4): (4 * 0.5 * 4) ** (1/3) = 2.0
    assert diff["geomean_speedup"] == pytest.approx(2.0)
    # totals cover the kernel rows only (a + b), not the suite cells
    assert diff["total_base_s"] == pytest.approx(1.10)
    assert diff["total_new_s"] == pytest.approx(0.45)
    assert diff["total_speedup"] == pytest.approx(1.10 / 0.45)
    text = format_diff(diff)
    assert "REGRESSION" in text and "geometric-mean" in text
    assert "total micro-suite wall time" in text


def test_diff_bench_ignores_noise_floor_regressions():
    baseline = _artifact_with([{"name": "tiny", "best_s": 1e-5}])
    current = _artifact_with([{"name": "tiny", "best_s": 9e-5}])
    diff = diff_bench(baseline, current)
    assert diff["regressions"] == []


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_bench_writes_artifact_and_diffs_clean(tmp_path, capsys):
    out = tmp_path / "BENCH_one.json"
    code = main(["bench", "--quick", "--filter", "graph/mis", "--repeats", "1",
                 "--output", str(out)])
    assert code == 0
    assert load_bench(out)["kernels"]
    # a self-diff has no regressions -> exit 0
    code = main(["bench", "--quick", "--filter", "graph/mis", "--repeats", "1",
                 "--output", str(tmp_path / "BENCH_two.json"),
                 "--against", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "bench diff" in stdout and "no regressions" in stdout


def test_cli_bench_exits_nonzero_on_regression(tmp_path, monkeypatch):
    import repro.cli

    baseline = _artifact_with([{"name": "k", "best_s": 0.010}])
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(baseline))
    regressed = _artifact_with([{"name": "k", "best_s": 0.100}], rev="slow")

    def fake_run_bench(**_kwargs):
        return regressed

    import repro.bench
    monkeypatch.setattr(repro.bench, "run_bench", fake_run_bench)
    code = repro.cli.main(["bench", "--output", str(tmp_path / "BENCH_now.json"),
                           "--against", str(path)])
    assert code == 1


def test_cli_bench_rejects_nonpositive_repeats(capsys):
    assert main(["bench", "--quick", "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err


def test_cli_bench_bad_baseline_exit_2(tmp_path):
    missing = main(["bench", "--quick", "--filter", "graph/mis",
                    "--against", str(tmp_path / "nope.json")])
    assert missing == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{}")
    assert main(["bench", "--quick", "--filter", "graph/mis",
                 "--against", str(invalid)]) == 2


def test_suite_cells_carry_n_nnz_and_export_cost_model(tmp_path, capsys):
    """Bench suite cells record n/nnz so --export-cost-model can fit
    per-algorithm cost rates; the exported model loads as a CostModel."""
    from repro.batch import CostModel

    out = tmp_path / "BENCH_x.json"
    costs = tmp_path / "costs.json"
    code = main(["bench", "--quick", "--repeats", "1", "--no-suite",
                 "--filter", "orderings/rcm", "--output", str(out),
                 "--export-cost-model", str(costs)])
    assert code == 0
    assert "cost model" in capsys.readouterr().out
    artifact = json.loads(out.read_text())
    model = CostModel.from_file(costs)
    assert len(model) == len(artifact["kernels"]) > 0
    # artifacts with a suite section expose n/nnz per cell
    from repro.bench import run_bench

    quick = run_bench(quick=True, repeats=1, include_suite=True)
    cells = quick["suite"]["cells"]
    assert cells and all(cell["n"] > 0 and cell["nnz"] > 0 for cell in cells
                         if cell["status"] == "ok")
    direct = CostModel()
    direct.observe_bench(quick)
    assert len(direct) >= len(cells)


# --------------------------------------------------------------------- #
# suite cells: best-of-k timing + sizes (cost-model food)
# --------------------------------------------------------------------- #
def test_suite_cells_record_best_of_k_timing():
    artifact = run_bench(quick=True, repeats=2, include_suite=True)
    suite = artifact["suite"]
    assert suite["repeats"] == 2
    for cell in suite["cells"]:
        if cell["status"] != "ok":
            continue
        assert cell["best_s"] is not None and cell["best_s"] > 0
        # best-of-k is no worse than the last run's engine timing
        assert cell["best_s"] <= cell["time_s"] + 1e-12
        assert cell["n"] > 0 and cell["nnz"] > 0


def test_diff_and_cost_model_prefer_best_s_cells():
    from repro.batch import CostModel

    baseline = _artifact_with(
        [], suite={"scale": 0.02,
                   "cells": [{"problem": "P", "algorithm": "rcm", "status": "ok",
                              "time_s": 9.0, "best_s": 2.0, "n": 10, "nnz": 20}]})
    current = _artifact_with(
        [], suite={"scale": 0.02,
                   "cells": [{"problem": "P", "algorithm": "rcm", "status": "ok",
                              "time_s": 5.0, "best_s": 1.0, "n": 10, "nnz": 20}]})
    diff = diff_bench(baseline, current)
    (row,) = diff["rows"]
    assert row["base_s"] == 2.0 and row["new_s"] == 1.0  # best_s, not time_s
    model = CostModel()
    model.observe_bench(current)
    assert model.estimate("P", "rcm", 0.02) == 1.0
    # read-compat: artifacts without best_s still feed time_s
    legacy = _artifact_with(
        [], suite={"scale": 0.02,
                   "cells": [{"problem": "P", "algorithm": "rcm", "status": "ok",
                              "time_s": 5.0}]})
    legacy_model = CostModel()
    legacy_model.observe_bench(legacy)
    assert legacy_model.estimate("P", "rcm", 0.02) == 5.0


# --------------------------------------------------------------------- #
# the geomean CI gate
# --------------------------------------------------------------------- #
def test_gate_geomean_tolerates_single_kernel_spikes(tmp_path, monkeypatch):
    """One kernel regressing hard fails --gate kernel but not --gate geomean
    (the CI smoke configuration), as long as the geomean stays inside the
    threshold; a broad slowdown fails both."""
    import repro.bench
    import repro.cli

    baseline = _artifact_with([{"name": f"k{i}", "best_s": 0.010}
                               for i in range(12)])
    base_path = tmp_path / "BENCH_base.json"
    base_path.write_text(json.dumps(baseline))
    spike = _artifact_with(
        [{"name": "k0", "best_s": 0.100}]
        + [{"name": f"k{i}", "best_s": 0.010} for i in range(1, 12)], rev="s")

    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: spike)
    args = ["bench", "--output", str(tmp_path / "BENCH_now.json"),
            "--against", str(base_path)]
    assert repro.cli.main(args) == 1                       # per-kernel gate
    assert repro.cli.main(args + ["--gate", "geomean"]) == 0

    broad = _artifact_with([{"name": f"k{i}", "best_s": 0.020}
                            for i in range(12)], rev="b")
    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: broad)
    assert repro.cli.main(args + ["--gate", "geomean"]) == 1


def test_gate_geomean_ignores_sub_noise_floor_rows(tmp_path, monkeypatch):
    import repro.bench
    import repro.cli

    baseline = _artifact_with(
        [{"name": "tiny", "best_s": 1e-5}, {"name": "real", "best_s": 0.010}])
    base_path = tmp_path / "BENCH_base.json"
    base_path.write_text(json.dumps(baseline))
    # the sub-floor kernel "regresses" 100x; the real kernel is unchanged
    current = _artifact_with(
        [{"name": "tiny", "best_s": 1e-3}, {"name": "real", "best_s": 0.010}],
        rev="n")
    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: current)
    code = repro.cli.main(["bench", "--output", str(tmp_path / "BENCH_now.json"),
                           "--against", str(base_path), "--gate", "geomean"])
    assert code == 0


def test_retired_settings_recorded_nowhere_and_flagged_in_legacy_artifacts():
    """A fresh artifact records neither retired switch (each reads as its
    default); an artifact recorded under the retired fast policy or on the
    loop reference tier still diffs as not like-for-like."""
    default = run_bench(quick=True, repeats=1, name_filter="graph/mis", rev="d")
    assert "fiedler_policy" not in default["config"]
    assert "backend" not in default["config"]
    same = diff_bench(default, default)
    assert same["retired"] == []
    assert "retired" not in format_diff(same)
    legacy = json.loads(json.dumps(default))
    legacy["config"]["fiedler_policy"] = "fast"
    diff = diff_bench(legacy, default)
    assert diff["retired"] == ["baseline fiedler_policy='fast'"]
    assert "not like-for-like" in format_diff(diff)
    loops = json.loads(json.dumps(default))
    loops["config"]["backend"] = "python"
    diff = diff_bench(legacy, loops)
    assert diff["retired"] == ["baseline fiedler_policy='fast'",
                               "current backend='python'"]
    assert format_diff(diff).count("WARNING") == 1


@pytest.mark.parametrize("key, value", [("fiedler_policy", "fast"),
                                        ("backend", "python")])
def test_against_a_retired_setting_refuses_to_gate(tmp_path, monkeypatch, capsys,
                                                  key, value):
    import repro.bench
    import repro.cli

    baseline = _artifact_with([{"name": "real", "best_s": 0.010}])
    baseline["config"][key] = value
    base_path = tmp_path / "BENCH_retired.json"
    base_path.write_text(json.dumps(baseline))
    current = _artifact_with([{"name": "real", "best_s": 0.010}], rev="n")
    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: current)
    code = repro.cli.main(["bench", "--output", str(tmp_path / "BENCH_now.json"),
                           "--against", str(base_path), "--gate", "geomean"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot gate" in err and f"{key}='{value}'" in err


#: The bench artifacts checked in at the repository root, by file label, in
#: the order they were recorded.
CHECKED_IN_BENCH = ["bba6733-pre", "d140bb2", "9e34b08", "9e34b08-fast",
                    "50d809a", "633d3cd", "4218932", "9472061", "d635354",
                    "875fad0", "d3c155d", "8bd0441"]


def test_trend_over_checked_in_artifacts_labels_them_by_file_name(capsys):
    """Two artifacts record rev 9e34b08; their file names tell them apart,
    and the labels follow their artifacts through the created_s sort."""
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / f"BENCH_{label}.json") for label in sorted(CHECKED_IN_BENCH)]
    assert main(["bench", "--trend", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bench trend: " + " -> ".join(CHECKED_IN_BENCH)
    # The legacy config.fiedler_policy is still read: both steps across the
    # fast artifact stay out of the cumulative product.
    marked = [line for line in lines if "(not in cumulative:" in line]
    assert len(marked) == 2
    assert marked[0].startswith("9e34b08 -> 9e34b08-fast ")
    assert marked[0].endswith("(not in cumulative: fiedler_policy changed)")
    assert marked[1].startswith("9e34b08-fast -> 50d809a ")
    assert marked[1].endswith(
        "(not in cumulative: fiedler_policy, platform, cpu_count changed)")
    assert lines[1].split() == ["step", "collections", "eigen", "graph",
                                "orderings", "powerlaw"]
    assert lines[-1].split() == ["cumulative", "1.09x", "1.97x", "12.03x",
                                 "17.73x", "5.04x"]


# --------------------------------------------------------------------- #
# trend and diff across configurations and hosts
# --------------------------------------------------------------------- #
def _bench_artifact(rev, created_s, backend, times):
    """A minimal bench artifact; ``backend=None`` omits ``config.backend``,
    like the artifacts recorded before the backend registry existed and
    after it was retired."""
    return {
        "kind": "repro-bench", "schema_version": 1, "rev": rev,
        "created_s": created_s,
        "config": {} if backend is None else {"backend": backend},
        "kernels": [{"name": name, "group": name.split("/")[0], "best_s": t}
                    for name, t in times.items()],
    }


class TestBenchTrendAndDiff:
    def test_machine_info_is_the_host_only(self):
        from repro.bench import machine_info

        assert set(machine_info()) == {"platform", "machine", "python", "numpy",
                                       "scipy", "cpu_count"}

    def test_diff_warns_of_a_python_tier_artifact(self):
        a = _bench_artifact("r1", 1.0, "numpy", {"graph/bfs/X": 1.0})
        b = _bench_artifact("r2", 2.0, "python", {"graph/bfs/X": 0.5})
        diff = diff_bench(a, b)
        assert diff["retired"] == ["current backend='python'"]
        assert ("WARNING: recorded under retired settings (current backend='python')"
                in format_diff(diff))
        same = diff_bench(a, _bench_artifact("r3", 3.0, "numpy",
                                             {"graph/bfs/X": 0.9}))
        assert same["retired"] == []
        assert "WARNING" not in format_diff(same)

    def test_trend_sorts_by_creation_and_chains_geomeans(self):
        from repro.bench import format_trend, trend_bench

        a = _bench_artifact("r1", 100.0, "numpy",
                            {"orderings/rcm/X": 1.0, "graph/bfs/X": 0.8})
        b = _bench_artifact("r2", 200.0, "numpy",
                            {"orderings/rcm/X": 0.5, "graph/bfs/X": 0.8})
        c = _bench_artifact("r3", 300.0, "numpy",
                            {"orderings/rcm/X": 0.25, "graph/bfs/X": 0.2})
        trend = trend_bench([c, a, b])  # order on disk must not matter
        assert trend["revisions"] == ["r1", "r2", "r3"]
        last = trend["steps"][-1]
        assert last["cumulative"]["orderings"] == pytest.approx(4.0)
        assert last["cumulative"]["graph"] == pytest.approx(4.0)
        text = format_trend(trend)
        assert "cumulative" in text and "not in cumulative" not in text

    def test_trend_leaves_config_and_host_changes_out_of_cumulative(self):
        from repro.bench import format_trend, trend_bench

        def artifact(rev, created_s, best_s, policy="default", cpus=2):
            art = _bench_artifact(rev, created_s, "numpy", {"eigen/lanczos/X": best_s})
            art["config"]["fiedler_policy"] = policy
            art["machine"] = {"platform": "Linux", "machine": "x86_64",
                              "python": "3.11.7", "numpy": "2.4.6",
                              "scipy": "1.17.1", "cpu_count": cpus,
                              "backend": "numpy", "numba_available": False}
            return art

        chain = [
            artifact("r1", 1.0, 8.0),
            artifact("r2", 2.0, 4.0),                  # a revision: 2x
            artifact("r3", 3.0, 2.0, policy="fast"),   # a policy switch
            artifact("r4", 4.0, 4.0, cpus=1),          # back, on another host
            artifact("r5", 5.0, 2.0, cpus=1),          # a revision: 2x
        ]
        # A machine block without the fields it used to carry is no change.
        for key in ("backend", "numba_available"):
            del chain[-1]["machine"][key]
        trend = trend_bench(chain)
        assert [step["changed"] for step in trend["steps"]] == [
            [], ["fiedler_policy"], ["fiedler_policy", "cpu_count"], []]
        assert [step["speedups"]["eigen"] for step in trend["steps"]] == \
            pytest.approx([2.0, 2.0, 0.5, 2.0])
        assert trend["steps"][-1]["cumulative"]["eigen"] == pytest.approx(4.0)
        rows = format_trend(trend).splitlines()
        assert rows[3].startswith("r2 -> r3") and rows[3].endswith(
            "(not in cumulative: fiedler_policy changed)")
        assert rows[4].endswith("(not in cumulative: fiedler_policy, cpu_count changed)")
        assert rows[-1].split() == ["cumulative", "4.00x"]

    def test_trend_reads_missing_switches_as_their_defaults(self):
        from repro.bench import trend_bench

        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        current = _bench_artifact("r2", 2.0, "numpy", {"graph/bfs/X": 0.5})
        current["config"].update(fiedler_policy="default", quick=False)
        assert trend_bench([legacy, current])["steps"][0]["changed"] == []
        current["config"]["quick"] = True
        assert trend_bench([legacy, current])["steps"][0]["changed"] == ["quick"]

    def test_artifact_without_backend_reads_as_numpy(self):
        from repro.bench import trend_bench

        unrecorded = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        recorded = _bench_artifact("r2", 2.0, "numpy", {"graph/bfs/X": 0.9})
        diff = diff_bench(unrecorded, recorded)
        assert diff["retired"] == []
        assert "WARNING" not in format_diff(diff)
        assert trend_bench([unrecorded, recorded])["steps"][0]["changed"] == []

    def test_artifact_without_config_reads_as_numpy(self):
        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        del legacy["config"]
        current = _bench_artifact("r2", 2.0, "numpy", {"graph/bfs/X": 0.9})
        diff = diff_bench(legacy, current)
        assert diff["retired"] == []
        assert "WARNING" not in format_diff(diff)

    def test_python_tier_step_stays_out_of_cumulative(self):
        from repro.bench import format_trend, trend_bench

        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        loops = _bench_artifact("r2", 2.0, "python", {"graph/bfs/X": 2.0})
        trend = trend_bench([legacy, loops])
        assert trend["steps"][0]["changed"] == ["backend"]
        assert trend["steps"][0]["cumulative"]["graph"] == pytest.approx(1.0)
        rows = format_trend(trend).splitlines()
        assert rows[2].startswith("r1 -> r2 ")
        assert rows[2].endswith("(not in cumulative: backend changed)")
        assert "[numpy->python]" not in rows[2]

    def test_trend_labels_follow_their_artifacts(self):
        from repro.bench import format_trend, trend_bench

        a = _bench_artifact("r1", 1.0, "numpy", {"graph/bfs/X": 1.0})
        b = _bench_artifact("r1", 2.0, "numpy", {"graph/bfs/X": 0.5})
        trend = trend_bench([b, a], ["r1-late", "r1-early"])
        assert trend["revisions"] == ["r1-early", "r1-late"]
        assert format_trend(trend).splitlines()[2].startswith("r1-early -> r1-late ")
        with pytest.raises(ValueError, match="1 label"):
            trend_bench([a, b], ["only-one"])

    def test_trend_requires_two_artifacts(self):
        from repro.bench import trend_bench

        with pytest.raises(ValueError, match="at least two"):
            trend_bench([_bench_artifact("r1", 1.0, "numpy", {})])

    def test_trend_disjoint_kernels_yield_no_speedup(self):
        from repro.bench import trend_bench

        a = _bench_artifact("r1", 1.0, "numpy", {"graph/old/X": 1.0})
        b = _bench_artifact("r2", 2.0, "numpy", {"graph/new/X": 0.1})
        trend = trend_bench([a, b])
        assert trend["steps"][0]["speedups"]["graph"] is None
        assert trend["steps"][0]["cumulative"]["graph"] == pytest.approx(1.0)

    def test_bench_trend_cli(self, tmp_path, capsys):
        # Each artifact is labelled by its file name without "BENCH_".
        a = tmp_path / "BENCH_r1.json"
        b = tmp_path / "BENCH_r2.json"
        a.write_text(json.dumps(_bench_artifact(
            "r1", 100.0, "numpy", {"graph/bfs/X": 1.0})))
        b.write_text(json.dumps(_bench_artifact(
            "r2", 200.0, "numpy", {"graph/bfs/X": 0.25})))
        code = main(["bench", "--trend", str(a), str(b)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench trend: r1 -> r2" in out
        assert "4.00x" in out

    def test_bench_trend_needs_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_bench_artifact("r1", 1.0, "numpy", {})))
        assert main(["bench", "--trend", str(a)]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_bench_trend_unreadable_file_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_bench_artifact("r1", 1.0, "numpy", {})))
        assert main(["bench", "--trend", str(a), str(tmp_path / "nope.json")]) == 2
