"""Property and unit tests for the cost-aware scheduler (repro.batch.sched).

The planner's contract, pinned here on randomized cost tables:

* every task of the input appears in **exactly one** shard (a partition —
  nothing dropped, nothing duplicated);
* the chosen plan's estimated makespan is **never worse than round-robin's**
  (the planner falls back to round-robin when the greedy LPT plan would
  lose, so the inequality holds unconditionally);
* planning is deterministic — same tasks, same cost table, same plan.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import (
    BatchTask,
    CostModel,
    build_tasks,
    order_longest_first,
    plan_shards,
    run_suite,
    shard_tasks,
)
from repro.utils.rng import default_rng

# hypothesis-style randomized instances: each seed expands to one random
# cost table (heavy-tailed, with exact zeros and ties mixed in).
PROPERTY_SEEDS = range(20)


def random_cost_instance(seed: int):
    """A random task list plus a CostModel observing one cost per task."""
    rng = default_rng(910_000 + seed)
    n_tasks = int(rng.integers(1, 41))
    shard_count = int(rng.integers(1, 9))
    model = CostModel()
    tasks = []
    for index in range(n_tasks):
        problem = f"RANDOM{index}"
        kind = int(rng.integers(0, 4))
        if kind == 0:
            cost = 0.0  # degenerate: free cell
        elif kind == 1:
            cost = float(rng.choice([1.0, 2.0, 4.0]))  # ties
        elif kind == 2:
            cost = float(rng.exponential(1.0))
        else:
            cost = float(rng.uniform(0.0, 1.0)) * 10 ** int(rng.integers(0, 4))
        tasks.append(BatchTask(problem=problem, algorithm="rcm", scale=1.0,
                               index=index))
        model.observe(problem, "rcm", 1.0, cost)
    return tasks, model, shard_count


def makespan_of(shards, model) -> float:
    return max((sum(model.estimate_task(t) for t in shard) for shard in shards),
               default=0.0)


class TestPlanShardsProperties:
    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_every_task_in_exactly_one_shard(self, seed):
        tasks, model, count = random_cost_instance(seed)
        plan = plan_shards(tasks, count, model)
        assert len(plan.shards) == count
        placed = sorted(t.index for shard in plan.shards for t in shard)
        assert placed == [t.index for t in tasks]

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_makespan_never_worse_than_round_robin(self, seed):
        tasks, model, count = random_cost_instance(seed)
        plan = plan_shards(tasks, count, model)
        # the plan's own accounting...
        assert plan.makespan <= plan.round_robin_makespan
        assert plan.makespan == pytest.approx(max(plan.loads))
        # ...and an independent recomputation of both sides
        assert makespan_of(plan.shards, model) == pytest.approx(plan.makespan)
        round_robin = [shard_tasks(tasks, k, count) for k in range(1, count + 1)]
        assert makespan_of(round_robin, model) == pytest.approx(
            plan.round_robin_makespan)

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_planning_is_deterministic(self, seed):
        tasks, model, count = random_cost_instance(seed)
        first = plan_shards(tasks, count, model)
        second = plan_shards(list(tasks), count, model)
        assert first == second

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_shards_keep_canonical_task_order(self, seed):
        tasks, model, count = random_cost_instance(seed)
        for shard in plan_shards(tasks, count, model).shards:
            indices = [t.index for t in shard]
            assert indices == sorted(indices)


class TestPlanShardsEdges:
    def test_more_shards_than_tasks_leaves_empty_shards(self):
        tasks, model, _count = random_cost_instance(0)
        plan = plan_shards(tasks[:2], 5, model)
        assert sum(len(shard) for shard in plan.shards) == 2
        assert sum(1 for shard in plan.shards if not shard) == 3

    def test_empty_task_list(self):
        plan = plan_shards([], 3, CostModel())
        assert plan.shards == ((), (), ())
        assert plan.makespan == 0.0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard count"):
            plan_shards([], 0, CostModel())

    def test_unbalanced_costs_beat_round_robin(self):
        """The motivating case: one expensive algorithm per problem.  The
        round-robin split puts every expensive cell on the same shard;
        LPT spreads them."""
        model = CostModel()
        tasks = []
        for p in range(4):
            for a, (algorithm, cost) in enumerate([("spectral", 10.0), ("rcm", 0.1)]):
                tasks.append(BatchTask(problem=f"P{p}", algorithm=algorithm,
                                       scale=1.0, index=len(tasks)))
                model.observe(f"P{p}", algorithm, 1.0, cost)
        plan = plan_shards(tasks, 2, model)
        # round-robin: all four 10 s cells land on shard 1 (even indices)
        assert plan.round_robin_makespan == pytest.approx(40.0)
        assert plan.makespan == pytest.approx(20.2)
        assert plan.strategy == "lpt"


class TestOrderLongestFirst:
    def test_sorts_descending_with_index_tie_break(self):
        model = CostModel()
        tasks = []
        for index, cost in enumerate([1.0, 5.0, 1.0, 3.0]):
            tasks.append(BatchTask(problem=f"P{index}", algorithm="rcm",
                                   scale=1.0, index=index))
            model.observe(f"P{index}", "rcm", 1.0, cost)
        ordered = order_longest_first(tasks, model)
        assert [t.index for t in ordered] == [1, 3, 0, 2]


class TestCostModel:
    def test_direct_observation_wins(self):
        model = CostModel()
        model.observe("POW9", "rcm", 0.02, 0.25, n=10, nnz=20)
        model.observe("POW9", "rcm", 0.02, 0.35, n=10, nnz=20)
        model.observe("POW9", "rcm", 0.02, 0.30, n=10, nnz=20)
        assert model.estimate("POW9", "rcm", 0.02) == pytest.approx(0.30)

    def test_unseen_cell_uses_algorithm_rate_and_observed_size(self):
        model = CostModel()
        # rcm costs 1e-3 s per n*nnz unit; CAN1072@0.02 has n*nnz = 200
        model.observe("POW9", "rcm", 0.02, 0.2, n=10, nnz=20)
        model.observe("CAN1072", "gps", 0.02, 9.9, n=10, nnz=20)
        assert model.estimate("CAN1072", "rcm", 0.02) == pytest.approx(0.2)

    def test_unseen_algorithm_falls_back_to_global_rate(self):
        model = CostModel()
        model.observe("POW9", "rcm", 0.02, 0.2, n=10, nnz=20)
        assert model.estimate("POW9", "sloan", 0.02) == pytest.approx(0.2)

    def test_size_rescales_across_scales_quadratically(self):
        model = CostModel()
        model.observe("POW9", "rcm", 0.1, 1.0, n=100, nnz=300)
        # at scale 0.2 both n and nnz double: n*nnz grows 4x
        assert model.estimate("POW9", "rcm", 0.2) == pytest.approx(4.0)

    def test_registry_fallback_scales_with_paper_size(self):
        """With zero observations, bigger problems still estimate costlier
        (sizes come from the registry's paper n/nnz)."""
        model = CostModel()
        small = model.estimate("POW9", "rcm", 0.05)       # paper n = 1723
        big = model.estimate("BCSSTK30", "rcm", 0.05)     # paper n = 28924
        assert big > small > 0

    def test_unregistered_problem_still_estimates(self):
        assert CostModel().estimate("NOSUCH", "rcm", 0.05) > 0

    def test_estimates_are_positive_even_for_zero_observations(self):
        model = CostModel()
        model.observe("POW9", "rcm", 0.02, 0.0)
        assert model.estimate("POW9", "rcm", 0.02) > 0

    def test_save_load_round_trip(self, tmp_path):
        model = CostModel()
        model.observe("POW9", "rcm", 0.02, 0.25, n=10, nnz=20)
        model.observe("CAN1072", "gps", None, 1.5)
        path = model.save(tmp_path / "costs.json")
        loaded = CostModel.load(path)
        assert len(loaded) == 2
        assert loaded.estimate("POW9", "rcm", 0.02) == model.estimate("POW9", "rcm", 0.02)
        assert loaded.estimate("CAN1072", "gps", None) == pytest.approx(1.5)

    def test_load_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "costs.json"
        path.write_text(json.dumps({"kind": "repro-cost-model",
                                    "schema_version": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema version"):
            CostModel.load(path)

    def test_observe_suite_uses_ok_and_timeout_records_only(self):
        suite = run_suite(["POW9"], ("rcm",), scale=0.02)
        record = suite.records[0]
        record.status = "error"
        model = CostModel()
        model.observe_suite(suite)
        assert len(model) == 0

    def test_observe_suite_takes_timeout_as_lower_bound(self):
        suite = run_suite(["POW9"], ("rcm",), scale=0.02)
        suite.records[0].status = "timeout"
        suite.records[0].time_s = 120.0
        model = CostModel()
        model.observe_suite(suite)
        assert model.estimate("POW9", "rcm", 0.02) == pytest.approx(120.0)


class TestCostModelFromFile:
    def test_from_suite_artifact(self, tmp_path):
        suite = run_suite(["POW9"], ("rcm", "gps"), scale=0.02)
        path = suite.save(tmp_path / "results.json")
        model = CostModel.from_file(path)
        assert len(model) == 2

    def test_from_cost_model_file(self, tmp_path):
        original = CostModel()
        original.observe("POW9", "rcm", 0.02, 0.25)
        path = original.save(tmp_path / "costs.json")
        assert len(CostModel.from_file(path)) == 1

    def test_from_bench_artifact(self, tmp_path):
        artifact = {
            "kind": "repro-bench", "schema_version": 1,
            "kernels": [
                {"name": "orderings/rcm/CAN1072@0.5", "best_s": 0.02},
                {"name": "graph/mis/PWT@0.1", "best_s": 0.01},  # not a cell
                {"name": "orderings/bad", "best_s": 0.01},      # malformed
            ],
            "suite": {"scale": 0.05, "cells": [
                {"problem": "POW9", "algorithm": "rcm", "status": "ok",
                 "time_s": 0.004, "n": 86, "nnz": 262},
                {"problem": "POW9", "algorithm": "gps", "status": "error",
                 "time_s": 0.1},
            ]},
        }
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(artifact))
        model = CostModel.from_file(path)
        assert len(model) == 2  # the suite ok cell + the ordering kernel
        assert model.estimate("CAN1072", "rcm", 0.5) == pytest.approx(0.02)
        assert model.estimate("POW9", "rcm", 0.05) == pytest.approx(0.004)

    def test_from_stream_file_dedupes_retries(self, tmp_path):
        from repro.batch import StreamWriter, TaskRecord, stream_header

        path = tmp_path / "run.jsonl"
        header = stream_header(["POW9"], ["rcm"], scale=0.02, base_seed=0,
                               shard=None, total_tasks=1)
        with StreamWriter(path, header) as writer:
            writer.write_record(TaskRecord(problem="POW9", algorithm="rcm",
                                           status="timeout", time_s=1.0))
            writer.write_record(TaskRecord(problem="POW9", algorithm="rcm",
                                           status="ok", time_s=7.5))
        model = CostModel.from_file(path)
        assert len(model) == 1
        assert model.estimate("POW9", "rcm", 0.02) == pytest.approx(7.5)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not json\nand not a stream either\n")
        with pytest.raises(ValueError, match="neither"):
            CostModel.from_file(path)


class TestEngineIntegration:
    PROBLEMS = ["POW9", "CAN1072"]
    ALGORITHMS = ("rcm", "gps")

    def _model(self) -> CostModel:
        model = CostModel()
        suite = run_suite(self.PROBLEMS, self.ALGORITHMS, scale=0.02)
        model.observe_suite(suite)
        return model

    def test_cost_balanced_shards_merge_byte_identically(self):
        from repro.batch import merge_results

        model = self._model()
        reference = run_suite(self.PROBLEMS, self.ALGORITHMS, scale=0.02)
        shards = [run_suite(self.PROBLEMS, self.ALGORITHMS, scale=0.02,
                            shard=(k, 3), balance="cost", cost_model=model)
                  for k in (1, 2, 3)]
        assert sorted(len(s.records) for s in shards) != []  # all slices ran
        merged = merge_results(shards)
        assert merged.to_json(include_timing=False) == \
            reference.to_json(include_timing=False)

    def test_cost_dispatch_does_not_change_results(self):
        reference = run_suite(self.PROBLEMS, self.ALGORITHMS, scale=0.02)
        dispatched = run_suite(self.PROBLEMS, self.ALGORITHMS, scale=0.02,
                               cost_model=self._model())
        assert dispatched.to_json(include_timing=False) == \
            reference.to_json(include_timing=False)

    def test_invalid_balance_rejected(self):
        with pytest.raises(ValueError, match="balance"):
            run_suite(["POW9"], ("rcm",), scale=0.02, balance="luck")

    def test_cost_balance_shard_out_of_range(self):
        with pytest.raises(ValueError, match="shard index"):
            run_suite(["POW9"], ("rcm",), scale=0.02, shard=(4, 2),
                      balance="cost")

    def test_invalid_retry_and_growth_rejected(self):
        with pytest.raises(ValueError, match="retry_timeouts"):
            run_suite(["POW9"], ("rcm",), scale=0.02, retry_timeouts=-1)
        with pytest.raises(ValueError, match="timeout_growth"):
            run_suite(["POW9"], ("rcm",), scale=0.02, timeout_growth=0.0)

    @pytest.mark.parametrize("growth", [float("nan"), float("inf")])
    def test_non_finite_growth_rejected(self, growth):
        with pytest.raises(ValueError, match="timeout_growth must be positive and finite"):
            run_suite(["POW9"], ("rcm",), scale=0.02, timeout=60.0,
                      retry_timeouts=1, timeout_growth=growth)

    def test_build_tasks_matches_engine_expansion(self):
        """plan_shards in the CLI and run_suite's internal planning agree
        because both start from the same deterministic expansion."""
        tasks = build_tasks(self.PROBLEMS, self.ALGORITHMS, scale=0.02)
        model = self._model()
        plan = plan_shards(tasks, 2, model)
        shard1 = run_suite(self.PROBLEMS, self.ALGORITHMS, scale=0.02,
                           shard=(1, 2), balance="cost", cost_model=model)
        assert [(r.problem, r.algorithm) for r in shard1.records] == \
            [(t.problem, t.algorithm) for t in plan.shards[0]]


class TestCostModelFingerprint:
    def test_fingerprint_stable_and_order_insensitive(self):
        a, b = CostModel(), CostModel()
        a.observe("POW9", "rcm", 0.02, 0.25, n=10, nnz=20)
        a.observe("CAN1072", "gps", 0.02, 1.5)
        b.observe("CAN1072", "gps", 0.02, 1.5)
        b.observe("POW9", "rcm", 0.02, 0.25, n=10, nnz=20)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_observations(self):
        a, b = CostModel(), CostModel()
        a.observe("POW9", "rcm", 0.02, 0.25)
        b.observe("POW9", "rcm", 0.02, 0.26)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != CostModel().fingerprint()

    def test_header_only_stream_loads_as_empty_model(self, tmp_path):
        """A run killed before its first record leaves a one-line stream;
        from_file must treat it as a (zero-observation) stream, not misparse
        the header as an empty suite artifact."""
        import json as _json

        from repro.batch import stream_header

        path = tmp_path / "dead.jsonl"
        header = stream_header(["POW9"], ["rcm"], scale=0.02, base_seed=0,
                               shard=None, total_tasks=1)
        path.write_text(_json.dumps(header, sort_keys=True) + "\n")
        model = CostModel.from_file(path)
        assert len(model) == 0
