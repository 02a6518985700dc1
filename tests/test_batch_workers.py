"""Long-lived killable workers (repro.batch.workers) behind ``repro suite``.

Pins what the worker primitive promises: a crash costs exactly its own cell
(no bystander re-runs), a deadline kills the overrunning process and the
pool carries on, a worker's in-memory caches stay warm from cell to cell,
a problem's cells go to the worker that holds its pattern, and no worker
process outlives the run.  Which worker runs which cell is otherwise up to
the dispatcher, so only the affinity tests assert it.

Executions are counted from inside the workers with the fault event log:
a ``worker.slow`` rule at rate 1 with no sleep logs one event, with the
worker's pid, at the start of every cell.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import faults
from repro.batch import iter_suite, run_suite
from repro.batch.engine import clear_problem_cache
from repro.batch.tasks import BatchTask, build_tasks
from repro.batch.workers import Worker, iter_cells, next_cell
from repro.faults import FaultPlan
from repro.orderings.base import Ordering
from repro.orderings.registry import ORDERING_ALGORITHMS
from tests.serve_harness import pid_gone

SCALE = 0.02
PROBLEMS = ["POW9", "CAN1072"]
ALGORITHMS = ("rcm", "gps", "king")
#: Among the six cells above only ``POW9/gps`` (task 1 of 6) crashes.
CRASH_SEED = 12
#: Among ``POW9`` x (rcm, gps, king) only ``POW9/gps`` hangs.
HANG_SEED = 2

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="reads process state from /proc")


def started_cells(log) -> list:
    """``(key, pid)`` of every cell start the ``worker.slow`` rule logged."""
    if not log.exists():
        return []
    events = [json.loads(line) for line in log.read_text().splitlines()]
    return [(event["key"], event["pid"]) for event in events
            if event["site"] == "worker.slow"]


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_LOG", "REPRO_FAULTS_PROTECT_PID"):
        monkeypatch.delenv(name, raising=False)
    faults.reset_fault_plan()
    yield
    faults.reset_fault_plan()


def activate(monkeypatch, spec: str) -> None:
    monkeypatch.setenv("REPRO_FAULTS", spec)
    faults.reset_fault_plan()
    faults.protect_current_process()


class TestCrash:
    def test_crash_costs_exactly_its_own_cell(self, monkeypatch, tmp_path):
        log = tmp_path / "events.jsonl"
        spec = f"seed={CRASH_SEED};worker.slow@1.0,sleep_s=0;worker.crash@0.3,point=start"
        plan = FaultPlan.parse(spec)
        keys = [f"{p}/{a}#a0" for p in PROBLEMS for a in ALGORITHMS]
        assert [k for k in keys if plan.fires("worker.crash", k, point="start")] \
            == ["POW9/gps#a0"]
        activate(monkeypatch, f"{spec};log={log}")
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE, n_jobs=2)

        by_cell = {(r.problem, r.algorithm): r for r in suite.records}
        crashed = by_cell.pop(("POW9", "gps"))
        assert crashed.error["type"] == "WorkerCrashed"
        assert all(record.ok for record in by_cell.values())
        started = started_cells(log)
        # Every cell ran exactly once: no bystander re-run.
        assert sorted(key for key, _pid in started) == sorted(keys)
        order = [pid for _key, pid in started]
        crash_at = [key for key, _pid in started].index("POW9/gps#a0")
        crashed_pid = order[crash_at]
        # Three processes ran cells: the two first workers, the crashed one
        # among them, and one replacement that started after the crash.
        assert len(set(order)) == 3
        first, second, replacement = dict.fromkeys(order)
        assert crashed_pid in (first, second)
        assert order.index(replacement) > crash_at
        assert crashed_pid not in order[crash_at + 1:]
        assert all(pid_gone(pid) for pid in set(order))


class TestDeadline:
    def test_deadline_kills_then_the_pool_carries_on(self, monkeypatch, tmp_path):
        log = tmp_path / "events.jsonl"
        spec = f"seed={HANG_SEED};worker.slow@1.0,sleep_s=0;worker.hang@0.3,sleep_s=60"
        plan = FaultPlan.parse(spec)
        assert [a for a in ALGORITHMS
                if plan.fires("worker.hang", f"POW9/{a}#a0")] == ["gps"]
        activate(monkeypatch, f"{spec};log={log}")
        tasks = build_tasks(["POW9"], ALGORITHMS, scale=SCALE)
        seen = []
        for task, record in iter_suite(tasks, n_jobs=1, timeout=1.0):
            seen.append((task.algorithm, record.status))
            if record.timed_out:
                hung_pid = dict(started_cells(log))["POW9/gps#a0"]
                assert pid_gone(hung_pid), "the overrunning worker must be killed"
        assert seen == [("rcm", "ok"), ("gps", "timeout"), ("king", "ok")]
        pids = dict(started_cells(log))
        assert pids["POW9/rcm#a0"] == pids["POW9/gps#a0"] != pids["POW9/king#a0"]
        assert all(pid_gone(pid) for pid in pids.values())

    def test_non_positive_policy_limit_rejected(self):
        tasks = build_tasks(["POW9"], ("rcm",), scale=SCALE)
        with pytest.raises(ValueError, match="per-task limits must be positive"):
            list(iter_cells(tasks, 1, lambda task: 0.0))


def _key(problem):
    return (problem, SCALE)


def _pending(*cells):
    return [BatchTask(problem, algorithm, SCALE) for problem, algorithm in cells]


class TestAffinity:
    def test_held_problem_taken_from_behind_the_head(self):
        pending = _pending(("POW9", "rcm"), ("CAN1072", "rcm"), ("CAN1072", "gps"))
        assert next_cell(pending, {_key("CAN1072")}, [{_key("POW9")}]) == 1

    def test_else_the_first_cell_no_worker_holds(self):
        pending = _pending(("POW9", "rcm"), ("POW9", "gps"), ("CAN1072", "rcm"),
                           ("DWT2680", "rcm"))
        assert next_cell(pending, set(), [{_key("POW9")}]) == 2
        assert next_cell(pending, {_key("BLKHOLE")}, [{_key("POW9")}, set()]) == 2
        # Only the scale's own pattern is warm.
        assert next_cell(pending, set(), [{("POW9", 0.5)}]) == 0

    def test_else_the_head(self):
        pending = _pending(("CAN1072", "king"), ("POW9", "king"))
        assert next_cell(pending, {_key("BLKHOLE")},
                         [{_key("POW9")}, {_key("CAN1072")}]) == 0

    @pytest.mark.parametrize("body", ["hang", "die"])
    def test_replacement_worker_holds_nothing(self, monkeypatch, body):
        def probe(pattern):
            if body == "hang":
                time.sleep(60)
            os._exit(1)

        monkeypatch.setitem(ORDERING_ALGORITHMS, "probe", probe)
        task = build_tasks(["POW9"], ("probe",), scale=SCALE)[0]
        worker = Worker()
        try:
            worker.held.add(_key("POW9"))
            record, _stats = worker.run(task, limit=1.0)
            assert record.error["type"] == ("TaskTimeout" if body == "hang"
                                            else "WorkerCrashed")
            assert worker.held == set()
        finally:
            worker.close()
        # Another worker holding POW9 now keeps its cells from the replacement.
        pending = _pending(("POW9", "gps"), ("CAN1072", "gps"))
        assert next_cell(pending, worker.held, [{_key("POW9")}]) == 1

    def test_each_problem_runs_on_one_worker(self, monkeypatch, tmp_path):
        log = tmp_path / "events.jsonl"
        activate(monkeypatch, f"worker.slow@1.0,sleep_s=0.2;log={log}")
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE, n_jobs=2)
        assert all(record.ok for record in suite.records)
        pids = dict(started_cells(log))
        assert len(pids) == 6
        by_problem = {problem: {pids[f"{problem}/{algorithm}#a0"] for algorithm in ALGORITHMS}
                      for problem in PROBLEMS}
        assert all(len(owners) == 1 for owners in by_problem.values())
        assert by_problem["POW9"] != by_problem["CAN1072"]
        assert all(pid_gone(pid) for pid in pids.values())


def _probe(pattern):
    """Run GPS, then report the worker's caches as ordering metadata."""
    from repro.batch.engine import problem_cache_info
    from repro.eigen.workspace import spectral_workspace

    ORDERING_ALGORITHMS["gps"](pattern)
    info = problem_cache_info()
    return Ordering(np.arange(pattern.n), algorithm="probe", metadata={
        "pid": os.getpid(), "cache_hits": info.hits, "cache_misses": info.misses,
        "workspace": dict(spectral_workspace(pattern).info)})


class TestWarmCaches:
    def test_second_cell_reuses_pattern_and_search_memo(self, monkeypatch):
        monkeypatch.setitem(ORDERING_ALGORITHMS, "probe", _probe)
        clear_problem_cache()  # the worker forks from this process
        suite = run_suite(["POW9"], ("gps", "probe"), scale=SCALE, n_jobs=1,
                          timeout=60.0)
        probe = suite.records[1].ordering.metadata
        assert probe["pid"] != os.getpid()
        assert (probe["cache_misses"], probe["cache_hits"]) == (1, 1)
        assert probe["workspace"]["diameter_builds"] == 1
        assert probe["workspace"]["diameter_hits"] == 1
        assert pid_gone(probe["pid"])


class TestWorker:
    def test_idle_worker_killed_from_outside_is_replaced(self):
        worker = Worker()
        task = build_tasks(["POW9"], ("rcm",), scale=SCALE)[0]
        try:
            first, _stats = worker.run(task)
            dead = worker.pid
            os.kill(dead, signal.SIGKILL)
            worker.process.join()
            second, _stats = worker.run(task)
            assert first.ok and second.ok and worker.pid != dead
        finally:
            worker.close()
        assert worker.pid is None
