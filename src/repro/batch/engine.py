"""Parallel batch-experiment engine — the backend of ``repro suite``.

Executes the ``{problems} x {algorithms}`` cross-product of a suite run as
independent tasks (see :mod:`repro.batch.tasks`), either in-process
(``n_jobs=1``) or on long-lived killable worker processes
(:mod:`repro.batch.workers`), which deal a problem's cells to the worker
that already built its pattern.  Results are identical in both modes: every
task carries a deterministic seed, and patterns are rebuilt from the
registry inside each worker so no shared mutable state is involved.

One failing task never kills the suite: the exception is captured into a
structured ``"error"`` record (type, message, traceback) and the remaining
tasks keep running.  With a per-task ``timeout``, a task that overruns is
killed and captured as a ``"timeout"`` record the same way, and a worker
that dies costs exactly its own cell.

Streaming
---------
:func:`iter_suite` yields ``(task, record)`` pairs *as workers finish*
(completion order when parallel, task order when serial), which is what the
CLI's live progress line and ``--stream-output`` JSONL sink consume.
:func:`run_suite` drains the same iterator and re-sorts into the
deterministic task order, so artifacts never depend on scheduling.

Example
-------
>>> from repro.batch import run_suite
>>> suite = run_suite(["POW9"], algorithms=("rcm", "gps"), scale=0.02)
>>> suite.failures
[]
>>> [record.algorithm for record in suite.records]
['rcm', 'gps']
>>> _ = suite.save("results.json")    # doctest: +SKIP

The equivalent CLI invocation::

    repro suite POW9 --algorithms rcm,gps --scale 0.02 --output results.json
"""

from __future__ import annotations

import inspect
import os
import time
import traceback
from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro import faults
from repro.batch.results import SuiteResult, TaskRecord
from repro.batch.sched import CostModel, order_longest_first, plan_shards
from repro.batch.tasks import BatchTask, build_tasks, derive_seed, shard_tasks
from repro.bench.core import time_call
from repro.collections.registry import load_problem
from repro.envelope.metrics import envelope_statistics
from repro.orderings.registry import ORDERING_ALGORITHMS, PAPER_ALGORITHMS
from repro.utils.validation import require_positive_finite

__all__ = [
    "crash_record",
    "execute_task",
    "iter_suite",
    "run_suite",
    "task_options",
    "timeout_record",
    "problem_cache_info",
    "clear_problem_cache",
]

# Injected-fault backoff sleeps go through this indirection so tests can
# observe the schedule without actually waiting.
_sleep = time.sleep


def _fault_key(task: BatchTask) -> str:
    """The deterministic fault-draw key of one execution attempt."""
    return f"{task.problem}/{task.algorithm}#a{int(task.attempt)}"


@lru_cache(maxsize=64)
def _cached_pattern(problem: str, scale: float | None):
    """Per-worker problem cache keyed by ``(problem, scale)``.

    The ``{problems} x {algorithms}`` cross-product hands every worker several
    tasks per problem; building (and validating) the surrogate pattern is a
    nontrivial fraction of a cell's cost, so each worker process assembles it
    once and reuses it for all of that problem's algorithms.  The pattern's
    degree array is additionally memoized on first touch
    (:meth:`repro.sparse.pattern.SymmetricPattern.degree`), so the cached
    object keeps getting cheaper as algorithms hit it.

    Correctness: patterns are structurally immutable and every task derives
    its randomness from its own seed, so cached and cold runs are
    byte-identical in canonical form (pinned by
    ``tests/test_batch_cache.py``).

    When a persistent store is configured (``--store`` / ``REPRO_STORE``)
    the built structure is additionally stored on disk keyed by
    ``(problem, scale)`` and loaded from there on a cold in-process cache —
    the cross-process extension of this cache that lets every suite worker,
    bench repeat and ``repro cache prewarm`` share one build.
    """
    from repro.store.core import get_default_store

    store = get_default_store()
    if store is not None:
        from repro.store import spectral as codecs

        pattern = codecs.load_pattern(store, problem, scale)
        if pattern is not None:
            return pattern
    pattern, _spec = load_problem(problem, scale=scale)
    if store is not None:
        try:
            codecs.save_pattern(store, problem, scale, pattern)
        except OSError:
            pass  # a read-only/full store must never fail the build
    return pattern


def problem_cache_info():
    """``functools.lru_cache`` statistics of this process's problem cache."""
    return _cached_pattern.cache_info()


def clear_problem_cache() -> None:
    """Drop this process's cached problem patterns (tests / memory pressure)."""
    _cached_pattern.cache_clear()


def _accepts_rng(func) -> bool:
    try:
        return "rng" in inspect.signature(func).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins without signatures
        return False


def task_options(func, task: BatchTask) -> dict:
    """The algorithm's keyword arguments, with the task's deterministic rng
    injected when the algorithm accepts one and the caller did not supply it."""
    options = dict(task.options)
    if "rng" not in options and _accepts_rng(func):
        options["rng"] = np.random.default_rng(task.seed)
    return options


def execute_task(task: BatchTask, pattern=None, capture_errors: bool = True) -> TaskRecord:
    """Run one ``(problem, algorithm)`` cell and return its :class:`TaskRecord`.

    Parameters
    ----------
    task:
        The cell to run.
    pattern:
        Pre-built matrix structure.  When ``None`` the pattern is built (and
        memoized per process) from the registered problem generator at the
        task's scale.
    capture_errors:
        When true (the batch default) any exception becomes a structured
        ``"error"`` record; when false it propagates to the caller (the
        behaviour of the legacy in-process runner).
    """
    try:
        faults.worker_faults(_fault_key(task), point="start")
        func = ORDERING_ALGORITHMS[task.algorithm]
        if pattern is None:
            pattern = _cached_pattern(task.problem, task.scale)
        ordering, time_s = time_call(func, pattern, **task_options(func, task))
        stats = envelope_statistics(pattern, ordering.perm)
        faults.worker_faults(_fault_key(task), point="finish")
        return TaskRecord(
            problem=task.problem,
            algorithm=task.algorithm,
            status="ok",
            seed=task.seed,
            n=stats.n,
            nnz=stats.nnz,
            metrics=stats.as_dict(),
            time_s=time_s,
            ordering=ordering,
        )
    except Exception as exc:
        if not capture_errors:
            raise
        return TaskRecord(
            problem=task.problem,
            algorithm=task.algorithm,
            status="error",
            seed=task.seed,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        )


def timeout_record(task: BatchTask, timeout: float) -> TaskRecord:
    """The structured record of a task killed at the per-task timeout."""
    return TaskRecord(
        problem=task.problem,
        algorithm=task.algorithm,
        status="timeout",
        seed=task.seed,
        time_s=float(timeout),
        error={
            "type": "TaskTimeout",
            "message": f"task exceeded the per-task timeout of {timeout:g} s",
            "traceback": None,
        },
    )


def crash_record(task: BatchTask, detail: str) -> TaskRecord:
    """The structured record of a worker that died without reporting back."""
    return TaskRecord(
        problem=task.problem,
        algorithm=task.algorithm,
        status="error",
        seed=task.seed,
        error={
            "type": "WorkerCrashed",
            "message": f"worker process died without a result ({detail})",
            "traceback": None,
        },
    )


def _is_crash(record: TaskRecord) -> bool:
    """True when a record reports a worker that died without a result."""
    return (record.status == "error"
            and (record.error or {}).get("type") == "WorkerCrashed")


def _iter_workers(tasks, n_jobs: int, timeout_for=None):
    """Yield ``(task, record)`` from long-lived killable worker processes
    (:mod:`repro.batch.workers`), in completion order.

    A task that overruns ``timeout_for(task)`` is killed as a ``"timeout"``
    record and a worker that dies costs only its own cell; either way the
    slot's next task starts a fresh worker.  Each cell's store traffic,
    counted in its worker, is added to this process's store statistics, so
    the stats line is right at any ``n_jobs``.
    """
    from repro.batch.workers import iter_cells
    from repro.store.core import get_default_store

    store = get_default_store()
    for task, record, stats in iter_cells(tasks, n_jobs, timeout_for):
        if store is not None and stats:
            for name, count in stats.items():
                store.stats[name] = store.stats.get(name, 0) + count
        yield task, record


def iter_suite(tasks, *, n_jobs: int = 1, timeout: float | None = None):
    """Stream ``(task, record)`` pairs as the suite's tasks complete.

    The generator behind :func:`run_suite` and the CLI's live progress /
    ``--stream-output`` sink.  Serial execution (``n_jobs=1`` without a
    timeout) yields in task order; parallel execution yields in completion
    order — consumers that need the deterministic order sort by
    ``task.index`` afterwards, as :func:`run_suite` does.

    Parameters
    ----------
    tasks:
        :class:`~repro.batch.tasks.BatchTask` list (any slice, e.g. a shard).
    n_jobs:
        Concurrent worker processes.
    timeout:
        Per-task wall-clock limit in seconds — a single float for every
        task, or a callable ``task -> float | None`` for per-cell limits
        (``None`` exempts that task; the ``--timeout auto`` cost-model
        path).  A task that overruns is killed and reported as a
        ``"timeout"`` record; the remaining tasks are unaffected.  Requires
        worker processes even for ``n_jobs=1`` (an in-process task could
        not be interrupted), so plain serial runs leave it ``None``.
    """
    tasks = list(tasks)
    if timeout is None and (n_jobs == 1 or len(tasks) <= 1):
        for task in tasks:
            yield task, execute_task(task)
        return
    if timeout is None or callable(timeout):
        timeout_fn = timeout
    else:
        limit = require_positive_finite(timeout, "timeout")

        def timeout_fn(_task, _limit=limit):
            return _limit

    yield from _iter_workers(tasks, max(int(n_jobs), 1), timeout_fn)


def run_suite(
    problem_names,
    algorithms=PAPER_ALGORITHMS,
    *,
    scale: float | None = None,
    n_jobs: int | None = 1,
    algorithm_options: dict | None = None,
    base_seed: int = 0,
    keep_orderings: bool = True,
    shard: tuple | None = None,
    balance: str = "roundrobin",
    cost_model: CostModel | None = None,
    timeout: float | None = None,
    retry_timeouts: int = 0,
    timeout_growth: float = 2.0,
    retry_crashes: int = 0,
    crash_backoff_s: float = 0.1,
    completed=None,
    on_record=None,
) -> SuiteResult:
    """Run the full ``problems x algorithms`` suite and return a :class:`SuiteResult`.

    Parameters
    ----------
    problem_names:
        Registered paper-problem names (case-insensitive).
    algorithms:
        Registered ordering-algorithm names (default: the paper's four).
    scale:
        Surrogate scale (``None`` uses the registry default).
    n_jobs:
        Worker processes.  ``1`` (default) runs serially in-process and
        produces bit-identical results to any parallel run; ``None`` uses
        the CPU count.
    algorithm_options:
        Mapping ``algorithm name -> dict of keyword arguments``.
    base_seed:
        Root of the deterministic per-task seeding.
    keep_orderings:
        When false, the permutation objects are dropped from the records
        (smaller in-memory result; the JSON artifact never contains them).
    shard:
        ``(index, count)`` (1-based) to run only one slice of the task
        list — the ``--shard K/N`` distribution primitive.  The result
        records the shard so :func:`repro.batch.results.merge_results`
        can validate and recombine the slices.
    balance:
        How ``shard`` splits the task list: ``"roundrobin"`` (default, the
        stable index-modulo slices) or ``"cost"`` (the greedy LPT plan of
        :func:`repro.batch.sched.plan_shards`, balanced on the cost
        model's estimates — all machines must use the same cost model to
        get disjoint slices).  Either way the merged result is
        byte-identical in canonical form to a single-machine run.
    cost_model:
        :class:`~repro.batch.sched.CostModel` feeding both the
        cost-balanced shard plan and the in-process dispatcher, which
        ranks the cells longest-first so the pool drains without tail
        stragglers; a worker takes the highest-ranked cell of a problem it
        already built before any other (:func:`repro.batch.workers.next_cell`).
        ``balance="cost"`` without a model uses the pure fallback
        estimator.  Never affects results — only which machine/worker
        computes them when.
    timeout:
        Per-task wall-clock limit in seconds — a float, or a callable
        ``task -> float | None`` for cost-model-derived per-cell limits
        (see :func:`iter_suite` and
        :func:`repro.batch.sched.auto_timeout`); overrunning tasks become
        ``"timeout"`` records.
    retry_timeouts:
        Number of escalation rounds for timed-out cells.  After the suite
        drains, cells with a ``"timeout"`` record are re-enqueued with the
        limit multiplied by ``timeout_growth`` (compounding per round)
        until they complete or the rounds run out.  Each retried attempt
        flows through ``on_record`` — streaming sinks append it as a
        superseding record — and the returned result holds only the final
        attempt per cell.  Records reused from ``completed`` are never
        retried, even if they are timeouts (the ``completed`` contract
        above stands; the CLI's resume path filters reusable timeouts out
        before calling).
    timeout_growth:
        Multiplier applied to the timeout each escalation round
        (default 2.0; must be positive).
    retry_crashes:
        Number of retry rounds for cells whose worker *crashed* (died
        without reporting — SIGKILL, OOM, injected fault).  Crashed cells
        re-run after an exponential backoff with deterministic jitter
        (``crash_backoff_s * 2**round``, jittered up to +50%); like timeout
        escalation, every attempt flows through ``on_record`` as a
        superseding stream record and the result keeps the final attempt
        per cell.  Crash retries share the escalation loop with timeout
        retries, so a cell that times out *and* another that crashed retry
        in the same round.
    crash_backoff_s:
        Base backoff before the first crash-retry round (default 0.1 s;
        must be >= 0, doubling each round).  The jitter sequence derives
        deterministically from ``base_seed``, so retry schedules are
        reproducible.
    completed:
        Already-finished :class:`TaskRecord` s from a previous (killed) run
        of the *same* specification — the resume path.  Matching cells are
        reused **verbatim** (whatever their status) instead of re-executed;
        callers that want to retry ``"timeout"`` or ``"error"`` cells filter
        them out first, as the CLI does for timeouts on ``--resume``.
    on_record:
        Callback ``(record, done, total)`` invoked as each task finishes
        (reused records first), in completion order — the hook for progress
        reporting and incremental sinks.

    Raises
    ------
    ValueError
        On unknown problem/algorithm names, a non-positive ``n_jobs``, an
        out-of-range ``shard`` or a ``timeout`` or ``timeout_growth`` that is
        not positive and finite (validated up front; a task that *raises
        while running* is captured as a failure record instead).
    """
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    n_jobs = int(n_jobs)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs}")
    if balance not in ("roundrobin", "cost"):
        raise ValueError(
            f"balance must be 'roundrobin' or 'cost', got {balance!r}"
        )
    retry_timeouts = int(retry_timeouts)
    if retry_timeouts < 0:
        raise ValueError(f"retry_timeouts must be >= 0, got {retry_timeouts}")
    if timeout is not None and not callable(timeout):
        timeout = require_positive_finite(timeout, "timeout")
    timeout_growth = require_positive_finite(timeout_growth, "timeout_growth")
    retry_crashes = int(retry_crashes)
    if retry_crashes < 0:
        raise ValueError(f"retry_crashes must be >= 0, got {retry_crashes}")
    crash_backoff_s = float(crash_backoff_s)
    if crash_backoff_s < 0:
        raise ValueError(f"crash_backoff_s must be >= 0, got {crash_backoff_s}")

    problems = [str(name).strip().upper() for name in problem_names]
    algorithms = tuple(algorithms)
    tasks = build_tasks(
        problems,
        algorithms,
        scale=scale,
        algorithm_options=algorithm_options,
        base_seed=base_seed,
    )
    if shard is not None:
        shard = (int(shard[0]), int(shard[1]))
        if balance == "cost":
            if not 1 <= shard[0] <= shard[1]:
                raise ValueError(
                    f"shard index {shard[0]} out of range for shard count "
                    f"{shard[1]} (need 1 <= index <= count)"
                )
            plan = plan_shards(tasks, shard[1], cost_model or CostModel())
            tasks = list(plan.shards[shard[0] - 1])
        else:
            tasks = shard_tasks(tasks, *shard)

    reused: dict[tuple, list] = {}
    for record in completed or []:
        reused.setdefault((record.problem, record.algorithm), []).append(record)
    pairs, remaining = [], []
    for task in tasks:
        bucket = reused.get((task.problem, task.algorithm))
        if bucket:
            pairs.append((task, bucket.pop(0)))
        else:
            remaining.append(task)
    # Reused records are honoured verbatim whatever their status — the
    # escalation loop below must not re-run them (callers that want reused
    # timeouts retried filter them out of `completed`, as the CLI does).
    reused_indices = {task.index for task, _record in pairs}

    if cost_model is not None:
        # Dynamic LPT dispatch: expensive cells rank first and cheap ones
        # backfill the stragglers, within the pool's problem affinity.
        # Purely a scheduling choice — the records are re-sorted into
        # canonical task order below.
        remaining = order_longest_first(remaining, cost_model)

    total = len(tasks)
    done = 0
    if on_record is not None:
        for _task, record in pairs:
            done += 1
            on_record(record, done, total)

    def run_remaining() -> None:
        nonlocal done
        for task, record in iter_suite(remaining, n_jobs=n_jobs, timeout=timeout):
            pairs.append((task, record))
            done += 1
            if on_record is not None:
                on_record(record, done, total)
        # Retry escalation: re-run timed-out cells with a grown limit and
        # crashed cells after an exponential, deterministically-jittered
        # backoff, replacing their records in place.  Both retry families
        # share one round structure so a mixed failure set recovers in a
        # single sweep per round.  Every new attempt still flows through
        # on_record, so a JSONL sink receives it as a superseding record
        # (last attempt wins on read-back).
        growth = 1.0
        backoff = crash_backoff_s
        jitter_rng = np.random.default_rng(
            derive_seed(base_seed, "__retry__", "backoff"))
        for round_index in range(max(retry_timeouts, retry_crashes)):
            timeout_slots = {} if (timeout is None or round_index >= retry_timeouts) else {
                pair[0].index: slot for slot, pair in enumerate(pairs)
                if pair[1].status == "timeout"
                and pair[0].index not in reused_indices}
            crash_slots = {} if round_index >= retry_crashes else {
                pair[0].index: slot for slot, pair in enumerate(pairs)
                if _is_crash(pair[1]) and pair[0].index not in reused_indices}
            if not timeout_slots and not crash_slots:
                break
            if timeout_slots:
                # Grow the limit only on rounds that actually retry a
                # timeout, preserving the pre-existing escalation schedule.
                growth *= timeout_growth
            if timeout is None:
                attempt_timeout = None
            elif callable(timeout):
                def attempt_timeout(task, _base=timeout, _growth=growth):
                    base_limit = _base(task)
                    return None if base_limit is None else base_limit * _growth
            else:
                attempt_timeout = float(timeout) * growth
            if crash_slots:
                delay = backoff * (1.0 + 0.5 * float(jitter_rng.random()))
                if delay > 0:
                    _sleep(delay)
                backoff *= 2.0
            slots = {**timeout_slots, **crash_slots}
            retry_tasks = [replace(pairs[slot][0], attempt=round_index + 1)
                           for slot in slots.values()]
            if cost_model is not None:
                retry_tasks = order_longest_first(retry_tasks, cost_model)
            if crash_slots and attempt_timeout is None:
                # A cell that just killed its worker must never re-run inside
                # the orchestrator process — a repeat crash (segfault, OOM,
                # injected fault) would take the whole suite down instead of
                # producing another superseding record.  Use workers even
                # for a single retry task.
                retry_iter = _iter_workers(retry_tasks, n_jobs)
            else:
                retry_iter = iter_suite(retry_tasks, n_jobs=n_jobs,
                                        timeout=attempt_timeout)
            for task, record in retry_iter:
                pairs[slots[task.index]] = (task, record)
                if on_record is not None:
                    on_record(record, done, total)

    _, wall_time_s = time_call(run_remaining)
    pairs.sort(key=lambda pair: pair[0].index)
    records = [record for _task, record in pairs]
    if not keep_orderings:
        for record in records:
            record.ordering = None
    from repro import backends

    return SuiteResult(
        problems=problems,
        algorithms=list(algorithms),
        scale=scale,
        n_jobs=n_jobs,
        base_seed=base_seed,
        records=records,
        wall_time_s=wall_time_s,
        shard=shard,
        backend=backends.backend_summary(),
    )
