"""Distributable batch-experiment engine with structured, mergeable results.

The paper's evaluation is a cross-product of ``{problems} x {ordering
algorithms}``; this package decomposes it into independent tasks
(:mod:`repro.batch.tasks`), executes them serially, on long-lived killable
worker processes (:mod:`repro.batch.workers`), or as one shard of a
multi-machine run (:mod:`repro.batch.engine`), streams
records incrementally to a resumable JSONL sink (:mod:`repro.batch.stream`),
and bundles the outcomes into a versioned JSON artifact that can be saved,
diffed, regression-compared and merged across shards
(:mod:`repro.batch.results`).

Quick start::

    from repro.batch import run_suite
    suite = run_suite(["BARTH4", "POW9"], scale=0.02, n_jobs=4)
    suite.save("results.json")
    print(suite.to_text())

Distributed across 3 machines::

    # machine k of 3 (k = 1, 2, 3):
    shard = run_suite(["BARTH4", "POW9"], scale=0.02, shard=(k, 3))
    shard.save(f"shard{k}.json")

    # anywhere afterwards:
    from repro.batch import SuiteResult, merge_results
    merged = merge_results([SuiteResult.load(f"shard{k}.json") for k in (1, 2, 3)])

or from the command line::

    repro suite --jobs 4 --output results.json
    repro suite --shard 2/3 --output shard2.json
    repro merge shard1.json shard2.json shard3.json --output full.json
"""

from repro.batch.engine import (
    clear_problem_cache,
    crash_record,
    execute_task,
    iter_suite,
    problem_cache_info,
    run_suite,
    task_options,
    timeout_record,
)
from repro.batch.results import (
    READ_COMPAT_VERSIONS,
    SCHEMA_VERSION,
    SchemaVersionError,
    SuiteResult,
    TaskRecord,
    dedupe_records,
    merge_results,
)
from repro.batch.sched import (
    CostModel,
    ShardPlan,
    auto_timeout,
    order_longest_first,
    plan_shards,
)
from repro.batch.stream import (
    StreamWriter,
    TruncatedStreamError,
    read_jsonl_objects,
    read_jsonl_objects_partial,
    read_stream,
    read_stream_partial,
    stream_header,
    suite_from_stream,
    validate_stream_header,
)
from repro.batch.tasks import (
    BatchTask,
    build_task,
    build_tasks,
    derive_seed,
    parse_shard,
    shard_tasks,
)

__all__ = [
    "BatchTask",
    "CostModel",
    "READ_COMPAT_VERSIONS",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "ShardPlan",
    "StreamWriter",
    "SuiteResult",
    "TruncatedStreamError",
    "TaskRecord",
    "auto_timeout",
    "build_task",
    "build_tasks",
    "clear_problem_cache",
    "crash_record",
    "dedupe_records",
    "derive_seed",
    "execute_task",
    "problem_cache_info",
    "iter_suite",
    "merge_results",
    "order_longest_first",
    "parse_shard",
    "plan_shards",
    "read_jsonl_objects",
    "read_jsonl_objects_partial",
    "read_stream",
    "read_stream_partial",
    "run_suite",
    "shard_tasks",
    "stream_header",
    "suite_from_stream",
    "task_options",
    "timeout_record",
    "validate_stream_header",
]
