"""Streaming result collection, resume, and per-task timeouts
(repro.batch.stream / repro.batch.engine).
"""

import json
import time

import pytest

from repro.batch import (
    StreamWriter,
    build_tasks,
    iter_suite,
    read_stream,
    run_suite,
    stream_header,
    validate_stream_header,
)
from repro.batch.results import SchemaVersionError
from repro.orderings.registry import ORDERING_ALGORITHMS

SCALE = 0.02
PROBLEMS = ["POW9", "CAN1072"]
ALGORITHMS = ("rcm", "gps")


def _header(**overrides):
    base = dict(
        problems=["POW9", "CAN1072"],
        algorithms=list(ALGORITHMS),
        scale=SCALE,
        base_seed=0,
        shard=None,
        total_tasks=4,
    )
    base.update(overrides)
    return stream_header(base.pop("problems"), base.pop("algorithms"), **base)


class TestIterSuite:
    def test_serial_yields_in_task_order(self):
        tasks = build_tasks(PROBLEMS, ALGORITHMS, scale=SCALE)
        indices = [task.index for task, _record in iter_suite(tasks, n_jobs=1)]
        assert indices == [0, 1, 2, 3]

    def test_parallel_yields_every_task_once(self):
        tasks = build_tasks(PROBLEMS, ALGORITHMS, scale=SCALE)
        pairs = list(iter_suite(tasks, n_jobs=2))
        assert sorted(task.index for task, _record in pairs) == [0, 1, 2, 3]
        assert all(record.ok for _task, record in pairs)

    def test_invalid_timeout_rejected(self):
        tasks = build_tasks(["POW9"], ("rcm",), scale=SCALE)
        with pytest.raises(ValueError, match="timeout"):
            list(iter_suite(tasks, timeout=0))

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout):
        tasks = build_tasks(["POW9"], ("rcm",), scale=SCALE)
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            list(iter_suite(tasks, n_jobs=2, timeout=timeout))
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            run_suite(["POW9"], ("rcm",), scale=SCALE, n_jobs=2, timeout=timeout)


class TestOnRecord:
    def test_callback_sees_every_record_and_counts(self):
        seen = []
        suite = run_suite(
            PROBLEMS, ALGORITHMS, scale=SCALE,
            on_record=lambda record, done, total: seen.append((done, total, record.status)),
        )
        assert [done for done, _total, _status in seen] == [1, 2, 3, 4]
        assert all(total == 4 for _done, total, _status in seen)
        assert len(suite.records) == 4


class TestTimeout:
    def test_sleeping_task_yields_timeout_record_without_stalling(self, monkeypatch):
        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy", lambda p: time.sleep(60))
        start = time.monotonic()
        suite = run_suite(["POW9"], ("rcm", "sleepy"), scale=SCALE,
                          n_jobs=2, timeout=1.0)
        elapsed = time.monotonic() - start
        assert elapsed < 30  # nowhere near the 60 s sleep
        by_algorithm = {r.algorithm: r for r in suite.records}
        assert by_algorithm["rcm"].ok
        record = by_algorithm["sleepy"]
        assert record.status == "timeout" and record.timed_out
        assert record.error["type"] == "TaskTimeout"
        assert suite.timeouts == [record]

    def test_fast_tasks_unaffected_by_timeout(self):
        with_limit = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE, timeout=120.0)
        without = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        assert with_limit.to_json(include_timing=False) == without.to_json(include_timing=False)

    def test_serial_run_with_timeout_uses_worker_process(self, monkeypatch):
        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy", lambda p: time.sleep(60))
        suite = run_suite(["POW9"], ("sleepy", "rcm"), scale=SCALE,
                          n_jobs=1, timeout=0.5)
        statuses = {r.algorithm: r.status for r in suite.records}
        assert statuses == {"sleepy": "timeout", "rcm": "ok"}


class TestStreamFile:
    def test_writer_then_reader_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        with StreamWriter(path, _header()) as writer:
            for record in suite.records:
                writer.write_record(record)
        header, records = read_stream(path)
        assert header["total_tasks"] == 4
        assert [r.to_dict() for r in records] == [r.to_dict() for r in suite.records]

    def test_truncated_final_line_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        with StreamWriter(path, _header()) as writer:
            for record in suite.records:
                writer.write_record(record)
        text = path.read_text()
        path.write_text(text[:-40])  # kill mid-write
        _header_read, records = read_stream(path)
        assert len(records) == len(suite.records) - 1

    def test_truncated_final_line_with_trailing_blanks_ignored(self, tmp_path):
        # Regression: the tolerance used to compare against the count of
        # *physical* lines, so a truncated record followed by trailing
        # blank/whitespace lines (a killed writer's tail) read as mid-file
        # corruption instead of resuming.
        path = tmp_path / "run.jsonl"
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        with StreamWriter(path, _header()) as writer:
            for record in suite.records:
                writer.write_record(record)
        text = path.read_text()
        path.write_text(text[:-40] + "\n   \n\n")
        _header_read, records = read_stream(path)
        assert len(records) == len(suite.records) - 1

    def test_read_jsonl_objects_tolerates_only_the_tail(self, tmp_path):
        from repro.batch import read_jsonl_objects
        from repro.batch.stream import TruncatedStreamError

        path = tmp_path / "lines.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"c": 3')  # mid-record kill
        assert read_jsonl_objects(path) == [{"a": 1}, {"b": 2}]

        path.write_text('{"a": 1}\n{"b": 2')
        assert read_jsonl_objects(path) == [{"a": 1}]

        path.write_text('{"a": 1\n{"b": 2}\n')  # damage NOT at the tail
        with pytest.raises(ValueError, match="corrupt"):
            read_jsonl_objects(path)

        path.write_text("")
        with pytest.raises(TruncatedStreamError):
            read_jsonl_objects(path)
        path.write_text('{"a": 1')  # no complete line at all
        with pytest.raises(TruncatedStreamError):
            read_jsonl_objects(path)

    def test_append_after_truncation_drops_partial_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        with StreamWriter(path, _header()) as writer:
            for record in suite.records[:2]:
                writer.write_record(record)
        path.write_bytes(path.read_bytes()[:-30])  # truncated final record
        with StreamWriter(path, _header(), append=True) as writer:
            writer.write_record(suite.records[1])
            writer.write_record(suite.records[2])
        _header_read, records = read_stream(path)
        keys = [(r.problem, r.algorithm) for r in records]
        assert keys == [(r.problem, r.algorithm) for r in suite.records[:3]]

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [json.dumps(_header()), "{garbage", json.dumps({"kind": "record",
                 "problem": "POW9", "algorithm": "rcm"})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            read_stream(path)

    def test_record_line_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(_header()) + "\n"
                        + json.dumps({"kind": "record"}) + "\n"
                        + json.dumps({"kind": "record", "problem": "POW9",
                                      "algorithm": "rcm"}) + "\n")
        with pytest.raises(ValueError, match="invalid record line"):
            read_stream(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(_header()) + "\n[1, 2]\n"
                        + json.dumps({"kind": "record", "problem": "POW9",
                                      "algorithm": "rcm"}) + "\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            read_stream(path)

    def test_empty_or_headerless_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_stream(empty)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(json.dumps({"kind": "record", "problem": "POW9",
                                          "algorithm": "rcm"}) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_stream(headerless)


class TestHeaderValidation:
    def test_matching_header_passes(self):
        validate_stream_header(_header(), _header())

    @pytest.mark.parametrize("field, value", [
        ("problems", ["POW9"]),
        ("algorithms", ["rcm"]),
        ("scale", 0.05),
        ("base_seed", 3),
        ("shard", (1, 2)),
    ])
    def test_spec_mismatch_rejected(self, field, value):
        with pytest.raises(ValueError, match="different suite"):
            validate_stream_header(_header(**{field: value}), _header())

    def test_schema_version_mismatch_rejected(self):
        stale = _header()
        stale["schema_version"] = 1
        with pytest.raises(SchemaVersionError, match="schema version"):
            validate_stream_header(stale, _header())


class TestResume:
    def test_resume_reuses_completed_and_runs_rest(self, tmp_path):
        full = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        completed = full.records[:3]
        executed = []
        resumed = run_suite(
            PROBLEMS, ALGORITHMS, scale=SCALE, completed=completed,
            on_record=lambda record, done, total: executed.append(record),
        )
        # reused records come back verbatim (same objects), the rest fresh
        assert resumed.records[:3] == completed
        assert resumed.to_json(include_timing=False) == full.to_json(include_timing=False)
        assert len(executed) == 4

    def test_resume_after_kill_round_trip(self, tmp_path):
        """Acceptance path: stream, kill mid-write, resume from the stream."""
        path = tmp_path / "run.jsonl"
        full = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        with StreamWriter(path, _header()) as writer:
            for record in full.records:
                writer.write_record(record)
        path.write_bytes(path.read_bytes()[:-25])  # the kill
        header, completed = read_stream(path)
        validate_stream_header(header, _header())
        assert len(completed) == 3
        resumed = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE, completed=completed)
        assert resumed.to_json(include_timing=False) == full.to_json(include_timing=False)


class TestRetryEscalation:
    """Timeout-retry escalation (run_suite retry_timeouts / timeout_growth)."""

    @staticmethod
    def _sleepy_then_succeed(monkeypatch, sleep_s: float):
        monkeypatch.setitem(
            ORDERING_ALGORITHMS, "sleepy",
            lambda p: time.sleep(sleep_s) or ORDERING_ALGORITHMS["rcm"](p),
        )

    def test_escalated_retry_lands_final_ok_record(self, monkeypatch):
        self._sleepy_then_succeed(monkeypatch, 1.0)
        attempts = []
        suite = run_suite(
            ["POW9"], ("rcm", "sleepy"), scale=SCALE,
            timeout=0.3, retry_timeouts=2, timeout_growth=8.0,
            on_record=lambda record, done, total: attempts.append(
                (record.algorithm, record.status)),
        )
        # exactly one final record per cell, the sleepy one now ok
        assert [(r.algorithm, r.status) for r in suite.records] == \
            [("rcm", "ok"), ("sleepy", "ok")]
        assert suite.timeouts == []
        # ...but on_record saw the superseded timeout attempt too
        assert ("sleepy", "timeout") in attempts
        assert attempts[-1] == ("sleepy", "ok")

    def test_exhausted_retries_keep_last_escalated_timeout(self, monkeypatch):
        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(60))
        suite = run_suite(["POW9"], ("sleepy",), scale=SCALE,
                          timeout=0.2, retry_timeouts=2, timeout_growth=2.0)
        record = suite.records[0]
        assert record.status == "timeout"
        # time_s records the limit of the *last* attempt: 0.2 * 2 * 2
        assert record.time_s == pytest.approx(0.8)

    def test_retry_result_matches_unretried_clean_run(self, monkeypatch):
        """A cell that times out once and then succeeds produces the same
        canonical artifact as a run that never timed out at all."""
        self._sleepy_then_succeed(monkeypatch, 1.0)
        retried = run_suite(["POW9"], ("rcm", "sleepy"), scale=SCALE,
                            timeout=0.3, retry_timeouts=1, timeout_growth=10.0)
        clean = run_suite(["POW9"], ("rcm", "sleepy"), scale=SCALE,
                          timeout=30.0)
        assert retried.to_json(include_timing=False) == \
            clean.to_json(include_timing=False)

    def test_stream_resume_after_escalation_dedupes(self, monkeypatch, tmp_path):
        """The stream of an escalated run holds superseding records; reading
        it back and deduping yields one final record per cell."""
        from repro.batch import dedupe_records

        self._sleepy_then_succeed(monkeypatch, 1.0)
        path = tmp_path / "run.jsonl"
        header = stream_header(["POW9"], ["rcm", "sleepy"], scale=SCALE,
                               base_seed=0, shard=None, total_tasks=2)
        with StreamWriter(path, header) as writer:
            run_suite(["POW9"], ("rcm", "sleepy"), scale=SCALE,
                      timeout=0.3, retry_timeouts=1, timeout_growth=10.0,
                      on_record=lambda record, done, total:
                          writer.write_record(record))
        _header_read, raw = read_stream(path)
        assert len(raw) == 3  # rcm ok + sleepy timeout + sleepy ok
        deduped = dedupe_records(raw)
        assert [(r.algorithm, r.status) for r in deduped] == \
            [("rcm", "ok"), ("sleepy", "ok")]

    def test_no_retries_without_timeouts(self):
        executed = []
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE,
                          timeout=120.0, retry_timeouts=3,
                          on_record=lambda r, d, t: executed.append(r))
        assert len(executed) == 4  # nothing re-ran
        assert suite.failures == []


class TestBalancePinnedHeader:
    def test_old_header_without_balance_keys_still_validates(self):
        legacy = _header()
        del legacy["balance"], legacy["cost_fingerprint"]
        validate_stream_header(legacy, _header())  # no raise

    def test_balance_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different shard plan"):
            validate_stream_header(_header(balance="cost"), _header())

    def test_cost_fingerprint_mismatch_rejected(self):
        mine = _header(balance="cost", cost_fingerprint="aaaa")
        theirs = _header(balance="cost", cost_fingerprint="bbbb")
        with pytest.raises(ValueError, match="cost model"):
            validate_stream_header(theirs, mine)
        validate_stream_header(mine, dict(mine))  # same plan: no raise

    def test_reused_timeout_record_is_never_retried(self):
        """run_suite's documented contract: completed records are reused
        verbatim whatever their status — escalation must not re-run them."""
        from repro.batch import TaskRecord

        stale = TaskRecord(problem="POW9", algorithm="rcm", status="timeout",
                           time_s=1.0,
                           error={"type": "TaskTimeout", "message": "limit",
                                  "traceback": None})
        executed = []
        suite = run_suite(["POW9"], ("rcm",), scale=SCALE,
                          completed=[stale], timeout=30.0, retry_timeouts=3,
                          on_record=lambda r, d, t: executed.append(r))
        assert suite.records == [stale]          # verbatim, still a timeout
        assert executed == [stale]               # replayed once, never re-run


class TestPartialRead:
    """The lossy ``--allow-partial`` read path: salvage complete records
    from a damaged stream, count exactly what was dropped."""

    def _write_stream(self, path, *, damage=()):
        suite = run_suite(PROBLEMS, ALGORITHMS, scale=SCALE)
        with StreamWriter(path, _header()) as writer:
            for record in suite.records:
                writer.write_record(record)
        if damage:
            lines = path.read_text().splitlines()
            for index, replacement in damage:
                lines[index] = replacement
            path.write_text("\n".join(lines) + "\n")
        return suite

    def test_clean_stream_has_no_partial_marker(self, tmp_path):
        from repro.batch import suite_from_stream

        path = tmp_path / "run.jsonl"
        suite = self._write_stream(path)
        salvaged = suite_from_stream(path, allow_partial=True)
        assert salvaged.partial is None
        assert (salvaged.to_json(include_timing=False)
                == suite.to_json(include_timing=False))

    def test_mid_file_damage_salvaged_and_counted(self, tmp_path):
        from repro.batch import read_stream_partial, suite_from_stream

        path = tmp_path / "run.jsonl"
        self._write_stream(path, damage=[(2, "{torn json"),
                                         (3, '{"kind": "mystery"}')])
        with pytest.raises(ValueError, match="corrupt"):
            read_stream(path)                     # strict path still rejects
        header, records, dropped = read_stream_partial(path)
        assert header["kind"] == "header"
        assert len(records) == 2 and dropped == 2
        salvaged = suite_from_stream(path, allow_partial=True)
        assert salvaged.partial == {"dropped_lines": 2}

    def test_invalid_record_payload_counted_not_fatal(self, tmp_path):
        from repro.batch import read_stream_partial

        path = tmp_path / "run.jsonl"
        self._write_stream(path, damage=[(1, json.dumps({"kind": "record"}))])
        _header_read, records, dropped = read_stream_partial(path)
        assert len(records) == 3 and dropped == 1

    def test_headerless_stream_rejected_even_partial(self, tmp_path):
        from repro.batch import read_stream_partial

        path = tmp_path / "run.jsonl"
        self._write_stream(path, damage=[(0, "{torn header")])
        with pytest.raises(ValueError, match="header"):
            read_stream_partial(path)             # provenance is not optional

    def test_read_jsonl_objects_partial_counts_non_objects(self, tmp_path):
        from repro.batch import read_jsonl_objects_partial
        from repro.batch.stream import TruncatedStreamError

        path = tmp_path / "lines.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\nnot json\n{"b": 2}\n{"c": 3')
        parsed, dropped = read_jsonl_objects_partial(path)
        assert parsed == [{"a": 1}, {"b": 2}]
        assert dropped == 3                       # array, garbage, torn tail

        path.write_text("{nothing complete")
        with pytest.raises(TruncatedStreamError):
            read_jsonl_objects_partial(path)
