"""Tests for the structured suite results (repro.batch.results)."""

import json

import pytest

from repro.batch.results import (
    READ_COMPAT_VERSIONS,
    SCHEMA_VERSION,
    SchemaVersionError,
    SuiteResult,
    TaskRecord,
)


def _ok_record(problem="POW9", algorithm="rcm", envelope=100, time_s=0.5):
    return TaskRecord(
        problem=problem,
        algorithm=algorithm,
        status="ok",
        seed=7,
        n=10,
        nnz=20,
        metrics={"envelope_size": envelope, "envelope_work": envelope * 3,
                 "bandwidth": 4, "max_frontwidth": 3},
        time_s=time_s,
    )


def _failed_record(problem="POW9", algorithm="boom"):
    return TaskRecord(
        problem=problem,
        algorithm=algorithm,
        status="error",
        seed=8,
        error={"type": "RuntimeError", "message": "kaboom", "traceback": "Traceback ..."},
    )


def _timeout_record(problem="POW9", algorithm="slow"):
    return TaskRecord(
        problem=problem,
        algorithm=algorithm,
        status="timeout",
        seed=9,
        time_s=2.0,
        error={"type": "TaskTimeout", "message": "task exceeded the per-task timeout of 2 s",
               "traceback": None},
    )


@pytest.fixture
def suite():
    return SuiteResult(
        problems=["POW9"],
        algorithms=["rcm", "gps", "boom"],
        scale=0.02,
        n_jobs=2,
        base_seed=0,
        records=[
            _ok_record(algorithm="rcm", envelope=100),
            _ok_record(algorithm="gps", envelope=90),
            _failed_record(),
        ],
        wall_time_s=1.25,
    )


class TestTaskRecord:
    def test_ok_flag(self):
        assert _ok_record().ok and not _failed_record().ok

    def test_to_dict_excludes_timing_on_request(self):
        payload = _ok_record().to_dict(include_timing=False)
        assert "time_s" not in payload
        assert "time_s" in _ok_record().to_dict()

    def test_dict_round_trip(self):
        record = _ok_record()
        assert TaskRecord.from_dict(record.to_dict()).to_dict() == record.to_dict()


class TestSuiteResult:
    def test_schema_version_in_payload(self, suite):
        payload = suite.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["engine"] == "repro.batch"

    def test_unsupported_schema_version_rejected(self, suite):
        payload = suite.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(SchemaVersionError, match="schema version"):
            SuiteResult.from_dict(payload)

    def test_schema_version_error_is_a_value_error(self):
        assert issubclass(SchemaVersionError, ValueError)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(SchemaVersionError, match="schema version"):
            SuiteResult.from_json("{}")

    def test_non_object_json_rejected_as_value_error(self):
        with pytest.raises(ValueError, match="JSON object"):
            SuiteResult.from_json("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            SuiteResult.from_json('"just a string"')

    def test_v1_artifact_still_loads(self, suite):
        assert 1 in READ_COMPAT_VERSIONS
        payload = suite.to_dict()
        payload["schema_version"] = 1
        loaded = SuiteResult.from_dict(payload)
        assert loaded.schema_version == 1
        assert loaded.shard is None
        assert [r.algorithm for r in loaded.records] == ["rcm", "gps", "boom"]

    @pytest.mark.parametrize("block", [
        {"requested": "python"},
        {"requested": "numpy", "ignored_invalid_env": "numba"},
        {"requested": "numpy", "numba_available": False, "fallback": False},
    ])
    def test_legacy_backend_block_loads_and_is_not_written(self, suite, block):
        """Artifacts recorded while a kernel backend could be chosen carry a
        ``backend`` block in their timing form; it is ignored on read."""
        payload = suite.to_dict()
        assert "backend" not in payload
        payload["backend"] = block
        loaded = SuiteResult.from_json(json.dumps(payload))
        assert loaded.to_dict() == suite.to_dict()

    def test_shard_round_trips_and_is_absent_when_none(self, suite):
        assert "shard" not in suite.to_dict()
        suite.shard = (2, 3)
        payload = suite.to_dict()
        assert payload["shard"] == [2, 3]
        assert SuiteResult.from_dict(payload).shard == (2, 3)
        # canonical form keeps the shard marker: it is spec, not timing
        assert suite.to_dict(include_timing=False)["shard"] == [2, 3]

    def test_timeout_record_round_trips(self):
        record = _timeout_record()
        assert not record.ok and record.timed_out
        reloaded = TaskRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert reloaded.status == "timeout"
        assert reloaded.error["type"] == "TaskTimeout"

    def test_timeouts_property_and_to_text_label(self):
        suite = SuiteResult(
            problems=["POW9"],
            algorithms=["rcm", "slow"],
            records=[_ok_record(), _timeout_record()],
        )
        assert [r.algorithm for r in suite.timeouts] == ["slow"]
        assert [r.algorithm for r in suite.failures] == ["slow"]
        assert "TIMEOUT POW9/slow: TaskTimeout" in suite.to_text()

    def test_canonical_form_drops_all_timing_fields(self, suite):
        payload = suite.to_dict(include_timing=False)
        assert "wall_time_s" not in payload and "n_jobs" not in payload
        assert all("time_s" not in record for record in payload["records"])

    def test_json_round_trip(self, suite):
        reloaded = SuiteResult.from_json(suite.to_json())
        assert reloaded.to_dict() == suite.to_dict()
        assert reloaded.records[2].error["message"] == "kaboom"

    def test_save_and_load(self, suite, tmp_path):
        path = suite.save(tmp_path / "nested" / "results.json")
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION
        assert SuiteResult.load(path).to_dict() == suite.to_dict()

    def test_accessors(self, suite):
        assert [r.algorithm for r in suite.ok_records] == ["rcm", "gps"]
        assert [r.algorithm for r in suite.failures] == ["boom"]
        assert suite.record_for("pow9", "rcm").metrics["envelope_size"] == 100
        with pytest.raises(KeyError):
            suite.record_for("POW9", "nosuch")

    def test_winners_smallest_envelope_among_ok(self, suite):
        assert suite.winners() == {"POW9": "gps"}

    def test_to_text_reports_failures(self, suite):
        text = suite.to_text()
        assert "RCM" in text and "GPS" in text
        assert "FAILED POW9/boom: RuntimeError: kaboom" in text

    def test_to_rows_ranked(self, suite):
        rows = suite.to_rows()
        assert len(rows) == 2  # the failure contributes no row
        assert {(r.algorithm, r.rank) for r in rows} == {("gps", 1), ("rcm", 2)}


class TestDiff:
    def test_identical_runs_diff_clean_despite_timing(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        for record in other.records:
            record.time_s += 10.0
        other.wall_time_s += 99.0
        other.n_jobs = 8
        assert suite.diff(other) == []

    def test_metric_drift_detected(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.records[0].metrics["envelope_size"] = 101
        differences = suite.diff(other)
        assert any("POW9/rcm" in line and "envelope_size" in line for line in differences)

    def test_missing_record_detected(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.records.pop()
        assert any("present in only one run" in line for line in suite.diff(other))

    def test_status_change_detected(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.records[2] = _ok_record(algorithm="boom")
        assert any("status" in line for line in suite.diff(other))

    def test_header_drift_detected(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.scale = 0.05
        assert any(line.startswith("scale") for line in suite.diff(other))

    def test_shard_drift_detected(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.shard = (1, 3)
        assert any(line.startswith("shard") for line in suite.diff(other))

    def test_traceback_text_ignored(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.records[2].error["traceback"] = "Traceback ... different paths/lines"
        assert suite.diff(other) == []

    def test_error_type_or_message_drift_detected(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.records[2].error["message"] = "different kaboom"
        assert any("POW9/boom" in line and "error" in line for line in suite.diff(other))

    def test_include_timing_diff(self, suite):
        other = SuiteResult.from_json(suite.to_json())
        other.records[0].time_s += 1.0
        assert suite.diff(other) == []
        assert any("time_s" in line for line in suite.diff(other, include_timing=True))
