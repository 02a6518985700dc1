"""In-process tests for the serve job registry and crash-tolerant journal.

The journal satellite of the serving tentpole: the job journal follows the
batch engine's JSONL stream discipline, so a server killed mid-append must
leave a file that replays cleanly (truncated tail dropped, never treated as
corruption) and that a restarted server can keep appending to without
splicing into a partial record.
"""

from __future__ import annotations

import json

import pytest

from repro.serve.jobs import JobJournal, JobRegistry


def make_finished_job(registry, index: int):
    job = registry.new_job(f"key-{index}", algorithm="rcm", problem="POW9",
                          mode="sync", coalesced=False)
    registry.finish(job, http_status=200,
                    record={"status": "ok", "n": index}, permutation=None)
    return job


class TestJobRegistry:
    def test_ids_are_unique_and_ordered(self):
        registry = JobRegistry()
        ids = [make_finished_job(registry, i).id for i in range(5)]
        assert len(set(ids)) == 5
        assert [i.split("-")[0] for i in ids] == sorted(
            i.split("-")[0] for i in ids)

    def test_eviction_drops_oldest_finished_first(self):
        registry = JobRegistry(capacity=3)
        pending = registry.new_job("key-p", algorithm="rcm", problem="POW9",
                                   mode="async", coalesced=False)
        finished = [make_finished_job(registry, i) for i in range(3)]
        assert len(registry) == 3
        assert registry.get(pending.id) is pending, \
            "a pending job must never be evicted"
        assert registry.get(finished[0].id) is None
        assert registry.get(finished[-1].id) is finished[-1]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            JobRegistry(capacity=0)


class TestCompactPermutation:
    PERMUTATION = [3, 0, 2, 1, 300, 70000]

    def _finished(self):
        import numpy as np

        registry = JobRegistry()
        job = registry.new_job("key", algorithm="rcm", problem="POW9",
                               mode="sync", coalesced=False)
        registry.finish(job, http_status=200, record={"status": "ok"},
                        permutation=np.array(self.PERMUTATION, dtype=np.intp))
        return job

    def test_kept_as_int64_array_served_as_plain_ints(self):
        job = self._finished()
        assert job.permutation.dtype == "int64"
        served = job.to_dict()["permutation"]
        assert served == self.PERMUTATION
        assert all(type(value) is int for value in served)

    def test_journal_line_unchanged(self, tmp_path):
        job = self._finished()
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.record_job(job)
        journal.close()
        line = (tmp_path / "jobs.jsonl").read_text().splitlines()[1]
        expected = {"kind": "job", **job.to_dict(include_result=False),
                    "record": {"status": "ok"}, "permutation": self.PERMUTATION}
        assert line == json.dumps(expected, sort_keys=True)


class TestJobJournal:
    def test_write_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry()
        journal = JobJournal(path)
        jobs = [make_finished_job(registry, i) for i in range(3)]
        for job in jobs:
            journal.record_job(job)
        journal.close()
        replayed = JobJournal.replay(path)
        assert [j["id"] for j in replayed] == [j.id for j in jobs]
        assert replayed[0]["record"] == {"status": "ok", "n": 0}

    def test_replay_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry()
        journal = JobJournal(path)
        for i in range(3):
            journal.record_job(make_finished_job(registry, i))
        journal.close()
        path.write_bytes(path.read_bytes()[:-25])  # kill mid-append
        replayed = JobJournal.replay(path)
        assert [j["record"]["n"] for j in replayed] == [0, 1]

    def test_append_after_kill_trims_partial_line(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry()
        journal = JobJournal(path)
        for i in range(2):
            journal.record_job(make_finished_job(registry, i))
        journal.close()
        path.write_bytes(path.read_bytes()[:-10])  # partial final record
        journal = JobJournal(path)  # reopen as a restarted server would
        journal.record_job(make_finished_job(registry, 7))
        journal.close()
        # Every physical line must be valid JSON again — no spliced records.
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "header"
        assert [p["record"]["n"] for p in parsed[1:]] == [0, 7]

    def test_replay_of_missing_or_empty_journal_is_no_jobs(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text("")
        assert JobJournal.replay(path) == []

    def test_replay_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "header",
                                    "engine": "repro.batch"}) + "\n")
        with pytest.raises(ValueError, match="repro.serve header"):
            JobJournal.replay(path)

    def test_unknown_line_kinds_are_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry()
        journal = JobJournal(path)
        journal.record_job(make_finished_job(registry, 1))
        journal._write_line({"kind": "checkpoint", "at": 12.5})
        journal.record_job(make_finished_job(registry, 2))
        journal.close()
        assert [j["record"]["n"] for j in JobJournal.replay(path)] == [1, 2]


class TestServerJournalIntegration:
    def test_server_counts_replayed_jobs(self, tmp_path):
        from repro.serve import OrderingServer, ServeConfig

        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry()
        journal = JobJournal(path)
        for i in range(4):
            journal.record_job(make_finished_job(registry, i))
        journal.close()
        path.write_bytes(path.read_bytes()[:-15])  # killed mid-append

        server = OrderingServer(ServeConfig(journal=str(path)))
        try:
            assert server.replayed_jobs == 3
            assert server.statsz()["jobs"]["replayed_from_journal"] == 3
        finally:
            server.pool.shutdown()
            server.journal.close()

    def test_server_refuses_foreign_journal(self, tmp_path):
        from repro.serve import OrderingServer, ServeConfig

        path = tmp_path / "batch.jsonl"
        path.write_text(json.dumps({"kind": "header",
                                    "engine": "repro.batch"}) + "\n")
        with pytest.raises(ValueError, match="repro.serve header"):
            OrderingServer(ServeConfig(journal=str(path)))
