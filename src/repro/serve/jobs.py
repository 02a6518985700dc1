"""Job tracking and the stream-backed job journal of ``repro serve``.

Every admitted ``/v1/order`` request becomes a :class:`Job` — pollable at
``GET /v1/jobs/<id>`` whether the request was synchronous or asynchronous.
Jobs live in a bounded in-memory :class:`JobRegistry` (oldest finished jobs
evicted first, so a long-lived server cannot leak memory).

With ``--journal PATH.jsonl`` the server also appends one JSON line per
finished job — the same crash-tolerant JSONL discipline as the batch
engine's ``--stream-output``: a header line first, one flushed object per
event after, and read-back through
:func:`repro.batch.stream.read_jsonl_objects`, which tolerates exactly the
damage a killed process can cause (a truncated final line, even with
trailing blank bytes) and rejects genuine mid-file corruption.
"""

from __future__ import annotations

import itertools
import json
import secrets
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.batch.stream import TruncatedStreamError, read_jsonl_objects_partial

__all__ = ["Job", "JobJournal", "JobRegistry", "JOURNAL_SCHEMA_VERSION",
           "ReplayedJobs"]

#: Version of the journal line schema.
JOURNAL_SCHEMA_VERSION = 1

_ENGINE_NAME = "repro.serve"


@dataclass
class Job:
    """One tracked ordering request."""

    id: str
    key: str
    algorithm: str
    problem: str
    mode: str = "sync"
    state: str = "queued"           # "queued" -> "done"
    coalesced: bool = False
    created_s: float = field(default_factory=time.time)
    finished_s: float | None = None
    http_status: int | None = None
    record: dict | None = None      # TaskRecord.to_dict(include_timing=True)
    #: int64 array: a list of ints costs about 36 bytes an entry, and the
    #: registry keeps up to ``capacity`` finished jobs.
    permutation: np.ndarray | None = None

    def to_dict(self, *, include_result: bool = True) -> dict:
        payload = {
            "id": self.id,
            "key": self.key,
            "algorithm": self.algorithm,
            "problem": self.problem,
            "mode": self.mode,
            "state": self.state,
            "coalesced": self.coalesced,
            "created_s": self.created_s,
            "finished_s": self.finished_s,
            "http_status": self.http_status,
        }
        if include_result:
            payload["record"] = self.record
            payload["permutation"] = (None if self.permutation is None
                                      else self.permutation.tolist())
        return payload


class JobRegistry:
    """Bounded id -> :class:`Job` map (insertion-ordered eviction)."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        return len(self._jobs)

    def new_job(self, key: str, *, algorithm: str, problem: str,
                mode: str, coalesced: bool) -> Job:
        job_id = f"{next(self._counter):06d}-{secrets.token_hex(4)}"
        job = Job(id=job_id, key=key, algorithm=algorithm, problem=problem,
                  mode=mode, coalesced=coalesced)
        self._jobs[job_id] = job
        while len(self._jobs) > self.capacity:
            # Evict the oldest *finished* job; never drop one still pending.
            for candidate_id, candidate in self._jobs.items():
                if candidate.state == "done":
                    del self._jobs[candidate_id]
                    break
            else:
                break
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def finish(self, job: Job, *, http_status: int, record: dict | None,
               permutation) -> None:
        job.state = "done"
        job.finished_s = time.time()
        job.http_status = int(http_status)
        job.record = record
        job.permutation = (None if permutation is None
                           else np.asarray(permutation, dtype=np.int64))


class ReplayedJobs(list):
    """The job dictionaries replayed from a journal, plus loss accounting.

    Behaves exactly like the plain list :meth:`JobJournal.replay` used to
    return (so ``replayed == []`` and iteration keep working); ``skipped``
    counts the lines that did *not* replay — damaged/unparseable lines
    anywhere in the file and unknown line kinds — so the boot line and
    ``/statsz`` can report replayed and skipped separately instead of
    conflating them.
    """

    def __init__(self, jobs=(), *, skipped: int = 0):
        super().__init__(jobs)
        self.skipped = int(skipped)


class JobJournal:
    """Append-only JSONL journal of finished jobs (crash-tolerant on read).

    The write discipline matches :class:`repro.batch.stream.StreamWriter`:
    a header first, then one flushed line per event, and — when appending to
    a file a killed server left behind — the truncated tail is trimmed so
    new lines never splice into a partial record.
    """

    def __init__(self, path, *, append: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        exists = self.path.exists()
        if append and exists:
            data = self.path.read_bytes()
            if data and not data.endswith(b"\n"):
                self.path.write_bytes(data[: data.rfind(b"\n") + 1])
        self._file = self.path.open("a" if (append and exists) else "w")
        if not (append and exists and self.path.stat().st_size):
            self._write_line({
                "kind": "header",
                "engine": _ENGINE_NAME,
                "journal_schema": JOURNAL_SCHEMA_VERSION,
            })

    def _write_line(self, payload: dict, *, fault_key: str | None = None) -> None:
        if fault_key is not None:
            from repro import faults

            faults.flaky_io("journal.flaky", fault_key)
        self._file.write(json.dumps(payload, sort_keys=True) + "\n")
        self._file.flush()

    def record_job(self, job: Job, *, retries: int = 2) -> None:
        """Append one finished job (result included) and flush.

        Journal writes retry ``retries`` times on :class:`OSError` (a flaky
        volume, an injected ``journal.flaky`` fault) before giving up —
        losing a journal line degrades replay, so transient write failures
        are worth absorbing; the final failure propagates for the server to
        count.
        """
        payload = {"kind": "job", **job.to_dict()}
        for attempt in range(int(retries) + 1):
            try:
                self._write_line(payload, fault_key=f"{job.id}#a{attempt}")
                return
            except OSError:
                if attempt >= retries:
                    raise

    def close(self) -> None:
        self._file.close()

    @staticmethod
    def replay(path) -> "ReplayedJobs":
        """Read a journal back into its job dictionaries.

        Salvages every complete ``"job"`` line and *counts* what did not
        replay: damaged/unparseable lines anywhere in the file (a truncated
        final write, mid-file corruption) and unknown line kinds (forward
        compatibility) land in the returned list's ``skipped`` counter
        instead of being silently conflated with replayed records or — worse
        — killing the boot.  An empty or header-truncated journal replays as
        no jobs; a journal that does not start with a ``repro.serve`` header
        is rejected (unknown provenance must not be replayed).
        """
        try:
            parsed, skipped = read_jsonl_objects_partial(path)
        except TruncatedStreamError:
            return ReplayedJobs()
        header = parsed[0]
        if header.get("kind") != "header" or header.get("engine") != _ENGINE_NAME:
            raise ValueError(
                f"journal file {path} does not start with a repro.serve header"
            )
        jobs = []
        for line in parsed[1:]:
            if line.get("kind") == "job":
                jobs.append(line)
            else:
                skipped += 1
        return ReplayedJobs(jobs, skipped=skipped)
