"""Incremental JSONL result streaming — the crash-safe sink behind
``repro suite --stream-output`` / ``--resume``.

A suite run that dies halfway (OOM, preemption, Ctrl-C) loses nothing if its
records were streamed: each completed :class:`~repro.batch.results.TaskRecord`
is appended to a JSON-Lines file and flushed immediately, so the file is
readable at every instant of the run.  Re-running with ``--resume`` loads the
completed cells, validates that they belong to the same suite specification,
and executes only the remainder.

File format
-----------
One JSON object per line.  The first line is a header describing the suite
specification; every following line is one task record::

    {"kind": "header", "schema_version": 2, "engine": "repro.batch",
     "problems": [...], "algorithms": [...], "scale": 0.02, "base_seed": 0,
     "shard": null, "total_tasks": 12}
    {"kind": "record", "problem": "CAN1072", "algorithm": "spectral",
     "status": "ok", ...}

Record lines carry exactly the fields of the artifact schema's ``records``
entries (see ``docs/results-schema.md``), timing included.  A truncated final
line — the signature of a killed run — is ignored on read.

>>> header = stream_header(["POW9"], ["rcm"], scale=0.02, base_seed=0,
...                        shard=None, total_tasks=1)
>>> header["kind"], header["total_tasks"]
('header', 1)
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.batch.results import (
    SCHEMA_VERSION,
    SchemaVersionError,
    SuiteResult,
    TaskRecord,
    dedupe_records,
)

__all__ = [
    "StreamWriter",
    "TruncatedStreamError",
    "read_jsonl_objects",
    "read_jsonl_objects_partial",
    "read_stream",
    "read_stream_partial",
    "stream_header",
    "suite_from_stream",
    "validate_stream_header",
]

_ENGINE_NAME = "repro.batch"


class TruncatedStreamError(ValueError):
    """A stream file holding no complete line — a run killed during the very
    first (header) write, or an empty file.

    This is the *resumable* flavour of stream damage: the file carries no
    records, so a resuming run loses nothing by starting fresh and
    overwriting it.  Distinct from the plain :class:`ValueError` raised for
    genuine corruption (garbage lines, a missing header before real
    records), which must stop a resume rather than silently discard data.
    """


def stream_header(
    problems,
    algorithms,
    *,
    scale: float | None,
    base_seed: int,
    shard: tuple | None,
    total_tasks: int,
    balance: str = "roundrobin",
    cost_fingerprint: str | None = None,
) -> dict:
    """The header object written as the first line of a stream file.

    ``balance`` and ``cost_fingerprint`` pin *how the shard slice was
    chosen*: for a cost-balanced run
    (``--balance cost``), the slice depends on the cost model
    (:meth:`repro.batch.sched.CostModel.fingerprint`), so resuming under a
    different model — which would cover a different slice — must be
    rejected, not silently mixed.  Round-robin runs record
    ``cost_fingerprint=None``.
    """
    return {
        "kind": "header",
        "schema_version": SCHEMA_VERSION,
        "engine": _ENGINE_NAME,
        "problems": list(problems),
        "algorithms": list(algorithms),
        "scale": scale,
        "base_seed": int(base_seed),
        "shard": None if shard is None else [int(shard[0]), int(shard[1])],
        "balance": str(balance),
        "cost_fingerprint": cost_fingerprint,
        "total_tasks": int(total_tasks),
    }


def validate_stream_header(header: dict, expected: dict) -> None:
    """Check that a stream file belongs to the suite about to run.

    ``expected`` is a header built by :func:`stream_header` from the current
    invocation.  Raises :exc:`SchemaVersionError` on an unreadable schema
    version and :exc:`ValueError` on any specification mismatch — resuming a
    different suite (or a different cost-balanced slice of the same suite)
    would silently drop tasks or mix seeds.

    Headers written before the scheduler existed carry no ``balance`` /
    ``cost_fingerprint`` keys; they are treated as round-robin, so old
    stream files still resume.
    """
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"stream file has schema version {version!r}; this build "
            f"streams version {SCHEMA_VERSION}"
        )
    for name in ("problems", "algorithms", "scale", "base_seed", "shard"):
        mine, theirs = expected.get(name), header.get(name)
        if mine != theirs:
            raise ValueError(
                f"stream file was written for a different suite: "
                f"{name}={theirs!r} there vs {mine!r} now"
            )
    for name, default in (("balance", "roundrobin"), ("cost_fingerprint", None)):
        mine = expected.get(name, default) or default
        theirs = header.get(name, default) or default
        if mine != theirs:
            raise ValueError(
                f"stream file was written for a different shard plan: "
                f"{name}={theirs!r} there vs {mine!r} now (a cost-balanced "
                f"slice is only resumable under the same --balance and "
                f"cost model)"
            )


class StreamWriter:
    """Append-only JSONL sink; one flushed line per completed record.

    Use as a context manager.  ``append=True`` (the resume case: new records
    joining an existing file) skips the header line; a fresh file always
    starts with one.
    """

    def __init__(self, path, header: dict, append: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if append and self.path.exists():
            # A killed run may have left a truncated final line (no trailing
            # newline); appending after it would corrupt the next record.
            data = self.path.read_bytes()
            if data and not data.endswith(b"\n"):
                self.path.write_bytes(data[: data.rfind(b"\n") + 1])
        self._file = self.path.open("a" if append else "w")
        if not append:
            self._write_line(header)

    def _write_line(self, payload: dict) -> None:
        self._file.write(json.dumps(payload, sort_keys=True) + "\n")
        self._file.flush()

    def write_record(self, record: TaskRecord) -> None:
        """Append one task record (timing included) and flush."""
        self._write_line({"kind": "record", **record.to_dict(include_timing=True)})

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl_objects(path) -> list[dict]:
    """Parse a JSONL file into its complete object lines, tolerating exactly
    the damage a killed appender can cause.

    The tolerant reader behind :func:`read_stream` (``--resume``); the
    ``repro serve`` job journal is replayed with
    :func:`read_jsonl_objects_partial` instead.  A killed process's final
    ``write`` may have flushed any prefix of its last line — including, on
    some filesystems, a prefix followed by stray newline bytes from a torn
    buffered write — so the **final non-blank line** being malformed JSON is
    treated as that truncated tail and dropped, wherever trailing blank
    lines put it.  A malformed line with complete lines after it is genuine
    corruption and raises.

    Raises
    ------
    TruncatedStreamError
        When the file holds no complete line at all (empty, or killed
        during its very first write) — the *resumable* flavour of damage.
    ValueError
        When any line other than the final non-blank one is malformed, or a
        complete line is not a JSON object (genuine corruption).
    OSError
        When the file cannot be read at all.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise TruncatedStreamError(
            f"stream file {path} is empty (no records to resume; "
            f"the previous run was killed before its header write completed)"
        )
    last_content = max(
        (number for number, line in enumerate(lines, start=1) if line.strip()),
        default=0,
    )
    parsed = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if number == last_content:
                break  # truncated final write of a killed run
            raise ValueError(
                f"stream file {path} is corrupt: malformed JSON on line "
                f"{number} (only the final line may be truncated)"
            ) from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"stream file {path} is corrupt: line {number} is not a "
                f"JSON object"
            )
        parsed.append(payload)
    if not parsed:
        # Every line was blank or a truncated final write: the signature of
        # a process killed during its very first write.  Nothing was lost,
        # so report the resumable flavour of damage, not corruption.
        raise TruncatedStreamError(
            f"stream file {path} has no complete line (the previous writer "
            f"was killed during its first write); starting fresh is safe"
        )
    return parsed


def read_jsonl_objects_partial(path) -> tuple[list[dict], int]:
    """Parse a JSONL file salvaging every complete object line:
    ``(objects, dropped)``.

    The *lossy* sibling of :func:`read_jsonl_objects` for callers that asked
    to keep going past damage (``repro merge --allow-partial``, the server
    journal's replay accounting): malformed lines and non-object lines
    anywhere in the file are skipped and **counted** instead of raising, so
    the caller can report exactly how much was lost.

    Raises
    ------
    TruncatedStreamError
        When the file holds no complete object line at all — there is
        nothing to salvage.
    OSError
        When the file cannot be read at all.
    """
    lines = Path(path).read_text().splitlines()
    parsed: list[dict] = []
    dropped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            dropped += 1
            continue
        if not isinstance(payload, dict):
            dropped += 1
            continue
        parsed.append(payload)
    if not parsed:
        raise TruncatedStreamError(
            f"stream file {path} has no complete line to salvage"
        )
    return parsed, dropped


def read_stream(path) -> tuple[dict, list[TaskRecord]]:
    """Read a stream file back: ``(header, records)``.

    Tolerates exactly the damage a killed run can cause — a truncated final
    line, wherever trailing blank lines leave it (see
    :func:`read_jsonl_objects`) — and rejects anything else (missing or
    malformed header, garbage in the middle) as a corrupt file.

    Raises
    ------
    TruncatedStreamError
        When the file holds no complete line at all — empty, or killed
        during the first (header) write.  The file carries no records, so
        callers may treat this as "nothing to resume" and start fresh.
    ValueError
        When the file does not start with a header line or has a malformed
        line anywhere but the end (genuine corruption — not resumable).
    OSError
        When the file cannot be read at all.
    """
    parsed = read_jsonl_objects(path)
    if parsed[0].get("kind") != "header":
        raise ValueError(
            f"stream file {path} does not start with a header line"
        )
    header = parsed[0]
    records = []
    for payload in parsed[1:]:
        if payload.get("kind") != "record":
            raise ValueError(
                f"stream file {path} contains an unknown line kind "
                f"{payload.get('kind')!r}"
            )
        try:
            records.append(TaskRecord.from_dict(payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"stream file {path} is corrupt: invalid record line "
                f"({type(exc).__name__}: {exc})"
            ) from None
    return header, records


def read_stream_partial(path) -> tuple[dict, list[TaskRecord], int]:
    """Read a damaged stream file salvaging complete records:
    ``(header, records, dropped)``.

    The ``--allow-partial`` backend: where :func:`read_stream` rejects a
    malformed mid-file line as corruption, this salvages every complete,
    valid record line and counts the rest (malformed JSON, unknown kinds,
    invalid record payloads) as dropped.  The header must still be the first
    parseable object — a stream whose provenance is unreadable cannot be
    merged safely at any tolerance level.

    Raises
    ------
    TruncatedStreamError
        When the file holds no complete line at all.
    ValueError
        When the first parseable line is not a header (unknown provenance).
    OSError
        When the file cannot be read at all.
    """
    parsed, dropped = read_jsonl_objects_partial(path)
    if parsed[0].get("kind") != "header":
        raise ValueError(
            f"stream file {path} does not start with a header line"
        )
    header = parsed[0]
    records = []
    for payload in parsed[1:]:
        if payload.get("kind") != "record":
            dropped += 1
            continue
        try:
            records.append(TaskRecord.from_dict(payload))
        except (KeyError, TypeError, ValueError):
            dropped += 1
    return header, records, dropped


def suite_from_stream(path, *, allow_partial: bool = False) -> SuiteResult:
    """Read a stream file into a :class:`~repro.batch.results.SuiteResult`.

    The specification comes from the header; retried cells — a timeout
    record superseded by a later attempt, the ``--retry-timeouts`` stream
    shape — are deduped to the **final** attempt
    (:func:`repro.batch.results.dedupe_records`).  This is what lets
    ``repro merge`` accept ``.jsonl`` stream files alongside JSON shard
    artifacts: an interrupted or retried stream still reduces to at most
    one record per cell.

    Timing aggregates are stream-level: ``wall_time_s`` sums the retained
    records' ``time_s`` (the per-machine wall time was never recorded in
    the stream).  Raises the same errors as :func:`read_stream`, plus
    :exc:`SchemaVersionError` for a header this build cannot read.

    ``allow_partial=True`` (the ``repro merge --allow-partial`` path)
    salvages a stream with damaged mid-file or torn trailing lines instead
    of raising: complete records are kept, the dropped-line count is
    recorded on the result (``partial={"dropped_lines": N}``) and surfaces
    in the merged artifact.
    """
    if allow_partial:
        header, records, dropped = read_stream_partial(path)
    else:
        header, records = read_stream(path)
        dropped = 0
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"stream file {path} has schema version {version!r}; this build "
            f"streams version {SCHEMA_VERSION}"
        )
    shard = header.get("shard")
    records = dedupe_records(records)
    return SuiteResult(
        problems=list(header.get("problems", [])),
        algorithms=list(header.get("algorithms", [])),
        scale=header.get("scale"),
        base_seed=int(header.get("base_seed", 0)),
        records=records,
        wall_time_s=float(sum(record.time_s for record in records)),
        shard=None if shard is None else (int(shard[0]), int(shard[1])),
        partial={"dropped_lines": dropped} if dropped else None,
    )
